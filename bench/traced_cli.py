"""Run the ``aligndet`` CLI with span and counter recording around its layers.

Usage::

    python3 bench/traced_cli.py --trace-out spans.json <aligndet arguments>

Wrappers are installed on the public functions of ``cli``, ``pipeline``,
``detection``, ``linalg``, ``alignment``, ``evaluation`` and ``dataio``
before the command runs; nothing in ``src/`` is modified.  Modules import
functions by name, so each function is wrapped in the namespace that calls
it (``aligndet.pipeline.greedy_nms`` rather than only
``aligndet.detection.greedy_nms``).

Spans are kept in memory and written once, after the command returns, as
``{"exit_code", "spans": [[name, start, end, parent], ...], "counters"}``
where ``parent`` is the index of the enclosing span or -1.  ``iou`` is
called millions of times on dense inputs, so it only increments counters;
its time lands in its caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from types import SimpleNamespace


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(bound_args, result)`` may add counters after each call.
        """
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.counters[f"{name}.calls"] += 1
            if count is not None:
                count(sig.bind(*args, **kwargs).arguments, result)
            return result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        counters = self.counters
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def install(rec: Recorder) -> None:
    """Wrap every traced layer function of ``aligndet``."""
    from aligndet import cli, dataio, detection, evaluation, pipeline

    c = rec.counters

    def nms_counts(a, result):
        c["detection.greedy_nms.in"] += len(a["dets"])
        c["detection.greedy_nms.kept"] += len(result)

    def rows_counter(name):
        def count(a, result):
            c[f"{name}.rows"] += result.shape[0]

        return count

    def pca_counts(a, result):
        n, dim = a["X"].shape
        method = a.get("method", "auto")
        if method == "gram" or (method == "auto" and dim > n):
            c["linalg.pca.gram_calls"] += 1

    def bytes_counter(key):
        def count(a, result):
            c[key] += os.path.getsize(a["path"])

        return count

    rec.wrap(pipeline, "train_detector", "detection.train_detector")
    train = pipeline.train_detector

    # train_detector fills its public ``record`` list (one entry per mining
    # round) only when given one; the pipeline never passes it.
    def train_with_record(pos, neg, cfg, **kwargs):
        record = kwargs.setdefault("record", [])
        result = train(pos, neg, cfg, **kwargs)
        c["detection.train_detector.rounds"] += len(record)
        c["detection.train_detector.cache_rows"] += len(record[-1]["cache"])
        c["detection.train_detector.row_iters"] += sum(
            (len(pos) + len(r["cache"])) * cfg.iterations for r in record
        )
        return result

    pipeline.train_detector = train_with_record
    rec.wrap(pipeline, "greedy_nms", "detection.greedy_nms", nms_counts)
    for name in (
        "solve_alignment",
        "aligned_source_basis",
        "project_for_training",
        "project_for_testing",
    ):
        rec.wrap(pipeline, name, f"alignment.{name}")
    rec.wrap(pipeline, "normalize", "linalg.normalize")
    rec.wrap(pipeline, "pca", "linalg.pca", pca_counts)
    for name in ("train_initial_detectors", "adapt", "detect"):
        rec.wrap(pipeline, name, f"pipeline.{name}")
    for name in ("mine_source_positives", "mine_target_positives"):
        rec.wrap(pipeline, name, f"pipeline.{name}", rows_counter(f"pipeline.{name}"))

    for name in ("average_precision", "similarity_matrix", "score_histogram"):
        rec.wrap(evaluation, name, f"evaluation.{name}")
    for name in ("render_histogram_svg", "render_similarity_svg"):
        rec.wrap(evaluation, name, "evaluation.render_svg")
    rec.wrap(evaluation, "subspace_similarity", "linalg.subspace_similarity")

    for name in ("load_dataset", "load_states", "save_detectors", "read_detections_csv"):
        rec.wrap(dataio, name, f"dataio.{name}")
    rec.wrap(dataio, "save_states", "dataio.save_states",
             bytes_counter("dataio.states_bytes"))
    rec.wrap(dataio, "write_detections_csv", "dataio.write_detections_csv",
             bytes_counter("dataio.detections_bytes"))

    rec.count_calls(detection, "iou", "detection.iou")
    rec.count_calls(pipeline, "iou", "pipeline.iou")
    rec.count_calls(evaluation, "iou", "evaluation.iou")

    # ``main`` dispatches through this table, not through module attributes.
    for command in list(cli._COMMANDS):
        holder = SimpleNamespace(fn=cli._COMMANDS[command])
        rec.wrap(holder, "fn", f"cli.{command}")
        cli._COMMANDS[command] = holder.fn


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: traced_cli.py --trace-out FILE <aligndet args>", file=sys.stderr)
        return 1
    out_path, cli_args = argv[1], argv[2:]
    rec = Recorder()
    install(rec)
    from aligndet import cli

    code = cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"exit_code": code, **rec.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

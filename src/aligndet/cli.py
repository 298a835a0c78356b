"""Command-line driver for the adaptation pipeline.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import dataio, evaluation, pipeline
from .dataio import Annotations, RunConfig, canonical_json, config_echo, load_config
from .datasets import Dataset
from .detection import Detections
from .errors import DataError, NumericalError

log = logging.getLogger("aligndet")

AP_CONVENTION = "all-points interpolation"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process (parsing keeps it)."""
    parser = _Parser(
        prog="aligndet",
        description=(
            "Subspace-alignment domain adaptation for object detectors "
            "operating on precomputed proposal features."
        ),
    )
    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate synthetic datasets")
    p = sub.add_parser("train", parents=[common], help="train initial detectors")
    p.add_argument("--source", required=True, help="source manifest path")
    p = sub.add_parser("detect", parents=[common], help="run detectors on a dataset")
    p.add_argument("--dataset", required=True, help="manifest path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--detectors", help="raw detector bundle")
    group.add_argument("--states", help="adaptation state bundle")
    p = sub.add_parser("adapt", parents=[common], help="run subspace adaptation")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p = sub.add_parser("evaluate", parents=[common], help="AP/mAP report")
    p.add_argument("--detections", required=True, help="detections CSV")
    p.add_argument("--dataset", required=True, help="labeled manifest path")
    p = sub.add_parser("analyze", parents=[common], help="similarity + histograms")
    p.add_argument("--states", required=True)
    p.add_argument("--detections", help="optional detections CSV for a histogram")
    sub.add_parser("pipeline", parents=[common], help="full end-to-end run")
    return parser


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_histogram(out: Path, name: str, scores, cfg: RunConfig, title: str) -> None:
    hist = evaluation.score_histogram(scores, cfg.hist_bins, (cfg.hist_lo, cfg.hist_hi))
    (out / f"{name}.json").write_text(canonical_json(hist.to_dict()))
    (out / f"{name}.svg").write_text(evaluation.render_histogram_svg(hist, title))


def _synth(cfg: RunConfig, out: Path) -> tuple[Path, Path]:
    """Write the synthetic source and target; return their manifests."""
    source, target, _ = dataio.generate_synthetic(cfg.synth)
    return (
        dataio.save_dataset(source, out / "source"),
        dataio.save_dataset(target, out / "target"),
    )


def _check_detections(path, dets: Detections, dataset: Annotations) -> None:
    """Reject detections of a class or image the dataset does not have: AP
    would drop the class or count the image's rows as false positives.  The
    first such row is reported, its class checked before its image."""
    gt = dataset.ground_truths
    bad = dets.outside(gt.class_ids, gt.image_ids)
    if not bad.any():
        return
    row = int(bad.argmax())
    class_id = dets.class_ids[dets.class_index[row]]
    if class_id not in gt.class_ids:
        unknown = f"class '{class_id}'"
    else:
        unknown = f"image id '{dets.image_ids[dets.image_index[row]]}'"
    raise DataError(
        f"detections file '{path}' names {unknown}, "
        f"which dataset '{dataset.name}' does not have"
    )


def _write_similarity(out: Path, states) -> dict[str, float]:
    """Write the similarity matrix of the classes that carry subspaces and
    return its diagonal; write nothing and return {} when none does."""
    if all(s.source_subspace is None for s in states.values()):
        return {}
    sim = evaluation.similarity_matrix(states)
    (out / "similarity.json").write_text(canonical_json(sim.to_dict()))
    (out / "similarity.svg").write_text(
        evaluation.render_similarity_svg(sim, "source vs target subspaces")
    )
    return sim.diagonal()


def _weak_classes(diag: dict[str, float], ratio: float) -> list[str]:
    if not diag:
        return []
    mean = float(np.mean(list(diag.values())))
    return sorted(c for c, v in diag.items() if v < ratio * mean)


@contextmanager
def _timed(timing: dict[str, float], key: str):
    """Record the wall time of the block under ``timing[key]``."""
    t0 = time.perf_counter()
    yield
    timing[key] = time.perf_counter() - t0


@contextmanager
def _logged(warnings: list[str]):
    """Log at WARNING level each warning the block appends to ``warnings``."""
    start = len(warnings)
    yield
    for warning in warnings[start:]:
        log.warning("%s", warning)


def _train(source: Dataset, cfg: RunConfig, out: Path, warnings: list[str]):
    with _logged(warnings):
        detectors = pipeline.train_initial_detectors(source, cfg.adaptation, warnings)
    dataio.save_detectors(out / "detectors.json", detectors, warnings)
    log.info("trained %d detectors", len(detectors))
    return detectors


def _adapt(
    source: Dataset,
    target: Dataset,
    cfg: RunConfig,
    out: Path,
    warnings: list[str],
    detectors: dict,
    target_scores: np.ndarray,
):
    with _logged(warnings):
        states = pipeline.adapt(
            source, target, cfg.adaptation, detectors, target_scores, warnings
        )
    dataio.save_states(out / "states.json", states, warnings)
    log.info("adapted %d classes (%s mode)", len(states), cfg.adaptation.mode)
    return states


def _detect(dataset: Dataset, states, cfg: RunConfig, out: Path):
    dets = pipeline.detect(dataset, states, cfg.adaptation)
    dataio.write_detections_csv(out / "detections.csv", dets)
    log.info("wrote %d detections", len(dets))
    return dets


def _report(dets, classes: list[str], gts, cfg: RunConfig) -> dict:
    """Per-class AP against the ground truth ``gts`` and their mean, which
    is None when no class has GT (or ``gts`` is None: the dataset is not
    fully labeled), with the AP convention and the config echo."""
    per_class = {
        c: None if gts is None else evaluation.average_precision(dets, gts, c)
        for c in classes
    }
    defined = any(ap is not None for ap in per_class.values())
    return {
        "ap_convention": AP_CONVENTION,
        "per_class": {c: {"ap": ap} for c, ap in per_class.items()},
        "mean_ap": evaluation.mean_ap(per_class) if defined else None,
        "config": config_echo(cfg),
    }


def cmd_synth(args, cfg: RunConfig, out: Path) -> int:
    log.info("wrote %s and %s", *_synth(cfg, out))
    return 0


def cmd_train(args, cfg: RunConfig, out: Path) -> int:
    _train(dataio.load_dataset(args.source), cfg, out, [])
    return 0


def cmd_detect(args, cfg: RunConfig, out: Path) -> int:
    dataset = dataio.load_dataset(args.dataset)
    if args.detectors:
        states = pipeline.passthrough_states(dataio.load_detectors(args.detectors))
    else:
        states = dataio.load_states(args.states)
    _detect(dataset, states, cfg, out)
    return 0


def cmd_adapt(args, cfg: RunConfig, out: Path) -> int:
    source = dataio.load_dataset(args.source)
    target = dataio.load_dataset(args.target)
    warnings: list[str] = []
    with _logged(warnings):
        detectors = pipeline.train_initial_detectors(source, cfg.adaptation, warnings)
    scores = pipeline.raw_score_rows(target, detectors.values())
    _adapt(source, target, cfg, out, warnings, detectors, scores)
    return 0


def cmd_evaluate(args, cfg: RunConfig, out: Path) -> int:
    """Score a detections file against a manifest's ground truth; the
    dataset's feature and boxes files are not read."""
    dataset = dataio.load_annotations(args.dataset)
    gts = dataset.ground_truths
    if gts is None:
        raise DataError(f"dataset '{dataset.name}' has no ground truth to score")
    dets = dataio.read_detections_csv(args.detections)
    _check_detections(args.detections, dets, dataset)
    report = _report(dets, gts.class_ids, gts, cfg)
    (out / "report.json").write_text(canonical_json(report))
    return 0


def cmd_analyze(args, cfg: RunConfig, out: Path) -> int:
    _write_similarity(out, dataio.load_states(args.states))
    if args.detections:
        scores = dataio.read_detections_csv(args.detections).scores
        _write_histogram(out, "histogram_detections", scores, cfg, "detection scores")
    return 0


def cmd_pipeline(args, cfg: RunConfig, out: Path) -> int:
    """The stage functions of ``train``, ``adapt``, ``detect`` and
    ``evaluate`` in one process, plus the initial-score histograms, the
    similarity files and the adaptation fields of the report."""
    timing: dict[str, float] = {}
    with _timed(timing, "data"):
        manifests = cfg.source_manifest, cfg.target_manifest
        if any(manifests) and not all(manifests):
            raise DataError("source_manifest and target_manifest must be set together")
        if not any(manifests):
            # Reload from disk so the saved artifacts are exactly what ran.
            manifests = _synth(cfg, out)
        source, target = map(dataio.load_dataset, manifests)

    warnings: list[str] = []
    with _timed(timing, "train_initial"):
        detectors = _train(source, cfg, out, warnings)

    with _timed(timing, "histograms"):
        for name, dataset in (("source", source), ("target", target)):
            scores = pipeline.raw_score_rows(dataset, detectors.values())
            _write_histogram(
                out, f"histogram_{name}", scores.ravel(), cfg,
                f"initial detector scores on {name}",
            )

    with _timed(timing, "adapt"):
        # ``scores`` is the target's (k, n) matrix, the last the loop made.
        states = _adapt(source, target, cfg, out, warnings, detectors, scores)

    with _timed(timing, "detect"):
        dets = _detect(target, states, cfg, out)

    with _timed(timing, "evaluate"):
        gts = target.ground_truths if target.labeled else None
        report = _report(dets, target.classes, gts, cfg)
        diag = _write_similarity(out, states)
        weak = _weak_classes(diag, cfg.weak_ratio)
        for c, entry in report["per_class"].items():
            for key in ("n_pos_src", "n_pos_tgt", "downgraded"):
                entry[key] = getattr(states.get(c), key, None)
            entry.update(similarity_diag=diag.get(c), weak=c in weak)
        report.update(
            mode=cfg.adaptation.mode,
            weak_classes=weak,
            downgraded_classes=sorted(c for c, s in states.items() if s.downgraded),
            pass_through_classes=sorted(
                c for c, s in states.items() if s.mode == "none"
            ),
            warnings=warnings,
        )
        (out / "report.json").write_text(canonical_json(report))
    # Timing lives outside report.json so reports stay byte-reproducible.
    (out / "timing.json").write_text(canonical_json(timing))
    if report["mean_ap"] is not None:
        log.info("mode=%s mean AP = %.4f", cfg.adaptation.mode, report["mean_ap"])
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "detect": cmd_detect,
    "adapt": cmd_adapt,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg, _outdir(args))
    except DataError as exc:
        print(f"aligndet: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"aligndet: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

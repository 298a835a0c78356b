"""The per-layer benchmark run (``bench/traced_cli.py``) wraps pipeline
functions by name; a rename in the package must fail here, not only in the
benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY_CFG = """
d = 3
train_iterations = 50
synth_classes = 2
synth_samples = 20
"""


def test_traced_pipeline_records_layer_spans(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "traced_cli.py"),
            "--trace-out",
            str(spans_path),
            "pipeline",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
        ],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["exit_code"] == 0
    names = {span[0] for span in trace["spans"]}
    expected = {
        "alignment.solve_alignment",
        "alignment.aligned_source_basis",
        "alignment.project_for_training",
        "alignment.project_for_testing",
        "linalg.pca",
        "linalg.normalize",
        "detection.greedy_nms",
    }
    assert expected <= names, sorted(expected - names)
    # The NMS counters read ``greedy_nms``'s ``dets`` argument and its result.
    counters = trace["counters"]
    rows = (tmp_path / "out" / "detections.csv").read_text().splitlines()[1:]
    assert counters["detection.greedy_nms.kept"] == len(rows) > 0
    assert counters["detection.greedy_nms.kept"] <= counters["detection.greedy_nms.in"]

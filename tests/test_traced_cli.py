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


def _traced(tmp_path, spans_path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "traced_cli.py"),
            "--trace-out",
            str(spans_path),
            *args,
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
    return trace


def test_traced_pipeline_records_layer_spans(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG)
    out = tmp_path / "out"
    trace = _traced(
        tmp_path,
        tmp_path / "spans.json",
        "pipeline",
        "--config",
        str(cfg),
        "--out",
        str(out),
    )
    names = {span[0] for span in trace["spans"]}
    expected = {
        "alignment.solve_alignment",
        "alignment.aligned_source_basis",
        "alignment.project_for_training",
        "alignment.project_for_testing",
        "linalg.pca",
        "linalg.normalize",
        "detection.greedy_nms",
        "dataio.save_detectors",
        "dataio.save_states",
    }
    assert expected <= names, sorted(expected - names)
    # The NMS counters read ``greedy_nms``'s ``dets`` argument and its result.
    counters = trace["counters"]
    rows = (out / "detections.csv").read_text().splitlines()[1:]
    assert counters["detection.greedy_nms.kept"] == len(rows) > 0
    assert counters["detection.greedy_nms.kept"] <= counters["detection.greedy_nms.in"]
    # ``states_bytes`` reads ``save_states``'s ``path`` argument.
    assert counters["dataio.states_bytes"] == (out / "states.json").stat().st_size > 0

    # The bench's detect stage: the saved states score like the live ones.
    trace = _traced(
        tmp_path,
        tmp_path / "detect_spans.json",
        "detect",
        "--config",
        str(cfg),
        "--dataset",
        str(out / "target" / "manifest.json"),
        "--states",
        str(out / "states.json"),
        "--out",
        str(tmp_path / "detected"),
    )
    assert "dataio.load_states" in {span[0] for span in trace["spans"]}
    assert (tmp_path / "detected" / "detections.csv").read_bytes() == (
        out / "detections.csv"
    ).read_bytes()

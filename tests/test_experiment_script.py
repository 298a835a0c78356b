"""``scripts/run_synthetic_experiment.py`` runs end to end on a tiny config;
nothing else runs it, so an API change that breaks it must fail here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TINY_CFG = """
train_iterations = 100
synth_classes = 2
synth_samples = 30
"""


@pytest.mark.parametrize(
    "d_line, flags",
    [("d = 4\n", []), ("", ["--d", "4"])],
    ids=["d-in-config", "d-flag-with-config"],
)
def test_experiment_script_prints_mean_ap(tmp_path, d_line, flags):
    # The config without d would adapt at the stock d = 100, which exceeds
    # its 30-dim features: --d must apply with a config too.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(d_line + TINY_CFG)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "run_synthetic_experiment.py"),
            "--config",
            str(cfg),
            *flags,
        ],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    mean_lines = [l for l in proc.stdout.splitlines() if l.startswith("mean AP")]
    assert len(mean_lines) == 1, proc.stdout
    # one percentage per adaptation mode: none, full-image, class-specific
    values = [float(v.rstrip("%")) for v in mean_lines[0].split()[2:]]
    assert len(values) == 3
    assert all(0.0 <= v <= 100.0 for v in values)

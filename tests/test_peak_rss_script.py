"""``scripts/peak_rss.py`` runs one ``aligndet`` command per environment
size on a tiny config and reports each run's peak RSS; nothing else runs
it, so a change that breaks it must fail here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "peak_rss.py"

TINY_CFG = """
synth_classes = 2
synth_samples = 20
synth_dim = 8
synth_latent = 4
"""


def run_script(tmp_path, *args):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the script puts its own src first
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_reports_peak_rss_per_layout(tmp_path):
    (tmp_path / "tiny.cfg").write_text(TINY_CFG)
    proc = run_script(
        tmp_path, "--layouts", "2", "--step", "500", "--",
        "synth", "--config", "tiny.cfg", "--out", "data", "--log-level", "warning",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("layout 0: pad 0 B, exit 0, peak RSS ")
    assert lines[1].startswith("layout 1: pad 500 B, exit 0, peak RSS ")
    report = json.loads(lines[-1])
    assert report["command"][0] == "synth"
    assert report["pad_bytes"] == [0, 500]
    assert len(report["peak_rss_mb"]) == 2
    assert all(0 < rss < 4096 for rss in report["peak_rss_mb"])
    assert (tmp_path / "data" / "source" / "manifest.json").is_file()


def test_failing_command_exits_1(tmp_path):
    proc = run_script(
        tmp_path, "--layouts", "1", "--",
        "detect", "--dataset", "absent.json", "--detectors", "absent.json",
        "--out", "out",
    )
    assert proc.returncode == 1
    assert "exit 2" in proc.stdout.splitlines()[0]


def test_bad_usage_exits_2(tmp_path):
    assert run_script(tmp_path, "--layouts", "0", "--", "synth").returncode == 2

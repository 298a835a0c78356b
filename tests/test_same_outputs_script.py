"""``scripts/same_outputs.py`` compares the output files of two checkouts
on the benchmark workloads; run against this checkout itself it must find
no difference, and its comparison must see one where there is one."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "same_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_this_checkout_writes_the_same_dense_outputs_as_itself(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), "--workloads", "dense",
         "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, rule, row = proc.stdout.splitlines()
    assert header == "| workload | files compared | differing files |"
    assert row.startswith("| dense | ") and row.endswith(" | none |")
    # Every command ran on both sides: a report from `evaluate` on each.
    for side in ("base", "head"):
        assert (tmp_path / side / "dense" / "evaluate" / "report.json").is_file()
        assert (tmp_path / side / "dense" / "run" / "timing.json").is_file()


def test_differences_name_changed_and_one_sided_files(tmp_path):
    script = load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_text("x\n")
    (a / "run" / "changed.json").write_text("1\n")
    (b / "run" / "changed.json").write_text("2\n")
    (a / "run" / "timing.json").write_text("1\n")
    (b / "run" / "timing.json").write_text("2\n")
    (a / "only_a.txt").write_text("")
    (b / "run" / "only_b.txt").write_text("")
    assert script.differences(a, b) == [
        "only_a.txt (base only)", "run/changed.json", "run/only_b.txt (head only)",
    ]
    assert script.differences(a, a) == []


def test_workloads_are_the_benchmarks():
    assert set(load_script().workloads()) == {"accept", "dense", "wide"}

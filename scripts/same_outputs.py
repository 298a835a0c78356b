#!/usr/bin/env python3
"""Whether this checkout writes the same output files as another one.

Usage::

    python3 scripts/same_outputs.py BASE_CHECKOUT [--workloads NAME ...] [--work DIR]

For each benchmark workload (``WORKLOADS`` of ``bench/run.py``, read from its
source without running it) the script runs ``synth``, ``pipeline``,
``detect --states`` and ``evaluate`` once under ``BASE_CHECKOUT/src`` and once
under this checkout's ``src``.  Each side runs in its own directory,
``<work>/base/<workload>`` or ``<work>/head/<workload>``, with relative paths
only, so both sides see paths of the same length.  Every output file is then
compared byte for byte, ``timing.json`` excepted (wall times differ from run
to run).

It prints one Markdown table row per workload, naming the files that differ
or exist on one side only.  The exit status is 0 when every file is the same,
1 when some differ and 2 when a command fails.
"""

from __future__ import annotations

import argparse
import ast
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET_MANIFEST = "data/target/manifest.json"
COMMANDS = [
    ["synth", "--out", "data"],
    ["pipeline", "--out", "run"],
    ["detect", "--dataset", TARGET_MANIFEST, "--states", "run/states.json",
     "--out", "detect"],
    ["evaluate", "--dataset", TARGET_MANIFEST, "--detections", "run/detections.csv",
     "--out", "evaluate"],
]
SKIPPED = {"timing.json"}


def workloads() -> dict[str, dict]:
    """``WORKLOADS`` of ``bench/run.py``, a literal in its source."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit("bench/run.py defines no WORKLOADS")


def run_side(src: Path, work: Path, config: dict) -> str | None:
    """Run every command of ``COMMANDS`` in ``work`` with ``src`` on the
    path; the first failure's description, or None."""
    work.mkdir(parents=True)
    lines = [f"{k} = {v}" for k, v in config.items()]
    lines += ["source_manifest = data/source/manifest.json",
              f"target_manifest = {TARGET_MANIFEST}"]
    (work / "run.cfg").write_text("\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for args in COMMANDS:
        cmd = [sys.executable, "-m", "aligndet.cli", *args, "--config", "run.cfg",
               "--log-level", "warning"]
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            return f"`{args[0]}` exited {proc.returncode}: {last}"
    return None


def files(root: Path) -> set[str]:
    return {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name not in SKIPPED
    }


def differences(a: Path, b: Path) -> list[str]:
    """The files under ``a`` and ``b`` that differ or exist on one side only."""
    in_a, in_b = files(a), files(b)
    out = [f"{name} (base only)" for name in sorted(in_a - in_b)]
    out += [f"{name} (head only)" for name in sorted(in_b - in_a)]
    out += [
        name for name in sorted(in_a & in_b)
        if not filecmp.cmp(a / name, b / name, shallow=False)
    ]
    return sorted(out)


def main(argv=None) -> int:
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the checkout to compare against")
    parser.add_argument("--workloads", nargs="+", choices=sorted(table),
                        default=["accept", "dense", "wide"])
    parser.add_argument("--work", type=Path,
                        help="directory for the runs (default: a temporary one)")
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve() / "src", "head": ROOT / "src"}
    status = 0
    print("| workload | files compared | differing files |")
    print("|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        for name in args.workloads:
            dirs = {side: work / side / name for side in sides}
            failed = [
                f"{side}: {problem}"
                for side, src in sides.items()
                if (problem := run_side(src, dirs[side], table[name])) is not None
            ]
            if failed:
                print(f"| {name} | - | command failed: {'; '.join(failed)} |")
                status = 2
                continue
            diff = differences(dirs["base"], dirs["head"])
            count = len(files(dirs["base"]) | files(dirs["head"]))
            print(f"| {name} | {count} | {', '.join(diff) or 'none'} |")
            if diff:
                status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())

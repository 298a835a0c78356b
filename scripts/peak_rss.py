#!/usr/bin/env python3
"""Peak RSS of one ``aligndet`` command under several environment sizes.

A process's peak resident set can depend on where its heap allocations
land, and that shifts with the size of its environment: the same tree has
read 84.8 or 94.5 MiB on the benchmark's ``wide`` pipeline depending only on
the length of the checkout path.  This script runs one command in fresh
processes, each with an unused environment variable (``PEAK_RSS_PAD``)
padded to a different length, and reports each run's ``ru_maxrss`` as
``os.wait4`` returns it, so that a memory change can be checked in every
layout before it is claimed.

Usage::

    python3 scripts/peak_rss.py [--layouts K] [--step BYTES] -- <aligndet arguments>

Layout k pads the variable to ``k * step`` bytes.  The command runs as
``python3 -m aligndet.cli`` in the current directory, with the ``src``
directory of this checkout on ``PYTHONPATH`` and one BLAS thread; its
output goes to standard error.  Standard output gets one line per layout
and, last, one JSON object: the command, the pad sizes and each layout's
peak RSS in MiB.  Exits 0 when every run exits 0, 1 when one does not, and
2 on bad usage.

The benchmark's ``wide`` pipeline, for example::

    printf '%s\\n' 'd = 24' 'reg_lambda = 0.001' 'train_iterations = 300' \\
        'synth_dim = 1024' 'synth_latent = 32' 'synth_classes = 3' \\
        'synth_samples = 240' 'synth_separation = 20' \\
        'source_manifest = data/source/manifest.json' \\
        'target_manifest = data/target/manifest.json' > wide.cfg
    PYTHONPATH=src python3 -m aligndet.cli synth --config wide.cfg --out data
    python3 scripts/peak_rss.py --layouts 10 -- pipeline --config wide.cfg \\
        --out run --log-level warning
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PAD_VARIABLE = "PEAK_RSS_PAD"


def peak_rss_mb(command: list[str], env: dict[str, str]) -> tuple[int, float]:
    """Run ``command`` to its end; its exit code and peak RSS in MiB."""
    proc = subprocess.Popen(command, env=env, stdout=sys.stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # Linux: KiB


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Peak RSS of one aligndet command under several "
        "environment sizes."
    )
    parser.add_argument("--layouts", type=int, default=4, help="environment sizes (4)")
    parser.add_argument(
        "--step", type=int, default=1000, help="bytes of padding between layouts (1000)"
    )
    parser.add_argument("command", nargs="+", help="aligndet arguments, after --")
    args = parser.parse_args(argv)
    if args.layouts < 1 or args.step < 1:
        parser.error("--layouts and --step must be >= 1")

    command = [sys.executable, "-m", "aligndet.cli", *args.command]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPATH"] = path
    pads = [k * args.step for k in range(args.layouts)]
    peaks: list[float] = []
    failed = False
    for k, pad in enumerate(pads):
        env[PAD_VARIABLE] = "x" * pad
        code, rss = peak_rss_mb(command, env)
        failed |= code != 0
        peaks.append(round(rss, 2))
        print(f"layout {k}: pad {pad} B, exit {code}, peak RSS {rss:.2f} MiB")
    report = {"command": args.command, "pad_bytes": pads, "peak_rss_mb": peaks}
    print(json.dumps(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

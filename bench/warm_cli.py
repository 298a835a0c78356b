"""Run ``aligndet`` commands one after another in one warm process.

Usage::

    python3 bench/warm_cli.py

Each line of standard input is a JSON list of ``aligndet`` arguments.  The
command runs through ``aligndet.cli.main`` and one JSON line
``{"code": <exit code>, "wall": <seconds>}`` is written to standard output.
The interpreter start-up and the imports are paid once, before the first
command, so ``wall`` is the command's own work.  What the commands print goes
to standard error.  The process ends at the end of its input.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main() -> int:
    replies = sys.stdout
    sys.stdout = sys.stderr
    from aligndet import cli

    for line in sys.stdin:
        argv = json.loads(line)
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - t0
        replies.write(json.dumps({"code": code, "wall": wall}) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

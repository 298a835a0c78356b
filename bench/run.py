"""Benchmark of the ``aligndet`` command line on seeded synthetic workloads.

Usage::

    python3 bench/run.py --workload accept|dense|wide --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program under test is
``src/aligndet``, run as ``python3 -m aligndet.cli`` with ``src`` on
``PYTHONPATH``, one command at a time with one BLAS thread.  Scratch files go
to ``.bench_work/`` in the checkout and are removed at the end.

Every run first makes its inputs (the *set-up*): ``aligndet synth`` writes the
workload's synthetic source/target pair.  Then, with ``--trace 0``, it runs
``pipeline``, ``detect --states``, ``evaluate`` and further ``synth``
repetitions on the saved manifests, interleaved, until ``--seconds`` are
spent (see ``Bench.measure``).  ``setup_s`` is the median ``synth`` time and
the other times are trimmed means (see ``trimmed_mean``), all scaled to a
reference machine speed that a probe loop measures between the commands
(see ``probe``); the raw times are in the info line.  With ``--trace 1`` it
alternates an untraced ``pipeline`` with a traced ``pipeline``, ``detect``
and ``evaluate`` (see ``traced_cli.py``) and reports per-layer self times and
counts instead.

Why the seed does not pick the synthetic data: across generator seeds 0-7
the mean AP of ``accept`` ranges from 0.76 to 1.0 and its pipeline time
from 2.0 to 3.2 s (``dense`` and ``wide`` vary as much), so the seed would
change what is measured; and the acceptance band of ``accept`` is defined
for generator seed 0 only.  Each workload therefore uses the data of
generator seed 0, and ``--seed`` shuffles the image order of the target
manifest, a property the adapted detector must not depend on (the target
set is unlabeled and arrives in any order).  The source order stays put:
it sets the trainer's initial negative cache, and shuffling it moves
``accept`` out of its acceptance band.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the workload sizes and the output checks.  The
benchmark exits 2 without a result when ``src/aligndet`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED_CLI = HERE / "traced_cli.py"
WARM_CLI = HERE / "warm_cli.py"
TARGET_MANIFEST = "data/target/manifest.json"

# tests/test_acceptance.py: REFERENCE_ADAPTED_MAP and MAP_POINT.
LOCKED_ADAPTED_MAP = 0.927808
MAP_POINT = 0.01
# ``detect --states`` scores may differ from ``pipeline``'s in the last bits
# (the basis is rebuilt from JSON); anything larger is a defect.
SCORE_TOL = 1e-12
# ``measure`` interleaves the commands so that each gets about this share
# of the measuring time, and runs each at least this many times (the first
# ``detect`` and ``evaluate`` only warm their process up).
SHARES = {"synth": 0.1, "pipeline": 0.4, "detect": 0.3, "evaluate": 0.2}
MIN_RUNS = {"synth": 3, "pipeline": 2, "detect": 3, "evaluate": 3}
# The speed probe (see ``probe``) runs before a command when PROBE_EVERY_S
# seconds have passed since it last ran.  Times are reported at the machine
# speed at which it takes PROBE_REF_S seconds, about its median on the
# 2-vCPU x86_64 VM the workloads were sized on.
PROBE_ITERATIONS = 200_000
PROBE_REF_S = 0.016
PROBE_EVERY_S = 0.25
BLAS_THREADS = 1
# Every run must end within 180 s; commands still running then are killed.
RUN_DEADLINE_S = 165.0

# Config keys passed to ``aligndet`` (the ``key = value`` file format).  The
# generator seed is the default 0 for every workload (see module docstring).
WORKLOADS = {
    # The locked acceptance run of tests/test_acceptance.py: default synth
    # (30-dim, 5 classes x 200 positives, 10 object + 10 background boxes
    # per image).  Trainer-bound.
    "accept": {
        "d": 12,
        "reg_lambda": 0.001,
        "train_iterations": 3000,
    },
    # R-CNN-like proposal density: 40 object + 160 background boxes per
    # image (2 images per class) and no score cutoff, so every proposal
    # reaches greedy NMS; the global (full-image) subspace serves one large
    # pool.  NMS-bound.
    "dense": {
        "d": 12,
        "reg_lambda": 0.001,
        "train_iterations": 500,
        "mode": "full-image",
        "detect_thresh": -1000,
        "synth_pos_per_image": 40,
        "synth_neg_per_image": 160,
        "synth_samples": 80,
        "synth_corrupt": 1,
    },
    # Realistic feature width: 1024-dim features make PCA take the Gram path
    # and the D x d bases dominate states.json; 3 classes x 240 positives.
    # Trainer plus state I/O and linear algebra.
    "wide": {
        "d": 24,
        "reg_lambda": 0.001,
        "train_iterations": 300,
        "synth_dim": 1024,
        "synth_latent": 32,
        "synth_classes": 3,
        "synth_samples": 240,
        "synth_separation": 20,
    },
}

# The layer each workload is chosen to load, as a share of the traced
# ``pipeline`` run.  The traced run reports whether it still holds; it does
# not fail the run, since a later change may rightly shrink that layer.
ROLES = {
    "accept": ("share.train_detector", 0.5),
    "dense": ("share.greedy_nms", 0.5),
    "wide": ("share.dataio-linalg-alignment", 0.15),
}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "detect_props_per_s": "proposals/s",
    "evaluate_s": "s",
    "mean_ap": "1",
    "peak_rss_mb": "MiB",
    "artifact_bytes": "B",
    "success_ratio": "1",
}

# Per-layer self times, by span name (see traced_cli.py).
SELF_TIMES = [
    "cli.pipeline",
    "pipeline.train_initial_detectors",
    "pipeline.adapt",
    "pipeline.detect",
    "detection.train_detector",
    "detection.greedy_nms",
    "linalg.normalize",
    "linalg.pca",
    "linalg.subspace_similarity",
    "alignment.solve_alignment",
    "alignment.aligned_source_basis",
    "alignment.project_for_training",
    "alignment.project_for_testing",
    "evaluation.average_precision",
    "evaluation.similarity_matrix",
    "evaluation.score_histogram",
    "evaluation.render_svg",
    "dataio.load_dataset",
    "dataio.save_detectors",
    "dataio.save_states",
    "dataio.load_states",
    "dataio.write_detections_csv",
    "dataio.read_detections_csv",
]
# Target mining does not run in full-image mode, so its time is reported
# together with source mining (a time that reads 0 on every run of ``dense``
# would say nothing); the mined row counts stay separate.
MINING = ("pipeline.mine_source_positives", "pipeline.mine_target_positives")
COUNTERS = {
    "detection.train_detector.calls": "count",
    "detection.train_detector.rounds": "count",
    "detection.train_detector.row_iters": "count",
    "detection.train_detector.cache_rows": "count",
    "detection.greedy_nms.in": "count",
    "detection.greedy_nms.kept": "count",
    "detection.iou.calls": "count",
    "pipeline.iou.calls": "count",
    "evaluation.iou.calls": "count",
    "pipeline.mine_source_positives.rows": "count",
    "pipeline.mine_target_positives.rows": "count",
    "linalg.normalize.calls": "count",
    "linalg.pca.calls": "count",
    "linalg.pca.gram_calls": "count",
    "dataio.detections_bytes": "B",
    "dataio.states_bytes": "B",
}
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "pipeline.mine_positives.self_s": "s",
    **COUNTERS,
    "share.train_detector": "1",
    "share.greedy_nms": "1",
    "share.dataio-linalg-alignment": "1",
    "check.detect_score_diffs": "count",
    "trace.overhead": "1",
}


class Bench:
    """One benchmark run: its scratch directory, commands and check results."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.measure_start = 0.0
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Probe times of this run; ``measure`` turns probing on.
        self.probes: list[float] | None = None
        self.last_probe = float("-inf")
        self.worker: subprocess.Popen | None = None
        self.data_digest = ""
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(SRC),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
            TMPDIR=str(self.work),
        )

    # -- commands ---------------------------------------------------------

    def run(self, args: list[str], trace_out: Path | None = None) -> dict:
        """Run one ``aligndet`` command; returns exit code, wall time, peak RSS.

        The child is reaped with ``wait4`` so its own peak RSS is known.
        """
        self.attempted += 1
        self.sample_speed()
        if trace_out is None:
            cmd = [sys.executable, "-m", "aligndet.cli", *args]
        else:
            cmd = [sys.executable, str(TRACED_CLI), "--trace-out", str(trace_out), *args]
        cmd += ["--log-level", "warning"]
        reaped = []
        with open(self.work / "commands.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=self.env, cwd=self.work)

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                reaped.append((time.perf_counter(), status, usage))

            waiter = threading.Thread(target=reap)
            waiter.start()
            try:
                waiter.join(max(RUN_DEADLINE_S - self.elapsed(), 0.0))
            finally:
                # Past the deadline, or interrupted: stop the child and reap it.
                if waiter.is_alive():
                    proc.kill()
                    waiter.join()
            end, status, usage = reaped[0]
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = {
            "code": proc.returncode,
            "wall": end - t0,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu": usage.ru_utime + usage.ru_stime,
        }
        if proc.returncode != 0:
            self.fail(f"aligndet {args[0]} exited {proc.returncode}")
        return result

    def sample_speed(self, force: bool = False) -> None:
        """Time the probe loop, while no child runs, if it is due."""
        if self.probes is not None and (force or self.elapsed() - self.last_probe >= PROBE_EVERY_S):
            self.probes.append(probe())
            self.last_probe = self.elapsed()

    def run_warm(self, args: list[str]) -> dict:
        """Run one ``aligndet`` command in the warm worker (``warm_cli.py``).

        The worker starts with the first such command and pays the
        interpreter start-up and the imports once; ``wall`` is measured
        inside it, around the command alone.
        """
        self.attempted += 1
        self.sample_speed()
        if self.worker is None:
            with open(self.work / "commands.log", "ab") as log:
                self.worker = subprocess.Popen(
                    [sys.executable, str(WARM_CLI)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                    env=self.env, cwd=self.work, text=True,
                )
        line = ""
        try:
            self.worker.stdin.write(json.dumps([*args, "--log-level", "warning"]) + "\n")
            self.worker.stdin.flush()
            timeout = max(RUN_DEADLINE_S - self.elapsed(), 0.0)
            if select.select([self.worker.stdout], [], [], timeout)[0]:
                line = self.worker.stdout.readline()
        except BrokenPipeError:
            pass
        if line:
            result = json.loads(line)
        else:
            # Past the deadline, or the worker died: stop it.
            self.stop_worker()
            result = {"code": -1, "wall": 0.0}
        if result["code"] != 0:
            self.fail(f"aligndet {args[0]} (warm) exited {result['code']}")
        return result

    def stop_worker(self) -> None:
        """End the warm worker, if any, and wait for it."""
        if self.worker is None:
            return
        worker, self.worker = self.worker, None
        try:
            worker.stdin.close()
            worker.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            worker.kill()
            worker.wait()
        worker.stdout.close()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """Record a failed output check against the command that produced it."""
        if not ok:
            self.fail(problem)

    # -- set-up -----------------------------------------------------------

    def write_config(self) -> None:
        lines = [f"{k} = {v}" for k, v in WORKLOADS[self.workload].items()]
        lines += [
            "source_manifest = data/source/manifest.json",
            f"target_manifest = {TARGET_MANIFEST}",
        ]
        (self.work / "run.cfg").write_text("\n".join(lines) + "\n")

    def setup(self, i: int) -> dict | None:
        """Generate the synthetic pair (set-up repetition ``i``).

        The first copy, ``data/``, is the input of every later command; later
        copies must be byte-identical to it and are removed.
        """
        out = "data" if i == 0 else f"data{i}"
        r = self.run(["synth", "--config", "run.cfg", "--out", out])
        if r["code"] != 0:
            return None
        digest = tree_digest(self.work / out)
        if i == 0:
            self.data_digest = digest
            self.shuffle_target()
        else:
            self.check(digest == self.data_digest, f"synth copy {i} differs from the first")
            shutil.rmtree(self.work / out)
        return r

    def shuffle_target(self) -> None:
        manifest = self.work / "data" / "target" / "manifest.json"
        if not manifest.is_file():
            return
        doc = json.loads(manifest.read_text())
        random.Random(self.seed).shuffle(doc["images"])
        manifest.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

    def target_proposals(self) -> int:
        """Proposal rows of the target set, read from the feature headers."""
        base = self.work / "data" / "target"
        if not (base / "manifest.json").is_file():
            return 0
        doc = json.loads((base / "manifest.json").read_text())
        rows = 0
        for entry in doc["images"]:
            with open(base / entry["feature_file"], "rb") as fh:
                rows += int.from_bytes(fh.read(12)[8:12], "little")
        return rows

    # -- the three measured commands, each with its output checks ----------

    def pipeline(self, out: str, trace_out: Path | None = None) -> dict | None:
        r = self.run(["pipeline", "--config", "run.cfg", "--out", out], trace_out)
        if r["code"] != 0:
            return None
        d = self.work / out
        report = json.loads((d / "report.json").read_text())
        r["mean_ap"] = report["mean_ap"]
        # detect scores every class that has a state, downgraded or not.
        r["classes"] = sum(1 for c in report["per_class"].values() if c["downgraded"] is not None)
        r["artifact_bytes"] = sum(p.stat().st_size for p in d.rglob("*") if p.is_file())
        r["digest"] = {n: file_digest(d / n) for n in ("report.json", "detections.csv")}
        if self.workload == "accept":
            self.check(
                r["mean_ap"] is not None and abs(r["mean_ap"] - LOCKED_ADAPTED_MAP) <= MAP_POINT,
                f"{out}: mean_ap {r['mean_ap']} outside {LOCKED_ADAPTED_MAP} +- {MAP_POINT}",
            )
        return r

    def command(self, args: list[str], trace_out: Path | None, warm: bool) -> dict:
        return self.run_warm(args) if warm else self.run(args, trace_out)

    def detect(self, pipe_dir: str, out: str, trace_out: Path | None = None,
               warm: bool = False) -> dict | None:
        r = self.command(
            ["detect", "--config", "run.cfg", "--dataset", TARGET_MANIFEST,
             "--states", f"{pipe_dir}/states.json", "--out", out],
            trace_out, warm,
        )
        if r["code"] != 0:
            return None
        diffs = compare_detections(
            self.work / pipe_dir / "detections.csv", self.work / out / "detections.csv"
        )
        self.check(
            diffs is not None,
            f"{out}: detect --states rows differ from pipeline's or a score "
            f"differs by more than {SCORE_TOL}",
        )
        r["score_diffs"] = diffs or 0
        return r

    def evaluate(self, det_dir: str, mean_ap, out: str, trace_out: Path | None = None,
                 warm: bool = False) -> dict | None:
        r = self.command(
            ["evaluate", "--config", "run.cfg", "--dataset", TARGET_MANIFEST,
             "--detections", f"{det_dir}/detections.csv", "--out", out],
            trace_out, warm,
        )
        if r["code"] != 0:
            return None
        got = json.loads((self.work / out / "report.json").read_text())["mean_ap"]
        self.check(got == mean_ap, f"{out}: evaluate mean_ap {got} != pipeline mean_ap {mean_ap}")
        return r

    # -- the two kinds of run ----------------------------------------------

    def measure(self) -> tuple[dict, dict]:
        """``synth``, ``pipeline``, ``detect`` and ``evaluate``, interleaved.

        The first ``synth`` makes the inputs; later ones repeat the set-up
        only to time and check it.  ``pipeline`` and ``synth`` run as fresh
        processes, as a user runs them.  ``detect`` and ``evaluate`` run in
        the warm worker: as separate processes about 0.2 s of each went to
        the interpreter start-up and the numpy import, which was most of
        ``evaluate``; the cold start is still inside ``pipeline_s``.
        Interleaving spreads every command's samples over the whole run, so
        a slow stretch of the machine weighs on all of them alike.
        """
        self.probes = []
        self.measure_start = self.elapsed()
        results: dict[str, list[dict]] = {k: [] for k in SHARES}
        first: dict[str, str] = {}

        def pipeline_rep(i):
            r = self.pipeline(f"p{i}")
            if r is not None and i == 0:
                first.update(r["digest"])
            elif r is not None:
                for name, digest in r["digest"].items():
                    self.check(digest == first[name], f"p{i}: {name} differs from p0")
                shutil.rmtree(self.work / f"p{i}")
            return r

        def detect_rep(i):
            r = self.detect("p0", f"d{i}", warm=True)
            if r is not None and i > 0:
                shutil.rmtree(self.work / f"d{i}")
            return r

        def evaluate_rep(i):
            r = self.evaluate("d0", results["pipeline"][0]["mean_ap"], f"e{i}", warm=True)
            if r is not None and i > 0:
                shutil.rmtree(self.work / f"e{i}")
            return r

        steps = {
            "synth": self.setup,
            "pipeline": pipeline_rep,
            "detect": detect_rep,
            "evaluate": evaluate_rep,
        }

        def step(kind: str) -> bool:
            r = steps[kind](len(results[kind]))
            if r is not None:
                results[kind].append(r)
            return r is not None

        def expected(kind: str) -> float:
            return statistics.median(r["wall"] for r in results[kind])

        props = 0
        if step("synth"):
            props = self.target_proposals()
        if props and step("pipeline") and step("detect") and step("evaluate"):
            while True:
                # The command furthest behind its share of the time runs
                # next; once the time is spent, only those short of MIN_RUNS.
                kind = min(SHARES, key=lambda k: sum(r["wall"] for r in results[k]) / SHARES[k])
                spent = self.elapsed() - self.measure_start
                if spent + expected(kind) > self.seconds:
                    lacking = [k for k in SHARES if len(results[k]) < MIN_RUNS[k]]
                    if not lacking:
                        break
                    kind = lacking[0]
                if self.elapsed() + 2 * expected(kind) > RUN_DEADLINE_S:
                    break
                if not step(kind):
                    break
        self.stop_worker()
        self.sample_speed(force=True)

        pipes = results["pipeline"]
        # The first warm run of each command is the worker's warm-up.
        dets, evals = results["detect"][1:], results["evaluate"][1:]

        def med(rs, key):
            return statistics.median(r[key] for r in rs) if rs else 0.0

        def mean_wall(rs):
            return trimmed_mean([r["wall"] for r in rs]) if rs else 0.0

        raw = {
            "setup": med(results["synth"], "wall"),
            "pipeline": mean_wall(pipes),
            "detect": mean_wall(dets),
            "evaluate": mean_wall(evals),
        }
        scale = PROBE_REF_S / trimmed_mean(self.probes)
        classes = pipes[0]["classes"] if pipes else 0
        metrics = {
            "setup_s": raw["setup"] * scale,
            "pipeline_s": raw["pipeline"] * scale,
            "detect_props_per_s": props * classes / (raw["detect"] * scale) if dets else 0.0,
            "evaluate_s": raw["evaluate"] * scale,
            "mean_ap": pipes[0]["mean_ap"] if pipes else 0.0,
            "peak_rss_mb": med(pipes, "rss_mb"),
            "artifact_bytes": med(pipes, "artifact_bytes"),
            "success_ratio": 1.0 - self.failed / max(self.attempted, 1),
        }
        info = {
            # Unscaled: the trimmed mean (median for set-up) wall times.
            "raw_s": raw,
            "probes": len(self.probes),
            "speed_scale": scale,
            "walls_s": {k: [r["wall"] for r in rs] for k, rs in results.items()},
            "pipeline_cpu_s": [r["cpu"] for r in pipes],
            "target_proposals": props,
            "adapted_classes": classes,
            "failed_ratio": self.failed / max(self.attempted, 1),
            "detect_score_diffs": results["detect"][0]["score_diffs"] if dets else None,
            # Below 1.0, a loss of quality can show.
            "mean_ap_below_1": metrics["mean_ap"] < 1.0,
        }
        return metrics, info

    def trace(self) -> tuple[dict, dict]:
        """Rounds of an untraced ``pipeline`` and traced ``pipeline``,
        ``detect`` and ``evaluate``; per-layer medians over the rounds."""
        self.setup(0)
        self.measure_start = self.elapsed()

        def traced_round(i):
            tag = f"t{i}"
            (self.work / tag).mkdir()
            spans = [self.work / tag / f"{n}.trace.json" for n in ("pipe", "det", "eval")]
            plain = self.run(["pipeline", "--config", "run.cfg", "--out", f"{tag}/plain"])
            pipe = self.pipeline(f"{tag}/pipe", spans[0])
            det = pipe and self.detect(f"{tag}/pipe", f"{tag}/det", spans[1])
            ev = det and self.evaluate(f"{tag}/det", pipe["mean_ap"], f"{tag}/eval", spans[2])
            if plain["code"] != 0 or ev is None:
                return None
            for name, digest in pipe["digest"].items():
                self.check(
                    digest == file_digest(self.work / tag / "plain" / name),
                    f"{tag}: traced {name} differs from the untraced run",
                )
            layers = layer_metrics(spans)
            layers["check.detect_score_diffs"] = det["score_diffs"]
            layers["trace.overhead"] = pipe["wall"] / plain["wall"]
            shutil.rmtree(self.work / tag)
            return layers

        samples = []
        while True:
            t0 = time.monotonic()
            layers = traced_round(len(samples))
            if layers is None:
                break
            samples.append(layers)
            last = time.monotonic() - t0
            spent = self.elapsed() - self.measure_start
            if spent + last > self.seconds or self.elapsed() + 2 * last > RUN_DEADLINE_S:
                break
        metrics = {
            name: statistics.median(s[name] for s in samples) if samples else 0.0
            for name in PER_LAYER
        }
        role, at_least = ROLES[self.workload]
        info = {
            "rounds": len(samples),
            "failed_ratio": self.failed / max(self.attempted, 1),
            "role": {"metric": role, "at_least": at_least, "holds": metrics[role] >= at_least},
        }
        return metrics, info


# ---------------------------------------------------------------------------
# Output checks and trace reduction
# ---------------------------------------------------------------------------

def probe() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    On a shared host the cores' speed moves by tens of percent, in phases
    of seconds to minutes, and every command time moves with it (measured on
    the 2-vCPU VM: between two runs of the same workload the loop and all
    four command times fell by 20-30% together).  The benchmark times this
    loop between commands throughout a run and scales the run's times by
    ``PROBE_REF_S / probe``, so that a run on a slow stretch of the host
    reads like one on a fast stretch.  The loop runs in this process while
    no child runs, so the program under test cannot change it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share.

    The host switches between a fast and a slow level for seconds at a
    time, so the samples of one command fall into two clusters.  Their
    median jumps to whichever cluster holds more samples in a run; the
    trimmed mean weighs both, while a single stalled sample is still cut.
    """
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.mean(values[k:len(values) - k])


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(file_digest(path).encode())
    return h.hexdigest()


def compare_detections(a: Path, b: Path) -> int | None:
    """Number of scores that differ, or None when rows differ or |dscore| > tol.

    Rows (image, box, class) and their order must match exactly.
    """
    rows_a = a.read_text().splitlines()
    rows_b = b.read_text().splitlines()
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return None
    differing = 0
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        key_a, _, score_a = ra.rpartition(",")
        key_b, _, score_b = rb.rpartition(",")
        if key_a != key_b:
            return None
        delta = abs(float(score_a) - float(score_b))
        if delta > SCORE_TOL:
            return None
        differing += delta > 0.0
    return differing


def self_times(spans: list) -> dict[str, float]:
    """Span name -> summed duration minus the time covered by child spans."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


def layer_metrics(trace_files: list[Path]) -> dict[str, float]:
    """Per-layer metrics summed over the traced commands of one round.

    Shares are of the traced ``pipeline`` command (the first file) alone.
    """
    selfs: dict[str, float] = {}
    counters: dict[str, float] = {}
    shares = {}
    for i, path in enumerate(trace_files):
        doc = json.loads(path.read_text())
        st = self_times(doc["spans"])
        for name, t in st.items():
            selfs[name] = selfs.get(name, 0.0) + t
        for name, v in doc["counters"].items():
            counters[name] = counters.get(name, 0.0) + v
        if i == 0:
            total = sum(st.values())
            shares = {
                "share.train_detector": st.get("detection.train_detector", 0.0) / total,
                "share.greedy_nms": st.get("detection.greedy_nms", 0.0) / total,
                "share.dataio-linalg-alignment": sum(
                    t for n, t in st.items()
                    if n.split(".")[0] in ("dataio", "linalg", "alignment")
                ) / total,
            }
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in SELF_TIMES}
    out["pipeline.mine_positives.self_s"] = sum(selfs.get(n, 0.0) for n in MINING)
    out.update({name: counters.get(name, 0.0) for name in COUNTERS})
    out.update(shares)
    return out


def environment() -> dict:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aligndet" / "cli.py").is_file():
        print(f"bench: no aligndet sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    bench.work.mkdir(parents=True)
    try:
        bench.write_config()
        metrics, info = bench.trace() if args.trace else bench.measure()
    finally:
        bench.stop_worker()
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    units = PER_LAYER if args.trace else END_TO_END
    for problem in bench.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config": WORKLOADS[args.workload],
        "environment": environment(),
        **info,
        "problems": bench.problems,
    }
    print(json.dumps({"info": record}, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

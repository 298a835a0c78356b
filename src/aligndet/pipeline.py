"""End-to-end adaptation: initial source training, positive mining in both
domains, per-class (or global) subspace alignment, retraining in the aligned
frame, and adapted detection."""

from __future__ import annotations

import functools
import math
import mmap
import os
import pickle
import select
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alignment import (
    aligned_source_basis,
    project_for_testing,
    project_for_training,
    solve_alignment,
)
from .datasets import Dataset
from .detection import (
    Detections,
    LinearDetector,
    TrainConfig,
    greedy_nms,
    pairwise_iou,
    train_detector,
)
# Unused here; bench/traced_cli.py counts calls through pipeline.iou.
from .detection import iou  # noqa: F401
from .errors import DataError, NumericalError
from .linalg import Subspace, matvec, normalize, pca

MODES = ("class-specific", "full-image", "none")


@dataclass
class AdaptationConfig:
    """Thresholds and knobs of the adaptation pipeline.

    ``gamma`` is the IoU threshold for mining source positives, ``sigma``
    the raw-score threshold for mining target positives, ``d`` the subspace
    dimension shared by both domains.  ``detect_thresh`` filters detection
    scores and is deliberately separate from the mining threshold sigma.
    """

    gamma: float = 0.7
    sigma: float = 0.4
    d: int = 100
    mode: str = "class-specific"
    nms_thresh: float = 0.3
    neg_lambda: float = 0.3
    detect_thresh: float = 0.0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise DataError(f"gamma must be in (0, 1], got {self.gamma}")
        if not math.isfinite(self.sigma):
            raise DataError("sigma must be finite")
        if self.d < 1:
            raise DataError("d must be >= 1")
        if self.mode not in MODES:
            raise DataError(f"mode must be one of {MODES}, got '{self.mode}'")
        if not (0.0 <= self.nms_thresh <= 1.0):
            raise DataError("nms_thresh must be in [0, 1]")
        if not (0.0 <= self.neg_lambda < 1.0):
            raise DataError("neg_lambda must be in [0, 1)")
        if not math.isfinite(self.detect_thresh):
            raise DataError("detect_thresh must be finite")


FULL_IMAGE_TAG = "__full__"


def frame_tag(frame: str) -> str | None:
    """The tag of the subspace pair a detector's frame names: None for the
    frame ``raw``, and ``<tag>`` for ``aligned:<tag>``, where the tag is
    the class id, or ``FULL_IMAGE_TAG`` for the one global pair of
    full-image mode.  Any other frame is a DataError."""
    if frame == "raw":
        return None
    if not frame.startswith("aligned:"):
        raise DataError(f"unknown detector frame '{frame}'")
    return frame.removeprefix("aligned:")


@dataclass(eq=False)
class ClassAdaptationState:
    """Everything adaptation produced for one class.

    An adapted class keeps the subspace pair it was retrained against, and
    its detector's frame is the one record of which pair that is
    (``frame_tag``).  The class id and the mode are read off the detector,
    and the alignment map and the aligned source basis follow from the
    pair in closed form; none of them is stored.  Pass-through classes
    (mode ``none``, including downgraded ones) keep the initial raw-frame
    detector and carry no subspaces.
    """

    adapted_detector: LinearDetector
    source_subspace: Subspace | None = None
    target_subspace: Subspace | None = None
    n_pos_src: int = 0
    n_pos_tgt: int = 0
    downgraded: bool = False
    note: str = ""

    def __post_init__(self):
        det, S, T = self.adapted_detector, self.source_subspace, self.target_subspace
        tag = frame_tag(det.frame)
        if (S is None, T is None) != (tag is None, tag is None):
            raise DataError(
                f"class '{det.class_id}' in frame '{det.frame}' needs both "
                "subspaces exactly when the frame is aligned"
            )
        if tag not in (None, det.class_id, FULL_IMAGE_TAG):
            raise DataError(f"class '{det.class_id}' is in the frame of class '{tag}'")
        if tag is not None and not S.d == T.d == det.weights.shape[0]:
            raise DataError(
                f"class '{det.class_id}': subspace dimensions {S.d}, {T.d} and "
                f"detector width {det.weights.shape[0]} disagree"
            )

    @property
    def class_id(self) -> str:
        return self.adapted_detector.class_id

    @property
    def mode(self) -> str:
        tag = frame_tag(self.adapted_detector.frame)
        return {None: "none", FULL_IMAGE_TAG: "full-image"}.get(tag, "class-specific")


def _class_max_overlaps(dataset: Dataset, class_id: str) -> np.ndarray:
    """Each proposal's largest IoU with a same-class GT box of its image,
    0 without one, in the dataset's row order, from one ``pairwise_iou``
    call over all images: each proposal meets its image's same-class GT
    boxes, padded to the most any image has (``GroundTruths.per_image``).
    A padding box overlaps nothing: its IoU is 0, or NaN for an
    overflowing area, and the maximum skips NaN (``fmax``) as the scalar
    loop it replaces did."""
    gt = dataset.ground_truths.per_image(class_id, dataset.image_ids)
    return np.fmax.reduce(
        pairwise_iou(dataset.boxes[:, None, :], gt[dataset.image_index])[:, 0, :],
        axis=1, initial=0.0,
    )


def raw_score_rows(dataset: Dataset, detectors) -> np.ndarray:
    """A (k, n) array whose row c holds the raw margins of detector c of
    the sequence ``detectors`` for every proposal of the dataset, in its
    row order, from one pass over its one feature array (``matvec``: a
    float32 block of a loaded dataset is upcast once for all detectors,
    and each detector's margins have the bits of its own product).

    The one place a raw-frame detector scores a dataset; each detector's
    frame and width are checked first.
    """
    detectors = list(detectors)
    for det in detectors:
        if det.frame != "raw":
            raise DataError(
                f"detector for '{det.class_id}' expects frame '{det.frame}', got 'raw'"
            )
        if det.weights.shape[0] != dataset.feature_dim:
            raise DataError(
                f"class '{det.class_id}' scores {det.weights.shape[0]}-dim features, "
                f"dataset '{dataset.name}' has {dataset.feature_dim}"
            )
    scores = matvec(dataset.features, [det.weights for det in detectors], "features")
    scores += np.array([det.bias for det in detectors])[:, None]
    return scores


def _require_labeled(dataset: Dataset) -> None:
    if not dataset.labeled:
        raise DataError(f"dataset '{dataset.name}' has images without ground truth")


def _nonempty(rows: np.ndarray, message: str) -> np.ndarray:
    """``rows``, or a DataError with ``message`` when it has none."""
    if not rows.shape[0]:
        raise DataError(message)
    return rows


def mine_source_positives(
    source: Dataset,
    class_id: str,
    gamma: float,
    overlaps: np.ndarray | None = None,
) -> np.ndarray:
    """Features of all source proposals overlapping a same-class GT box,
    a row copy in the dtype of the dataset's array.

    Ground-truth boxes enter only through proposals that overlap them with
    IoU >= gamma; they are never injected directly.  ``overlaps`` are the
    class's ``_class_max_overlaps`` when the caller has them already.
    """
    if not (0.0 < gamma <= 1.0):
        raise DataError(f"gamma must be in (0, 1], got {gamma}")
    if class_id not in source.classes:
        raise DataError(f"unknown class '{class_id}'")
    _require_labeled(source)
    if overlaps is None:
        overlaps = _class_max_overlaps(source, class_id)
    return _nonempty(
        source.features[overlaps >= gamma],
        f"no source positives for class '{class_id}' at gamma={gamma}",
    )


def _mine_source_negatives(
    class_id: str, neg_lambda: float, overlaps: np.ndarray
) -> np.ndarray:
    """Row indices, ascending, of the source proposals whose max same-class
    overlap (``overlaps``, from ``_class_max_overlaps``) stays below
    lambda."""
    return _nonempty(
        np.flatnonzero(overlaps < neg_lambda),
        f"no source negatives for class '{class_id}' at lambda={neg_lambda}",
    )


def mine_target_positives(
    target: Dataset, class_id: str, scores: np.ndarray, sigma: float
) -> np.ndarray:
    """Features of all target proposals whose initial score is >= sigma, a
    row copy in the dtype of the dataset's array.  ``scores`` is the
    class's row of ``raw_score_rows(target, initial detectors)``.

    NMS is deliberately not applied here so the sample count feeding the
    target subspace stays consistent.
    """
    if class_id not in target.classes:
        raise DataError(f"unknown class '{class_id}'")
    if scores.shape != (target.boxes.shape[0],):
        raise DataError(
            f"class '{class_id}' has {scores.shape} initial scores, "
            f"dataset '{target.name}' has {target.boxes.shape[0]} proposals"
        )
    return _nonempty(
        target.features[scores >= sigma],
        f"no target positives for class '{class_id}' at sigma={sigma}",
    )


def _blas_single_threaded() -> bool:
    """Whether the environment pins OpenBLAS to one thread.  The variables
    are read in OpenBLAS's order of precedence, an empty or 0 one skipped."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value not in ("", "0"):
            return value == "1"
    return False


# Where ``_cpu_quota`` reads the process's cgroups and their CPU limits.
_PROC_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")


def _cpu_quota() -> int | None:
    """How many CPUs the process's cgroup CPU quota amounts to, rounded up
    (``ceil(quota / period)``), or None without a quota.  The quota is the
    ``cpu.max`` of its own cgroup v2 (``0::<path>`` in /proc/self/cgroup;
    ``max`` is none), and ``cpu.cfs_quota_us`` over ``cpu.cfs_period_us`` of
    its cgroup v1 ``cpu`` controller (``-1`` is none); the lower one where
    both are set.  A missing or unreadable file sets no quota."""
    try:
        lines = _PROC_CGROUP.read_text().splitlines()
    except (OSError, UnicodeDecodeError):
        return None
    quotas = []
    for line in lines:
        try:
            _, controllers, path = line.split(":", 2)
            if not controllers:
                cgroup = _CGROUP_ROOT / path.lstrip("/")
                quota, period = (cgroup / "cpu.max").read_text().split()
            elif "cpu" in controllers.split(","):
                cgroup = _CGROUP_ROOT / controllers / path.lstrip("/")
                quota, period = (
                    (cgroup / name).read_text()
                    for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us")
                )
            else:
                continue
            if quota.strip() not in ("max", "-1"):
                quotas.append(max(1, -(-int(quota) // int(period))))
        except (OSError, UnicodeDecodeError, ValueError, ZeroDivisionError):
            continue
    return min(quotas, default=None)


def _usable_cpus() -> int:
    """How many processes the per-class loops may run in: the CPUs this
    process may run on (``os.sched_getaffinity``), capped by its cgroup CPU
    quota (``_cpu_quota``: more workers than the quota allows only run
    slower); or 1 where the platform cannot tell, where another thread runs,
    which a fork would not copy, or where the BLAS may run a thread per CPU
    in each process (workers and BLAS threads then contend for the CPUs: a
    ``mid`` pipeline on 2 CPUs took 15.4 s with 2 workers against 2.8 s in
    one process)."""
    if (
        not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
        or not _blas_single_threaded()
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), _cpu_quota() or math.inf)


# How long a worker whose next task is not ready waits between looks.
_POLL_S = 0.001


def _share(
    fn, worker: int, workers: int, n: int, board, ready=None, wait=None,
    parent: int | None = None,
):
    """``fn(k)`` for ``k`` in ``range(worker, n, workers)``, as ``{k: result}``,
    and ``(k, exception)`` for the first ``k`` that raised (None if none
    did).  ``board`` is shared by the workers: ``board[0]`` is the lowest
    index known to have raised, or to have been on a worker that died
    (``n`` until one has), and no worker starts an index above it;
    ``board[1 + worker]`` is the index this worker is on.  Index ``k``
    starts once ``ready(k)`` holds (at once without ``ready``), and
    ``wait()`` runs between looks.  A child (``parent`` given) whose parent
    has gone leaves at once."""
    results = {}
    for k in range(worker, n, workers):
        board[1 + worker] = k
        while True:
            if k > board[0]:
                return results, None
            if parent is not None and os.getppid() != parent:
                os._exit(1)
            if ready is None or ready(k):
                break
            wait()
        try:
            results[k] = fn(k)
        except Exception as exc:
            # Two workers may race here; board[0] then stays an index that
            # raised, which is all the stopping rule needs.
            board[0] = min(board[0], k)
            return results, (k, exc)
    return results, None


def _per_class(fn, n: int, ready=None) -> list:
    """``[fn(0), ..., fn(n - 1)]``, computed in ``min(n, _usable_cpus())``
    processes: this one and forked children, worker ``i`` taking the
    indices ``i, i + workers, ...`` in order.  Index ``k`` starts once
    ``ready(k)`` holds, which another worker's index may have to make true
    (``ready`` must hold for every index once all lower ones are done).
    Each child pickles its results back through a pipe and leaves with
    ``os._exit``; every child is reaped before this returns or raises.  An
    exception ``fn`` raises is raised here, the one of the lowest index, as
    the loop would raise it; once an index has raised, no worker starts a
    higher one, nor goes on waiting for one.  A child that ends without
    sending its results is a RuntimeError that names its exit status,
    ranked by the index it was on.  This process reads the children's pipes
    while it waits, so it sees a child end as soon as it waits or is done,
    and the workers waiting for that child's indices stop.

    The indices are computed as they would be in one process, so the
    results are the same bit for bit.  Each child holds only its own
    index's transients on top of the pages it shares with this process."""
    workers = max(1, min(n, _usable_cpus()))
    board = memoryview(mmap.mmap(-1, 8 * (1 + workers))).cast("q")
    board[0] = n
    parent = os.getpid()
    # A child must not write out buffered text a second time.
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}  # read end of its pipe -> [pid, worker index, bytes read]
    results, errors = {}, []

    def receive(timeout):
        """Read what the children send within ``timeout`` seconds (None:
        until one sends or ends), and reap each child whose pipe closed."""
        for fd in select.select(list(children), [], [], timeout)[0]:
            pid, i, chunks = children[fd]
            chunk = os.read(fd, 1 << 20)
            if chunk:
                chunks.append(chunk)
                continue
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[fd]
            os.close(fd)
            if code == 0:
                part, error = pickle.loads(b"".join(chunks))
                results.update(part)
                errors.append(error)
                continue
            k = board[1 + i]
            board[0] = min(board[0], k)
            how = f"status {code}" if code > 0 else f"signal {-code}"
            dead = RuntimeError(
                f"per-class worker process {pid} ended with {how} "
                "before sending its results"
            )
            errors.append((k, dead))

    try:
        for i in range(1, workers):
            board[1 + i] = i
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    for sibling in children:
                        os.close(sibling)
                    nap = functools.partial(time.sleep, _POLL_S)
                    with open(write, "wb") as out:
                        pickle.dump(
                            _share(fn, i, workers, n, board, ready, nap, parent),
                            out,
                            pickle.HIGHEST_PROTOCOL,
                        )
                    code = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.close(write)
            children[read] = [pid, i, []]
        part, error = _share(
            fn, 0, workers, n, board, ready, functools.partial(receive, _POLL_S)
        )
        results.update(part)
        errors.append(error)
        while children:
            receive(None)
    finally:
        for fd, (pid, _, _) in children.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    errors = [e for e in errors if e is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return [results[k] for k in range(n)]


def _train_class(
    source: Dataset, cfg: AdaptationConfig, class_id: str
) -> LinearDetector | str:
    """The initial detector of one class, or the warning that skips it
    when it has no positives or no negatives."""
    overlaps = _class_max_overlaps(source, class_id)
    try:
        pos = mine_source_positives(source, class_id, cfg.gamma, overlaps)
        neg = _mine_source_negatives(class_id, cfg.neg_lambda, overlaps)
    except DataError as exc:
        return f"initial-training: {exc}; class skipped"
    return train_detector(
        pos, source.features, cfg.train, class_id=class_id, frame="raw", rows=neg
    )


# The status word of a class in a round's table: pending until its
# training task has ended, then trained or skipped.
_PENDING, _TRAINED, _SKIPPED = 0.0, 1.0, 2.0


def _round(
    source: Dataset,
    cfg: AdaptationConfig,
    target: Dataset | None = None,
    shared: tuple[Subspace, Subspace] | None = None,
    adapting: bool = False,
) -> tuple[list, np.ndarray, list]:
    """The per-class work of a command as one ``_per_class`` task list.

    With k classes, task ``T_c`` (index c) trains class c (``_train_class``)
    and, given a ``target``, scores it with that detector (one
    ``raw_score_rows`` row, with the bits of that row of the ``(k, n)``
    one-pass matrix); when ``adapting``, task ``A_c`` (index k + c) adapts
    the class from that row (``_adapt_class``, with ``shared``).  ``T_c``
    publishes the class's status and target scores in a table shared by the
    workers, and ``A_c`` starts once the status is no longer pending, in
    whichever worker it falls to; a skipped class is not adapted.  Returns
    the k training results, the table's score rows of the trained classes
    (``(trained, n)``, float64; ``(trained, 0)`` without a target) and the
    adaptation results of the trained classes (empty unless adapting)."""
    classes = source.classes
    k = len(classes)
    n = 0 if target is None else target.boxes.shape[0]
    # Row c: class c's status word, then its target scores.
    table = np.ndarray((k, 1 + n), buffer=mmap.mmap(-1, max(8, 8 * k * (1 + n))))

    def task(j):
        if j < k:
            result = _train_class(source, cfg, classes[j])
            if isinstance(result, str):
                table[j, 0] = _SKIPPED
            else:
                if target is not None:
                    table[j, 1:] = raw_score_rows(target, [result])[0]
                # Written after the scores: the status says they are there.
                table[j, 0] = _TRAINED
            return result
        c = j - k
        if table[c, 0] == _SKIPPED:
            return None
        return _adapt_class(source, target, cfg, classes[c], table[c, 1:], shared)

    results = _per_class(
        task, 2 * k if adapting else k,
        ready=lambda j: j < k or table[j - k, 0] != _PENDING,
    )
    kept = [c for c in range(k) if not isinstance(results[c], str)]
    adapted = [results[k + c] for c in kept] if adapting else []
    return results[:k], table[kept, 1:], adapted


def _initial_detectors(
    classes: list[str], trained: list, warnings: list[str] | None
) -> dict[str, LinearDetector]:
    """The detectors of a round's training results, in class order; each
    skipped class's warning goes to ``warnings``."""
    detectors: dict[str, LinearDetector] = {}
    for class_id, result in zip(classes, trained):
        if isinstance(result, str):
            if warnings is not None:
                warnings.append(result)
        else:
            detectors[class_id] = result
    return detectors


def train_initial_detectors(
    source: Dataset,
    cfg: AdaptationConfig,
    warnings: list[str] | None = None,
) -> dict[str, LinearDetector]:
    """One raw-frame detector per class from the labeled source set.

    Positives are proposals with IoU >= gamma to a same-class GT box,
    negatives proposals with max IoU < neg_lambda; proposals in between are
    excluded.  The negative pool stays rows of the source feature array.
    Classes without positives or without negatives are skipped with a
    warning record.

    The classes are trained by the training tasks of ``_round``, in
    ``min(classes, usable CPUs)`` processes (``_per_class``; Linux only,
    with ``OPENBLAS_NUM_THREADS=1``, one CPU under ``taskset -c 0``), with
    the detectors and warnings of the one-process loop, byte for byte.
    """
    _require_labeled(source)
    trained, _, _ = _round(source, cfg)
    return _initial_detectors(source.classes, trained, warnings)


def _unadaptable(
    source: Dataset, target: Dataset, cfg: AdaptationConfig
) -> str | None:
    """Why ``adapt`` refuses to adapt from ``source`` to ``target`` under
    ``cfg`` whatever the detectors, or None."""
    if source.feature_dim != target.feature_dim:
        return (
            f"feature dims differ: source {source.feature_dim}, "
            f"target {target.feature_dim}"
        )
    if cfg.mode != "none" and cfg.d > source.feature_dim:
        return (
            f"subspace dimension d={cfg.d} exceeds the feature dimension "
            f"{source.feature_dim}; no class can form a subspace"
        )
    return None


def train_and_adapt(
    source: Dataset,
    target: Dataset,
    cfg: AdaptationConfig,
    warnings: list[str] | None = None,
    trained=None,
) -> tuple[dict[str, LinearDetector], np.ndarray, dict[str, ClassAdaptationState]]:
    """``train_initial_detectors(source, cfg)``, the target's scores
    ``raw_score_rows(target, detectors.values())`` and ``adapt`` from them,
    as ``(detectors, target_scores, states)``, in one round of the
    per-class workers (``_round``): each class is adapted as soon as its own
    detector exists, and each detector scores the target once, in the
    worker that trained it.  The outputs and warnings are those of the
    three calls, byte for byte, and so are the errors: a training error
    ranks before any adaptation error, and where ``adapt`` refuses the pair
    (feature widths, ``d``) the classes are trained first.

    ``trained(detectors)``, if given, is called once the detectors exist,
    when ``warnings`` holds exactly the training warnings, before the
    target's scores or ``adapt`` can raise.
    """
    _require_labeled(source)
    scoring = source.feature_dim == target.feature_dim
    adapting = cfg.mode != "none" and _unadaptable(source, target, cfg) is None
    shared = _full_image_pair(source, target, cfg) if adapting else None
    results, target_scores, adapted = _round(
        source, cfg, target if scoring else None, shared,
        adapting and not isinstance(shared, Exception),
    )
    detectors = _initial_detectors(source.classes, results, warnings)
    if trained is not None:
        trained(detectors)
    if not scoring:
        # Raises the width error of a first detector; adapt raises without one.
        target_scores = raw_score_rows(target, detectors.values())
    states = adapt(
        source, target, cfg, detectors, target_scores, warnings,
        (shared, adapted) if adapting else None,
    )
    return detectors, target_scores, states


def _full_image_pair(
    source: Dataset, target: Dataset, cfg: AdaptationConfig
) -> tuple[Subspace, Subspace] | Exception | None:
    """The one subspace pair of full-image mode, fitted on every proposal of
    both domains, or the error that keeps its pool from forming one (every
    class is then downgraded); None in the other modes."""
    if cfg.mode != "full-image":
        return None
    try:
        return _fit_pair(source.features, target.features, cfg.d)
    except (DataError, NumericalError) as exc:
        return exc


def _fit_pair(
    src_pool: np.ndarray, tgt_pool: np.ndarray, d: int
) -> tuple[Subspace, Subspace]:
    """The source and target subspaces of one pool per domain.

    Each pool is normalized with its own statistics, which travel with its
    subspace.
    """
    n_src, n_tgt = src_pool.shape[0], tgt_pool.shape[0]
    # A d-dimensional subspace needs at least d+1 samples.
    if n_src < d + 1 or n_tgt < d + 1:
        raise DataError(f"sample counts src={n_src}, tgt={n_tgt} below d+1={d + 1}")
    pair = []
    for pool in (src_pool, tgt_pool):
        Xn, stats = normalize(pool)
        pair.append(pca(Xn, d, stats=stats))
    return pair[0], pair[1]


def _adapt_class(
    source: Dataset,
    target: Dataset,
    cfg: AdaptationConfig,
    class_id: str,
    scores: np.ndarray,
    shared: tuple[Subspace, Subspace] | None,
) -> tuple:
    """Align one class and retrain its detector on projected source data.

    The subspace pair is fitted on the class's mined positives in both
    domains (the target's from ``scores``, its initial target scores), or
    is ``shared``, the global pair of full-image mode.  Returns
    ``(detector, pair, n_pos_src, n_pos_tgt, note)``: the retrained
    detector, the fitted pair (None when it is ``shared``) and an empty
    note; or, for a class whose mining or fitting fails, no detector and
    pair and the failure as the note, and the class is downgraded.
    """
    n_src = n_tgt = 0
    overlaps = _class_max_overlaps(source, class_id)
    try:
        pos_src = mine_source_positives(source, class_id, cfg.gamma, overlaps)
        n_src = pos_src.shape[0]
        if shared is None:
            pos_tgt = mine_target_positives(target, class_id, scores, cfg.sigma)
            n_tgt = pos_tgt.shape[0]
            S, T = _fit_pair(pos_src, pos_tgt, cfg.d)
        else:
            S, T = shared
        neg = _mine_source_negatives(class_id, cfg.neg_lambda, overlaps)
    except (DataError, NumericalError) as exc:
        return None, None, n_src, n_tgt, str(exc)

    # The whole source array is normalized and projected once; positives
    # are gathered from the projection and negatives stay its rows.
    Xa = aligned_source_basis(S, solve_alignment(S, T))
    proj = project_for_training(normalize(source.features, S.stats)[0], Xa)
    tag = class_id if shared is None else FULL_IMAGE_TAG
    adapted = train_detector(
        proj[overlaps >= cfg.gamma], proj, cfg.train, class_id=class_id,
        frame=f"aligned:{tag}", rows=neg,
    )
    return adapted, (S, T) if shared is None else None, n_src, n_tgt, ""


def passthrough_states(
    detectors: dict[str, LinearDetector],
) -> dict[str, ClassAdaptationState]:
    """Wrap raw-frame detectors as unadapted per-class states."""
    return {c: ClassAdaptationState(det) for c, det in detectors.items()}


def adapt(
    source: Dataset,
    target: Dataset,
    cfg: AdaptationConfig,
    init_detectors: dict[str, LinearDetector],
    target_scores: np.ndarray,
    warnings: list[str] | None = None,
    adapted: tuple | None = None,
) -> dict[str, ClassAdaptationState]:
    """Run subspace-alignment adaptation from ``source`` to ``target``.

    Returns one :class:`ClassAdaptationState` per initial detector.
    ``target_scores`` is ``raw_score_rows(target, init_detectors.values())``,
    the initial scores target mining thresholds.  Per-class failures (empty
    mining, rank trouble) downgrade that class to a pass-through of its
    initial detector instead of aborting the run; in full-image mode a
    failure of the global pool downgrades every class.

    The classes are adapted in ``min(classes, usable CPUs)`` processes
    (``_per_class``; Linux only, with ``OPENBLAS_NUM_THREADS=1``, one CPU
    under ``taskset -c 0``), with the
    states and warnings of the one-process loop, byte for byte: a
    downgraded class keeps its initial detector object, and in full-image
    mode every class holds the one global pair.  ``adapted``, from
    ``train_and_adapt``, is ``(_full_image_pair(...), results)``: the
    per-class results of a round that has adapted these classes already;
    adapt then checks its arguments and builds the states from them.
    """
    fault = _unadaptable(source, target, cfg)
    if fault is not None:
        raise DataError(fault)
    expected = (len(init_detectors), target.boxes.shape[0])
    if target_scores.shape != expected:
        raise DataError(
            f"target scores have shape {target_scores.shape}, expected {expected}: "
            "one row per initial detector, one column per target proposal"
        )
    warnings = warnings if warnings is not None else []
    if cfg.mode == "none":
        return passthrough_states(init_detectors)
    shared, results = adapted or (_full_image_pair(source, target, cfg), None)
    if isinstance(shared, Exception):
        warnings.append(f"adapt: full-image pool: {shared}; all classes downgraded")
        return {
            c: ClassAdaptationState(det, downgraded=True, note=str(shared))
            for c, det in init_detectors.items()
        }
    if results is None:
        classes = list(init_detectors)
        results = _per_class(
            lambda k: _adapt_class(
                source, target, cfg, classes[k], target_scores[k], shared
            ),
            len(classes),
        )
    states = {}
    for (c, det), (new, pair, n_src, n_tgt, note) in zip(init_detectors.items(), results):
        if new is None:
            warnings.append(f"adapt: class '{c}': {note}; downgraded")
            states[c] = ClassAdaptationState(
                det, n_pos_src=n_src, n_pos_tgt=n_tgt, downgraded=True, note=note
            )
        else:
            S, T = shared or pair
            states[c] = ClassAdaptationState(new, S, T, n_pos_src=n_src, n_pos_tgt=n_tgt)
    return states


def detect(
    target: Dataset,
    states: dict[str, ClassAdaptationState],
    cfg: AdaptationConfig,
) -> Detections:
    """Adapted detection over the target set.

    Per class, the test-time projection is folded into the detector once
    (pass-through classes keep theirs), and ``raw_score_rows`` scores the
    dataset's feature array with every class's detector in one pass.  The
    scores are thresholded at ``cfg.detect_thresh`` together and all
    classes' detections go to one ``greedy_nms`` call, which suppresses
    each (class, image) group on its own and computes each image's box
    conflicts once for all classes.  Output order is class (as in
    ``target``), then image (dataset order), then NMS keep order; images
    and classes are named as in ``target``.

    Every class is held at once: the (k, n) float64 scores, the rows that
    pass the threshold as one ``Detections`` and ``greedy_nms``'s index
    arrays over them.  So transient memory grows linearly in the number of
    classes k, where one NMS call per class held one class's rows at a
    time: k times as many rows when every proposal passes, as with a
    threshold of -1000.
    """
    codes, detectors = [], []
    for k, class_id in enumerate(target.classes):
        state = states.get(class_id)
        if state is None:
            continue
        det = state.adapted_detector
        if state.target_subspace is not None:
            v, c = project_for_testing(det.weights, det.bias, state.target_subspace)
            det = LinearDetector(class_id, v, c, "raw")
        codes.append(k)
        detectors.append(det)
    scores = raw_score_rows(target, detectors)
    which, rows = np.nonzero(scores >= cfg.detect_thresh)  # class-major
    picked = Detections(
        target.boxes[rows], scores[which, rows], target.image_index[rows],
        np.array(codes, dtype=np.intp)[which], target.image_ids, target.classes,
    )
    del scores, which, rows  # freed before NMS runs
    return greedy_nms(picked, cfg.nms_thresh)

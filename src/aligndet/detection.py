"""Detector-side primitives: bounding boxes, IoU overlap, linear margin
classifiers with hard-negative mining, proposal scoring, and greedy NMS."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import ensure_feature_matrix

# Negatives scoring above -HINGE_MARGIN violate the margin and get mined.
HINGE_MARGIN = 1.0
# Size of the initial negative cache before any mining round.
INITIAL_NEG_CACHE = 1024
# greedy_nms computes IoU rows for at most this many ranked detections at a
# time, which bounds its memory and lets it skip rows suppressed earlier.
NMS_BLOCK_ROWS = 256
# _subgradient_descent caches Gram columns (n floats each) up to this many
# floats in all (16 MiB); past it, a step recomputes its margins instead.
GRAM_CACHE_FLOATS = 1 << 21


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates; max corner never below min."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for v in (self.x_min, self.y_min, self.x_max, self.y_max):
            if not math.isfinite(v):
                raise DataError("box coordinates must be finite")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise DataError(
                f"degenerate box ordering: ({self.x_min}, {self.y_min}, "
                f"{self.x_max}, {self.y_max})"
            )

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True)
class GroundTruth:
    """Annotated object box."""

    image_id: str
    class_id: str
    box: BBox


@dataclass(frozen=True)
class Detection:
    """Scored, class-labeled box emitted by a detector."""

    image_id: str
    box: BBox
    class_id: str
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise DataError("detection score must be finite")


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes; 0 when the union is empty."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def pairwise_iou(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """IoU of every box row of ``A`` (n x 4) with every box row of ``B``
    (m x 4), rows in ``BBox.as_tuple`` order, as an n x m matrix.

    Each entry equals ``iou`` of the two boxes exactly: the same float
    operations run in the same order, with 0 where the union is not
    positive.  Like Python floats, overflow gives inf or nan silently.
    """
    ax0, ay0, ax1, ay1 = (A[:, k, None] for k in range(4))
    bx0, by0, bx1, by1 = B.T
    with np.errstate(all="ignore"):
        ix = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
        iy = np.minimum(ay1, by1) - np.maximum(ay0, by0)
        inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
        union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
        return np.divide(inter, union, out=np.zeros_like(inter), where=~(union <= 0.0))


@dataclass
class TrainConfig:
    """Hyperparameters of the linear margin classifier.

    ``reg_lambda`` weights the L2 penalty; training is deterministic
    full-batch subgradient descent with step 1/(reg_lambda * t) for
    ``iterations`` steps, repeated over at most ``max_hard_rounds`` rounds
    of hard-negative mining.  From a zero start that step makes each
    iterate a running sum of the rows that violated the margin so far, so
    the trainer replays the step-by-step trajectory exactly from
    per-row violation counts (see ``_subgradient_descent``).
    """

    reg_lambda: float = 0.01
    iterations: int = 2000
    max_hard_rounds: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.reg_lambda) and self.reg_lambda > 0):
            raise DataError("reg_lambda must be positive")
        if self.iterations < 1:
            raise DataError("iterations must be >= 1")
        if self.max_hard_rounds < 1:
            raise DataError("max_hard_rounds must be >= 1")


@dataclass(eq=False)
class LinearDetector:
    """Linear scoring rule w . x + b for one class, tied to one frame.

    ``frame`` names the projection the training data lived in ("raw",
    "aligned:<class>", ...); scoring data from any other frame is a hard
    error.
    """

    class_id: str
    weights: np.ndarray
    bias: float
    frame: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.weights)) or not math.isfinite(self.bias):
            raise DataError("detector parameters must be finite")


def hinge_objective(w, b, X, y, reg_lambda: float) -> float:
    """L2-regularized mean hinge loss at (w, b): the objective that
    ``_subgradient_descent`` descends, ``0.5 * reg_lambda * (|w|^2 + b^2)``
    plus the mean of ``max(0, 1 - y * (X @ w + b))``.  The bias is
    penalized like a weight because the trainer carries it as a constant
    feature."""
    margins = y * (X @ w + b)
    hinge = np.maximum(0.0, HINGE_MARGIN - margins)
    return 0.5 * reg_lambda * (float(w @ w) + b * b) + float(hinge.mean())


def _first_loud_step(umin: float, scale: float, t: int, T: int) -> int:
    """First step s in (t, T] at which some row violates when ``u`` stays
    as it is: the first whose threshold ``scale * (s - 1)`` exceeds
    ``umin``, or T + 1.  The candidate comes from a division and is then
    moved to agree with that exact float expression, which is
    nondecreasing in s."""
    q = umin / scale
    if not math.isfinite(q):
        return T + 1
    s = max(t + 1, min(math.floor(q) + 2, T + 1))
    while s > t + 1 and scale * (s - 2) > umin:
        s -= 1
    while s <= T and scale * (s - 1) <= umin:
        s += 1
    return s


def _subgradient_descent(
    X, y, cfg: TrainConfig, counts: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Full-batch subgradient descent on the regularized hinge objective
    (``hinge_objective``).

    Deterministic: fixed iteration count, step 1/(reg_lambda * t), start at
    zero.  The bias rides along as a constant feature so it shares the
    weight shrinkage; an unregularized bias is unstable under the 1/(l*t)
    schedule (the first step is huge).

    With that step and start, the iterate after step t is the running sum
    ``Z.T @ c / (reg_lambda * t * n)``, where ``Z = y * [X, 1]`` and ``c[i]``
    counts the steps at which row i violated the margin (the Pegasos
    iterate without its projection).  So the trajectory is replayed from
    the counts: with ``u = Z @ Z.T @ c``, row i violates at step t exactly
    when ``u[i] < HINGE_MARGIN * reg_lambda * n * (t - 1)``.  A step with
    few violators adds their Gram columns ``Z @ z_j`` to ``u`` (each
    computed once, at most ``GRAM_CACHE_FLOATS`` floats in all), a step
    with many recomputes ``u``, and steps without a violator are skipped.
    The violators, and so the iterates, are those of the step-by-step loop
    up to float rounding.

    ``counts``, when given (length n), receives the final counts ``c``.
    """
    n = X.shape[0]
    lam, T = cfg.reg_lambda, cfg.iterations
    Z = y[:, None] * np.hstack([X, np.ones((n, 1))])
    D = Z.shape[1]
    c = np.ones(n)  # at w = 0 every row violates
    u = Z @ (Z.T @ c)
    scale = HINGE_MARGIN * lam * n
    max_cols = min(n, GRAM_CACHE_FLOATS // n)
    gram = np.empty((0, n))  # gram[slot[j]] = Z @ z_j
    slot = np.full(n, -1)
    cached = 0
    t = 2
    while t <= T:
        thr = scale * (t - 1)
        umin = u[u.argmin()]  # argmin is cheaper than min on short arrays
        if not umin < thr:
            t = _first_loud_step(float(umin), scale, t, T)
            continue
        viol = (u < thr).nonzero()[0]
        c[viol] += 1.0
        rows = slot[viol]
        new = viol[rows < 0]
        # Cached columns cost n flops each and new ones n * D, against
        # 2 * n * D for recomputing u.
        if viol.size + new.size * D < 2 * D and cached + new.size <= max_cols:
            if new.size:
                if cached + new.size > gram.shape[0]:
                    grown = np.empty((min(max_cols, 2 * (cached + new.size)), n))
                    grown[:cached] = gram[:cached]
                    gram = grown
                gram[cached : cached + new.size] = Z[new] @ Z.T
                slot[new] = np.arange(cached, cached + new.size)
                cached += new.size
                rows = slot[viol]
            if rows.size == 1:  # the common case; a row view needs no sum
                u += gram[rows[0]]
            else:
                u += gram[rows].sum(axis=0)
        else:
            u = Z @ (Z.T @ c)
        t += 1
    if counts is not None:
        counts[:] = c
    w = (Z.T @ c) / (lam * T * n)
    return w[:-1], float(w[-1])


def train_detector(
    pos,
    neg,
    cfg: TrainConfig,
    class_id: str = "",
    frame: str = "raw",
    record: list | None = None,
) -> LinearDetector:
    """Train a linear detector with hard-negative mining.

    Each round trains on the positives plus the current negative cache,
    scores the full negative pool, and adds margin violators (score above
    -1) to the cache; mining stops when a round adds nothing new or after
    ``cfg.max_hard_rounds`` rounds.

    ``record``, when given, receives one dict per round with the weights,
    bias and cache indices of that round and the trainer's violation
    counts over its rows (positives, then cache), used by diagnostics and
    tests.  With ``T = cfg.iterations`` and n rows, ``alpha = counts / (T
    * n)`` is dual feasible (``0 <= alpha <= 1/n``) and gives the round's
    (weights, bias) as ``Z.T @ alpha / reg_lambda`` (see
    ``_subgradient_descent``), so ``sum(alpha) - reg_lambda / 2 *
    (|w|^2 + b^2)`` is a lower bound on the round's optimal
    ``hinge_objective``.
    """
    P = ensure_feature_matrix(pos, "pos")
    N = ensure_feature_matrix(neg, "neg")
    if P.shape[1] != N.shape[1]:
        raise DataError(
            f"positive dim {P.shape[1]} != negative dim {N.shape[1]}"
        )

    cache = np.arange(min(N.shape[0], INITIAL_NEG_CACHE))
    w, b = np.zeros(P.shape[1]), 0.0
    for _ in range(cfg.max_hard_rounds):
        X = np.vstack([P, N[cache]])
        y = np.concatenate([np.ones(P.shape[0]), -np.ones(cache.shape[0])])
        counts = None if record is None else np.empty(len(y), dtype=np.int64)
        w, b = _subgradient_descent(X, y, cfg, counts)
        if record is not None:
            record.append(
                {"weights": w.copy(), "bias": b, "cache": cache.copy(), "counts": counts}
            )
        pool_scores = N @ w + b
        violators = np.flatnonzero(pool_scores > -HINGE_MARGIN)
        new = np.setdiff1d(violators, cache, assume_unique=False)
        if new.size == 0:
            break
        cache = np.union1d(cache, new)
    return LinearDetector(class_id=class_id, weights=w, bias=b, frame=frame)


def score_proposals(det: LinearDetector, X, frame: str) -> np.ndarray:
    """Raw margins w . x + b for every row of ``X``.

    ``frame`` must equal the detector's training frame; a mismatch means a
    projection step was skipped or used the wrong basis.
    """
    if frame != det.frame:
        raise DataError(
            f"detector for '{det.class_id}' expects frame '{det.frame}', "
            f"got '{frame}'"
        )
    A = ensure_feature_matrix(X)
    if A.shape[1] != det.weights.shape[0]:
        raise DataError(
            f"feature dim {A.shape[1]} != detector dim {det.weights.shape[0]}"
        )
    return A @ det.weights + det.bias


def rank_key(d: Detection):
    """The order in which NMS and AP matching visit detections: score
    descending, then image id, then box coordinates, so ties never depend
    on input order."""
    return (-d.score, d.image_id, d.box.as_tuple())


def greedy_nms(dets: list[Detection], overlap_thresh: float) -> list[Detection]:
    """Greedy non-maximum suppression.

    Repeatedly keeps the highest-scoring remaining detection and drops every
    remaining one whose IoU with it exceeds ``overlap_thresh``.  Ties break
    by image id, then box coordinates, so output order is reproducible.

    IoUs come from ``pairwise_iou`` in blocks of ``NMS_BLOCK_ROWS`` ranked
    detections against all later ones, so a call on n detections holds a
    few ``min(n, NMS_BLOCK_ROWS) x n`` float arrays: up to 256 detections
    that is one n x n matrix (0.3 MB at n = 200).  Rows already suppressed
    when their block starts are not computed.
    """
    if not 0.0 <= overlap_thresh <= 1.0:
        raise DataError("overlap threshold must be in [0, 1]")
    classes = {d.class_id for d in dets}
    if len(classes) > 1:
        raise DataError(f"NMS input mixes classes: {sorted(classes)}")
    if not dets:
        return []
    ranked = sorted(dets, key=rank_key)
    boxes = np.array([d.box.as_tuple() for d in ranked])
    n = len(ranked)
    alive = np.ones(n, dtype=bool)
    for start in range(0, n, NMS_BLOCK_ROWS):
        stop = min(start + NMS_BLOCK_ROWS, n)
        if start == 0:  # all rows still alive: slice, don't copy
            rows, block = range(stop), boxes[:stop]
        else:  # rows that earlier blocks suppressed need no IoUs
            rows = (start + np.flatnonzero(alive[start:stop])).tolist()
            block = boxes[rows]
        compatible = pairwise_iou(block, boxes[start:]) <= overlap_thresh
        for k, i in enumerate(rows):
            if alive[i]:
                alive[i + 1 :] &= compatible[k, i + 1 - start :]
    return [d for d, keep in zip(ranked, alive.tolist()) if keep]

"""Detector-side primitives: bounding boxes, IoU overlap, linear margin
classifiers with hard-negative mining, proposal scoring, and greedy NMS."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import GATHER_FLOATS, as_feature_matrix, ensure_feature_matrix, matvec

# Negatives scoring above -HINGE_MARGIN violate the margin and get mined.
HINGE_MARGIN = 1.0
# Size of the initial negative cache before any mining round.
INITIAL_NEG_CACHE = 1024
# greedy_nms's work unit.  An image of m distinct boxes with m * m at most
# this is eager: its boolean conflicts go into tiles of (images, m, m)
# holding at most this many (32 KiB), computed a quarter tile per
# pairwise_iou call so that each float64 temporary stays at 64 KiB.  A
# larger image is lazy: its groups compute IoUs in blocks of at most this
# many.  Measured with one-call-per-detect NMS on dense's NMS input (10
# images of 200 boxes, 5 classes; lazy at this value) and on one image of
# 2,000 boxes with 1 and 20 classes: 2**14 and 2**15 are within noise of
# each other; 2**13 is 1.5x slower on dense, 2**16 is 1.5x slower on dense
# (its images turn eager, one per tile) and 2**17 is 2x slower with one
# class.
NMS_TILE_FLOATS = 1 << 15
# The hinge trainer's Gram cache (_GramCache) holds columns of n floats each
# up to this many floats in all (16 MiB); past it, a step recomputes its
# margins instead.
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


def box_faults(boxes: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``(n, 4)`` ``boxes`` (``BBox.as_tuple`` order)
    that ``BBox`` rejects: a non-finite coordinate or a max corner below
    its min.  ``BBox(*boxes[i].tolist())`` raises the error of row i."""
    return ~np.isfinite(boxes).all(axis=1) | (boxes[:, 2:] < boxes[:, :2]).any(axis=1)


def label_codes(labels, names=None) -> tuple[np.ndarray, tuple[str, ...]]:
    """The index in ``names`` of each of ``labels``, and ``names``, which
    default to the labels in order of first appearance; an unknown label is
    a DataError."""
    names = tuple(dict.fromkeys(labels) if names is None else names)
    index = {name: k for k, name in enumerate(names)}
    try:
        return np.fromiter(map(index.__getitem__, labels), np.intp, len(labels)), names
    except KeyError as exc:
        raise DataError(f"label {exc} is not among {list(names)}") from None


class _BoxColumns:
    """The columns ``Detections`` and ``GroundTruths`` share: row i is the
    box ``boxes[i]`` (``BBox.as_tuple`` order) in image
    ``image_ids[image_index[i]]``, of class ``class_ids[class_index[i]]``."""

    def _check_columns(self, rows_of: str, shape_error: str) -> np.ndarray:
        """Coerce the shared columns; check that they hold as many rows as
        the 1-d column ``rows_of``, that the codes index their names and
        that names are unique.  Returns ``box_faults`` of the boxes."""
        self.boxes = np.asarray(self.boxes, dtype=np.float64)
        self.image_index = np.asarray(self.image_index, dtype=np.intp)
        self.class_index = np.asarray(self.class_index, dtype=np.intp)
        self.image_ids, self.class_ids = tuple(self.image_ids), tuple(self.class_ids)
        column = getattr(self, rows_of)
        n = column.shape[0] if column.ndim == 1 else -1
        if self.boxes.shape != (n, 4) or not (
            self.image_index.shape == self.class_index.shape == (n,)
        ):
            raise DataError(shape_error)
        for index, names in (
            (self.image_index, self.image_ids),
            (self.class_index, self.class_ids),
        ):
            if len(set(names)) != len(names):
                raise DataError(f"duplicate names in {list(names)}")
            if n and not 0 <= index.min() <= index.max() < len(names):
                raise DataError(f"codes outside [0, {len(names)})")
        return box_faults(self.boxes)

    def __len__(self) -> int:
        return self.boxes.shape[0]

    def class_rows(self, class_id: str) -> np.ndarray:
        """The rows of class ``class_id``, ascending; none for a class not named."""
        if class_id not in self.class_ids:
            return np.zeros(0, dtype=np.intp)
        return np.flatnonzero(self.class_index == self.class_ids.index(class_id))

    def outside(self, classes, image_ids=None) -> np.ndarray:
        """Mask of the rows whose class is not among ``classes``, or whose
        image is not among ``image_ids`` when given."""
        classes = set(classes)
        images = set(self.image_ids if image_ids is None else image_ids)
        bad_class = np.array([c not in classes for c in self.class_ids], dtype=bool)
        bad_image = np.array([i not in images for i in self.image_ids], dtype=bool)
        return bad_class[self.class_index] | bad_image[self.image_index]


@dataclass(eq=False)
class Detections(_BoxColumns):
    """Scored, class-labeled boxes as columns (``_BoxColumns``), row i with
    score ``scores[i]``.  The constructor checks the columns, then each row
    as ``BBox`` checks a box and that its score is finite, with their
    messages, and reports the first bad row."""

    boxes: np.ndarray
    scores: np.ndarray
    image_index: np.ndarray
    class_index: np.ndarray
    image_ids: tuple[str, ...]
    class_ids: tuple[str, ...]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        bad_box = self._check_columns(
            "scores", "detection columns must be (n, 4) boxes and n scores, image "
            "and class codes",
        )
        bad = bad_box | ~np.isfinite(self.scores)
        if bad.any():
            i = int(bad.argmax())
            if not bad_box[i]:
                raise DataError("detection score must be finite")
            BBox(*self.boxes[i].tolist())  # raises BBox's error for the row

    def take(self, rows) -> Detections:
        """The detections at ``rows`` (indices or a mask), same names; rows
        of checked columns are not checked again."""
        out = copy.copy(self)
        for name in ("boxes", "scores", "image_index", "class_index"):
            setattr(out, name, getattr(self, name)[rows])
        return out


@dataclass(eq=False)
class GroundTruths(_BoxColumns):
    """Annotated boxes as columns (``_BoxColumns``), checked as
    ``Detections`` are, without scores.  ``image_ids`` lists the labeled
    images, one without boxes too; an image it does not list is
    unlabeled."""

    boxes: np.ndarray
    image_index: np.ndarray
    class_index: np.ndarray
    image_ids: tuple[str, ...]
    class_ids: tuple[str, ...]

    def __post_init__(self):
        bad = self._check_columns(
            "image_index", "ground-truth columns must be (m, 4) boxes and m image "
            "and class codes",
        )
        if bad.any():
            BBox(*self.boxes[bad.argmax()].tolist())  # raises BBox's error

    def per_image(self, class_id: str, image_ids) -> np.ndarray:
        """The boxes of class ``class_id`` of each image named in
        ``image_ids``, in row order, as a ``(len(image_ids), w, 4)`` array
        padded with (0, 0, 0, 0) boxes to the most any image has (an image
        the table does not list has none).  A padding box meets every box
        with an IoU of 0, or NaN for an overflowing area."""
        at = {name: k for k, name in enumerate(image_ids)}
        rows = self.class_rows(class_id)
        names = map(self.image_ids.__getitem__, self.image_index[rows].tolist())
        owner = np.fromiter((at.get(name, -1) for name in names), np.intp, rows.size)
        order = np.argsort(owner, kind="stable")[np.count_nonzero(owner < 0) :]
        rows, owner = rows[order], owner[order]
        counts = np.bincount(owner, minlength=len(at))
        slot = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
        boxes = np.zeros((len(at), counts.max(initial=0), 4))
        boxes[owner, slot] = self.boxes[rows]
        return boxes


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
    """IoU of every box row of ``A`` (``..., n, 4``) with every box row of
    ``B`` (``..., m, 4``), rows in ``BBox.as_tuple`` order, as a
    ``..., n, m`` array; leading dimensions broadcast, so one call serves a
    stack of images.

    Each entry equals ``iou`` of the two boxes exactly: the same float
    operations run in the same order, with 0 where the union is not
    positive.  Integer coordinates are computed as float64.  The result,
    two float scratch arrays and one boolean mask are the only full-size
    allocations; every step writes into them in place.  Like Python
    floats, overflow gives inf or nan silently.
    """
    dtype = np.result_type(A, B, 0.0)
    A, B = np.asarray(A, dtype=dtype), np.asarray(B, dtype=dtype)
    ax0, ay0, ax1, ay1 = (A[..., :, k, None] for k in range(4))
    bx0, by0, bx1, by1 = (B[..., None, :, k] for k in range(4))
    with np.errstate(all="ignore"):
        inter = np.minimum(ax1, bx1)
        tmp = np.maximum(ax0, bx0)
        inter -= tmp
        out = np.minimum(ay1, by1)
        np.maximum(ay0, by0, out=tmp)
        out -= tmp
        np.maximum(inter, 0.0, out=inter)
        np.maximum(out, 0.0, out=out)
        inter *= out
        union = np.add((ax1 - ax0) * (ay1 - ay0), (bx1 - bx0) * (by1 - by0), out=tmp)
        union -= inter
        # Divided everywhere, then 0 where the union is not positive: a
        # masked division costs more than a full one and a masked store.
        empty = np.less_equal(union, 0.0)
        np.divide(inter, union, out=out)
        out[empty] = 0.0
        return out


@dataclass
class TrainConfig:
    """Hyperparameters of the linear margin classifier.

    ``reg_lambda`` weights the L2 penalty; training is deterministic
    full-batch subgradient descent with step 1/(reg_lambda * t) for
    ``iterations`` steps, repeated over at most ``max_hard_rounds`` rounds
    of hard-negative mining.  From a zero start that step makes each
    iterate a running sum of the rows that violated the margin so far, so
    the trainer replays the step-by-step trajectory exactly from per-row
    violation counts (see ``_replay``).  The Gram columns that replay uses
    live for one ``train_detector`` call and are computed in blocks, within
    the ``GRAM_CACHE_FLOATS`` bound.  Mining appends to the negative cache,
    so a column carried into the next round gains only the entries of the
    appended rows.
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

    ``frame`` names the projection the training data lived in (the raw
    features, or a class's aligned frame; see ``pipeline.frame_tag``);
    scoring data from any other frame is a hard error.
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
    ``_replay`` descends, ``0.5 * reg_lambda * (|w|^2 + b^2)`` plus the
    mean of ``max(0, 1 - y * (X @ w + b))``.  The bias is penalized like a
    weight because the trainer carries it as a constant feature."""
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


class _GramCache:
    """Gram columns ``Z @ z_j`` of the rows ``Z`` of a hinge problem, kept
    across the rounds of one ``train_detector`` call.

    Each round's rows are the previous round's, in the same positions, then
    the appended ones.  ``extend(Z)`` makes ``Z`` the current rows: each
    carried column gains only the entries of the appended rows, all from
    one product.  ``slot[i]`` is the index in ``cols`` of the column of row
    i, or -1.  For n rows at most ``min(n, GRAM_CACHE_FLOATS // n)`` columns
    are kept; a round with a lower bound drops the latest ones.  Each column
    is its own array, so adding columns copies none and a round replaces
    them one at a time.
    """

    def __init__(self):
        self.cols: list[np.ndarray] = []
        self.slot = np.empty(0, dtype=np.intp)
        self.max_cols = 0

    def extend(self, Z: np.ndarray) -> None:
        """Make ``Z`` the current rows, carrying the kept columns."""
        n, old = Z.shape[0], self.slot.size
        self.max_cols = min(n, GRAM_CACHE_FLOATS // n)
        del self.cols[self.max_cols :]
        self.slot = np.append(self.slot, np.full(n - old, -1))
        self.slot[self.slot >= self.max_cols] = -1
        owners = np.flatnonzero(self.slot >= 0)
        fresh = Z[owners] @ Z[old:].T
        for k, entries in zip(self.slot[owners].tolist(), fresh):
            self.cols[k] = np.concatenate((self.cols[k], entries))

    def add(self, Z: np.ndarray, new: np.ndarray) -> None:
        """Compute the columns of the uncached rows ``new``, all in one
        product."""
        self.slot[new] = np.arange(len(self.cols), len(self.cols) + new.size)
        self.cols.extend(Z[new] @ Z.T)


def _replay(
    Z: np.ndarray, gram: _GramCache, cfg: TrainConfig
) -> tuple[np.ndarray, float, np.ndarray]:
    """Full-batch subgradient descent on the regularized hinge objective
    (``hinge_objective``) over the rows ``Z = y * [X, 1]``, using and
    extending the columns of ``gram``, whose current rows they are
    (``train_detector`` keeps one cache across its rounds).

    Deterministic: fixed iteration count, step 1/(reg_lambda * t), start at
    zero.  The bias rides along as a constant feature so it shares the
    weight shrinkage; an unregularized bias is unstable under the 1/(l*t)
    schedule (the first step is huge).

    With that step and start, the iterate after step t is the running sum
    ``Z.T @ c / (reg_lambda * t * n)``, where ``c[i]`` counts the steps at
    which row i violated the margin (the Pegasos iterate without its
    projection).  So the trajectory is replayed from the counts: with
    ``u = Z @ Z.T @ c``, row i violates at step t exactly when
    ``u[i] < HINGE_MARGIN * reg_lambda * n * (t - 1)``.  A step adds its
    violators' Gram columns ``Z @ z_j`` to ``u``, computing those not yet
    cached in one block; a step with many violators, or whose new columns
    would pass the ``GRAM_CACHE_FLOATS`` bound, recomputes ``u`` instead,
    and steps without a violator are skipped.  The violators, and so the
    iterates, are those of the step-by-step loop up to float rounding.

    Returns the weights, the bias and the final counts ``c`` as int64.
    """
    slot, cols = gram.slot, gram.cols
    n, D = Z.shape
    lam, T = cfg.reg_lambda, cfg.iterations
    c = np.ones(n)  # at w = 0 every row violates
    u = Z @ (Z.T @ c)
    scale = HINGE_MARGIN * lam * n
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
        # A cached column costs n flops, a block of new ones about one pass
        # over Z (n * D: one product streams Z once) and recomputing u two.
        cost = viol.size + (D if new.size else 0)
        if cost < 2 * D and len(cols) + new.size <= gram.max_cols:
            if new.size:
                gram.add(Z, new)
                rows = slot[viol]
            if rows.size == 1:  # the common case
                u += cols[rows[0]]
            else:  # summed in row order, as an axis-0 sum would
                total = cols[rows[0]] + cols[rows[1]]
                for r in rows[2:].tolist():
                    total += cols[r]
                u += total
        else:
            u = Z @ (Z.T @ c)
        t += 1
    w = (Z.T @ c) / (lam * T * n)
    return w[:-1], float(w[-1]), c.astype(np.int64)


def train_detector(
    pos,
    neg,
    cfg: TrainConfig,
    class_id: str = "",
    frame: str = "raw",
    record: list | None = None,
    rows=None,
) -> LinearDetector:
    """Train a linear detector with hard-negative mining.

    The negative pool is the rows ``rows`` of ``neg`` (every row when
    None), in that order, so a caller holding one feature array passes it
    with the pool's row indices and no pool is copied: each round gathers
    and negates its cache rows into the trainer's float64 matrix in blocks
    of at most ``GATHER_FLOATS`` (``np.take`` into the matrix's feature
    columns would buffer the whole gather, since they are not contiguous),
    and scores the pool as ``(neg @ w + b)[rows]`` with ``matvec``.  Cache
    indices are positions in the pool.  Training on ``(pos, F, rows=r)``
    gives the bits of ``(pos, F[r])``.  ``pos`` and ``neg`` may be float32
    (``as_feature_matrix``); both enter every product upcast exactly, so
    they train as the float64 arrays holding their values do.  ``neg`` is
    not scanned for non-finite entries up front: ``matvec`` names the first
    one when it scores the pool.

    Each round trains on the positives plus the current negative cache,
    scores the full negative pool, and appends the margin violators (score
    above -1) that are new to the cache, in ascending pool order; mining
    stops when a round adds nothing new or after ``cfg.max_hard_rounds``
    rounds.  The rounds share one Gram cache (``_GramCache``), which lives
    for the call: earlier rows keep their positions, so a column carried
    into the next round gains only the entries of the appended rows, and
    the columns of new violators are computed in blocks.

    ``record``, when given, receives one dict per round with the weights,
    bias and cache indices of that round (the initial cache, then each
    earlier round's additions in ascending order), the trainer's violation
    counts over its rows (positives, then cache), and ``new``, the number
    of pool violators outside the cache after the round: 0 when mining
    ended because nothing new violated, and positive when it stopped at
    ``cfg.max_hard_rounds``.  With ``T = cfg.iterations`` and n rows,
    ``alpha = counts / (T * n)`` is dual feasible (``0 <= alpha <= 1/n``)
    and gives the round's (weights, bias) as ``Z.T @ alpha / reg_lambda``
    (see ``_replay``), so ``sum(alpha) - reg_lambda / 2 *
    (|w|^2 + b^2)`` is a lower bound on the round's optimal
    ``hinge_objective``.
    """
    P = ensure_feature_matrix(pos, "pos")
    N = as_feature_matrix(neg, "neg")
    if P.shape[1] != N.shape[1]:
        raise DataError(
            f"positive dim {P.shape[1]} != negative dim {N.shape[1]}"
        )
    pool = np.arange(N.shape[0]) if rows is None else np.asarray(rows)
    if pool.ndim != 1 or pool.dtype.kind not in "iu" or not pool.size:
        raise DataError("rows must be a non-empty 1-d array of row indices")
    if not 0 <= pool.min() <= pool.max() < N.shape[0]:
        raise DataError(f"rows must index the {N.shape[0]} rows of neg")

    p, dim = P.shape
    gram = _GramCache()
    cache = np.arange(min(pool.size, INITIAL_NEG_CACHE))
    w, b = np.zeros(dim), 0.0
    for _ in range(cfg.max_hard_rounds):
        # Z = y * [X, 1] of the round, built in place: the cache rows are
        # gathered and negated into Z in blocks, and negation and the
        # constant column are exact, so these are the product's bits.
        Z = np.empty((p + cache.size, dim + 1))
        Z[:p, :dim] = P
        negs, step = Z[p:, :dim], max(1, GATHER_FLOATS // dim)
        for a in range(0, cache.size, step):
            np.negative(N[pool[cache[a : a + step]]], out=negs[a : a + step])
        Z[:p, dim] = 1.0
        Z[p:, dim] = -1.0
        gram.extend(Z)
        w, b, counts = _replay(Z, gram, cfg)
        del Z, negs  # freed before the next round builds its rows
        violators = np.flatnonzero((matvec(N, w, "neg") + b)[pool] > -HINGE_MARGIN)
        new = np.setdiff1d(violators, cache)  # ascending
        if record is not None:
            record.append(
                {
                    "weights": w.copy(),
                    "bias": b,
                    "cache": cache,
                    "counts": counts,
                    "new": int(new.size),
                }
            )
        if new.size == 0:
            break
        cache = np.concatenate((cache, new))
    return LinearDetector(class_id=class_id, weights=w, bias=b, frame=frame)


def greedy_nms(dets: Detections, overlap_thresh: float) -> Detections:
    """Greedy non-maximum suppression over each (class, image) group of
    ``dets`` on its own.

    Within a group, repeatedly keeps the highest-scoring remaining
    detection and drops every remaining one that conflicts with it; a
    conflict is ``not iou <= overlap_thresh``, so an IoU above the
    threshold, or NaN from an overflowing area, suppresses.  A detection
    never suppresses one of another class or image.  Output order:
    classes in the order they first appear in ``dets``, within a class
    its images in the order they first appear among its rows, and within
    a group the kept detections by score descending, ties broken by box.
    Returns the kept rows of ``dets``.

    Conflicts depend on the boxes alone, so a call computes each image's
    once, over its distinct boxes (equal bit patterns), and every class
    shares them.  An image of m distinct boxes takes one of two regimes:

    - ``m * m <= NMS_TILE_FLOATS``: the images, largest first, are packed
      into padded tiles of at most ``NMS_TILE_FLOATS`` conflicts, computed
      eagerly, and the greedy pass walks every group of a tile's images at
      once, one rank at a time (``_walk_tiles``).
    - otherwise each of its groups is walked on its own and conflict rows
      are computed lazily, in blocks, only for rows still alive
      (``_walk_lazily``); a row computed against every distinct box of the
      image serves its later groups too.

    An eager image's conflicts cover all its distinct boxes, whichever of
    them each group holds, so when its classes hold disjoint subsets a call
    computes more IoUs than one call per class would (20 classes of 9
    boxes each: 32,400 against 1,620), though it takes less time there.

    Beyond index arrays as long as ``dets``, a call holds one tile of at
    most ``NMS_TILE_FLOATS`` conflicts or one block of at most as many
    IoUs at a time, and the conflict rows (m bits each) of the one large
    image being walked.
    """
    if not 0.0 <= overlap_thresh <= 1.0:
        raise DataError("overlap threshold must be in [0, 1]")
    if not len(dets):
        return dets
    group, group_image = _groups(dets)
    order = _rank_order(dets, group)
    ranked = _Ranked(group[order], *_distinct_boxes(dets, order))
    large = ranked.counts[group_image] ** 2 > NMS_TILE_FLOATS
    keep = np.zeros(len(dets), dtype=bool)
    _walk_tiles(ranked, group_image, np.flatnonzero(~large), keep, overlap_thresh)
    lazy = np.flatnonzero(large)
    lazy = lazy[np.argsort(group_image[lazy], kind="stable")]
    for groups in np.split(lazy, np.flatnonzero(np.diff(group_image[lazy])) + 1):
        if groups.size:
            spans = [ranked.span(g) for g in groups.tolist()]
            boxes = ranked.image_boxes(group_image[groups[0]])
            rankings = [ranked.box[s] for s in spans]
            for s, kept in zip(spans, _walk_lazily(boxes, rankings, overlap_thresh)):
                keep[s] = kept
    return dets.take(order[keep])


def _groups(dets: Detections) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (class, image) group, numbered in output order (classes
    in order of first appearance, then each class's images in order of
    first appearance among its rows), and each group's image code."""
    n_images = len(dets.image_ids)
    key = dets.class_index * n_images + dets.image_index
    keys, first, group = np.unique(key, return_index=True, return_inverse=True)
    # Keys sort class-major, so each class's groups are one run; a class
    # first appears at the first row of its earliest group.
    classes = keys // n_images
    runs = np.flatnonzero(np.diff(classes, prepend=-1))
    class_first = np.minimum.reduceat(first, runs)
    output = np.lexsort((first, np.repeat(class_first, np.diff(runs, append=keys.size))))
    rank = np.empty_like(output)
    rank[output] = np.arange(output.size)
    return rank[group], (keys % n_images)[output]


def _rank_order(dets: Detections, group: np.ndarray) -> np.ndarray:
    """The rows by group, then score descending, then box, then row:
    ``np.lexsort((*dets.boxes.T[::-1], -dets.scores, group))``.  The
    scores are sorted with an unstable sort and the groups with a stable
    (radix) one; then the rows of each run that ties on group and score,
    none unless scores tie, are sorted by box and row.  The plain
    ``lexsort`` made a warm ``detect`` 1.26x slower on the benchmark's
    ``accept`` workload and 1.22x on ``wide`` (outputs identical)."""
    by_score = np.argsort(-dets.scores)
    small = group.astype(np.min_scalar_type(group.max()))
    order = by_score[np.argsort(small[by_score], kind="stable")]
    score, group_of = dets.scores[order], group[order]
    same = (score[1:] == score[:-1]) & (group_of[1:] == group_of[:-1])
    tied = np.zeros(order.size, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    run = np.cumsum(np.r_[True, ~same])[tied]
    rows = order[tied]
    order[tied] = rows[np.lexsort((rows, *dets.boxes[rows].T[::-1], run))]
    return order


# Multiplier of the hash ``_distinct_boxes`` sorts rows by.
BOX_HASH = np.uint64(0x9E3779B97F4A7C15)


def _distinct_boxes(dets: Detections, order: np.ndarray):
    """The distinct boxes (equal bit patterns) of each image as one table,
    the image's first entry and count in it, and the number of the box of
    each row of ``order`` among its image's table entries.

    One sort of the rows by a hash of their image and box bits puts equal
    rows next to each other, and a row opens a new entry where it differs
    from the row before.  Two different rows that share a hash may split
    a run of equal rows, so that a box takes two entries of its image's
    table; two entries of one box conflict exactly as two rows of that box
    do, so that changes the work, not the output.  One ``lexsort`` of the
    rows by image and box bits made a warm ``detect`` 1.13x slower on the
    benchmark's ``accept`` workload and 1.11x on ``wide`` (outputs
    identical)."""
    bits = np.ascontiguousarray(dets.boxes).view(np.uint64)
    key = dets.image_index.astype(np.uint64)
    for k in range(4):
        key *= BOX_HASH
        key ^= bits[:, k]
    by_box = np.argsort(key)
    image = dets.image_index[by_box]
    new = np.empty(by_box.size, dtype=bool)
    new[0] = True
    np.not_equal(image[1:], image[:-1], out=new[1:])
    for k in range(4):  # a column at a time: no (n, 4) copy
        column = bits[by_box, k]
        new[1:] |= column[1:] != column[:-1]
    # Entries renumbered so that each image's are one run.
    owner = image[new]
    by_image = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=len(dets.image_ids))
    first = np.cumsum(counts) - counts
    number = np.empty(by_image.size, dtype=np.intp)
    number[by_image] = np.arange(by_image.size)
    box = np.empty(by_box.size, dtype=np.intp)
    box[by_box] = number[np.cumsum(new) - 1] - first[image]
    return dets.boxes[by_box[new][by_image]], first, counts, box[order]


@dataclass
class _Ranked:
    """The rows of a ``greedy_nms`` call in rank order: each row's group
    and its box's number among its image's distinct boxes, which
    ``table[first[i] : first[i] + counts[i]]`` lists for image i."""

    group: np.ndarray
    table: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        self.sizes = np.bincount(self.group)
        self.starts = np.cumsum(self.sizes) - self.sizes

    def span(self, g: int) -> slice:
        return slice(self.starts[g], self.starts[g] + self.sizes[g])

    def image_boxes(self, image: int) -> np.ndarray:
        return self.table[self.first[image] : self.first[image] + self.counts[image]]


def _walk_tiles(ranked, group_image, groups, keep, overlap_thresh) -> None:
    """The greedy pass of ``groups``, whose images are small enough for a
    tile, into ``keep``.  The images, largest first, are packed into
    tiles of (images, m, m) conflicts of at most ``NMS_TILE_FLOATS``
    entries, padded to the tile's largest image; then every group of a
    tile's images steps through its ranked rows at once: the rows of rank
    j are kept where their box is not yet suppressed in their group, and
    each kept row's conflicts are added to its group's suppressed set."""
    if not groups.size:
        return
    images = np.unique(group_image[groups])
    images = images[np.argsort(-ranked.counts[images], kind="stable")]
    tile_of = np.full(ranked.counts.size, -1)
    slot = np.zeros(ranked.counts.size, dtype=np.intp)
    tiles = []
    done = 0
    while done < images.size:
        m = int(ranked.counts[images[done]])
        members = images[done : done + NMS_TILE_FLOATS // (m * m)]
        tile_of[members] = len(tiles)
        slot[members] = np.arange(members.size)
        tiles.append((members, m))
        done += members.size
    # The groups' ranked rows sorted by tile, then by rank within group.
    in_tile = np.zeros(ranked.sizes.size, dtype=bool)
    in_tile[groups] = True
    rows = np.flatnonzero(in_tile[ranked.group])
    rank = rows - ranked.starts[ranked.group[rows]]
    row_tile = tile_of[group_image[ranked.group[rows]]]
    by_tile = np.lexsort((rank, row_tile))
    rows, rank, row_tile = rows[by_tile], rank[by_tile], row_tile[by_tile]
    ends = np.searchsorted(row_tile, np.arange(len(tiles) + 1))
    for t, (members, m) in enumerate(tiles):
        seg = slice(ends[t], ends[t + 1])
        valid = np.arange(m) < ranked.counts[members][:, None]
        boxes = np.zeros((members.size, m, 4))
        boxes[valid] = ranked.table[(ranked.first[members][:, None] + np.arange(m))[valid]]
        # A quarter of the tile's images at a time, so that the float
        # temporaries of pairwise_iou stay small beside the conflicts.
        conflict = np.empty((members.size, m, m), dtype=bool)
        per_call = max(1, NMS_TILE_FLOATS // (4 * m * m))
        for a in range(0, members.size, per_call):
            part = boxes[a : a + per_call]
            np.less_equal(pairwise_iou(part, part), overlap_thresh, out=conflict[a : a + per_call])
        np.logical_not(conflict, out=conflict)
        conflict = conflict.reshape(-1, m)  # row slot * m + box
        tile_rows, box = rows[seg], ranked.box[rows[seg]]
        local = np.unique(ranked.group[tile_rows], return_inverse=True)[1]
        suppressed = np.zeros((local.max() + 1, m), dtype=bool)
        flat = suppressed.reshape(-1)
        at = local * m + box
        row_of = slot[group_image[ranked.group[tile_rows]]] * m + box
        steps = np.flatnonzero(np.diff(rank[seg])) + 1
        for a, b in zip([0, *steps.tolist()], [*steps.tolist(), tile_rows.size]):
            alive = ~flat[at[a:b]]
            keep[tile_rows[a:b]] = alive
            suppressed[local[a:b][alive]] |= conflict[row_of[a:b][alive]]


def _walk_lazily(boxes: np.ndarray, rankings: list, overlap_thresh: float) -> list:
    """Keep masks of the groups of one image whose m distinct ``boxes``
    are too many for a tile, given each group's ranked rows as box
    numbers (``rankings``).

    Each group takes blocks of its next alive rows, as many as the tile
    budget allows against the alive rows from the first of them on, so
    rows suppressed by earlier blocks get no IoUs.  A conflict row is
    computed against the block's alive rows (its bit j: the block's j-th
    one), or against every box of the image (its bit v: box v), which
    serves the image's later groups too.  A group's blocks do not depend
    on that reuse, and a block takes the second kind only when the IoUs
    that reuse saved so far pay for it, so a call never computes more
    IoUs than its blocks' rows against their alive rows: the count of
    walking each group alone without reuse.  The greedy pass keeps a row
    that neither kind of bits suppresses and ors in its conflict row; both
    kinds are ints.
    """
    m = boxes.shape[0]
    shared: dict[int, int] = {}  # box -> conflicts with every box
    saved = 0
    masks = []
    for ids in rankings:
        dead = np.zeros(ids.size, dtype=bool)
        kept = []
        by_box = p = 0  # by_box: the group's suppressed boxes
        while p < ids.size:
            cols = p + np.flatnonzero(~(dead[p:] | _bit_array(by_box, m)[ids[p:]]))
            if not cols.size:
                break
            r = min(max(1, NMS_TILE_FLOATS // cols.size), cols.size)
            block = ids[cols[:r]].tolist()
            need = sorted({u for u in block if u not in shared})
            saved += r * cols.size
            local = {}
            if need and len(need) * m <= saved:
                saved -= len(need) * m
                shared.update(_conflict_rows(boxes[need], boxes, need, overlap_thresh))
            elif need:
                saved -= len(need) * cols.size
                local = _conflict_rows(boxes[need], boxes[ids[cols]], need, overlap_thresh)
            by_col = 0  # the block's suppressed rows
            for j, (q, u) in enumerate(zip(cols[:r].tolist(), block)):
                if not (by_box >> u & 1 or by_col >> j & 1):
                    kept.append(q)
                    if u in local:
                        by_col |= local[u]
                    else:
                        by_box |= shared[u]
            if by_col:
                dead[cols[_bit_array(by_col, cols.size)]] = True
            p = cols[r - 1] + 1
        mask = np.zeros(ids.size, dtype=bool)
        mask[kept] = True
        masks.append(mask)
    return masks


def _bit_array(bits: int, m: int) -> np.ndarray:
    """The low ``m`` bits of ``bits`` as a boolean array."""
    packed = np.frombuffer(bits.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=m, bitorder="little").view(bool)


def _conflict_rows(rows: np.ndarray, cols: np.ndarray, keys: list, overlap_thresh: float) -> dict:
    """The conflicts of each box of ``rows`` with the boxes ``cols`` as
    the bits of an int (bit j: ``cols[j]``), by the box's key in ``keys``,
    from blocks of at most ``NMS_TILE_FLOATS`` IoUs."""
    out = {}
    step = max(1, NMS_TILE_FLOATS // len(cols))
    for a in range(0, len(keys), step):
        conflict = pairwise_iou(rows[a : a + step], cols) <= overlap_thresh
        np.logical_not(conflict, out=conflict)
        packed = np.packbits(conflict, axis=1, bitorder="little")
        width, raw = packed.shape[1], packed.tobytes()
        for k, key in enumerate(keys[a : a + step]):
            out[key] = int.from_bytes(raw[k * width : (k + 1) * width], "little")
    return out

"""Detector-side primitives: bounding boxes, IoU overlap, linear margin
classifiers with hard-negative mining, proposal scoring, and greedy NMS."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import GATHER_FLOATS, as_feature_matrix, ensure_feature_matrix, matvec

# Negatives scoring above -HINGE_MARGIN violate the margin and get mined.
HINGE_MARGIN = 1.0
# Size of the initial negative cache before any mining round.
INITIAL_NEG_CACHE = 1024
# greedy_nms suppresses in tiles of (images, ranked rows, columns) holding at
# most this many IoUs (256 KiB of float64 per tile array).  Small images of
# a class share one tile; an image too large for it alone gets row blocks.
# Measured on the benchmark workloads' NMS inputs and on one image of 2,000
# boxes: 2**13 to 2**16 are within noise of each other on many small images,
# while a larger budget computes more wasted IoUs on large images (2**17 is
# about 2x slower there) and a smaller one pays more block overhead
# (2**13 is 1.6x slower on 2,000 sparse boxes).
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


def box_faults(boxes: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``(n, 4)`` ``boxes`` (``BBox.as_tuple`` order)
    that ``BBox`` rejects: a non-finite coordinate or a max corner below
    its min.  ``BBox(*boxes[i].tolist())`` raises the error of row i."""
    return ~np.isfinite(boxes).all(axis=1) | (boxes[:, 2:] < boxes[:, :2]).any(axis=1)


def _codes(labels, names: tuple[str, ...]) -> np.ndarray:
    """Index in ``names`` of each of ``labels``; an unknown one is a
    ``DataError``."""
    index = {name: k for k, name in enumerate(names)}
    try:
        return np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))
    except KeyError as exc:
        raise DataError(f"label {exc} is not among {list(names)}") from None


@dataclass(eq=False)
class Detections:
    """Scored, class-labeled boxes as columns: row i is the box
    ``boxes[i]`` (``BBox.as_tuple`` order) in image
    ``image_ids[image_index[i]]``, of class ``class_ids[class_index[i]]``,
    with score ``scores[i]``.

    The constructor checks each row as ``BBox`` and ``Detection`` do, with
    their messages, and reports the first bad row; it also checks the
    shapes, that the codes index their names and that names are unique.
    Iterating yields the rows as ``Detection`` objects, which serve tests
    and callers that want one object per row; two ``Detections`` are equal
    when their rows are.
    """

    boxes: np.ndarray
    scores: np.ndarray
    image_index: np.ndarray
    class_index: np.ndarray
    image_ids: tuple[str, ...]
    class_ids: tuple[str, ...]

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=np.float64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.image_index = np.asarray(self.image_index, dtype=np.intp)
        self.class_index = np.asarray(self.class_index, dtype=np.intp)
        self.image_ids, self.class_ids = tuple(self.image_ids), tuple(self.class_ids)
        n = self.scores.shape[0] if self.scores.ndim == 1 else -1
        if self.boxes.shape != (n, 4) or not (
            self.image_index.shape == self.class_index.shape == (n,)
        ):
            raise DataError(
                "detection columns must be (n, 4) boxes and n scores, image "
                "and class codes"
            )
        for index, names in (
            (self.image_index, self.image_ids),
            (self.class_index, self.class_ids),
        ):
            if len(set(names)) != len(names):
                raise DataError(f"duplicate names in {list(names)}")
            if n and not 0 <= index.min() <= index.max() < len(names):
                raise DataError(f"codes outside [0, {len(names)})")
        bad_box = box_faults(self.boxes)
        bad = bad_box | ~np.isfinite(self.scores)
        if bad.any():
            i = int(bad.argmax())
            if not bad_box[i]:
                raise DataError("detection score must be finite")
            BBox(*self.boxes[i].tolist())  # raises BBox's error for the row

    @classmethod
    def from_labels(
        cls, boxes, scores, images, classes, image_ids=None, class_ids=None
    ) -> Detections:
        """Columns whose image and class are given as one name per row.
        The name tables default to the names in order of first appearance."""
        image_ids = tuple(dict.fromkeys(images)) if image_ids is None else image_ids
        class_ids = tuple(dict.fromkeys(classes)) if class_ids is None else class_ids
        return cls(
            boxes, scores, _codes(images, image_ids), _codes(classes, class_ids),
            image_ids, class_ids,
        )

    @classmethod
    def concat(cls, parts, image_ids, class_ids) -> Detections:
        """The rows of ``parts``, in order; each part must name its images
        and classes by ``image_ids`` and ``class_ids``."""
        image_ids, class_ids = tuple(image_ids), tuple(class_ids)
        if any((p.image_ids, p.class_ids) != (image_ids, class_ids) for p in parts):
            raise DataError("detections to join use different name tables")
        return cls(
            np.concatenate([np.empty((0, 4)), *(p.boxes for p in parts)]),
            np.concatenate([np.empty(0), *(p.scores for p in parts)]),
            np.concatenate([np.empty(0, np.intp), *(p.image_index for p in parts)]),
            np.concatenate([np.empty(0, np.intp), *(p.class_index for p in parts)]),
            image_ids,
            class_ids,
        )

    def take(self, rows) -> Detections:
        """The detections at ``rows`` (indices or a mask), same names."""
        return Detections(
            self.boxes[rows], self.scores[rows], self.image_index[rows],
            self.class_index[rows], self.image_ids, self.class_ids,
        )

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __iter__(self) -> Iterator[Detection]:
        for box, score, i, c in zip(
            self.boxes.tolist(), self.scores.tolist(),
            self.image_index.tolist(), self.class_index.tolist(),
        ):
            yield Detection(self.image_ids[i], BBox(*box), self.class_ids[c], score)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Detections):
            return NotImplemented
        return list(self) == list(other)


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
    """Greedy non-maximum suppression over the detections of one class,
    each image on its own; input that mixes classes is a ``DataError``.

    Within an image, repeatedly keeps the highest-scoring remaining
    detection and drops every remaining one whose IoU with it exceeds
    ``overlap_thresh``; a detection never suppresses one of another image.
    Images are listed in the order they first appear in ``dets``, and each
    image's kept detections by score descending, ties broken by box, so
    output order is reproducible.  Returns the kept rows of ``dets``.

    One call serves a whole class.  Images, largest first, are packed into
    tiles of ``(images, rows, columns)`` of at most ``NMS_TILE_FLOATS``
    IoUs, padded to the tile's largest image, and the greedy pass runs
    over every image of a tile at once (``_suppress``).  An image too
    large for a tile of its own gets row blocks of its next alive ranked
    detections against the alive ones that follow, so rows suppressed by
    earlier blocks get no IoUs.  Beyond its ``(n, 4)`` box arrays, a call
    holds a few arrays of at most ``NMS_TILE_FLOATS`` entries at a time.
    """
    if not 0.0 <= overlap_thresh <= 1.0:
        raise DataError("overlap threshold must be in [0, 1]")
    classes = np.unique(dets.class_index).tolist()
    if len(classes) > 1:
        names = sorted(dets.class_ids[k] for k in classes)
        raise DataError(f"NMS input mixes classes: {names}")
    if not len(dets):
        return dets
    # Images numbered in order of first appearance.
    _, first, image = np.unique(
        dets.image_index, return_index=True, return_inverse=True
    )
    image = np.argsort(np.argsort(first))[image]
    # Score descending, then box, within each image; images in that order.
    order = np.lexsort((*dets.boxes.T[::-1], -dets.scores, image))
    boxes = dets.boxes[order]
    sizes = np.bincount(image)
    starts = np.cumsum(sizes) - sizes
    keep = np.zeros(len(dets), dtype=bool)
    # Largest images first, so that the images of a tile differ little in
    # size and its padding stays small.
    by_size = np.argsort(-sizes, kind="stable")
    g = 0
    while g < by_size.size:
        m = int(sizes[by_size[g]])
        if m * m > NMS_TILE_FLOATS:
            rows = slice(starts[by_size[g]], starts[by_size[g]] + m)
            keep[rows] = _suppress_blocks(boxes[rows], overlap_thresh)
            g += 1
            continue
        tile_images = by_size[g : g + NMS_TILE_FLOATS // (m * m)]
        valid = np.arange(m) < sizes[tile_images][:, None]
        rows = (starts[tile_images][:, None] + np.arange(m))[valid]
        tile = np.zeros((tile_images.size, m, 4))
        tile[valid] = boxes[rows]
        alive = valid.copy()
        _suppress(pairwise_iou(tile, tile) <= overlap_thresh, alive)
        keep[rows] = alive[valid]
        g += tile_images.size
    return dets.take(order[keep])


def _suppress(compatible: np.ndarray, alive: np.ndarray) -> None:
    """The greedy pass over a tile, for all its images at once: ranked row
    j of image i, while ``alive[i, j]``, clears ``alive[i, k]`` for every
    later column k it is not ``compatible`` with.  ``compatible`` is
    (images, rows, columns) and row j is column j; padding starts dead, so
    it suppresses nothing."""
    if alive.shape[0] == 1:  # one image: skip its dead rows instead of masking
        live, rows = alive[0], compatible[0]
        for j in range(rows.shape[0]):
            if live[j]:
                live[j + 1 :] &= rows[j, j + 1 :]
        return
    for j in range(compatible.shape[1]):
        alive[:, j + 1 :] &= compatible[:, j, j + 1 :] | ~alive[:, j, None]


def _suppress_blocks(boxes: np.ndarray, overlap_thresh: float) -> np.ndarray:
    """Keep mask of one image's ranked ``boxes``, too many for one tile:
    each block takes the next alive rows, as many as the tile budget
    allows against every alive column from the first of them on."""
    n = boxes.shape[0]
    alive = np.ones(n, dtype=bool)
    start = 0
    while start < n:
        cols = start + np.flatnonzero(alive[start:])
        if cols.size == 0:
            break
        r = min(max(1, NMS_TILE_FLOATS // cols.size), cols.size)
        sub = boxes[cols]
        live = np.ones((1, cols.size), dtype=bool)
        _suppress((pairwise_iou(sub[:r], sub) <= overlap_thresh)[None], live)
        alive[cols] = live[0]
        start = cols[r - 1] + 1
    return alive

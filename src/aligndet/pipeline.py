"""End-to-end adaptation: initial source training, positive mining in both
domains, per-class (or global) subspace alignment, retraining in the aligned
frame, and adapted detection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """
    _require_labeled(source)
    detectors: dict[str, LinearDetector] = {}
    for class_id in source.classes:
        overlaps = _class_max_overlaps(source, class_id)
        try:
            pos = mine_source_positives(source, class_id, cfg.gamma, overlaps)
            neg = _mine_source_negatives(class_id, cfg.neg_lambda, overlaps)
        except DataError as exc:
            if warnings is not None:
                warnings.append(f"initial-training: {exc}; class skipped")
            continue
        detectors[class_id] = train_detector(
            pos, source.features, cfg.train, class_id=class_id, frame="raw", rows=neg
        )
    return detectors


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
    det: LinearDetector,
    scores: np.ndarray,
    shared: tuple[Subspace, Subspace] | None,
    warnings: list[str],
) -> ClassAdaptationState:
    """Align one class and retrain its detector on projected source data.

    The subspace pair is fitted on the class's mined positives in both
    domains (the target's from ``scores``, its initial target scores), or
    is ``shared``, the global pair of full-image mode.  A class whose
    mining or fitting fails is downgraded to its initial detector.
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
        warnings.append(f"adapt: class '{class_id}': {exc}; downgraded")
        return ClassAdaptationState(
            det, n_pos_src=n_src, n_pos_tgt=n_tgt, downgraded=True, note=str(exc)
        )

    # The whole source array is normalized and projected once; positives
    # are gathered from the projection and negatives stay its rows.
    Xa = aligned_source_basis(S, solve_alignment(S, T))
    proj = project_for_training(normalize(source.features, S.stats)[0], Xa)
    tag = class_id if shared is None else FULL_IMAGE_TAG
    adapted = train_detector(
        proj[overlaps >= cfg.gamma], proj, cfg.train, class_id=class_id,
        frame=f"aligned:{tag}", rows=neg,
    )
    return ClassAdaptationState(adapted, S, T, n_pos_src=n_src, n_pos_tgt=n_tgt)


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
) -> dict[str, ClassAdaptationState]:
    """Run subspace-alignment adaptation from ``source`` to ``target``.

    Returns one :class:`ClassAdaptationState` per initial detector.
    ``target_scores`` is ``raw_score_rows(target, init_detectors.values())``,
    the initial scores target mining thresholds.  Per-class failures (empty
    mining, rank trouble) downgrade that class to a pass-through of its
    initial detector instead of aborting the run; in full-image mode a
    failure of the global pool downgrades every class.
    """
    if source.feature_dim != target.feature_dim:
        raise DataError(
            f"feature dims differ: source {source.feature_dim}, "
            f"target {target.feature_dim}"
        )
    if cfg.mode != "none" and cfg.d > source.feature_dim:
        raise DataError(
            f"subspace dimension d={cfg.d} exceeds the feature dimension "
            f"{source.feature_dim}; no class can form a subspace"
        )
    expected = (len(init_detectors), target.boxes.shape[0])
    if target_scores.shape != expected:
        raise DataError(
            f"target scores have shape {target_scores.shape}, expected {expected}: "
            "one row per initial detector, one column per target proposal"
        )
    warnings = warnings if warnings is not None else []
    if cfg.mode == "none":
        return passthrough_states(init_detectors)
    shared = None
    if cfg.mode == "full-image":
        try:
            shared = _fit_pair(source.features, target.features, cfg.d)
        except (DataError, NumericalError) as exc:
            warnings.append(f"adapt: full-image pool: {exc}; all classes downgraded")
            return {
                c: ClassAdaptationState(det, downgraded=True, note=str(exc))
                for c, det in init_detectors.items()
            }
    return {
        c: _adapt_class(source, target, cfg, c, det, row, shared, warnings)
        for (c, det), row in zip(init_detectors.items(), target_scores)
    }


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

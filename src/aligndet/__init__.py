"""Subspace-alignment domain adaptation for object detectors that operate
on precomputed proposal features."""

from .alignment import (
    aligned_source_basis,
    alignment_objective,
    project_for_testing,
    project_for_training,
    solve_alignment,
)
from .datasets import Dataset
from .detection import (
    BBox,
    Detections,
    GroundTruths,
    LinearDetector,
    TrainConfig,
    greedy_nms,
    iou,
    train_detector,
)
from .errors import DataError, NumericalError
from .evaluation import (
    Histogram,
    SimilarityMatrix,
    average_precision,
    mean_ap,
    score_histogram,
    similarity_matrix,
)
from .linalg import (
    NormalizationStats,
    Subspace,
    normalize,
    pca,
    principal_angle_cosines,
    project,
    subspace_similarity,
)
from .pipeline import (
    AdaptationConfig,
    ClassAdaptationState,
    adapt,
    detect,
    mine_source_positives,
    mine_target_positives,
    raw_score_rows,
    raw_scores,
    train_initial_detectors,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "BBox",
    "ClassAdaptationState",
    "DataError",
    "Dataset",
    "Detections",
    "GroundTruths",
    "Histogram",
    "LinearDetector",
    "NormalizationStats",
    "NumericalError",
    "SimilarityMatrix",
    "Subspace",
    "TrainConfig",
    "adapt",
    "aligned_source_basis",
    "alignment_objective",
    "average_precision",
    "detect",
    "greedy_nms",
    "iou",
    "mean_ap",
    "mine_source_positives",
    "mine_target_positives",
    "normalize",
    "pca",
    "principal_angle_cosines",
    "project",
    "project_for_testing",
    "project_for_training",
    "raw_score_rows",
    "raw_scores",
    "score_histogram",
    "similarity_matrix",
    "solve_alignment",
    "subspace_similarity",
    "train_detector",
    "train_initial_detectors",
]

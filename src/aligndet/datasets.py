"""In-memory dataset containers binding proposal boxes, per-proposal
features, and optional ground truth."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detection import BBox, GroundTruth
from .errors import DataError
from .linalg import ensure_feature_matrix


def check_id(kind: str, value) -> None:
    """Reject an id that the CSV files cannot carry.  Image and class ids
    are written bare into the comma-separated box, ground-truth and
    detection files, one record per line, so each must be a non-empty
    string without ',', '\\n' or '\\r'.  ``kind`` names the id in the
    ``DataError``."""
    if not isinstance(value, str) or not value or any(c in value for c in ",\n\r"):
        raise DataError(
            f"{kind} {value!r} cannot be written to the CSV files: ids must be "
            "non-empty strings without ',' or line breaks"
        )


@dataclass(eq=False)
class ImageRecord:
    """One image's proposals: row i of ``features`` belongs to ``boxes[i]``.

    ``gt`` is a list of (class_id, box) pairs, or None for unlabeled
    (target-style) data.
    """

    image_id: str
    features: np.ndarray
    boxes: list[BBox]
    gt: list[tuple[str, BBox]] | None = None

    def __post_init__(self):
        check_id("image id", self.image_id)
        self.features = ensure_feature_matrix(
            self.features, f"features[{self.image_id}]"
        )
        if self.features.shape[0] != len(self.boxes):
            raise DataError(
                f"image '{self.image_id}': {len(self.boxes)} boxes but "
                f"{self.features.shape[0]} feature rows"
            )

    @property
    def n_proposals(self) -> int:
        return self.features.shape[0]


@dataclass(eq=False)
class Dataset:
    """A named collection of images sharing one feature dimensionality."""

    name: str
    classes: list[str]
    feature_dim: int
    images: list[ImageRecord] = field(default_factory=list)

    def __post_init__(self):
        for class_id in self.classes:
            check_id("class id", class_id)
            if self.classes.count(class_id) > 1:
                raise DataError(f"duplicate class id '{class_id}'")
        seen: set[str] = set()
        for img in self.images:
            if img.image_id in seen:
                raise DataError(f"duplicate image id '{img.image_id}'")
            seen.add(img.image_id)
            if img.features.shape[1] != self.feature_dim:
                raise DataError(
                    f"image '{img.image_id}' has feature dim "
                    f"{img.features.shape[1]}, dataset declares {self.feature_dim}"
                )
            if img.gt is not None:
                for class_id, _ in img.gt:
                    if class_id not in self.classes:
                        raise DataError(
                            f"image '{img.image_id}' references unknown "
                            f"class '{class_id}'"
                        )

    @property
    def labeled(self) -> bool:
        return all(img.gt is not None for img in self.images)

    @property
    def n_proposals(self) -> int:
        return sum(img.n_proposals for img in self.images)

    def all_features(self) -> np.ndarray:
        """All proposal features stacked in image order."""
        return np.vstack([img.features for img in self.images])

    def ground_truths(self) -> list[GroundTruth]:
        """Flatten ground truth across images; empty for unlabeled data."""
        out: list[GroundTruth] = []
        for img in self.images:
            for class_id, box in img.gt or []:
                out.append(GroundTruth(img.image_id, class_id, box))
        return out

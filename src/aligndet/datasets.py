"""In-memory dataset containers binding proposal boxes, per-proposal
features, and the ground-truth table."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detection import BBox, GroundTruths, box_faults
from .errors import DataError
from .linalg import ensure_feature_matrix

# ',' and every character ``str.splitlines`` breaks a line at.
_NOT_IN_IDS = frozenset(",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def check_id(kind: str, value) -> None:
    """Reject an id that the CSV files cannot carry.  Image and class ids
    are written bare into the comma-separated box, ground-truth and
    detection files, one record per line, and the readers split lines with
    ``str.splitlines``, so each must be a non-empty string holding neither
    ',' nor any character that ends a line there (``_NOT_IN_IDS``: also
    '\\x0b', '\\x0c', '\\x1c'-'\\x1e', '\\x85', '\\u2028' and '\\u2029').
    ``kind`` names the id in the ``DataError``."""
    if not isinstance(value, str) or not value or not _NOT_IN_IDS.isdisjoint(value):
        raise DataError(
            f"{kind} {value!r} cannot be written to the CSV files: ids must be "
            "non-empty strings without ',' or line breaks"
        )


def check_ids(classes: list[str], image_ids: list[str]) -> None:
    """Check each class id (``check_id``), then that no class id and no
    image id occurs twice."""
    for class_id in classes:
        check_id("class id", class_id)
        if classes.count(class_id) > 1:
            raise DataError(f"duplicate class id '{class_id}'")
    seen: set[str] = set()
    for image_id in image_ids:
        if image_id in seen:
            raise DataError(f"duplicate image id '{image_id}'")
        seen.add(image_id)


@dataclass(eq=False)
class ImageRecord:
    """One image's proposals: row i of ``features`` belongs to box row
    ``boxes[i]``, an ``(n, 4)`` float64 array in ``BBox.as_tuple`` order.

    Each box row is checked as ``BBox`` checks a box, with its messages;
    arrays are kept as given when already float64 (or, for features,
    float32), so a loaded dataset's images hold row views of its tables.
    """

    image_id: str
    features: np.ndarray
    boxes: np.ndarray

    def __post_init__(self):
        check_id("image id", self.image_id)
        self.features = ensure_feature_matrix(
            self.features, f"features[{self.image_id}]"
        )
        b = self.boxes = np.asarray(self.boxes, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] != 4:
            raise DataError(
                f"image '{self.image_id}': boxes must be an (n, 4) array, got "
                f"shape {b.shape}"
            )
        if not (np.isfinite(b).all() and (b[:, 2:] >= b[:, :2]).all()):
            BBox(*b[box_faults(b).argmax()].tolist())  # raises BBox's error
        if self.features.shape[0] != b.shape[0]:
            raise DataError(
                f"image '{self.image_id}': {b.shape[0]} boxes but "
                f"{self.features.shape[0]} feature rows"
            )

    @property
    def n_proposals(self) -> int:
        return self.features.shape[0]


@dataclass(eq=False)
class Dataset:
    """A named collection of images sharing one feature dimensionality.

    ``features`` is the one ``(N, D)`` C-contiguous array of every
    proposal's features, images in order, and each image's ``features``
    is a view of its consecutive rows, so mining and scoring work on the
    one array by row index.  A loader or generator that already holds the
    images as row views of one array passes it and it is adopted as is:
    float32 as read from feature files, float64 as generated.  Otherwise
    the images' rows are stacked once into a float64 array.  Either way
    each image is rebound to its view (an image shared with another
    dataset follows the one built last).  Every float operation upcasts
    float32 values exactly (``linalg.matvec`` in row blocks, ``normalize``
    as it subtracts the float64 mean), so both dtypes give the bits of the
    float64 array holding the same values.

    ``ground_truths`` is the one table of the images' annotated boxes,
    whose images must be the dataset's and whose rows' classes must be in
    ``classes``; an image it does not list is unlabeled (target-style), and
    None lists none.
    """

    name: str
    classes: list[str]
    feature_dim: int
    images: list[ImageRecord] = field(default_factory=list)
    features: np.ndarray | None = None
    ground_truths: GroundTruths | None = None

    def __post_init__(self):
        ids = [img.image_id for img in self.images]
        check_ids(self.classes, ids)
        if self.feature_dim < 1:
            raise DataError(f"feature_dim must be >= 1, got {self.feature_dim}")
        for img in self.images:
            if img.features.shape[1] != self.feature_dim:
                raise DataError(
                    f"image '{img.image_id}' has feature dim "
                    f"{img.features.shape[1]}, dataset declares {self.feature_dim}"
                )
        if self.ground_truths is None:
            self.ground_truths = GroundTruths(np.empty((0, 4)), [], [], (), self.classes)
        gt = self.ground_truths
        if not set(gt.image_ids).issubset(ids):
            raise DataError(
                f"dataset '{self.name}': ground truth names an unknown image"
            )
        bad = gt.outside(self.classes)
        if bad.any():
            row = int(bad.argmax())
            raise DataError(
                f"image '{gt.image_ids[gt.image_index[row]]}' references unknown "
                f"class '{gt.class_ids[gt.class_index[row]]}'"
            )
        self._bind_features()

    def _bind_features(self) -> None:
        """Adopt or stack ``features`` and make each image a view of its rows."""
        shape = (sum(img.n_proposals for img in self.images), self.feature_dim)
        given = self.features is not None
        if not given:
            self.features = np.concatenate(
                [np.empty((0, shape[1])), *(img.features for img in self.images)]
            )
        F = self.features
        if not (
            isinstance(F, np.ndarray)
            and F.dtype in (np.float64, np.float32)
            and F.flags.c_contiguous
            and F.shape == shape
        ):
            raise DataError(
                f"dataset '{self.name}': features must be a C-contiguous float64 "
                f"{shape} array, or float32"
            )
        end = 0
        for img in self.images:
            rows = F[end : end + img.n_proposals]
            if given and not _same_view(img.features, rows):
                raise DataError(
                    f"image '{img.image_id}': features are not rows "
                    f"{end}-{end + rows.shape[0]} of the dataset's feature array"
                )
            end += rows.shape[0]
            img.features = rows

    @property
    def labeled(self) -> bool:
        """Whether the ground truth lists every image."""
        return len(self.ground_truths.image_ids) == len(self.images)

    @property
    def n_proposals(self) -> int:
        return self.features.shape[0]


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` view the same memory the same way."""
    return (a.ctypes.data, a.shape, a.strides) == (b.ctypes.data, b.shape, b.strides)

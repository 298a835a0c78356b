"""The in-memory dataset: proposal features, proposal boxes and the
ground-truth table, held as columns."""

from __future__ import annotations

from dataclasses import dataclass

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


def check_ids(classes: list[str], image_ids) -> None:
    """Check each class id (``check_id``), that no class id occurs twice,
    then the same of the image ids."""
    for class_id in classes:
        check_id("class id", class_id)
        if classes.count(class_id) > 1:
            raise DataError(f"duplicate class id '{class_id}'")
    seen: set[str] = set()
    for image_id in image_ids:
        check_id("image id", image_id)
        if image_id in seen:
            raise DataError(f"duplicate image id '{image_id}'")
        seen.add(image_id)


@dataclass(eq=False)
class Dataset:
    """A named collection of images' proposals, held as columns.

    Row i of ``features``, the one ``(N, D)`` C-contiguous array of every
    proposal's features, belongs to row i of ``boxes``, the ``(N, 4)``
    float64 table of proposal boxes in ``BBox.as_tuple`` order.  Each
    image's rows are consecutive, images in the order of ``image_ids``, and
    ``sizes[k] >= 1`` counts image k's rows, so mining and scoring work on
    the one array by row index.  The feature dimension and each row's image
    (``image_index``) are derived, never stored.

    ``features`` is float32 as read from feature files, or float64 as
    generated.  Every float operation upcasts float32 values exactly
    (``linalg.matvec`` in row blocks, ``normalize`` as it subtracts the
    float64 mean), so both dtypes give the bits of the float64 array
    holding the same values.

    ``ground_truths`` is the one table of the images' annotated boxes,
    whose images must be the dataset's and whose rows' classes must be in
    ``classes``; an image it does not list is unlabeled (target-style), and
    None lists none.

    The constructor checks each column once, a bad feature named by its
    image and row and a bad box row with ``BBox``'s message.
    """

    name: str
    classes: list[str]
    image_ids: tuple[str, ...]
    sizes: np.ndarray
    features: np.ndarray
    boxes: np.ndarray
    ground_truths: GroundTruths | None = None

    def __post_init__(self):
        ids = self.image_ids = tuple(self.image_ids)
        check_ids(self.classes, ids)
        sizes = self.sizes = np.asarray(self.sizes, dtype=np.intp)
        if sizes.shape != (len(ids),):
            raise DataError(
                f"dataset '{self.name}': sizes must hold one row count per image"
            )
        F, n = self.features, int(sizes.sum())
        if not (
            isinstance(F, np.ndarray)
            and F.dtype in (np.float64, np.float32)
            and F.flags.c_contiguous
            and F.ndim == 2
            and F.shape[0] == n
            and F.shape[1] >= 1
        ):
            raise DataError(
                f"dataset '{self.name}': features must be a C-contiguous float64 "
                f"({n}, D) array with D >= 1, or float32"
            )
        if (sizes < 1).any():
            k = int((sizes < 1).argmax())
            raise DataError(
                f"features[{ids[k]}] must be at least 1x1, got {sizes[k]}x{F.shape[1]}"
            )
        # min and max propagate NaN, and allocate nothing the size of F.
        if n and not (np.isfinite(F.min()) and np.isfinite(F.max())):
            row = int(np.isfinite(F).all(axis=1).argmin())
            ends = np.cumsum(sizes)
            k = int(np.searchsorted(ends, row, side="right"))
            ensure_feature_matrix(F[ends[k] - sizes[k] : ends[k]], f"features[{ids[k]}]")
        b = self.boxes = np.asarray(self.boxes, dtype=np.float64)
        if b.shape != (n, 4):
            raise DataError(
                f"dataset '{self.name}': boxes must be an ({n}, 4) array, got "
                f"shape {b.shape}"
            )
        if not (np.isfinite(b).all() and (b[:, 2:] >= b[:, :2]).all()):
            BBox(*b[box_faults(b).argmax()].tolist())  # raises BBox's error
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

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def image_index(self) -> np.ndarray:
        """Each row's image, as an index into ``image_ids``."""
        return np.repeat(np.arange(len(self.image_ids)), self.sizes)

    @property
    def labeled(self) -> bool:
        """Whether the ground truth lists every image."""
        return len(self.ground_truths.image_ids) == len(self.image_ids)

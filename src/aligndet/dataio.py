"""Dataset persistence (binary feature files, CSV boxes, JSON manifests),
the synthetic domain-shift generator, run configuration, and bundle
serialization for detectors and adaptation states."""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .datasets import Dataset, check_id, check_ids
from .detection import (
    BBox, Detections, GroundTruths, LinearDetector, TrainConfig, label_codes,
)
from .errors import DataError, NumericalError
from .evaluation import check_histogram_layout
from .linalg import NormalizationStats, Subspace, sorted_distinct
from .pipeline import AdaptationConfig, ClassAdaptationState, frame_tag

FEATURE_MAGIC = b"FMX1"
FEATURE_VERSION = 1

BOX_HEADER = "image_id,x_min,y_min,x_max,y_max"
GT_HEADER = BOX_HEADER + ",class"
DETECTION_HEADER = BOX_HEADER + ",class,score"
# The box-CSV writer formats and writes at most this many lines at a time.
CSV_CHUNK_ROWS = 1024


# ---------------------------------------------------------------------------
# Feature files: 16-byte header (magic, version, rows, cols), then
# little-endian float32, row-major.
# ---------------------------------------------------------------------------

def write_features(path, X) -> None:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("feature matrix must be 2-dimensional")
    n, D = X.shape
    payload = X.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, n, D))
        fh.write(payload)


def _feature_array(paths, dim: int) -> tuple[list, np.ndarray, DataError | None]:
    """The one ``(N, dim)`` float32 array of the feature files at ``paths``
    (sized from the file sizes, each payload read into its rows and checked
    there), read in order up to the first faulty file: the ``(rows, width)``
    of each file before it, the array, and that file's DataError or None.
    A sound file of another width is read and checked on its own, its rows
    of the array left unset: ``_read_images`` rejects the width, as any
    ``dim`` below 1, after every per-image check."""
    dim, sizes = max(dim, 1), []
    for path in paths:
        try:
            n, extra = divmod(os.stat(path).st_size - 16, 4 * dim)
        except (OSError, ValueError):
            n, extra = 0, 0
        sizes.append(0 if n < 0 or extra else n)
    features = np.empty((sum(sizes), dim), "<f4")
    shapes, fault = [], None
    for path, rows in zip(paths, _blocks(features, sizes)):
        header = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, len(rows), dim)
        try:
            with open(path, "rb") as fh:
                head = fh.read(16)
                if head != header:
                    rows = _own_rows(fh, head, Path(path))
                fh.readinto(rows)
        except DataError as exc:
            fault = exc
        except (FileNotFoundError, ValueError):
            fault = DataError(f"feature file '{Path(path)}' does not exist")
        except OSError as exc:
            fault = DataError(
                f"feature file '{Path(path)}' cannot be read: {exc.strerror}"
            )
        else:
            if not np.isfinite(rows).all():
                row = int(np.isfinite(rows).all(axis=1).argmin())
                fault = DataError(
                    f"feature file '{Path(path)}' has a non-finite value at row {row}"
                )
        if fault:
            break
        shapes.append(rows.shape)
    return shapes, features.astype(np.float32, copy=False), fault


def _own_rows(fh, head: bytes, path) -> np.ndarray:
    """An array of the shape in ``head``, the sound header of the feature
    file open as ``fh``; a bad header, version or length is a DataError."""
    if len(head) < 16 or head[:4] != FEATURE_MAGIC:
        raise DataError(f"feature file '{path}' has a bad header")
    version, n, D = struct.unpack("<III", head[4:])
    if version != FEATURE_VERSION:
        raise DataError(f"feature file '{path}' has unsupported version {version}")
    size, expected = os.fstat(fh.fileno()).st_size, 16 + 4 * n * D
    if size != expected:
        raise DataError(
            f"feature file '{path}' truncated: {size} bytes, expected {expected}"
        )
    return np.empty((n, D), "<f4")


# ---------------------------------------------------------------------------
# CSV box files (fixed header; floats serialized with repr round-tripping)
# ---------------------------------------------------------------------------

def _box_tables(
    paths, kind: str, header: str
) -> tuple[dict[int, tuple], np.ndarray, list[int], DataError | None]:
    """The rows of the box CSVs at ``paths`` as one table, read in order up
    to the first faulty file: the text columns, as a dict from the column's
    index (0, the image id, and 5, the class, when the header has it) to
    the tuple of its cells, an ``(n, k)`` float array of the numeric
    columns (the four of ``BOX_HEADER``, then those after ``class``), each
    file's row count, and that file's DataError or None.  Blank lines are
    skipped.  The table is parsed by one C-level read (``_parse_lines``).
    Only when that fails are the lines split and parsed cell by cell
    (``_parse_rows``), which accepts every number ``float`` accepts, and
    only when that fails too are the rows walked to the first bad one,
    whose file alone is read again to number its line."""
    n_columns = header.count(",") + 1
    lines, sizes, fault, unit_separator = [], [], None, False
    for path in paths:
        try:
            with open(path, "rb") as fh:
                text = fh.read().decode("utf-8")
            file_lines = text.splitlines()
            if not file_lines or file_lines[0] != header:
                fault = f"must start with '{header}'"
        except UnicodeDecodeError:
            fault = "is not UTF-8 text"
        except (FileNotFoundError, ValueError):
            fault = "does not exist"
        except OSError as exc:
            fault = f"cannot be read: {exc.strerror}"
        if fault:
            fault = DataError(f"{kind} file '{Path(path)}' {fault}")
            break
        body = [line for line in file_lines[1:] if line]
        lines += body
        sizes.append(len(body))
        # numpy strips U+001F around a number as whitespace; ``float`` does not.
        unit_separator = unit_separator or "\x1f" in text
    table = None if unit_separator else _parse_lines(lines, n_columns)
    if table is None:
        rows = [line.split(",") for line in lines]
        table = _parse_rows(rows, n_columns)
    if table is None:
        bad, problem = next(
            (k, p) for k, p in enumerate(_row_fault(r, n_columns) for r in rows) if p
        )
        j = sum(end <= bad for end in accumulate(sizes))  # the row's file
        first = sum(sizes[:j])
        fault = _line_error(paths[j], bad - first, problem)
        sizes, table = sizes[:j], _parse_rows(rows[:first], n_columns)
    columns, numbers = table
    return {k: columns[k] for k in _columns(n_columns)[0]}, numbers, sizes, fault


def _columns(n_columns: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The indices of a box CSV's text columns (the image id, then the
    class when there is one) and of its numeric columns."""
    text = (0, 5) if n_columns > 5 else (0,)
    return text, tuple(k for k in range(n_columns) if k not in text)


def _parse_lines(lines: list[str], n_columns: int) -> tuple | None:
    """The columns and numbers of CSV lines (see ``_box_tables``), parsed
    by one ``np.loadtxt`` into a structured array and checked on one
    array; None if numpy rejects a line or a check fails."""
    text, number = _columns(n_columns)
    dtype = np.dtype(
        [(str(k), object if k in text else np.float64) for k in range(n_columns)]
    )
    if not lines:  # numpy would warn that the input contained no data
        table = np.empty(0, dtype)
    else:
        try:
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None
    numbers = np.stack([table[str(k)] for k in number], axis=1)
    if not _sound(numbers):
        return None
    return {k: tuple(table[str(k)].tolist()) for k in text}, numbers


def _parse_rows(rows: list[list[str]], n_columns: int) -> tuple | None:
    """The columns and numbers of split CSV rows (see ``_box_tables``),
    parsed in one ``float`` pass and checked on one array; None if a row is
    bad."""
    if not set(map(len, rows)) <= {n_columns}:
        return None
    columns = list(zip(*rows)) or [()] * n_columns
    try:
        numbers = np.stack(
            [
                np.fromiter(map(float, columns[k]), np.float64, len(rows))
                for k in _columns(n_columns)[1]
            ],
            axis=1,
        )
    except ValueError:  # a cell that is not a number
        return None
    return (columns, numbers) if _sound(numbers) else None


def _sound(numbers: np.ndarray) -> bool:
    """Whether every number of a box table is finite and every box, its
    first four columns, in order."""
    x0, y0, x1, y1 = numbers[:, :4].T
    return bool(np.isfinite(numbers).all() and (x1 >= x0).all() and (y1 >= y0).all())


def _row_fault(parts: list[str], n_columns: int) -> str | None:
    """The first fault of one split CSV row: its column count, then each
    number in column order, then the box's order; None for a sound row."""
    if len(parts) != n_columns:
        return f"expected {n_columns} columns, got {len(parts)}"
    for token in parts[1:5] + parts[6:]:
        try:
            if not math.isfinite(float(token)):
                return "non-finite value"
        except ValueError:
            return f"'{token}' is not a number"
    try:
        BBox(*map(float, parts[1:5]))
    except DataError as exc:
        return str(exc)
    return None


def _line_error(path, row: int, problem: str) -> DataError:
    """``problem`` of row ``row`` of the box CSV at ``path``, named by
    ``path:lineno`` (blank lines counted)."""
    with open(path, "rb") as fh:
        lines = fh.read().decode("utf-8").splitlines()
    lineno = [n for n, line in enumerate(lines, 1) if line][row + 1]
    return DataError(f"{Path(path)}:{lineno}: {problem}")


def _write_box_csv(path, header: str, names, boxes, *tail) -> None:
    """The box CSV at ``path``: ``header``, then one line per row of the
    ``(n, 4)`` box array ``boxes``, led by the row's entry of ``names`` and
    followed by its entry of each ``tail`` column (text, or floats), every
    float as its ``repr``.  Each distinct box coordinate (by bit pattern, so
    ``-0.0`` and ``0.0`` stay apart) is formatted once, and the lines are
    written in chunks of at most ``CSV_CHUNK_ROWS``, so the file's text is
    never held whole."""
    bits = np.ascontiguousarray(boxes, dtype=np.float64).view(np.uint64)
    distinct = sorted_distinct(bits)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for a in range(0, len(bits), CSV_CHUNK_ROWS):
            rows = slice(a, a + CSV_CHUNK_ROWS)
            coords = texts[np.searchsorted(distinct, bits[rows])].T.tolist()
            # ``str`` of a float is its ``repr``; of a text, the text.
            cells = [map(str, column[rows].tolist()) for column in tail]
            lines = map(",".join, zip(names[rows].tolist(), *coords, *cells))
            fh.write("\n".join(lines) + "\n")


def write_boxes_csv(path, image_id: str, boxes) -> None:
    """One line per row of the ``(n, 4)`` box array ``boxes``."""
    _write_box_csv(path, BOX_HEADER, np.full(len(boxes), image_id, dtype=object), boxes)


def write_detections_csv(path, dets: Detections) -> None:
    """One line per row of ``dets``."""
    images = np.array(dets.image_ids, dtype=object)[dets.image_index]
    classes = np.array(dets.class_ids, dtype=object)[dets.class_index]
    _write_box_csv(path, DETECTION_HEADER, images, dets.boxes, classes, dets.scores)


def read_detections_csv(path) -> Detections:
    """Images and classes are named in order of first appearance."""
    columns, numbers, _, fault = _box_tables([path], "detections", DETECTION_HEADER)
    if fault:
        raise fault
    (images, image_ids), (classes, class_ids) = map(label_codes, (columns[0], columns[5]))
    return Detections(numbers[:, :4], numbers[:, 4], images, classes, image_ids, class_ids)


# ---------------------------------------------------------------------------
# Manifest + dataset round trips
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    """Stable JSON serialization: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# A bundle is canonical JSON at ``<stem>.json`` plus the array file
# ``<stem>.f8``: every float ndarray of the document's maps (never of a
# list), as raw little-endian float64 in C order, concatenated in the order
# the sorted-key JSON visits them.  In the JSON each array is a reference
# {"f8_offset": <byte offset>, "shape": [...]}; ``array_file`` records the
# array file's byte length and CRC-32.  The array file's name is derived from
# the JSON path, so a bundle saved under two names has identical JSON.
_ARRAY_REF_KEYS = {"f8_offset", "shape"}


def _array_path(path) -> Path:
    return Path(path).with_suffix(".f8")


def _save_bundle(path, doc: dict) -> None:
    """Write ``doc`` with each ndarray moved to the array file."""
    chunks: list[bytes] = []
    offset = 0

    def swap(v):
        nonlocal offset
        if isinstance(v, np.ndarray):
            chunks.append(np.ascontiguousarray(v, dtype="<f8").tobytes())
            ref = {"f8_offset": offset, "shape": list(v.shape)}
            offset += len(chunks[-1])
            return ref
        if isinstance(v, dict):
            return {k: swap(v[k]) for k in sorted(v)}
        return v

    doc = swap(doc)
    blob = b"".join(chunks)
    doc["array_file"] = {"bytes": len(blob), "crc32": zlib.crc32(blob)}
    _array_path(path).write_bytes(blob)
    Path(path).write_text(canonical_json(doc))


def _resolve_arrays(doc, path):
    """``doc`` with its array references replaced by writable float64
    arrays, after checking the array file's length and CRC-32."""
    if not isinstance(doc, dict) or "array_file" not in doc:
        return doc
    header, f8 = doc.pop("array_file"), _array_path(path)
    if not f8.is_file():
        raise DataError(f"array file '{f8}' does not exist")
    # ``frombuffer`` over ``bytes`` is read-only; over a bytearray it is not.
    buf = bytearray(f8.read_bytes())
    if len(buf) != header["bytes"]:
        raise DataError(
            f"array file '{f8}' has {len(buf)} bytes, expected {header['bytes']}"
        )
    if zlib.crc32(buf) != header["crc32"]:
        raise DataError(f"array file '{f8}' fails its CRC-32 check")

    def resolve(v):
        if isinstance(v, dict):
            if v.keys() != _ARRAY_REF_KEYS:
                return {k: resolve(x) for k, x in v.items()}
            offset, shape = v["f8_offset"], v["shape"]
            count = math.prod(shape)
            if offset + 8 * count > len(buf):
                raise DataError(
                    f"array reference (offset {offset}, shape {shape}) runs "
                    f"past the end of array file '{f8}'"
                )
            return np.frombuffer(buf, "<f8", count, offset).reshape(shape)
        return v

    return resolve(doc)


def _stored_array(v) -> np.ndarray:
    """A resolved array reference of a bundle."""
    if not isinstance(v, np.ndarray):
        raise DataError(
            "arrays must be references into the array file; inline lists "
            "predate it: rerun 'train' or 'adapt' to rewrite the bundle"
        )
    return v


def _load_bundle(path, kind: str, parse):
    """``parse`` applied to the JSON in ``path``, its array references
    resolved; a file that cannot be read, text that is not UTF-8, invalid
    JSON, a bad array file, a missing key, a wrong type or a rejected value
    is a DataError naming the file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{kind} '{path}' does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{kind} '{path}' is not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"{kind} '{path}' cannot be read: {exc.strerror}") from None
    try:
        return parse(_resolve_arrays(json.loads(text), path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{kind} '{path}' is not valid JSON: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{kind} '{path}' is missing key {exc}") from None
    except (DataError, NumericalError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{kind} '{path}' is malformed: {exc}") from None


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write manifest plus per-image feature/box/gt files; returns manifest path.

    File names come from image ids, so an id that is not one path component
    ('/', '\\' or NUL in it, or '.' or '..') is a DataError before any write.
    So is a feature too large for float32, the type of feature files: it
    would be written as inf, which ``load_dataset`` rejects.
    """
    sizes = dataset.sizes.tolist()
    features, boxes = _blocks(dataset.features, sizes), _blocks(dataset.boxes, sizes)
    for image_id, rows in zip(dataset.image_ids, features):
        if image_id in (".", "..") or any(c in image_id for c in "/\\\0"):
            raise DataError(f"image id {image_id!r} is not a single path component")
        with np.errstate(over="ignore"):
            big = np.isinf(rows.astype("<f4", copy=False)).any(axis=1)
        if big.any():
            raise DataError(
                f"image '{image_id}': feature row {int(big.argmax())} is "
                "too large for float32, the type of feature files"
            )
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "boxes").mkdir(exist_ok=True)
    entries = []
    gt = dataset.ground_truths
    listed = {image_id: k for k, image_id in enumerate(gt.image_ids)}
    gt_images = np.array(gt.image_ids, dtype=object)[gt.image_index]
    gt_classes = np.array(gt.class_ids, dtype=object)[gt.class_index]
    if listed:
        (out_dir / "gt").mkdir(exist_ok=True)
    for image_id, rows, box_rows in zip(dataset.image_ids, features, boxes):
        feat_rel = f"features/{image_id}.fmx"
        boxes_rel = f"boxes/{image_id}.csv"
        write_features(out_dir / feat_rel, rows)
        write_boxes_csv(out_dir / boxes_rel, image_id, box_rows)
        entry = {
            "image_id": image_id,
            "feature_file": feat_rel,
            "boxes_file": boxes_rel,
        }
        if image_id in listed:
            gt_rows = gt.image_index == listed[image_id]
            gt_rel = f"gt/{image_id}.csv"
            columns = gt_images[gt_rows], gt.boxes[gt_rows], gt_classes[gt_rows]
            _write_box_csv(out_dir / gt_rel, GT_HEADER, *columns)
            entry["gt_file"] = gt_rel
        entries.append(entry)
    manifest = {
        "name": dataset.name,
        "classes": list(dataset.classes),
        "feature_dim": dataset.feature_dim,
        "images": entries,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(canonical_json(manifest))
    return manifest_path


def load_dataset(manifest_path) -> Dataset:
    """Load and eagerly validate a dataset; every violation names its file."""
    base = str(Path(manifest_path).parent)

    def parse(manifest: dict) -> Dataset:
        name, feature_dim = manifest["name"], manifest["feature_dim"]
        classes, entries = _manifest_arrays(manifest)
        if type(feature_dim) is not int:
            raise DataError(f"feature_dim must be an integer, got {feature_dim!r}")
        columns = _read_images(entries, base, classes, feature_dim)
        return Dataset(name, classes, *columns[:4], GroundTruths(*columns[4]))

    return _load_bundle(manifest_path, "manifest", parse)


def _manifest_arrays(manifest: dict) -> tuple[list, list]:
    """The ``classes`` and ``images`` of a manifest, each a JSON array, with
    the class ids checked.  They are checked before any file is read: a file
    holding a bad id fails to parse, and its error would blame the CSV
    instead of the id."""
    for key in ("classes", "images"):
        if type(manifest[key]) is not list:
            kind = type(manifest[key]).__name__
            raise DataError(f"'{key}' must be a JSON array, got {kind}")
    for class_id in manifest["classes"]:
        check_id("class id", class_id)
    return manifest["classes"], manifest["images"]


def _read_images(
    entries, base: str, classes: list[str], feature_dim: int
) -> tuple[list[str], list[int], np.ndarray, np.ndarray, tuple]:
    """The image ids of a manifest's ``entries``, their row counts, the one
    feature array (``_feature_array``), the one boxes table and the GT
    table's columns (``_read_gt``).  Each reader stops at its first faulty
    file; the images are then checked in manifest order and the first fault
    raises: the entry, its feature file, its boxes file, their ids, the row
    count, its GT file, then that it has a row and a column.  Duplicate
    ids, a ``feature_dim`` below 1 and a file of another width follow."""
    fields = ("feature_file", "boxes_file")
    ids, (feature_paths, box_paths), fault = _entries(entries, base, fields)
    shapes, features, feature_fault = _feature_array(feature_paths, feature_dim)
    columns, numbers, sizes, box_fault = _box_tables(box_paths, "boxes", BOX_HEADER)
    gt, n_gt, gt_fault = _read_gt(entries, base, ids, classes)
    row_ids = _blocks(columns[0], sizes)
    for k, image_id in enumerate(ids):
        if k == len(shapes):
            raise feature_fault
        if k == len(sizes):
            raise box_fault
        if row_ids[k].count(image_id) != sizes[k]:
            row = next(r for r, i in enumerate(row_ids[k]) if i != image_id)
            raise _line_error(box_paths[k], row, (
                f"image id '{row_ids[k][row]}' does not match manifest entry "
                f"'{image_id}'"
            ))
        n, width = shapes[k]
        if sizes[k] != n:
            raise DataError(
                f"row-count mismatch for image '{image_id}': boxes file "
                f"'{Path(box_paths[k])}' has {sizes[k]} rows but feature file "
                f"'{Path(feature_paths[k])}' has {n} rows"
            )
        if k == n_gt:
            raise gt_fault
        if not (n and width):
            raise DataError(f"features[{image_id}] must be at least 1x1, got {n}x{width}")
    if fault:
        raise fault
    # Duplicate ids come before the GT table's checks, which would fail on them.
    check_ids(classes, ids)
    if feature_dim < 1:
        raise DataError(f"feature_dim must be >= 1, got {feature_dim}")
    for image_id, (_, width) in zip(ids, shapes):
        if width != feature_dim:
            raise DataError(
                f"image '{image_id}' has feature dim {width}, dataset declares "
                f"{feature_dim}"
            )
    return ids, sizes, features, numbers, gt


def _entries(entries, base: str, fields=()) -> tuple[list, list[list], Exception | None]:
    """The image id of each manifest entry (``check_id``) and the path
    under ``base`` of each of its ``fields``, one list per field, in order
    up to the first entry that fails; and that entry's error or None."""
    ids, paths = [], [[] for _ in fields]
    for entry in entries:
        try:
            image_id = entry.get("image_id")
            check_id("image id", image_id)
            for column, name in zip(paths, fields):
                column.append(os.path.join(base, entry[name]))
        except (KeyError, TypeError, AttributeError, DataError) as exc:
            return ids, [column[: len(ids)] for column in paths], exc
        ids.append(image_id)
    return ids, paths, None


def _read_gt(
    entries, base: str, ids: list[str], classes: list[str]
) -> tuple[tuple, int, Exception | None]:
    """The ground truth of the manifest ``entries`` whose checked image
    ids are ``ids``, from one table of their GT files, in entry order up to
    the first faulty entry: the ``GroundTruths`` columns of the entries
    before it (those with a GT file listed), their number, and that entry's
    error or None: its ``gt_file``, its file, or a row of another image id
    or of an unknown class.  Callers check ids for duplicates first."""
    labeled, paths, fault = [], [], None
    for k, entry in zip(range(len(ids)), entries):
        try:
            if entry.get("gt_file"):
                paths.append(os.path.join(base, entry["gt_file"]))
                labeled.append(k)
        except TypeError as exc:
            fault, ids = exc, ids[:k]
            break
    columns, numbers, sizes, file_fault = _box_tables(paths, "gt", GT_HEADER)
    if file_fault:
        fault, ids = file_fault, ids[: labeled[len(sizes)]]
    known = set(columns[5]).issubset(classes)
    for i, (k, row_ids, row_classes) in enumerate(
        zip(labeled, _blocks(columns[0], sizes), _blocks(columns[5], sizes))
    ):
        if known and row_ids.count(ids[k]) == len(row_ids):
            continue
        problems = [
            f"image id '{r}' does not match manifest entry '{ids[k]}'"
            if r != ids[k]
            else f"unknown class '{c}'"
            for r, c in zip(row_ids, row_classes)
            if r != ids[k] or c not in classes
        ]
        if problems:
            fault = DataError(f"gt file '{Path(paths[i])}': {problems[0]}")
            ids, sizes = ids[:k], sizes[:i]
            break
    n = sum(sizes)
    gt = (
        numbers[:n], np.repeat(np.arange(len(sizes)), sizes),
        label_codes(columns[5][:n], classes)[0],
        [ids[k] for k in labeled[: len(sizes)]], classes,
    )
    return gt, len(ids), fault


def _blocks(rows, sizes: list[int]) -> list:
    """``rows`` cut into consecutive blocks of ``sizes`` rows."""
    return [rows[end - n : end] for n, end in zip(sizes, accumulate(sizes))]


@dataclass(frozen=True)
class Annotations:
    """What scoring detections needs of a dataset: its name and its
    ground-truth table, which names its classes and images, or None when
    some image has no GT file."""

    name: str
    ground_truths: GroundTruths | None


def load_annotations(manifest_path) -> Annotations:
    """The ``Annotations`` of a manifest, read without opening its feature
    or boxes files.  Ids and GT files are checked as ``load_dataset``
    checks them, in its order and with its messages: class ids, then each
    entry's image id and GT file, then duplicate ids."""
    base = str(Path(manifest_path).parent)

    def parse(manifest: dict) -> Annotations:
        name, (classes, entries) = manifest["name"], _manifest_arrays(manifest)
        ids, _, fault = _entries(entries, base)
        gt, _, gt_fault = _read_gt(entries, base, ids, classes)
        if gt_fault or fault:
            raise gt_fault or fault
        check_ids(classes, ids)
        truths = GroundTruths(*gt)
        return Annotations(name, truths if len(truths.image_ids) == len(ids) else None)

    return _load_bundle(manifest_path, "manifest", parse)


# ---------------------------------------------------------------------------
# Synthetic domain-shift generator
# ---------------------------------------------------------------------------

@dataclass
class SynthShiftSpec:
    """Parameters of the synthetic source/target pair.

    Object proposals carry class-structured features and overlap their GT
    box with IoU >= ``min_object_iou``; background proposals are disjoint
    from the GT and carry isotropic features around the origin.  The target
    domain pushes everything through a random rotation whose largest
    principal angle equals ``rotation_budget``, then adds a per-class mean
    drift and isotropic noise.  Classes listed in ``corrupt_classes`` lose
    their latent structure on the target side (features become pure noise
    around the shifted class mean).
    """

    n_classes: int = 5
    feature_dim: int = 30
    samples_per_class: int = 200
    class_separation: float = 10.0
    rotation_budget: float = 1.0
    noise_scale: float = 0.1
    mean_drift: float = 1.0
    target_spread: float = 2.5
    seed: int = 0
    latent_dim: int = 12
    pos_per_image: int = 10
    neg_per_image: int = 10
    min_object_iou: float = 0.72
    corrupt_classes: tuple[int, ...] = ()

    def __post_init__(self):
        counts = (
            self.n_classes,
            self.feature_dim,
            self.samples_per_class,
            self.latent_dim,
            self.pos_per_image,
            self.neg_per_image,
        )
        if any(c < 1 for c in counts):
            raise DataError("all synthetic counts must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        for name in ("class_separation", "rotation_budget", "noise_scale",
                     "mean_drift", "target_spread"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
        if self.noise_scale < 0 or self.rotation_budget < 0 or self.mean_drift < 0:
            raise DataError("scales and budgets must be nonnegative")
        if self.target_spread <= 0:
            raise DataError("target_spread must be positive")
        if self.latent_dim > self.feature_dim:
            raise DataError(
                f"infeasible spec: latent_dim {self.latent_dim} exceeds "
                f"feature_dim {self.feature_dim}"
            )
        if not (0.0 < self.min_object_iou <= 1.0):
            raise DataError("min_object_iou must be in (0, 1]")
        bad = [c for c in self.corrupt_classes if not 0 <= c < self.n_classes]
        if bad:
            raise DataError(f"corrupt class indices out of range: {bad}")


_GT_SIDE = 100.0
_GT_BOX = (100.0, 100.0, 100.0 + _GT_SIDE, 200.0)
_LATENT_DECAY = 0.9
_SOURCE_RESIDUAL = 0.05
_BACKGROUND_SCALE = 1.0
_CORRUPT_SCALE = 2.0


def bounded_rotation(dim: int, budget: float, rng: np.random.Generator) -> np.ndarray:
    """Random rotation turning every principal plane by ``budget`` radians.

    Built as a block-diagonal plane rotation conjugated by a random
    orthogonal matrix, so all principal angles equal the budget exactly
    (one axis stays fixed when ``dim`` is odd).
    """
    if budget == 0.0:
        return np.eye(dim)
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    R = np.eye(dim)
    c, s = np.cos(budget), np.sin(budget)
    for k in range(dim // 2):
        i = 2 * k
        R[i : i + 2, i : i + 2] = [[c, -s], [s, c]]
    return Q @ R @ Q.T


def _max_jitter(min_iou: float) -> float:
    # Worst case shifts both axes by J: IoU = (L-J)^2 / (2L^2 - (L-J)^2).
    L = _GT_SIDE
    return L - math.sqrt(2.0 * L * L * min_iou / (1.0 + min_iou))


def _unit_rows(M: np.ndarray) -> np.ndarray:
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def generate_synthetic(spec: SynthShiftSpec) -> tuple[Dataset, Dataset, dict]:
    """Build a (source, target, oracle) triple from ``spec``.

    The oracle dict records the true rotation, class means, drift vectors,
    and per-class latent directions so tests can assert against ground
    truth rather than the pipeline's own output.
    """
    rng = np.random.default_rng(spec.seed)
    D = spec.feature_dim
    classes = [f"class{i:02d}" for i in range(spec.n_classes)]

    dirs = []
    for _ in range(spec.n_classes):
        Q, _ = np.linalg.qr(rng.normal(size=(D, spec.latent_dim)))
        dirs.append(Q)
    # Each class mean sits along its leading latent direction, so the
    # class's own subspace carries the direction that separates it from
    # the background.
    means = spec.class_separation * np.stack([A[:, 0] for A in dirs])
    scales = _LATENT_DECAY ** np.arange(spec.latent_dim)
    rotation = bounded_rotation(D, spec.rotation_budget, rng)
    drifts = spec.mean_drift * _unit_rows(rng.normal(size=(spec.n_classes, D)))
    jitter = _max_jitter(spec.min_object_iou)

    def draw_object_features(c: int, count: int, spread: float = 1.0) -> np.ndarray:
        z = rng.normal(size=(count, spec.latent_dim))
        eps = rng.normal(scale=_SOURCE_RESIDUAL, size=(count, D))
        return means[c] + (z * (spread * scales)) @ dirs[c].T + eps

    images_per_class = -(-spec.samples_per_class // spec.pos_per_image)
    n_rows = spec.n_classes * (
        spec.samples_per_class + images_per_class * spec.neg_per_image
    )

    # Every image ends with the same background boxes, disjoint from the GT.
    bg_boxes = np.tile([400.0, 400.0, 400.0 + _GT_SIDE, 500.0], (spec.neg_per_image, 1))
    bg_boxes[:, [0, 2]] += 140.0 * np.arange(spec.neg_per_image)[:, None]

    def build_domain(prefix: str, is_target: bool) -> Dataset:
        # Every image's rows are written into one feature array and one box
        # table, which the dataset adopts.  The rows of a target class that
        # is not corrupt stay unrotated until its last image and then take
        # one product; what is added after the rotation (drift, noise) waits
        # beside them.
        features, boxes = np.empty((n_rows, D)), np.empty((n_rows, 4))
        image_ids, sizes, end = [], [], 0
        for c in range(spec.n_classes):
            rotated = is_target and c not in spec.corrupt_classes
            first, added = end, []
            remaining = spec.samples_per_class
            j = 0
            while remaining > 0:
                k = min(spec.pos_per_image, remaining)
                remaining -= k
                image_ids.append(f"{prefix}-c{c:02d}-i{j:03d}")
                j += 1
                sizes.append(k + spec.neg_per_image)
                mid, stop = end + k, end + sizes[-1]

                shift = rng.uniform(-jitter, jitter, size=(k, 2))
                boxes[end:mid] = np.add(_GT_BOX, shift[:, [0, 1, 0, 1]])
                boxes[mid:stop] = bg_boxes
                if is_target and not rotated:
                    # Pure noise: class location survives, structure does not.
                    obj = (
                        means[c] @ rotation.T
                        + drifts[c]
                        + rng.normal(scale=_CORRUPT_SCALE, size=(k, D))
                    )
                else:
                    obj = draw_object_features(
                        c, k, spec.target_spread if is_target else 1.0
                    )
                    if rotated:
                        added.append((slice(end, mid), drifts[c]))
                        added.append((slice(end, mid), rng.normal(
                            scale=spec.noise_scale, size=(k, D)
                        )))

                bg = rng.normal(scale=_BACKGROUND_SCALE, size=(spec.neg_per_image, D))
                if rotated:
                    added.append((slice(mid, stop), rng.normal(
                        scale=spec.noise_scale, size=bg.shape
                    )))
                elif is_target:
                    bg = bg @ rotation.T + rng.normal(
                        scale=spec.noise_scale, size=bg.shape
                    )
                features[end:mid], features[mid:stop] = obj, bg
                end = stop
            if rotated:
                # Row for row the bits of one product per image; the terms are
                # added back in the order each row's sum took them.
                features[first:end] = features[first:end] @ rotation.T
                for rows, term in added:
                    features[rows] += term
        n = len(image_ids)  # one GT box each, of the class it was drawn for
        gt = GroundTruths(
            np.tile(_GT_BOX, (n, 1)), np.arange(n),
            np.repeat(np.arange(spec.n_classes), images_per_class),
            image_ids, classes,
        )
        name = f"synth-{'target' if is_target else 'source'}"
        return Dataset(name, classes, image_ids, sizes, features, boxes, gt)

    source = build_domain("src", is_target=False)
    target = build_domain("tgt", is_target=True)
    oracle = {
        "rotation": rotation,
        "source_means": {classes[c]: means[c] for c in range(spec.n_classes)},
        "target_means": {
            classes[c]: rotation @ means[c] + drifts[c]
            for c in range(spec.n_classes)
        },
        "class_directions": {classes[c]: dirs[c] for c in range(spec.n_classes)},
        "drifts": {classes[c]: drifts[c] for c in range(spec.n_classes)},
    }
    return source, target, oracle


# ---------------------------------------------------------------------------
# Run configuration: flat key=value file
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Everything a CLI run needs; its defaults, and those of the configs
    it holds, are the reference protocol."""

    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    synth: SynthShiftSpec = field(default_factory=SynthShiftSpec)
    source_manifest: str | None = None
    target_manifest: str | None = None
    hist_bins: int = 20
    hist_lo: float = -3.0
    hist_hi: float = 3.0
    weak_ratio: float = 0.75

    def __post_init__(self):
        # Checked here, not first by the histogram, so that a bad layout
        # fails before any command trains or writes anything.
        check_histogram_layout(self.hist_bins, self.hist_lo, self.hist_hi)
        if not (math.isfinite(self.weak_ratio) and self.weak_ratio >= 0):
            raise DataError(f"weak_ratio must be finite and >= 0, got {self.weak_ratio}")


def _parse_corrupt(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _parse_path(text: str) -> Path | None:
    return Path(text) if text else None


# Config key -> (section, field, parser).  A section is the RunConfig itself
# ("run") or one of the configs it holds; every default is its field's.
# A ``Path`` value is resolved against the config file's directory; an
# empty one means unset.
_CONFIG_KEYS = {
    "gamma": ("adaptation", "gamma", float),
    "sigma": ("adaptation", "sigma", float),
    "d": ("adaptation", "d", int),
    "mode": ("adaptation", "mode", str),
    "nms_thresh": ("adaptation", "nms_thresh", float),
    "neg_lambda": ("adaptation", "neg_lambda", float),
    "detect_thresh": ("adaptation", "detect_thresh", float),
    "reg_lambda": ("train", "reg_lambda", float),
    "train_iterations": ("train", "iterations", int),
    "hard_neg_rounds": ("train", "max_hard_rounds", int),
    "seed": ("synth", "seed", int),
    "source_manifest": ("run", "source_manifest", _parse_path),
    "target_manifest": ("run", "target_manifest", _parse_path),
    "synth_classes": ("synth", "n_classes", int),
    "synth_dim": ("synth", "feature_dim", int),
    "synth_samples": ("synth", "samples_per_class", int),
    "synth_separation": ("synth", "class_separation", float),
    "synth_rotation": ("synth", "rotation_budget", float),
    "synth_noise": ("synth", "noise_scale", float),
    "synth_drift": ("synth", "mean_drift", float),
    "synth_spread": ("synth", "target_spread", float),
    "synth_latent": ("synth", "latent_dim", int),
    "synth_pos_per_image": ("synth", "pos_per_image", int),
    "synth_neg_per_image": ("synth", "neg_per_image", int),
    "synth_min_iou": ("synth", "min_object_iou", float),
    "synth_corrupt": ("synth", "corrupt_classes", _parse_corrupt),
    "hist_bins": ("run", "hist_bins", int),
    "hist_lo": ("run", "hist_lo", float),
    "hist_hi": ("run", "hist_hi", float),
    "weak_ratio": ("run", "weak_ratio", float),
}


def load_config(path=None) -> RunConfig:
    """Parse a flat key=value config file; ``None`` yields all defaults.

    The file is UTF-8 text.  Lines starting with '#' and blank lines are
    ignored; unknown keys, and keys set twice, are rejected so typos cannot
    silently fall back to defaults or be overridden.
    """
    sections: dict[str, dict] = defaultdict(dict)
    set_on: dict[str, int] = {}  # key -> line that set it
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise DataError(f"config file '{path}' does not exist")
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError:
            raise DataError(f"config file '{path}' is not UTF-8 text") from None
        except OSError as exc:
            raise DataError(
                f"config file '{path}' cannot be read: {exc.strerror}"
            ) from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DataError(f"{path}:{lineno}: expected key=value")
            key, _, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _CONFIG_KEYS:
                raise DataError(f"{path}:{lineno}: unknown config key '{key}'")
            if key in set_on:
                raise DataError(
                    f"{path}:{lineno}: config key '{key}' already set on line {set_on[key]}"
                )
            set_on[key] = lineno
            section, name, parse = _CONFIG_KEYS[key]
            try:
                value = parse(raw)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: cannot parse '{raw}' for key '{key}'"
                ) from None
            if isinstance(value, Path):
                value = str(path.parent / value)
            sections[section][name] = value

    train = TrainConfig(**sections["train"])
    adaptation = AdaptationConfig(train=train, **sections["adaptation"])
    synth = SynthShiftSpec(**sections["synth"])
    return RunConfig(adaptation=adaptation, synth=synth, **sections["run"])


def config_echo(cfg: RunConfig) -> dict:
    """Flat, JSON-ready snapshot of every effective config value."""
    sections = {
        "run": cfg,
        "adaptation": cfg.adaptation,
        "train": cfg.adaptation.train,
        "synth": cfg.synth,
    }
    echo = {}
    for key, (section, name, _) in _CONFIG_KEYS.items():
        value = getattr(sections[section], name)
        echo[key] = list(value) if isinstance(value, tuple) else value
    return echo


# ---------------------------------------------------------------------------
# Detector and state bundles (byte-exact round trips)
# ---------------------------------------------------------------------------

def _stats_to_dict(s: NormalizationStats) -> dict:
    return {"mean": s.mean, "scale": s.scale}


def _stats_from_dict(d: dict) -> NormalizationStats:
    return NormalizationStats(_stored_array(d["mean"]), _stored_array(d["scale"]))


def _subspace_to_dict(s: Subspace) -> dict:
    return {
        "basis": s.basis,
        "eigenvalues": s.eigenvalues,
        "stats": _stats_to_dict(s.stats),
    }


def _subspace_from_dict(d: dict) -> Subspace:
    return Subspace(
        basis=_stored_array(d["basis"]),
        eigenvalues=_stored_array(d["eigenvalues"]),
        stats=_stats_from_dict(d["stats"]),
    )


def _detector_to_dict(det: LinearDetector) -> dict:
    return {
        "class_id": det.class_id,
        "weights": det.weights,
        "bias": det.bias,
        "frame": det.frame,
    }


def _json_field(d: dict, key: str, kinds: tuple[type, ...], what: str):
    """``d[key]`` when ``json.loads`` gave it one of the types ``kinds``
    (``bool`` is not ``int`` here), else a DataError naming ``what``."""
    value = d[key]
    if type(value) not in kinds:
        raise DataError(f"'{key}' must be {what}, got {type(value).__name__}")
    return value


def _json_count(d: dict, key: str) -> int:
    value = _json_field(d, key, (int,), "a non-negative JSON integer")
    if value < 0:
        raise DataError(f"'{key}' must be a non-negative JSON integer, got {value}")
    return value


def _detector_from_dict(d: dict) -> LinearDetector:
    return LinearDetector(
        class_id=d["class_id"],
        weights=_stored_array(d["weights"]),
        bias=float(_json_field(d, "bias", (int, float), "a JSON number")),
        frame=_json_field(d, "frame", (str,), "a JSON string"),
    )


def _by_class(entries: dict) -> dict:
    """``entries`` (detectors or states), when each one's ``class_id`` is
    the key it is stored under."""
    for key, entry in entries.items():
        if entry.class_id != key:
            raise DataError(f"entry '{key}' holds class_id '{entry.class_id}'")
    return entries


def save_detectors(path, detectors: dict[str, LinearDetector], warnings=None) -> None:
    bundle = {
        "detectors": {c: _detector_to_dict(det) for c, det in detectors.items()},
        "warnings": list(warnings or []),
    }
    _save_bundle(path, bundle)


def _raw_detector(d: dict) -> LinearDetector:
    """A detector bundle's entry, whose detector scores raw features."""
    det = _detector_from_dict(d)
    if det.frame != "raw":
        raise DataError(f"detector '{det.class_id}' has frame '{det.frame}', not 'raw'")
    return det


def load_detectors(path) -> dict[str, LinearDetector]:
    return _load_bundle(
        path,
        "detector bundle",
        lambda b: _by_class({c: _raw_detector(d) for c, d in b["detectors"].items()}),
    )


def save_states(
    path, states: dict[str, ClassAdaptationState], warnings=None
) -> None:
    """Write each subspace pair once under ``pairs``, keyed by the tag its
    detectors' frame names (``frame_tag``), and each state's detector and
    counts; alignment maps are never written."""
    pairs: dict[str, tuple[Subspace, Subspace]] = {}
    for state in states.values():
        tag = frame_tag(state.adapted_detector.frame)
        pair = (state.source_subspace, state.target_subspace)
        if tag is not None and pairs.setdefault(tag, pair) != pair:
            raise DataError(f"two different subspace pairs have the tag '{tag}'")
    bundle = {
        "pairs": {
            tag: {"source": _subspace_to_dict(S), "target": _subspace_to_dict(T)}
            for tag, (S, T) in pairs.items()
        },
        "states": {
            c: {
                "adapted_detector": _detector_to_dict(state.adapted_detector),
                "n_pos_src": state.n_pos_src,
                "n_pos_tgt": state.n_pos_tgt,
                "downgraded": state.downgraded,
                "note": state.note,
            }
            for c, state in states.items()
        },
        "warnings": list(warnings or []),
    }
    _save_bundle(path, bundle)


def _states_from_bundle(bundle: dict) -> dict[str, ClassAdaptationState]:
    entries = bundle["states"]
    if "pairs" not in bundle:
        raise DataError(
            "no 'pairs' map: the bundle predates the current layout; "
            "rerun 'adapt' to rewrite it"
        )
    pairs = {
        tag: (_subspace_from_dict(p["source"]), _subspace_from_dict(p["target"]))
        for tag, p in bundle["pairs"].items()
    }
    pairs[None] = (None, None)  # the raw frame's: no pair; JSON keys are strings

    def state(d: dict) -> ClassAdaptationState:
        det = _detector_from_dict(d["adapted_detector"])
        return ClassAdaptationState(
            det,
            *pairs[frame_tag(det.frame)],
            n_pos_src=_json_count(d, "n_pos_src"),
            n_pos_tgt=_json_count(d, "n_pos_tgt"),
            downgraded=_json_field(d, "downgraded", (bool,), "a JSON boolean"),
            note=_json_field(d, "note", (str,), "a JSON string"),
        )

    states = _by_class({c: state(d) for c, d in entries.items()})
    named = {frame_tag(s.adapted_detector.frame) for s in states.values()}
    unnamed = sorted(bundle["pairs"].keys() - named)
    if unnamed:
        raise DataError(f"no state's frame names the pair '{unnamed[0]}'")
    return states


def load_states(path) -> dict[str, ClassAdaptationState]:
    return _load_bundle(path, "state bundle", _states_from_bundle)

"""Independent brute-force implementations used as test oracles.

Nothing here may call the code paths it checks: objectives are summed with
explicit loops, NMS recomputes suppression sets from scratch, AP is
evaluated from first principles, and the alignment minimizer is found by
plain gradient descent.
"""

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from aligndet.datasets import Dataset, ImageRecord, check_id, check_ids
from aligndet.detection import (
    HINGE_MARGIN, BBox, Detections, GroundTruths, iou, label_codes,
)
from aligndet.errors import DataError


@dataclass(frozen=True)
class Detection:
    """Scored, class-labeled box: one row of ``Detections``."""

    image_id: str
    box: BBox
    class_id: str
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise DataError("detection score must be finite")


@dataclass(frozen=True)
class GroundTruth:
    """Annotated object box: one row of ``GroundTruths``."""

    image_id: str
    class_id: str
    box: BBox


def rows_of(dets: Detections) -> list[Detection]:
    """The rows of ``dets`` as ``Detection`` objects, in order."""
    return [
        Detection(dets.image_ids[i], BBox(*box), dets.class_ids[c], score)
        for box, score, i, c in zip(
            dets.boxes.tolist(), dets.scores.tolist(),
            dets.image_index.tolist(), dets.class_index.tolist(),
        )
    ]


def gt_rows(gt: GroundTruths) -> list[GroundTruth]:
    """The rows of ``gt`` as ``GroundTruth`` objects, in order."""
    return [
        GroundTruth(gt.image_ids[i], gt.class_ids[c], BBox(*box))
        for box, i, c in zip(
            gt.boxes.tolist(), gt.image_index.tolist(), gt.class_index.tolist()
        )
    ]


def _box_array(rows) -> np.ndarray:
    """The ``(n, 4)`` array of the rows' boxes."""
    return np.array([r.box.as_tuple() for r in rows], dtype=np.float64).reshape(-1, 4)


def ground_truths_from_rows(rows, image_ids=None, class_ids=None) -> GroundTruths:
    """Columns of ``GroundTruth`` rows, in their order.  The name tables
    default to the names in order of first appearance (``label_codes``)."""
    rows = list(rows)
    images, image_ids = label_codes([g.image_id for g in rows], image_ids)
    classes, class_ids = label_codes([g.class_id for g in rows], class_ids)
    return GroundTruths(_box_array(rows), images, classes, image_ids, class_ids)


def ground_truths_of(image_ids, gts, classes) -> GroundTruths:
    """The table of per-image ground truth: ``gts[k]`` is the list of
    ``(class_id, box)`` pairs of image ``image_ids[k]``, or None when it is
    unlabeled, which the table does not list.  Its classes are
    ``classes``, then any other class the pairs name, in order."""
    listed = [i for i, gt in zip(image_ids, gts) if gt is not None]
    rows = [
        GroundTruth(i, c, box)
        for i, gt in zip(image_ids, gts)
        for c, box in gt or ()
    ]
    names = dict.fromkeys([*classes, *(g.class_id for g in rows)])
    return ground_truths_from_rows(rows, listed, names)


def labeled_dataset(name, classes, feature_dim, images, gts, features=None) -> Dataset:
    """``Dataset`` of ``images`` whose ground truth is given per image, as
    ``ground_truths_of`` takes it.  Ids are checked first, as ``Dataset``
    checks them before the table's names."""
    ids = [img.image_id for img in images]
    check_ids(classes, ids)
    return Dataset(
        name, classes, feature_dim, images, features, ground_truths_of(ids, gts, classes)
    )


def image_gt(dataset) -> list:
    """Each image's ground truth as ``ground_truths_of`` takes it: a list
    of ``(class_id, box)`` pairs in row order, or None when the dataset's
    table does not list the image."""
    per_image = {i: [] for i in dataset.ground_truths.image_ids}
    for g in gt_rows(dataset.ground_truths):
        per_image[g.image_id].append((g.class_id, g.box))
    return [per_image.get(img.image_id) for img in dataset.images]


def detections_from_rows(rows, image_ids=None, class_ids=None) -> Detections:
    """Columns of ``Detection`` rows, in their order.  The name tables
    default to the names in order of first appearance (``label_codes``)."""
    rows = list(rows)
    images, image_ids = label_codes([d.image_id for d in rows], image_ids)
    classes, class_ids = label_codes([d.class_id for d in rows], class_ids)
    scores = np.array([d.score for d in rows], dtype=np.float64)
    return Detections(_box_array(rows), scores, images, classes, image_ids, class_ids)


def rank_key(d: Detection):
    """The order in which NMS and AP matching visit detections: score
    descending, then image id, then box coordinates, so ties never depend
    on input order."""
    return (-d.score, d.image_id, d.box.as_tuple())


def brute_force_objective(M, Bs, Bt) -> float:
    """Elementwise double-loop evaluation of the alignment misfit."""
    R = Bs @ M - Bt
    total = 0.0
    for i in range(R.shape[0]):
        for j in range(R.shape[1]):
            total += R[i, j] * R[i, j]
    return total


def gd_align(Bs_stack, Bt_stack, lr=0.01, iters=100_000):
    """Gradient descent on the alignment objective, batched over pairs.

    Starts at zero with a fixed step; the objective is convex quadratic so
    this converges to the unique minimizer of each pair.
    """
    Bs = np.asarray(Bs_stack)
    Bt = np.asarray(Bt_stack)
    d = Bs.shape[2]
    M = np.zeros((Bs.shape[0], d, d))
    BsT = np.transpose(Bs, (0, 2, 1))
    for _ in range(iters):
        grad = 2.0 * (BsT @ (Bs @ M - Bt))
        M = M - lr * grad
    return M


def exhaustive_nms(dets, overlap_thresh):
    """NMS that rebuilds the candidate set from scratch every round."""
    kept: list[int] = []
    while True:
        candidates = []
        for i, d in enumerate(dets):
            if i in kept:
                continue
            if any(iou(d.box, dets[k].box) > overlap_thresh for k in kept):
                continue
            candidates.append(i)
        if not candidates:
            return [dets[i] for i in kept]
        candidates.sort(
            key=lambda i: (-dets[i].score, dets[i].image_id, dets[i].box.as_tuple())
        )
        kept.append(candidates[0])


def sequential_nms(dets, overlap_thresh):
    """The list-based greedy loop: pop the best remaining detection, filter
    the rest against it with the scalar ``iou``.  Quadratic in Python calls
    but fast enough for inputs of a few hundred boxes."""
    remaining = sorted(dets, key=lambda d: (-d.score, d.image_id, d.box.as_tuple()))
    kept = []
    while remaining:
        top = remaining.pop(0)
        kept.append(top)
        remaining = [r for r in remaining if iou(top.box, r.box) <= overlap_thresh]
    return kept


def per_image_nms(dets, overlap_thresh):
    """``sequential_nms`` on each image's detections alone, the images
    concatenated in the order they first appear in ``dets``."""
    images = {}
    for d in dets:
        images.setdefault(d.image_id, []).append(d)
    return [k for group in images.values() for k in sequential_nms(group, overlap_thresh)]


def grouped_nms(dets, overlap_thresh):
    """``sequential_nms`` on each (class, image) group alone: the classes
    in the order they first appear in ``dets``, each class's images in the
    order they first appear among its rows."""
    classes = {}
    for d in dets:
        classes.setdefault(d.class_id, {}).setdefault(d.image_id, []).append(d)
    return [
        k
        for images in classes.values()
        for group in images.values()
        for k in sequential_nms(group, overlap_thresh)
    ]


def rowwise_write_detections_csv(path, dets: Detections) -> None:
    """The detections CSV built row by row, every float formatted with its
    ``repr`` and the whole text joined before it is written."""
    images = np.array(dets.image_ids, dtype=object)[dets.image_index].tolist()
    classes = np.array(dets.class_ids, dtype=object)[dets.class_index].tolist()
    numbers = map(np.ndarray.tolist, np.column_stack((dets.boxes, dets.scores)))
    lines = (
        f"{i},{x0!r},{y0!r},{x1!r},{y1!r},{c},{s!r}"
        for i, (x0, y0, x1, y1, s), c in zip(images, numbers, classes)
    )
    header = "image_id,x_min,y_min,x_max,y_max,class,score"
    Path(path).write_text("\n".join([header, *lines]) + "\n")


def match_detections(dets, gts, class_id, iou_thresh):
    """The scalar greedy TP assignment for one class: 1.0 for each
    detection that is a true positive, 0.0 for a false one, and the number
    of ground truths.

    Detections are visited in ``rank_key`` order; each matches the
    highest-IoU still-unmatched ground truth of its image when that IoU
    reaches ``iou_thresh``.
    """
    gt_c = [g for g in gts if g.class_id == class_id]
    det_c = sorted((d for d in dets if d.class_id == class_id), key=rank_key)
    unmatched = {}
    for g in gt_c:
        unmatched.setdefault(g.image_id, []).append(g)

    tp = np.zeros(len(det_c))
    for i, det in enumerate(det_c):
        pool = unmatched.get(det.image_id, [])
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(pool):
            ov = iou(det.box, g.box)
            if ov > best_iou:
                best_iou, best_j = ov, j
        if best_j >= 0 and best_iou >= iou_thresh:
            tp[i] = 1.0
            pool.pop(best_j)
    return tp, len(gt_c)


def brute_force_ap(dets, gts, class_id, iou_thresh=0.5):
    """First-principles PR-curve evaluation.

    Walks detections in score order, greedily matches each to the best
    still-free same-image ground truth, then integrates the precision
    envelope with a direct max-scan per recall step.
    """
    gt_list = [g for g in gts if g.class_id == class_id]
    if not gt_list:
        return None
    det_list = sorted(
        (d for d in dets if d.class_id == class_id),
        key=lambda d: (-d.score, d.image_id, d.box.as_tuple()),
    )
    if not det_list:
        return 0.0
    free = list(range(len(gt_list)))
    is_tp = []
    for det in det_list:
        best_ov, best_j = 0.0, None
        for j in free:
            g = gt_list[j]
            if g.image_id != det.image_id:
                continue
            ov = iou(det.box, g.box)
            if ov > best_ov:
                best_ov, best_j = ov, j
        if best_j is not None and best_ov >= iou_thresh:
            free.remove(best_j)
            is_tp.append(True)
        else:
            is_tp.append(False)
    points = []
    tp = 0
    for rank, flag in enumerate(is_tp, start=1):
        tp += 1 if flag else 0
        points.append((tp / len(gt_list), tp / rank))
    area = 0.0
    prev = 0.0
    for recall in sorted({r for r, _ in points}):
        if recall <= prev:
            continue
        area += (recall - prev) * max(p for r, p in points if r >= recall)
        prev = recall
    return area


def _parse_float(token, path, lineno):
    try:
        v = float(token)
    except ValueError:
        raise DataError(f"{path}:{lineno}: '{token}' is not a number") from None
    if not math.isfinite(v):
        raise DataError(f"{path}:{lineno}: non-finite value")
    return v


def per_line_box_rows(path, kind, header):
    """The line-by-line box CSV reader: a list of (text cells, numbers,
    box, line number) rows, or the ``DataError`` of the file (missing, not
    UTF-8, bad header) or of its first bad line.
    ``numbers`` are the columns after ``image_id`` other than ``class``; a
    box out of order fails as ``BBox`` does, prefixed with
    ``path:lineno``."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{kind} file '{path}' does not exist")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise DataError(f"{kind} file '{path}' is not UTF-8 text") from None
    if not lines or lines[0] != header:
        raise DataError(f"{kind} file '{path}' must start with '{header}'")
    n_columns = header.count(",") + 1
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_columns:
            raise DataError(
                f"{path}:{lineno}: expected {n_columns} columns, got {len(parts)}"
            )
        nums = [_parse_float(p, path, lineno) for p in parts[1:5] + parts[6:]]
        try:
            box = BBox(*nums[:4])
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        out.append((parts, nums, box, lineno))
    return out


def read_fmx(path):
    """One feature file read on its own, its payload unpacked float by
    float with ``struct``: a float64 ``(n, D)`` matrix, or the
    ``DataError`` that names the file and, for a non-finite value, its
    first such row."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"feature file '{path}' does not exist")
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != b"FMX1":
        raise DataError(f"feature file '{path}' has a bad header")
    version, n, D = struct.unpack("<III", raw[4:16])
    if version != 1:
        raise DataError(f"feature file '{path}' has unsupported version {version}")
    if len(raw) != 16 + 4 * n * D:
        raise DataError(
            f"feature file '{path}' truncated: {len(raw)} bytes, expected "
            f"{16 + 4 * n * D}"
        )
    values = struct.unpack(f"<{n * D}f", raw[16:])
    for row in range(n):
        if not all(math.isfinite(v) for v in values[row * D : (row + 1) * D]):
            raise DataError(
                f"feature file '{path}' has a non-finite value at row {row}"
            )
    return np.array(values, dtype=np.float64).reshape(n, D)


def sequential_load_dataset(manifest_path):
    """The per-image dataset loader: each image's feature file, boxes file
    (its rows' image ids, then its row count) and GT file are read in
    manifest order with ``read_fmx`` and ``per_line_box_rows``, and the
    first fault raises ``load_dataset``'s message for it."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    base = manifest_path.parent
    box_header = "image_id,x_min,y_min,x_max,y_max"
    try:
        classes = list(manifest["classes"])
        for class_id in classes:
            check_id("class id", class_id)
        images, gts = [], []
        for entry in manifest["images"]:
            image_id = entry.get("image_id")
            check_id("image id", image_id)
            feat_path = base / entry["feature_file"]
            boxes_path = base / entry["boxes_file"]
            features = read_fmx(feat_path)
            rows = per_line_box_rows(boxes_path, "boxes", box_header)
            for parts, _, _, lineno in rows:
                if parts[0] != image_id:
                    raise DataError(
                        f"{boxes_path}:{lineno}: image id '{parts[0]}' does not "
                        f"match manifest entry '{image_id}'"
                    )
            if len(rows) != features.shape[0]:
                raise DataError(
                    f"row-count mismatch for image '{image_id}': boxes file "
                    f"'{boxes_path}' has {len(rows)} rows but feature file "
                    f"'{feat_path}' has {features.shape[0]} rows"
                )
            gt = None
            if entry.get("gt_file"):
                gt_path = base / entry["gt_file"]
                gt = []
                gt_header = box_header + ",class"
                for parts, _, box, _ in per_line_box_rows(gt_path, "gt", gt_header):
                    if parts[0] != image_id:
                        raise DataError(
                            f"gt file '{gt_path}': image id '{parts[0]}' does not "
                            f"match manifest entry '{image_id}'"
                        )
                    if parts[5] not in classes:
                        raise DataError(
                            f"gt file '{gt_path}': unknown class '{parts[5]}'"
                        )
                    gt.append((parts[5], box))
            boxes = [box.as_tuple() for _, _, box, _ in rows]
            images.append(ImageRecord(image_id, features, np.reshape(boxes, (-1, 4))))
            gts.append(gt)
        return labeled_dataset(
            manifest["name"], classes, int(manifest["feature_dim"]), images, gts
        )
    except DataError as exc:
        raise DataError(f"manifest '{manifest_path}' is malformed: {exc}") from None


def scalar_max_overlaps(img, gt, class_id):
    """Per proposal of ``img``, its largest scalar ``iou`` with a GT box
    of class ``class_id`` among its ground truth ``gt`` (``image_gt``), 0
    without one: the double loop."""
    gt_boxes = [box for cid, box in (gt or []) if cid == class_id]
    out = np.zeros(img.n_proposals)
    for i, row in enumerate(img.boxes.tolist()):
        box = BBox(*row)
        for g in gt_boxes:
            ov = iou(box, g)
            if ov > out[i]:
                out[i] = ov
    return out


def project_target(X, T):
    """The unfolded test-time projection: z-score ``X`` with the target
    subspace's stats, then project it on the target basis alone."""
    return ((np.asarray(X, dtype=np.float64) - T.stats.mean) / T.stats.scale) @ T.basis


def unfolded_detect(target, states, cfg):
    """Detection with the test-time projection applied to every image, per
    (class, image): z-score and project the features of an adapted class,
    score, threshold, then ``sequential_nms``."""
    out = []
    for c in target.classes:
        if c not in states:
            continue
        state, det = states[c], states[c].adapted_detector
        for img in target.images:
            feats = img.features
            if state.mode != "none":
                feats = project_target(feats, state.target_subspace)
            scores = feats @ det.weights + det.bias
            picked = [
                Detection(
                    img.image_id, BBox(*img.boxes[k].tolist()), c, float(scores[k])
                )
                for k in np.flatnonzero(scores >= cfg.detect_thresh)
            ]
            out.extend(sequential_nms(picked, cfg.nms_thresh))
    return out


def random_orthonormal(rng, ambient, d):
    """Random D x d matrix with orthonormal columns."""
    Q, _ = np.linalg.qr(rng.normal(size=(ambient, d)))
    return Q


def random_detections(rng, n, class_id="obj", image_id="img0"):
    """Random overlapping boxes with distinct scores."""
    out = []
    for _ in range(n):
        x, y = rng.uniform(0, 60, size=2)
        w, h = rng.uniform(10, 50, size=2)
        out.append(
            Detection(
                image_id=image_id,
                box=BBox(x, y, x + w, y + h),
                class_id=class_id,
                score=float(rng.uniform(0, 1)),
            )
        )
    return out


def subgradient_loop(X, y, cfg):
    """The step-by-step hinge trainer: full-batch subgradient descent from
    zero with step 1/(reg_lambda * t), the bias carried as a constant
    feature.  Returns (w, b, counts), where ``counts[i]`` is the number of
    steps at which row i violated the margin."""
    n = X.shape[0]
    Xa = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(Xa.shape[1])
    yX = y[:, None] * Xa
    counts = np.zeros(n, dtype=np.int64)
    for t in range(1, cfg.iterations + 1):
        eta = 1.0 / (cfg.reg_lambda * t)
        viol = y * (Xa @ w) < HINGE_MARGIN
        counts += viol
        gw = cfg.reg_lambda * w
        if np.any(viol):
            gw = gw - yX[viol].sum(axis=0) / n
        w = w - eta * gw
    return w[:-1], float(w[-1]), counts

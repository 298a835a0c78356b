"""Quantitative evaluation and diagnostics: per-class average precision,
mean AP, score histograms, and cross-class subspace-similarity matrices,
plus dependency-free SVG renderings of the latter two."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import Detections, GroundTruths, pairwise_iou
# Unused here; bench/traced_cli.py counts calls through evaluation.iou.
from .detection import iou  # noqa: F401
from .errors import DataError
from .linalg import subspace_similarity


def _true_positives(
    dets: Detections, gts: GroundTruths, class_id: str, iou_thresh: float
) -> np.ndarray:
    """Greedy TP assignment for one class: 1.0 for each of its detections
    that is a true positive, 0.0 for a false one, in rank order, against
    the class's ground truths in ``gts``.

    Detections are ranked by score descending, then image id, then box
    (one ``lexsort``), so ties never depend on input order.  In that order,
    each matches the highest-IoU still-unmatched ground truth of its image,
    the first in row order on a tie, when that IoU is positive and reaches
    ``iou_thresh``.

    Each detection's IoUs with its image's ground truths are one row of a
    ``pairwise_iou`` call.  A detection that matches nothing with every
    ground truth still free never matches later, when fewer are free, so
    each round matches the first candidate of every image at once and keeps
    only the other candidates that still match something.
    """
    rows = dets.class_rows(class_id)
    names = dets.image_ids
    by_name = sorted(range(len(names)), key=names.__getitem__)
    name_rank = np.empty(len(names), dtype=np.intp)
    name_rank[by_name] = np.arange(len(names))
    image, boxes = dets.image_index[rows], dets.boxes[rows]
    order = np.lexsort((*boxes.T[::-1], name_rank[image], -dets.scores[rows]))
    image, boxes = image[order], boxes[order]
    tp = np.zeros(rows.size)
    gt_boxes = gts.per_image(class_id, names)
    if not gt_boxes.shape[1]:
        return tp
    taken = np.zeros(gt_boxes.shape[:2], dtype=bool)

    # A zero or NaN IoU, a padding box's among them, never matches: -1
    # fails every threshold in [0, 1].
    ious = pairwise_iou(boxes[:, None, :], gt_boxes[image])[:, 0, :]
    ious = np.where(ious > 0.0, ious, -1.0)
    cand = np.flatnonzero(ious.max(axis=1) >= iou_thresh)
    while cand.size:
        live = np.where(taken[image[cand]], -1.0, ious[cand])
        hit = np.flatnonzero(live.max(axis=1) >= iou_thresh)
        if not hit.size:
            break
        # The first candidate of each image, in rank order, matches.
        _, first = np.unique(image[cand[hit]], return_index=True)
        won = hit[first]
        tp[cand[won]] = 1.0
        taken[image[cand[won]], live[won].argmax(axis=1)] = True
        cand = np.delete(cand[hit], first)
    return tp


def average_precision(
    dets: Detections,
    gts: GroundTruths,
    class_id: str,
    iou_thresh: float = 0.5,
) -> float | None:
    """Area under the precision-recall curve for one class.

    Uses all-points interpolation: the precision envelope is made monotone
    nonincreasing and integrated over recall.  Returns None (undefined, not
    zero) when the class has no ground-truth boxes.  ``iou_thresh`` must be
    in [0, 1].
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise DataError("IoU threshold must be in [0, 1]")
    n_gt = gts.class_rows(class_id).size
    if not n_gt:
        return None
    tp = _true_positives(dets, gts, class_id, iou_thresh)
    if len(tp) == 0:
        return 0.0
    ctp = np.cumsum(tp)
    recall = ctp / n_gt
    precision = ctp / np.arange(1, len(tp) + 1)  # the exact rank

    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def mean_ap(per_class_ap: dict[str, float | None]) -> float:
    """Unweighted mean over classes whose AP is defined."""
    defined = [v for v in per_class_ap.values() if v is not None]
    if not defined:
        raise DataError("no class has a defined AP")
    return float(np.mean(defined))


@dataclass(eq=False)
class Histogram:
    """Uniform-width score histogram with out-of-range sidecar counts.

    Bins are left-closed right-open except the last, which is closed.
    """

    counts: np.ndarray
    underflow: int
    overflow: int
    lo: float
    hi: float

    @property
    def bins(self) -> int:
        return len(self.counts)

    def to_dict(self) -> dict:
        return {
            "counts": [int(c) for c in self.counts],
            "underflow": self.underflow,
            "overflow": self.overflow,
            "lo": self.lo,
            "hi": self.hi,
        }


def check_histogram_layout(bins: int, lo: float, hi: float) -> None:
    """Reject a bin count below one or a range that is not finite lo < hi."""
    if bins < 1:
        raise DataError("bins must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DataError(f"invalid range ({lo}, {hi})")


def score_histogram(scores, bins: int, value_range: tuple[float, float]) -> Histogram:
    """Bin ``scores`` into ``bins`` equal-width bins over ``value_range``."""
    lo, hi = float(value_range[0]), float(value_range[1])
    check_histogram_layout(bins, lo, hi)
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite")

    under = int(np.sum(s < lo))
    over = int(np.sum(s > hi))
    inside = s[(s >= lo) & (s <= hi)]
    width = (hi - lo) / bins
    idx = np.floor((inside - lo) / width).astype(int)
    # The closed last bin absorbs s == hi (and boundary rounding).
    idx = np.minimum(idx, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return Histogram(counts=counts, underflow=under, overflow=over, lo=lo, hi=hi)


@dataclass(eq=False)
class SimilarityMatrix:
    """Cross matrix of source-vs-target subspace similarities.

    Entry (i, j) compares the source subspace of class ``labels[i]`` with
    the target subspace of class ``labels[j]``; entries lie in [0, sqrt(d)].
    """

    values: np.ndarray
    labels: list[str]
    d: int

    def diagonal(self) -> dict[str, float]:
        return {c: float(self.values[i, i]) for i, c in enumerate(self.labels)}

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "d": self.d,
            "values": [[float(v) for v in row] for row in self.values],
        }


def similarity_matrix(states) -> SimilarityMatrix:
    """Full cross matrix of similarities over per-class adaptation states.

    ``states`` maps class id to an object exposing ``source_subspace`` and
    ``target_subspace``; classes missing either subspace (downgraded ones)
    are left out of the matrix.
    """
    labels = [
        c
        for c, st in states.items()
        if st.source_subspace is not None and st.target_subspace is not None
    ]
    if not labels:
        raise DataError("no class has both subspaces")
    dims = {states[c].source_subspace.d for c in labels} | {
        states[c].target_subspace.d for c in labels
    }
    ambients = {states[c].source_subspace.ambient_dim for c in labels} | {
        states[c].target_subspace.ambient_dim for c in labels
    }
    if len(dims) != 1 or len(ambients) != 1:
        raise DataError("subspaces disagree on dimension across classes")
    d = dims.pop()
    values = np.zeros((len(labels), len(labels)))
    for i, ci in enumerate(labels):
        for j, cj in enumerate(labels):
            values[i, j] = subspace_similarity(
                states[ci].source_subspace, states[cj].target_subspace
            )
    return SimilarityMatrix(values=values, labels=labels, d=d)


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled so output bytes are reproducible)
# ---------------------------------------------------------------------------

_SVG_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_histogram_svg(hist: Histogram, title: str = "") -> str:
    """Bar chart of histogram counts as a standalone SVG document."""
    width, height, margin = 480, 320, 40
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    peak = max(int(hist.counts.max()) if hist.bins else 0, 1)
    bar_w = plot_w / hist.bins

    parts = [
        _SVG_HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n',
        f'<rect width="{width}" height="{height}" fill="white"/>\n',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>\n'
        )
    for i, count in enumerate(hist.counts):
        h = plot_h * (int(count) / peak)
        x = margin + i * bar_w
        y = margin + plot_h - h
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w * 0.92)}" '
            f'height="{_fmt(h)}" fill="#4878cf"/>\n'
        )
    # axes
    parts.append(
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{margin + plot_w}" '
        f'y2="{margin + plot_h}" stroke="black"/>\n'
    )
    parts.append(
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{margin + plot_h}" stroke="black"/>\n'
    )
    parts.append(
        f'<text x="{margin}" y="{height - 8}" font-family="sans-serif" '
        f'font-size="11">{_fmt(hist.lo)}</text>\n'
    )
    parts.append(
        f'<text x="{margin + plot_w}" y="{height - 8}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{_fmt(hist.hi)}</text>\n'
    )
    parts.append(
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{peak}</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def _colormap(t: float) -> str:
    """Two-segment dark-blue -> teal -> yellow ramp, t in [0, 1]."""
    stops = [(68, 1, 84), (33, 145, 140), (253, 231, 37)]
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        a, b, u = stops[0], stops[1], t * 2.0
    else:
        a, b, u = stops[1], stops[2], (t - 0.5) * 2.0
    rgb = [round(a[k] + (b[k] - a[k]) * u) for k in range(3)]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_similarity_svg(sim: SimilarityMatrix, title: str = "") -> str:
    """Color-mapped grid of the similarity matrix as a standalone SVG."""
    n = len(sim.labels)
    cell, margin = 36, 80
    size = margin + n * cell + 12
    vmax = math.sqrt(sim.d)

    parts = [
        _SVG_HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">\n',
        f'<rect width="{size}" height="{size}" fill="white"/>\n',
    ]
    if title:
        parts.append(
            f'<text x="{size / 2:.0f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>\n'
        )
    for i in range(n):
        for j in range(n):
            v = float(sim.values[i, j])
            color = _colormap(v / vmax if vmax > 0 else 0.0)
            x = margin + j * cell
            y = margin + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{color}" stroke="white"/>\n'
            )
            parts.append(
                f'<text x="{x + cell / 2:.0f}" y="{y + cell / 2 + 4:.0f}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="9" fill="white">{v:.2f}</text>\n'
            )
    for k, label in enumerate(sim.labels):
        parts.append(
            f'<text x="{margin + k * cell + cell / 2:.0f}" y="{margin - 6}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="10">{label}</text>\n'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{margin + k * cell + cell / 2 + 4:.0f}" '
            f'text-anchor="end" font-family="sans-serif" '
            f'font-size="10">{label}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)

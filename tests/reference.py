"""Brute-force dense reference path.

Re-derives the full pipeline (mining, PCA, alignment, retraining, detection,
AP) with plain loops and direct formulas, sharing no computational code with
the main modules.  Used to cross-check end-to-end numbers; it is slow and
deliberately unclever.
"""

from __future__ import annotations

import numpy as np

from aligndet.datasets import Dataset
from aligndet.pipeline import AdaptationConfig
from oracles import image_gt, images_of

_MARGIN = 1.0
_INIT_CACHE = 1024


def _iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(ix, 0.0) * max(iy, 0.0)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def _overlaps(img, gt, class_id) -> list[float]:
    gt_boxes = [box.as_tuple() for cid, box in (gt or []) if cid == class_id]
    out = []
    for box in img.boxes.tolist():
        best = 0.0
        for g in gt_boxes:
            best = max(best, _iou(box, g))
        out.append(best)
    return out


def _zscore(X):
    mean = X.mean(axis=0)
    if X.shape[0] > 1:
        scale = X.std(axis=0, ddof=1)
        scale = np.where(scale <= 1e-12 * np.maximum(1.0, np.abs(mean)), 1.0, scale)
    else:
        scale = np.ones(X.shape[1])
    return (X - mean) / scale, mean, scale


def _top_subspace(X, d):
    """Top-d right singular subspace of the centered data (SVD route)."""
    Xc = X - X.mean(axis=0)
    _, svals, Vt = np.linalg.svd(Xc, full_matrices=False)
    if np.sum(svals > svals[0] * 1e-8) < d:
        raise RuntimeError("reference: rank too low")
    return Vt[:d].T


def _train_hinge(P, N, cfg) -> tuple[np.ndarray, float]:
    reg, iters = cfg.train.reg_lambda, cfg.train.iterations
    cache = set(range(min(len(N), _INIT_CACHE)))
    w, b = np.zeros(P.shape[1]), 0.0
    for _ in range(cfg.train.max_hard_rounds):
        idx = sorted(cache)
        # Bias handled as an appended constant feature.
        X = np.hstack(
            [np.vstack([P, N[idx]]), np.ones((len(P) + len(idx), 1))]
        )
        y = np.array([1.0] * len(P) + [-1.0] * len(idx))
        n = len(X)
        v = np.zeros(X.shape[1])
        for t in range(1, iters + 1):
            eta = 1.0 / (reg * t)
            viol = y * (X @ v) < _MARGIN
            gv = reg * v
            if viol.any():
                gv = gv - (y[viol, None] * X[viol]).sum(axis=0) / n
            v = v - eta * gv
        w, b = v[:-1], float(v[-1])
        fresh = {
            int(i) for i in np.flatnonzero(N @ w + b > -_MARGIN) if int(i) not in cache
        }
        if not fresh:
            break
        cache |= fresh
    return w, b


def _nms_from_scratch(entries, thresh):
    """entries: list of (score, image_id, box tuple); exhaustive NMS that
    recomputes the suppression set from scratch every round."""
    kept_idx: list[int] = []
    while True:
        candidates = []
        for i, e in enumerate(entries):
            if i in kept_idx:
                continue
            if any(_iou(e[2], entries[k][2]) > thresh for k in kept_idx):
                continue
            candidates.append(i)
        if not candidates:
            return [entries[i] for i in kept_idx]
        candidates.sort(key=lambda i: (-entries[i][0], entries[i][1], entries[i][2]))
        kept_idx.append(candidates[0])


def _ap_bruteforce(dets, gts) -> float | None:
    """dets: (score, image_id, box); gts: (image_id, box). All-points AP."""
    if not gts:
        return None
    if not dets:
        return 0.0
    order = sorted(dets, key=lambda d: (-d[0], d[1], d[2]))
    taken = [False] * len(gts)
    flags = []
    for score, image_id, box in order:
        best, best_j = 0.0, -1
        for j, (gid, gbox) in enumerate(gts):
            if taken[j] or gid != image_id:
                continue
            ov = _iou(box, gbox)
            if ov > best:
                best, best_j = ov, j
        if best_j >= 0 and best >= 0.5:
            taken[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    points = []
    tp = 0
    for i, is_tp in enumerate(flags, start=1):
        tp += 1 if is_tp else 0
        points.append((tp / len(gts), tp / i))
    area = 0.0
    prev_recall = 0.0
    for recall, _ in sorted(set(points)):
        if recall <= prev_recall:
            continue
        best_prec = max(p for r, p in points if r >= recall)
        area += (recall - prev_recall) * best_prec
        prev_recall = recall
    return area


def _detect_and_score(target, detectors, projector, cfg) -> dict[str, float | None]:
    """Run per-class detection + NMS + AP.  ``projector(class_id, feats)``
    maps raw image features into each detector's frame."""
    ap = {}
    for class_id, (w, b) in detectors.items():
        entries = []
        for img in images_of(target):
            feats = projector(class_id, img.features)
            scores = feats @ w + b
            pool = [
                (float(scores[k]), img.image_id, tuple(img.boxes[k].tolist()))
                for k in range(len(scores))
                if scores[k] >= cfg.detect_thresh
            ]
            entries.extend(_nms_from_scratch(pool, cfg.nms_thresh))
        gts = [
            (img.image_id, box.as_tuple())
            for img, gt in zip(images_of(target), image_gt(target))
            for cid, box in (gt or [])
            if cid == class_id
        ]
        ap[class_id] = _ap_bruteforce(entries, gts)
    return ap


def reference_run(source: Dataset, target: Dataset, cfg: AdaptationConfig) -> dict:
    """Dense end-to-end evaluation of both the unadapted and the
    class-specific adapted route on labeled source/target pairs.

    Returns per-class APs and mean APs for both routes plus their margin.
    """
    initial = {}
    mined_src: dict[str, np.ndarray] = {}
    negatives: dict[str, np.ndarray] = {}
    for class_id in source.classes:
        pos_rows, neg_rows = [], []
        for img, gt in zip(images_of(source), image_gt(source)):
            ols = _overlaps(img, gt, class_id)
            for i, ol in enumerate(ols):
                if ol >= cfg.gamma:
                    pos_rows.append(img.features[i])
                elif ol < cfg.neg_lambda:
                    neg_rows.append(img.features[i])
        if not pos_rows:
            continue
        mined_src[class_id] = np.array(pos_rows)
        negatives[class_id] = np.array(neg_rows)
        initial[class_id] = _train_hinge(
            mined_src[class_id], negatives[class_id], cfg
        )

    ap_plain = _detect_and_score(
        target, initial, lambda _c, feats: feats, cfg
    )

    adapted = {}
    frames = {}
    for class_id, (w, b) in initial.items():
        tgt_rows = []
        for img in images_of(target):
            scores = img.features @ w + b
            for i in np.flatnonzero(scores >= cfg.sigma):
                tgt_rows.append(img.features[i])
        if len(tgt_rows) < cfg.d + 1 or len(mined_src[class_id]) < cfg.d + 1:
            adapted[class_id] = (w, b)
            frames[class_id] = None
            continue
        pos_tgt = np.array(tgt_rows)
        src_n, src_mean, src_scale = _zscore(mined_src[class_id])
        tgt_n, tgt_mean, tgt_scale = _zscore(pos_tgt)
        Xs = _top_subspace(src_n, cfg.d)
        Xt = _top_subspace(tgt_n, cfg.d)
        Xa = Xs @ (Xs.T @ Xt)
        pos_proj = ((mined_src[class_id] - src_mean) / src_scale) @ Xa
        neg_proj = ((negatives[class_id] - src_mean) / src_scale) @ Xa
        adapted[class_id] = _train_hinge(pos_proj, neg_proj, cfg)
        frames[class_id] = (tgt_mean, tgt_scale, Xt)

    def projector(class_id, feats):
        frame = frames[class_id]
        if frame is None:
            return feats
        mean, scale, Xt = frame
        return ((feats - mean) / scale) @ Xt

    ap_adapted = _detect_and_score(target, adapted, projector, cfg)

    def _mean(ap_map):
        vals = [v for v in ap_map.values() if v is not None]
        return float(np.mean(vals)) if vals else float("nan")

    unadapted_map = _mean(ap_plain)
    adapted_map = _mean(ap_adapted)
    return {
        "per_class_unadapted": ap_plain,
        "per_class_adapted": ap_adapted,
        "unadapted_map": unadapted_map,
        "adapted_map": adapted_map,
        "margin": adapted_map - unadapted_map,
    }

import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aligndet import detection, linalg, pipeline
from aligndet.alignment import solve_alignment
from aligndet.dataio import (
    SynthShiftSpec,
    generate_synthetic,
    load_dataset,
    load_states,
    save_dataset,
    save_states,
)
from aligndet.datasets import Dataset
from aligndet.detection import (
    BBox,
    Detections,
    LinearDetector,
    TrainConfig,
    greedy_nms,
    iou,
)
from aligndet.errors import DataError
from aligndet.evaluation import average_precision
from aligndet.linalg import Subspace, subspace_similarity
from aligndet.pipeline import (
    AdaptationConfig,
    ClassAdaptationState,
    adapt,
    detect,
    mine_source_positives,
    mine_target_positives,
    passthrough_states,
    raw_score_rows,
    train_initial_detectors,
)

from oracles import (
    Detection,
    detections_from_rows,
    dataset_of,
    grouped_nms,
    image_gt,
    images_of,
    rows_of,
    scalar_max_overlaps,
    unfolded_detect,
)
from reference import adapt_from_scratch

FAST_TRAIN = TrainConfig(reg_lambda=0.001, iterations=800)
SMALL_SPEC = SynthShiftSpec(samples_per_class=40, n_classes=3)


def small_cfg(**kw):
    kw.setdefault("d", 5)
    kw.setdefault("train", FAST_TRAIN)
    return AdaptationConfig(**kw)


@pytest.fixture(scope="module")
def small_pair():
    return generate_synthetic(SMALL_SPEC)[:2]


class TestAdaptationConfig:
    def test_gamma_above_one_rejected(self):
        with pytest.raises(DataError, match="gamma"):
            AdaptationConfig(gamma=1.0 + 1e-9)

    def test_gamma_one_accepted(self):
        AdaptationConfig(gamma=1.0)

    def test_bad_mode(self):
        with pytest.raises(DataError, match="mode"):
            AdaptationConfig(mode="classwise")

    def test_bad_thresholds(self):
        with pytest.raises(DataError):
            AdaptationConfig(nms_thresh=1.5)
        with pytest.raises(DataError):
            AdaptationConfig(neg_lambda=1.0)
        with pytest.raises(DataError):
            AdaptationConfig(d=0)


def grid_image(offsets, side=100.0):
    """One image, one GT box, one proposal per offset with analytic IoU."""
    gt = BBox(0.0, 0.0, side, side)
    boxes = [(dx, 0.0, dx + side, side) for dx in offsets]
    feats = np.arange(len(boxes), dtype=float).reshape(-1, 1) @ np.ones((1, 3))
    return dataset_of("grid", ["obj"], [("g0", feats, boxes)], [[("obj", gt)]])


class TestMineSourcePositives:
    def test_grid_matches_rectangle_arithmetic(self):
        # one-axis shift dx: IoU = (100-dx)/(100+dx); >= 0.7 iff dx <= 300/17
        offsets = [0.0, 5.0, 10.0, 17.0, 18.0, 30.0, 80.0]
        ds = grid_image(offsets)
        expected_rows = [
            i
            for i, dx in enumerate(offsets)
            if (100.0 - dx) / (100.0 + dx) >= 0.7
        ]
        mined = mine_source_positives(ds, "obj", 0.7)
        npt.assert_array_equal(mined, ds.features[expected_rows])
        assert len(expected_rows) == 4  # dx in {0, 5, 10, 17}

    def test_gamma_one_keeps_exact_matches_only(self):
        ds = grid_image([0.0, 1.0, 50.0])
        mined = mine_source_positives(ds, "obj", 1.0)
        npt.assert_array_equal(mined, ds.features[[0]])

    def test_single_exact_proposal_is_sole_positive(self):
        ds = grid_image([0.0, 50.0, 90.0])
        mined = mine_source_positives(ds, "obj", 0.7)
        assert mined.shape[0] == 1

    def test_empty_result_names_class(self):
        ds = grid_image([80.0, 90.0])
        with pytest.raises(DataError, match="'obj'"):
            mine_source_positives(ds, "obj", 0.7)

    def test_invalid_gamma(self):
        ds = grid_image([0.0])
        with pytest.raises(DataError):
            mine_source_positives(ds, "obj", 0.0)

    def test_unlabeled_dataset_rejected(self):
        ds = dataset_of("u", ["obj"], [("a", np.ones((1, 3)), [(0, 0, 1, 1)])])
        with pytest.raises(DataError, match="ground truth"):
            mine_source_positives(ds, "obj", 0.7)


grid = st.integers(-2, 4).map(float)


@st.composite
def grid_box(draw):
    """A box on a unit grid: identical, nested, touching and zero-area
    boxes are all likely."""
    x0, y0 = draw(grid), draw(grid)
    return (x0, y0, x0 + draw(st.integers(0, 3)), y0 + draw(st.integers(0, 3)))


@st.composite
def overlap_datasets(draw):
    """Images of grid proposals, each with 0-3 GT boxes of classes 'a' and
    'b' (so some have no same-class GT), or unlabeled."""
    images, gts = [], []
    for k in range(draw(st.integers(1, 4))):
        boxes = draw(st.lists(grid_box(), min_size=1, max_size=6))
        gt = None
        if draw(st.integers(0, 3)):
            gt = [
                (draw(st.sampled_from("ab")), BBox(*draw(grid_box())))
                for _ in range(draw(st.integers(0, 3)))
            ]
        images.append((f"i{k}", np.zeros((len(boxes), 1)), boxes))
        gts.append(gt)
    return dataset_of("g", ["a", "b"], images, gts)


class TestClassMaxOverlaps:
    @given(ds=overlap_datasets())
    @settings(max_examples=200, deadline=None)
    def test_equal_the_scalar_double_loop(self, ds):
        for c in ds.classes:
            got = pipeline._class_max_overlaps(ds, c)
            want = np.concatenate(
                [
                    scalar_max_overlaps(img, gt, c)
                    for img, gt in zip(images_of(ds), image_gt(ds))
                ]
            )
            assert got.tobytes() == want.tobytes()

    def test_touching_and_zero_area_boxes_overlap_zero(self):
        gt = [("a", BBox(0.0, 0.0, 2.0, 2.0)), ("b", BBox(0.0, 0.0, 1.0, 1.0))]
        boxes = [(2.0, 0.0, 3.0, 2.0), (1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 2.0, 1.0)]
        ds = dataset_of("t", ["a", "b"], [("i", np.zeros((3, 1)), boxes)], [gt])
        ov = pipeline._class_max_overlaps(ds, "a")
        npt.assert_array_equal(ov, [0.0, 0.0, 0.5])

    def test_overflowing_area_counts_as_no_overlap(self):
        # Width inf times height 0 is a NaN area, so every IoU of the first
        # box is NaN; the second image pads its missing GT box.
        gt = [("a", BBox(0.0, 0.0, 2.0, 2.0)), ("a", BBox(0.0, 0.0, 1.0, 1.0))]
        boxes = [(-1e308, 0.0, 1e308, 0.0), (0.0, 0.0, 1.0, 1.0)]
        ds = dataset_of("o", ["a"], [
            ("i", np.zeros((2, 1)), boxes),
            ("j", np.zeros((2, 1)), boxes),
        ], [gt, gt[:1]])
        got = pipeline._class_max_overlaps(ds, "a")
        want = np.concatenate(
            [scalar_max_overlaps(img, g, "a") for img, g in zip(images_of(ds), image_gt(ds))]
        )
        assert got.tobytes() == want.tobytes()
        npt.assert_array_equal(got[:2], [0.0, 1.0])


class TestMineTargetPositives:
    def test_matches_brute_force_filter(self, small_pair):
        src, tgt = small_pair
        det = LinearDetector("class00", np.ones(tgt.feature_dim) * 0.05, -0.2, "raw")
        mined = mine_target_positives(tgt, "class00", raw_score_rows(tgt, [det])[0], 0.1)
        manual = np.vstack(
            [
                img.features[img.features @ det.weights + det.bias >= 0.1]
                for img in images_of(tgt)
            ]
        )
        npt.assert_array_equal(mined, manual)

    def test_bias_only_below_sigma_is_empty_error(self, small_pair):
        _, tgt = small_pair
        det = LinearDetector("class00", np.zeros(tgt.feature_dim), 0.1, "raw")
        with pytest.raises(DataError, match="class00"):
            mine_target_positives(tgt, "class00", raw_score_rows(tgt, [det])[0], 0.4)


# Each call gets the pair, k = 3 initial detectors and their (k, n) target
# scores, and passes one malformed piece of score input.
BAD_SCORE_INPUT = {
    "adapt-row-missing": (
        lambda src, tgt, init, S: adapt(src, tgt, small_cfg(), init, S[:-1]),
        "target scores have shape",
    ),
    "adapt-column-missing": (
        lambda src, tgt, init, S: adapt(src, tgt, small_cfg(), init, S[:, :-1]),
        "target scores have shape",
    ),
    "adapt-raveled": (
        lambda src, tgt, init, S: adapt(src, tgt, small_cfg(), init, S.ravel()),
        "target scores have shape",
    ),
    "adapt-mode-none-row-missing": (
        lambda src, tgt, init, S: adapt(src, tgt, small_cfg(mode="none"), init, S[:-1]),
        "target scores have shape",
    ),
    "mine-unknown-class": (
        lambda src, tgt, init, S: mine_target_positives(tgt, "zzz", S[0], 0.4),
        "unknown class 'zzz'",
    ),
    "mine-row-short": (
        lambda src, tgt, init, S: mine_target_positives(tgt, "class00", S[0, :-1], 0.4),
        "initial scores",
    ),
    "mine-matrix": (
        lambda src, tgt, init, S: mine_target_positives(tgt, "class00", S, 0.4),
        "initial scores",
    ),
}


@pytest.mark.parametrize("case", list(BAD_SCORE_INPUT))
def test_bad_score_input_is_data_error(small_pair, case):
    src, tgt = small_pair
    zero = np.zeros(tgt.feature_dim)
    init = {c: LinearDetector(c, zero, 1.0, "raw") for c in tgt.classes}
    call, match = BAD_SCORE_INPUT[case]
    with pytest.raises(DataError, match=match):
        call(src, tgt, init, raw_score_rows(tgt, init.values()))


class TestTrainInitialDetectors:
    def test_heldout_accuracy_on_separated_gaussians(self):
        spec = SynthShiftSpec(samples_per_class=80, n_classes=3, seed=5)
        src, _, _ = generate_synthetic(spec)
        gt_of = dict(zip(src.image_ids, image_gt(src)))
        per_class = {
            c: [img for img in images_of(src) if gt_of[img.image_id][0][0] == c]
            for c in src.classes
        }
        train_imgs = [im for c in src.classes for im in per_class[c][:4]]
        test_imgs = [im for c in src.classes for im in per_class[c][4:]]
        train_ds = dataset_of(
            "train", src.classes, train_imgs, [gt_of[im.image_id] for im in train_imgs]
        )
        cfg = small_cfg()
        detectors = train_initial_detectors(train_ds, cfg)
        correct = total = 0
        for img in test_imgs:
            for c, det in detectors.items():
                scores = img.features @ det.weights + det.bias
                is_class = gt_of[img.image_id][0][0] == c
                n_obj = SMALL_SPEC.pos_per_image
                for i, s in enumerate(scores):
                    want_positive = is_class and i < n_obj
                    correct += (s > 0) == want_positive
                    total += 1
        assert correct / total >= 0.95

    def test_no_negative_pool_is_copied(self):
        # 1024-dim proposals, 2,000 background boxes per image: each class's
        # pool is about 4,000 rows (31 MiB), far above the trainer's own
        # arrays (a 1,024-row cache and its Gram columns, about 15 MiB), so
        # a traced peak under half a pool means no pool-sized copy was made.
        spec = SynthShiftSpec(
            n_classes=2, feature_dim=1024, latent_dim=8, samples_per_class=10,
            neg_per_image=2000,
        )
        src, _, _ = generate_synthetic(spec)
        cfg = small_cfg(train=TrainConfig(reg_lambda=0.001, iterations=50))
        pool = min(
            int((pipeline._class_max_overlaps(src, c) < cfg.neg_lambda).sum())
            for c in src.classes
        )
        tracemalloc.start()
        try:
            detectors = train_initial_detectors(src, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(detectors) == 2
        assert peak < pool * spec.feature_dim * 8 / 2

    def test_class_without_positives_skipped_with_warning(self):
        ds = grid_image([80.0, 90.0])
        warnings = []
        detectors = train_initial_detectors(ds, small_cfg(), warnings)
        assert detectors == {}
        assert any("obj" in w for w in warnings)

    def test_class_without_negatives_skipped_with_warning(self):
        # One-axis shifts of a 100-wide box: every proposal overlaps the
        # 'obj' box with IoU >= 0.33 (no negatives at lambda 0.3), while
        # 'far' (shifted by 50) has one positive and one negative.
        boxes = [(dx, 0.0, dx + 100.0, 100.0) for dx in (-40.0, 0.0, 50.0)]
        gt = [
            ("obj", BBox(0.0, 0.0, 100.0, 100.0)),
            ("far", BBox(50.0, 0.0, 150.0, 100.0)),
        ]
        feats = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        ds = dataset_of("g", ["obj", "far"], [("g0", feats, boxes)], [gt])
        warnings = []
        detectors = train_initial_detectors(ds, small_cfg(), warnings)
        assert set(detectors) == {"far"}
        assert any("'obj'" in w and "negatives" in w for w in warnings)

    def test_detectors_are_raw_frame(self, small_pair):
        src, _ = small_pair
        detectors = train_initial_detectors(src, small_cfg())
        assert all(det.frame == "raw" for det in detectors.values())


class TestAdapt:
    def test_fixed_point_target_equals_source(self, small_pair):
        src, _ = small_pair
        cfg = small_cfg()
        states = adapt_from_scratch(src, src, cfg)
        for c, s in states.items():
            assert not s.downgraded
            M = solve_alignment(s.source_subspace, s.target_subspace)
            assert np.linalg.norm(M - np.eye(cfg.d)) < 1e-6
            assert subspace_similarity(
                s.source_subspace, s.target_subspace
            ) == pytest.approx(np.sqrt(cfg.d), abs=1e-6)

    def test_subspace_sample_floor_enforced(self):
        src, tgt = generate_synthetic(
            SynthShiftSpec(samples_per_class=20, n_classes=2)
        )[:2]
        cfg = small_cfg(d=25)  # 20 mined positives < d+1
        warnings = []
        states = adapt_from_scratch(src, tgt, cfg, warnings)
        assert all(s.downgraded for s in states.values())
        assert all(s.mode == "none" for s in states.values())
        assert all("below d+1" in s.note for s in states.values())
        assert warnings

    def test_d_above_feature_dim_rejected(self, small_pair):
        src, tgt = small_pair
        with pytest.raises(DataError, match="feature dimension"):
            adapt_from_scratch(src, tgt, small_cfg(d=64))

    def test_state_counts_match_mining(self, small_pair):
        src, tgt = small_pair
        cfg = small_cfg()
        init = train_initial_detectors(src, cfg)
        states = adapt(src, tgt, cfg, init, raw_score_rows(tgt, init.values()))
        for c, s in states.items():
            assert s.n_pos_src == mine_source_positives(src, c, cfg.gamma).shape[0]
            # Each class's row of the stacked matrix against its one-detector row.
            row = raw_score_rows(tgt, [init[c]])[0]
            assert s.n_pos_tgt == mine_target_positives(tgt, c, row, cfg.sigma).shape[0]
            assert s.n_pos_src >= cfg.d + 1
            assert s.n_pos_tgt >= cfg.d + 1

    def test_mode_none_passthrough(self, small_pair):
        src, tgt = small_pair
        cfg = small_cfg(mode="none")
        init = train_initial_detectors(src, cfg)
        states = adapt(src, tgt, cfg, init, raw_score_rows(tgt, init.values()))
        assert all(s.mode == "none" and not s.downgraded for s in states.values())
        assert all(
            states[c].adapted_detector is init[c] for c in init
        )

    def test_full_image_mode_shares_one_subspace_pair(self, small_pair):
        src, tgt = small_pair
        cfg = small_cfg(mode="full-image")
        states = adapt_from_scratch(src, tgt, cfg)
        subs = {id(s.source_subspace) for s in states.values()}
        assert len(subs) == 1
        assert all(s.mode == "full-image" for s in states.values())
        assert all(
            s.adapted_detector.frame == "aligned:__full__" for s in states.values()
        )

    def test_feature_dim_mismatch_rejected(self, small_pair):
        src, _ = small_pair
        other = generate_synthetic(
            SynthShiftSpec(
                samples_per_class=20, n_classes=3, feature_dim=10, latent_dim=5
            )
        )[1]
        init = train_initial_detectors(src, small_cfg())
        scores = np.zeros((len(init), len(other.boxes)))
        with pytest.raises(DataError, match="feature dims differ"):
            adapt(src, other, small_cfg(), init, scores)


def low_rank_copy(ds, rank=2, seed=0):
    """``ds`` with every feature row projected on one random rank-``rank``
    subspace, so no pool drawn from it can span d > rank dimensions."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(ds.feature_dim, rank)))
    return Dataset(
        ds.name, ds.classes, ds.image_ids, ds.sizes, ds.features @ Q @ Q.T, ds.boxes,
        ds.ground_truths,
    )


def tiny_target(ds, n):
    """One unlabeled image holding the first ``n`` proposals of ``ds``."""
    return Dataset(
        ds.name, ds.classes, ["tiny"], [n], ds.features[:n], ds.boxes[:n]
    )


class TestDowngradePaths:
    """Every way adaptation can fail for a class leaves that class on its
    raw-frame initial detector, with a note and a warning, and detection
    (also from a saved bundle) still runs."""

    @pytest.fixture(scope="class")
    def init(self, small_pair):
        return train_initial_detectors(small_pair[0], small_cfg())

    def check_downgraded(self, states, init, warnings, target, cfg, tmp_path):
        assert set(states) == set(init)
        for c, s in states.items():
            assert s.downgraded and s.mode == "none"
            assert s.adapted_detector is init[c]
            assert s.adapted_detector.frame == "raw"
            assert s.source_subspace is None and s.target_subspace is None
            assert s.note
        assert warnings
        expected = rows_of(detect(target, passthrough_states(init), cfg))
        assert rows_of(detect(target, states, cfg)) == expected
        save_states(tmp_path / "states.json", states, warnings)
        assert rows_of(detect(target, load_states(tmp_path / "states.json"), cfg)) == expected

    def run(self, src, target, cfg, init, tmp_path):
        warnings = []
        scores = raw_score_rows(target, init.values())
        states = adapt(src, target, cfg, init, scores, warnings)
        self.check_downgraded(states, init, warnings, target, cfg, tmp_path)
        return warnings

    def test_class_specific_no_target_positives(self, small_pair, init, tmp_path):
        src, tgt = small_pair
        warnings = self.run(src, tgt, small_cfg(sigma=1e9), init, tmp_path)
        assert all(any(c in w for w in warnings) for c in init)

    def test_class_specific_too_few_samples(self, small_pair, init, tmp_path):
        src, tgt = small_pair
        cfg = small_cfg(sigma=-1e9)
        warnings = self.run(src, tiny_target(tgt, cfg.d), cfg, init, tmp_path)
        assert all(any(c in w for w in warnings) for c in init)

    def test_class_specific_rank_failure(self, small_pair, init, tmp_path):
        src, tgt = small_pair
        warnings = self.run(src, low_rank_copy(tgt), small_cfg(sigma=-1e9), init, tmp_path)
        assert all(any(c in w for w in warnings) for c in init)

    def test_full_image_pool_too_small(self, small_pair, init, tmp_path):
        src, tgt = small_pair
        cfg = small_cfg(mode="full-image")
        self.run(src, tiny_target(tgt, cfg.d), cfg, init, tmp_path)

    def test_full_image_rank_failure(self, small_pair, init, tmp_path):
        src, tgt = small_pair
        self.run(src, low_rank_copy(tgt), small_cfg(mode="full-image"), init, tmp_path)


class TestDetect:
    def test_mode_none_equals_initial_detector_path(self, small_pair):
        src, tgt = small_pair
        cfg = small_cfg(mode="none")
        init = train_initial_detectors(src, cfg)
        states = adapt(src, tgt, cfg, init, raw_score_rows(tgt, init.values()))
        via_adapt = detect(tgt, states, cfg)

        manual = []
        for c in tgt.classes:
            det = init[c]
            for img in images_of(tgt):
                scores = img.features @ det.weights + det.bias
                picked = [
                    Detection(
                        img.image_id, BBox(*img.boxes[k].tolist()), c, float(scores[k])
                    )
                    for k in np.flatnonzero(scores >= cfg.detect_thresh)
                ]
                manual.extend(
                    rows_of(greedy_nms(detections_from_rows(picked), cfg.nms_thresh))
                )
        assert rows_of(via_adapt) == manual

    def test_single_surviving_proposal_bypasses_nms(self):
        ds = grid_image([0.0, 30.0, 60.0])
        det = LinearDetector("obj", np.array([1.0, 0.0, 0.0]), 0.0, "raw")
        states = passthrough_states({"obj": det})
        cfg = small_cfg(detect_thresh=1.5, nms_thresh=0.3)
        # features are row index constants: rows 2 has value 2 >= 1.5
        out = detect(ds, states, cfg)
        assert len(out) == 1
        assert rows_of(out)[0].box == BBox(*ds.boxes[2].tolist())

    def test_detect_deterministic(self, small_pair):
        src, tgt = small_pair
        cfg = small_cfg()
        a = detect(tgt, adapt_from_scratch(src, tgt, cfg), cfg)
        b = detect(tgt, adapt_from_scratch(src, tgt, cfg), cfg)
        assert rows_of(a) == rows_of(b)

    def test_nms_applied_per_image(self, small_pair):
        src, tgt = small_pair
        cfg = small_cfg()
        dets = detect(tgt, adapt_from_scratch(src, tgt, cfg), cfg)
        by_group = {}
        for d in rows_of(dets):
            by_group.setdefault((d.class_id, d.image_id), []).append(d)
        for group in by_group.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    assert iou(a.box, b.box) <= cfg.nms_thresh

    @pytest.mark.parametrize("mode", ["class-specific", "full-image"])
    def test_folded_detect_matches_unfolded_path(self, small_pair, mode):
        src, tgt = small_pair
        cfg = small_cfg(mode=mode)
        init = train_initial_detectors(src, cfg)
        states = adapt(src, tgt, cfg, init, raw_score_rows(tgt, init.values()))
        c0 = tgt.classes[0]
        states[c0] = ClassAdaptationState(init[c0], downgraded=True)
        assert {s.mode for s in states.values()} == {mode, "none"}
        folded = detect(tgt, states, cfg)
        unfolded = unfolded_detect(tgt, states, cfg)
        assert len(folded) == len(unfolded) > 0
        assert {d.class_id for d in rows_of(folded)} == set(tgt.classes)
        for a, b in zip(rows_of(folded), unfolded):
            assert (a.image_id, a.box, a.class_id) == (b.image_id, b.box, b.class_id)
            assert abs(a.score - b.score) <= 1e-12

    def test_detect_normalizes_no_image(self, small_pair, monkeypatch):
        src, tgt = small_pair
        cfg = small_cfg()
        states = adapt_from_scratch(src, tgt, cfg)
        expected = detect(tgt, states, cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("detect normalized target features")

        monkeypatch.setattr(pipeline, "normalize", refuse)
        assert rows_of(detect(tgt, states, cfg)) == rows_of(expected)

    def test_dense_full_image_matches_sequential_nms(self, monkeypatch):
        spec = SynthShiftSpec(
            samples_per_class=20, n_classes=2, pos_per_image=20, neg_per_image=60
        )
        src, tgt = generate_synthetic(spec)[:2]
        cfg = small_cfg(mode="full-image", detect_thresh=-1000)
        states = adapt_from_scratch(src, tgt, cfg)
        fast = detect(tgt, states, cfg)
        assert len(fast) > 0
        # detect passes every class's detections over every image to one
        # call, which suppresses each (class, image) group on its own.
        calls = []

        def oracle(dets, thresh):
            calls.append(len(dets))
            return detections_from_rows(
                grouped_nms(rows_of(dets), thresh), dets.image_ids, dets.class_ids
            )

        monkeypatch.setattr(pipeline, "greedy_nms", oracle)
        assert rows_of(detect(tgt, states, cfg)) == rows_of(fast)
        assert calls == [len(tgt.boxes) * len(tgt.classes)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_scores_have_each_detectors_bits(self, small_pair, dtype, monkeypatch):
        # One pass over the features for every detector gives each
        # detector's bits of a one-detector pass, float32 blocks upcast once;
        # blocks of 7 rows do not divide the dataset's rows.
        _, tgt = small_pair
        ds = tgt
        if dtype == np.float32:
            with tempfile.TemporaryDirectory() as tmp:
                ds = load_dataset(save_dataset(tgt, tmp))
        assert ds.features.dtype == dtype
        rng = np.random.default_rng(5)
        dets = [
            LinearDetector(c, rng.normal(size=tgt.feature_dim), float(rng.normal()), "raw")
            for c in tgt.classes
        ]
        monkeypatch.setattr(linalg, "GATHER_FLOATS", 7 * tgt.feature_dim)
        assert len(ds.boxes) % 7
        stacked = raw_score_rows(ds, dets)
        assert stacked.shape == (len(dets), len(ds.boxes))
        for row, det in zip(stacked, dets):
            assert row.tobytes() == raw_score_rows(ds, [det])[0].tobytes()
        assert raw_score_rows(ds, []).shape == (0, len(ds.boxes))


class TestMiningMonotonicity:
    def test_sigma_monotone(self, small_pair):
        src, tgt = small_pair
        cfg = small_cfg()
        init = train_initial_detectors(src, cfg)
        for c, row in zip(init, raw_score_rows(tgt, init.values())):
            prev = None
            for sigma in np.linspace(0.0, 0.8, 9):
                try:
                    count = mine_target_positives(tgt, c, row, float(sigma)).shape[0]
                except DataError:
                    count = 0
                if prev is not None:
                    assert count <= prev
                prev = count

    def test_gamma_monotone(self, small_pair):
        src, _ = small_pair
        for c in src.classes:
            prev = None
            for gamma in np.linspace(0.1, 1.0, 10):
                try:
                    count = mine_source_positives(src, c, float(gamma)).shape[0]
                except DataError:
                    count = 0
                if prev is not None:
                    assert count <= prev
                prev = count


class TestClassAdaptationState:
    @pytest.fixture(scope="class")
    def good(self, small_pair):
        src, tgt = small_pair
        return next(iter(adapt_from_scratch(src, tgt, small_cfg()).values()))

    def test_adapted_state_needs_both_subspaces(self, good):
        with pytest.raises(DataError, match="both subspaces"):
            ClassAdaptationState(
                good.adapted_detector, source_subspace=good.source_subspace
            )

    def test_raw_detector_carries_no_subspaces(self, good):
        raw = LinearDetector(good.class_id, good.adapted_detector.weights, 0.0, "raw")
        with pytest.raises(DataError, match="both subspaces exactly when"):
            ClassAdaptationState(raw, good.source_subspace, good.target_subspace)

    def test_passthrough_detector_must_be_raw(self, good):
        with pytest.raises(DataError, match="both subspaces exactly when"):
            ClassAdaptationState(good.adapted_detector)

    def test_unknown_frame_rejected(self, good):
        det = good.adapted_detector
        other = LinearDetector(det.class_id, det.weights, det.bias, "projected")
        with pytest.raises(DataError, match="unknown detector frame 'projected'"):
            ClassAdaptationState(other, good.source_subspace, good.target_subspace)

    def test_tag_of_another_class_rejected(self, good):
        det = good.adapted_detector
        other = LinearDetector(det.class_id + "x", det.weights, det.bias, det.frame)
        with pytest.raises(
            DataError, match=f"class '{other.class_id}' is in the frame of class '{det.class_id}'"
        ):
            ClassAdaptationState(other, good.source_subspace, good.target_subspace)

    @pytest.mark.parametrize("wider", ["detector", "source", "target"])
    def test_widths_must_be_d(self, good, wider):
        # One part one column wider than d: the detector, S or T.
        det, S, T = good.adapted_detector, good.source_subspace, good.target_subspace
        parts = {"detector": det, "source": S, "target": T}
        if wider == "detector":
            parts[wider] = LinearDetector(
                det.class_id, np.append(det.weights, 0.0), det.bias, det.frame
            )
        else:
            sub = parts[wider]
            parts[wider] = Subspace(
                np.eye(sub.ambient_dim)[:, : sub.d + 1], np.ones(sub.d + 1), sub.stats
            )
        with pytest.raises(DataError, match="disagree"):
            ClassAdaptationState(*parts.values())

    def test_class_id_and_mode_are_read_off_the_detector(self, good):
        det, S, T = good.adapted_detector, good.source_subspace, good.target_subspace
        assert det.frame == f"aligned:{det.class_id}"
        assert (good.class_id, good.mode) == (det.class_id, "class-specific")
        full = LinearDetector(det.class_id, det.weights, det.bias, "aligned:__full__")
        assert ClassAdaptationState(full, S, T).mode == "full-image"
        raw = LinearDetector(det.class_id, det.weights, det.bias, "raw")
        assert (ClassAdaptationState(raw).class_id, ClassAdaptationState(raw).mode) == (
            det.class_id, "none",
        )


class TestEndToEndQuality:
    def test_adaptation_beats_no_adaptation_on_shifted_pair(self):
        # Small version of the headline experiment.
        spec = SynthShiftSpec(samples_per_class=120, n_classes=3, seed=0)
        src, tgt, _ = generate_synthetic(spec)
        cfg = AdaptationConfig(
            d=12, train=TrainConfig(reg_lambda=0.001, iterations=2000)
        )
        init = train_initial_detectors(src, cfg)
        gts = tgt.ground_truths
        plain = detect(tgt, passthrough_states(init), cfg)
        scores = raw_score_rows(tgt, init.values())
        adapted = detect(tgt, adapt(src, tgt, cfg, init, scores), cfg)
        map_plain = np.mean(
            [average_precision(plain, gts, c) for c in tgt.classes]
        )
        map_adapted = np.mean(
            [average_precision(adapted, gts, c) for c in tgt.classes]
        )
        assert map_adapted > map_plain


def float64_twin(ds: Dataset) -> Dataset:
    """A hand-built dataset holding the values of ``ds`` as float64."""
    return Dataset(
        ds.name, ds.classes, ds.image_ids, ds.sizes, ds.features.astype(np.float64),
        ds.boxes, ds.ground_truths,
    )


def state_bits(state):
    det = state.adapted_detector
    parts = [det.weights.tobytes(), det.bias, det.frame, state.mode, state.downgraded]
    for sub in (state.source_subspace, state.target_subspace):
        if sub is not None:
            parts += [
                sub.basis.tobytes(), sub.eigenvalues.tobytes(),
                sub.stats.mean.tobytes(), sub.stats.scale.tobytes(),
            ]
    return parts + [state.n_pos_src, state.n_pos_tgt]


class TestFloat32AtRest:
    """A loaded dataset holds its feature files' float32 values; every
    stage gives the bits of the float64 dataset holding the same values."""

    SPEC = SynthShiftSpec(samples_per_class=40, n_classes=3, feature_dim=12)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        block_rows=st.sampled_from([None, 1, 7]),
        mode=st.sampled_from(["class-specific", "full-image"]),
    )
    def test_loaded_float32_runs_as_its_float64_twin(self, seed, block_rows, mode):
        # Blocks of 7 rows (240 rows are not a multiple of 7), of one row
        # (a row holding at least GATHER_FLOATS entries) and, by default,
        # one block larger than the whole array.
        spec = SynthShiftSpec(**{**vars(self.SPEC), "seed": seed})
        with tempfile.TemporaryDirectory() as tmp:
            src, tgt = (
                load_dataset(save_dataset(ds, f"{tmp}/{ds.name}"))
                for ds in generate_synthetic(spec)[:2]
            )
        assert src.features.dtype == tgt.features.dtype == np.float32
        assert len(src.boxes) == 240
        train = TrainConfig(reg_lambda=0.001, iterations=200)
        cfg = small_cfg(d=4, mode=mode, train=train)
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                for module in (linalg, detection):
                    mp.setattr(module, "GATHER_FLOATS", block_rows * spec.feature_dim)
            for s, t in ((src, tgt), (float64_twin(src), float64_twin(tgt))):
                init = train_initial_detectors(s, cfg)
                states = adapt(s, t, cfg, init, raw_score_rows(t, init.values()))
                runs.append((init, states, detect(t, states, cfg)))
        (init32, states32, dets32), (init64, states64, dets64) = runs
        assert init32.keys() == init64.keys() and init32
        for c in init32:
            assert init32[c].weights.tobytes() == init64[c].weights.tobytes()
            assert init32[c].bias == init64[c].bias
        assert states32.keys() == states64.keys()
        assert any(not state.downgraded for state in states32.values())
        for c in states32:
            assert state_bits(states32[c]) == state_bits(states64[c])
        for name in ("boxes", "scores", "image_index", "class_index"):
            assert getattr(dets32, name).tobytes() == getattr(dets64, name).tobytes()
        assert len(dets32) > 0


# Boxes the degenerate datasets draw from: two equal boxes, zero-area boxes
# (a point, a vertical and a horizontal segment) and one far away.
DEGENERATE_BOXES = [
    (0.0, 0.0, 4.0, 4.0), (0.0, 0.0, 4.0, 4.0), (1.0, 1.0, 1.0, 1.0),
    (2.0, 0.0, 2.0, 4.0), (0.0, 3.0, 4.0, 3.0), (9.0, 9.0, 12.0, 12.0),
]


@st.composite
def degenerate_datasets(draw, name, classes, dim):
    """1-4 images of 1-4 proposals (single-proposal images are likely)
    drawn from ``DEGENERATE_BOXES``, each image labeled with 1-2 of its own;
    every feature row equal to one constant vector, or near it."""
    images, gts = [], []
    center = draw(st.sampled_from([0.0, 1.0, -2.5]))
    constant = draw(st.booleans())
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 4))
        boxes = draw(st.lists(st.sampled_from(DEGENERATE_BOXES), min_size=n, max_size=n))
        features = np.full((n, dim), center)
        if not constant:
            noise = st.lists(st.floats(-1e-3, 1e-3), min_size=n * dim, max_size=n * dim)
            features += np.reshape(draw(noise), (n, dim))
        gt = [
            (draw(st.sampled_from(classes)), BBox(*draw(st.sampled_from(boxes))))
            for _ in range(draw(st.integers(1, 2)))
        ]
        images.append((f"{name}{k}", features, boxes))
        gts.append(gt)
    return dataset_of(name, classes, images, gts)


@st.composite
def degenerate_runs(draw):
    """A source and a target of ``degenerate_datasets`` of one width, and a
    subspace dimension ``d`` no larger than it."""
    dim = draw(st.integers(1, 3))
    source, target = (draw(degenerate_datasets(name, ["a", "b"], dim)) for name in "st")
    return source, target, draw(st.integers(1, dim))


@given(run=degenerate_runs())
@settings(max_examples=100, deadline=None)
def test_degenerate_datasets_skip_or_downgrade_classes_and_never_raise(run):
    # Single-proposal images, duplicate and zero-area boxes and constant
    # features: every class trains, or is skipped with a warning naming it;
    # then, in every mode, every trained class adapts or is downgraded with
    # a warning, and detection runs.
    source, target, d = run
    train = TrainConfig(reg_lambda=0.01, iterations=20, max_hard_rounds=2)
    # Every target proposal is a target positive and a detection.
    cfg = small_cfg(d=d, train=train, sigma=-1e3, detect_thresh=-1e3)
    warnings = []
    init = train_initial_detectors(source, cfg, warnings)
    skipped = [c for c in source.classes if c not in init]
    assert len(warnings) == len(skipped)
    for class_id, warning in zip(skipped, warnings):
        assert warning.startswith("initial-training: ")
        assert f"class '{class_id}'" in warning and warning.endswith("; class skipped")
    for mode in pipeline.MODES:
        cfg, warnings = replace(cfg, mode=mode), []
        scores = raw_score_rows(target, init.values())
        states = adapt(source, target, cfg, init, scores, warnings)
        assert states.keys() == init.keys()
        downgraded = [c for c, state in states.items() if state.downgraded]
        for class_id in downgraded:
            assert any(
                f"class '{class_id}'" in w or w.startswith("adapt: full-image pool: ")
                for w in warnings
            )
        assert all(states[c].mode == mode for c in states if c not in downgraded)
        dets = detect(target, states, cfg)
        assert isinstance(dets, Detections)
        assert {dets.class_ids[k] for k in dets.class_index.tolist()} <= states.keys()

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aligndet.detection import BBox
from aligndet.errors import DataError
from aligndet.evaluation import (
    _true_positives,
    average_precision,
    mean_ap,
    render_histogram_svg,
    render_similarity_svg,
    score_histogram,
    similarity_matrix,
)
from aligndet.linalg import Subspace, identity_stats, subspace_similarity
from oracles import (
    Detection,
    GroundTruth,
    brute_force_ap,
    detections_from_rows,
    ground_truths_from_rows,
    match_detections,
    random_orthonormal,
)


def gt_at(x, image_id="img0", class_id="obj"):
    return GroundTruth(image_id, class_id, BBox(x, 0, x + 10, 10))


def det_at(x, score, image_id="img0", class_id="obj"):
    return Detection(image_id, BBox(x, 0, x + 10, 10), class_id, score)


def ap_of(dets, gts, class_id="obj", iou_thresh=0.5):
    """``average_precision`` of lists of ``Detection`` and ``GroundTruth``
    rows."""
    return average_precision(
        detections_from_rows(dets), ground_truths_from_rows(gts), class_id, iou_thresh
    )


grid = st.integers(0, 4).map(lambda v: 5.0 * v)


@st.composite
def grid_box(draw):
    """Boxes on a coarse grid: duplicates, nested, touching and zero-area
    boxes are likely."""
    x0, y0 = draw(grid), draw(grid)
    return BBox(x0, y0, x0 + draw(grid), y0 + draw(grid))


@st.composite
def ap_cases(draw):
    """(detections, ground truths) over up to four images: classes 'a' and
    'b' have detections, 'c' only ground truths; scores tie often, some
    detections are repeated and some ground truths copy a detection."""
    images = [f"img{k}" for k in range(draw(st.integers(1, 4)))]
    score = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-5, 5))
    dets = draw(
        st.lists(
            st.builds(
                Detection, st.sampled_from(images), grid_box(),
                st.sampled_from(["a", "b"]), score,
            ),
            max_size=30,
        )
    )
    copied = draw(st.lists(st.sampled_from(dets), max_size=6)) if dets else []
    gts = [GroundTruth(d.image_id, d.class_id, d.box) for d in copied]
    gts += draw(
        st.lists(
            st.builds(
                GroundTruth, st.sampled_from(images), st.sampled_from(["a", "b", "c"]),
                grid_box(),
            ),
            max_size=8,
        )
    )
    dets += draw(st.lists(st.sampled_from(dets), max_size=3)) if dets else []
    return dets, draw(st.permutations(gts))


class TestAveragePrecision:
    def test_single_exact_match(self):
        assert ap_of([det_at(0, 0.9)], [gt_at(0)]) == 1.0

    def test_false_positive_above_true_positive(self):
        dets = [det_at(100, 0.9), det_at(0, 0.8)]
        assert ap_of(dets, [gt_at(0)]) == pytest.approx(0.5)

    def test_no_detections(self):
        assert ap_of([], [gt_at(0)]) == 0.0

    def test_no_ground_truth_is_undefined(self):
        assert ap_of([det_at(0, 0.9)], []) is None
        assert ap_of([det_at(0, 0.9)], [gt_at(0, class_id="x")]) is None

    def test_duplicate_detection_is_false_positive(self):
        dets = [det_at(0, 0.9), det_at(0, 0.8)]
        # second hit on the same GT counts against precision
        ap = ap_of(dets, [gt_at(0)])
        assert ap == 1.0  # TP first, duplicate after full recall

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(0)
        gts = [gt_at(30 * k, image_id=f"i{k // 3}") for k in range(6)]
        dets = []
        for k in range(12):
            dets.append(
                det_at(
                    30 * (k % 6) + rng.uniform(-3, 3),
                    float(rng.uniform(0, 1)),
                    image_id=f"i{(k % 6) // 3}",
                )
            )
        base = ap_of(dets, gts)
        warped = [
            Detection(d.image_id, d.box, d.class_id, math.exp(d.score) * 2 + 5)
            for d in dets
        ]
        assert ap_of(warped, gts) == pytest.approx(base, abs=1e-12)

    def test_low_fp_never_raises_ap(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            gts = [gt_at(0), gt_at(40)]
            dets = [det_at(0, 0.9), det_at(200, 0.5)]
            base = ap_of(dets, gts)
            worse = dets + [det_at(300, 0.01)]
            assert ap_of(worse, gts) <= base + 1e-12

    def test_top_tp_never_lowers_ap(self):
        gts = [gt_at(0), gt_at(40)]
        dets = [det_at(200, 0.5), det_at(0, 0.4)]
        base = ap_of(dets, gts)
        better = dets + [det_at(40, 0.99)]
        assert ap_of(better, gts) >= base - 1e-12

    def test_matches_brute_force_on_spot_cases(self):
        rng = np.random.default_rng(2)
        for seed in range(30):
            r = np.random.default_rng(seed)
            gts = [gt_at(50 * k) for k in range(int(r.integers(1, 4)))]
            dets = []
            for _ in range(int(r.integers(0, 6))):
                target = int(r.integers(0, len(gts) + 1))
                x = 50 * target if target < len(gts) else 999
                dets.append(det_at(x + r.uniform(-2, 2), float(r.uniform(0, 1))))
            got = ap_of(dets, gts)
            want = brute_force_ap(dets, gts, "obj")
            assert got == pytest.approx(want, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            r = np.random.default_rng(100 + seed)
            gts = [gt_at(50 * k) for k in range(3)]
            dets = [
                det_at(float(r.uniform(0, 200)), float(r.uniform(0, 1)))
                for _ in range(8)
            ]
            ap = ap_of(dets, gts)
            assert 0.0 <= ap <= 1.0

    @pytest.mark.parametrize("thresh", [math.nan, math.inf, -0.1, 1.5])
    def test_iou_threshold_outside_unit_interval_rejected(self, thresh):
        with pytest.raises(DataError, match=r"IoU threshold must be in \[0, 1\]"):
            ap_of([det_at(0, 0.9)], [gt_at(0)], iou_thresh=thresh)

    @pytest.mark.parametrize("thresh", [0.0, 0.5, 1.0])
    @given(case=ap_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_both_oracles(self, thresh, case):
        dets, gts = case
        columns = detections_from_rows(dets)
        for class_id in ("a", "b", "c"):
            got = average_precision(columns, ground_truths_from_rows(gts), class_id, thresh)
            want = brute_force_ap(dets, gts, class_id, thresh)
            assert got == pytest.approx(want, abs=1e-12)
            if want is not None:
                tp, _ = match_detections(dets, gts, class_id, thresh)
                gt_c = [g for g in gts if g.class_id == class_id]
                npt.assert_array_equal(
                    _true_positives(columns, ground_truths_from_rows(gt_c), class_id, thresh),
                    tp,
                )


class TestMeanAp:
    def test_two_classes(self):
        assert mean_ap({"a": 1.0, "b": 0.0}) == 0.5

    def test_single_class(self):
        assert mean_ap({"a": 0.4}) == pytest.approx(0.4)

    def test_undefined_classes_skipped(self):
        assert mean_ap({"a": 0.4, "b": None}) == pytest.approx(0.4)

    def test_all_undefined_rejected(self):
        with pytest.raises(DataError):
            mean_ap({"a": None})


class TestScoreHistogram:
    def test_binning_convention(self):
        # [0, 0.5) holds 0.1; [0.5, 1] holds 0.5 and 0.9
        h = score_histogram([0.1, 0.5, 0.9], 2, (0.0, 1.0))
        npt.assert_array_equal(h.counts, [1, 2])
        assert h.underflow == 0 and h.overflow == 0

    def test_last_bin_closed(self):
        h = score_histogram([1.0], 4, (0.0, 1.0))
        npt.assert_array_equal(h.counts, [0, 0, 0, 1])

    def test_empty(self):
        h = score_histogram([], 3, (0.0, 1.0))
        npt.assert_array_equal(h.counts, [0, 0, 0])

    def test_out_of_range_sidecars(self):
        h = score_histogram([-1.0, 0.5, 2.0, 3.0], 2, (0.0, 1.0))
        assert h.underflow == 1 and h.overflow == 2
        assert h.counts.sum() == 1

    def test_counts_sum_to_in_range_length(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=500)
        h = score_histogram(s, 7, (-1.0, 1.0))
        assert h.counts.sum() + h.underflow + h.overflow == 500

    def test_uniform_binomial_bound(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0.0, 1.0, size=10_000)
        h = score_histogram(s, 10, (0.0, 1.0))
        sigma = math.sqrt(10_000 * 0.1 * 0.9)
        assert np.all(np.abs(h.counts - 1000) < 5 * sigma)

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            score_histogram([0.1], 0, (0.0, 1.0))
        with pytest.raises(DataError):
            score_histogram([0.1], 2, (1.0, 0.0))
        with pytest.raises(DataError):
            score_histogram([np.nan], 2, (0.0, 1.0))


class _FakeState:
    def __init__(self, src, tgt):
        self.source_subspace = src
        self.target_subspace = tgt


def _subspace(basis):
    basis = np.asarray(basis, dtype=float)
    return Subspace(
        basis=basis,
        eigenvalues=np.ones(basis.shape[1]),
        stats=identity_stats(basis.shape[0]),
    )


class TestSimilarityMatrix:
    def test_copied_targets_give_sqrt_d_diagonal(self):
        rng = np.random.default_rng(6)
        states = {}
        for c in ["a", "b", "c"]:
            B = _subspace(random_orthonormal(rng, 12, 4))
            states[c] = _FakeState(B, B)
        sim = similarity_matrix(states)
        npt.assert_allclose(np.diag(sim.values), math.sqrt(4), atol=1e-10)

    def test_orthogonal_blocks_zero_off_diagonal(self):
        eye = np.eye(8)
        states = {
            "a": _FakeState(_subspace(eye[:, :2]), _subspace(eye[:, :2])),
            "b": _FakeState(_subspace(eye[:, 2:4]), _subspace(eye[:, 2:4])),
        }
        sim = similarity_matrix(states)
        assert sim.values[0, 1] == 0.0 and sim.values[1, 0] == 0.0

    def test_entries_match_pairwise_calls(self):
        rng = np.random.default_rng(7)
        states = {
            c: _FakeState(
                _subspace(random_orthonormal(rng, 10, 3)),
                _subspace(random_orthonormal(rng, 10, 3)),
            )
            for c in ["a", "b", "c"]
        }
        sim = similarity_matrix(states)
        for i, ci in enumerate(sim.labels):
            for j, cj in enumerate(sim.labels):
                assert sim.values[i, j] == pytest.approx(
                    subspace_similarity(
                        states[ci].source_subspace, states[cj].target_subspace
                    )
                )

    def test_entries_in_range(self):
        rng = np.random.default_rng(8)
        states = {
            c: _FakeState(
                _subspace(random_orthonormal(rng, 9, 3)),
                _subspace(random_orthonormal(rng, 9, 3)),
            )
            for c in ["a", "b"]
        }
        sim = similarity_matrix(states)
        assert np.all(sim.values >= 0.0)
        assert np.all(sim.values <= math.sqrt(3) + 1e-10)

    def test_downgraded_classes_excluded(self):
        rng = np.random.default_rng(9)
        B = _subspace(random_orthonormal(rng, 10, 3))
        states = {"a": _FakeState(B, B), "b": _FakeState(None, None)}
        sim = similarity_matrix(states)
        assert sim.labels == ["a"]

    def test_dimension_disagreement_rejected(self):
        rng = np.random.default_rng(10)
        states = {
            "a": _FakeState(
                _subspace(random_orthonormal(rng, 10, 3)),
                _subspace(random_orthonormal(rng, 10, 3)),
            ),
            "b": _FakeState(
                _subspace(random_orthonormal(rng, 10, 4)),
                _subspace(random_orthonormal(rng, 10, 4)),
            ),
        }
        with pytest.raises(DataError):
            similarity_matrix(states)


class TestSvgRendering:
    def test_histogram_svg_deterministic_and_wellformed(self):
        h = score_histogram([0.1, 0.2, 0.7, 0.9], 4, (0.0, 1.0))
        svg = render_histogram_svg(h, "scores")
        assert svg == render_histogram_svg(h, "scores")
        assert svg.startswith('<?xml version="1.0"')
        assert svg.count("<rect") == 1 + 4  # background + one bar per bin
        assert "</svg>" in svg

    def test_similarity_svg_has_cell_grid(self):
        rng = np.random.default_rng(11)
        B = _subspace(random_orthonormal(rng, 8, 2))
        sim = similarity_matrix({"a": _FakeState(B, B), "b": _FakeState(B, B)})
        svg = render_similarity_svg(sim)
        assert svg.count("<rect") == 1 + 4  # background + 2x2 cells
        assert svg.count("<text") == 4 + 4  # cell values + 2 labels per axis

import dataclasses
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aligndet import detection
from aligndet.detection import (
    NMS_TILE_FLOATS,
    BBox,
    Detections,
    GroundTruths,
    LinearDetector,
    TrainConfig,
    greedy_nms,
    hinge_objective,
    iou,
    pairwise_iou,
    _first_loud_step,
    _replay,
    train_detector,
)
from aligndet.datasets import Dataset
from aligndet.errors import DataError
from aligndet.pipeline import raw_score_rows
from oracles import (
    Detection,
    dataset_of,
    detections_from_rows,
    exhaustive_nms,
    grouped_nms,
    per_image_nms,
    random_detections,
    rank_key,
    rows_of,
    sequential_nms,
    subgradient_loop,
)

finite_coord = st.floats(-500, 500, allow_nan=False)


@st.composite
def boxes(draw):
    x0, y0 = draw(finite_coord), draw(finite_coord)
    w = draw(st.floats(0, 100))
    h = draw(st.floats(0, 100))
    return BBox(x0, y0, x0 + w, y0 + h)


grid_coord = st.integers(-2, 4).map(float)


@st.composite
def grid_boxes(draw):
    """Boxes on a unit grid: identical, nested, touching and zero-area
    boxes are all likely."""
    x0, y0 = draw(grid_coord), draw(grid_coord)
    return BBox(x0, y0, x0 + draw(st.integers(0, 3)), y0 + draw(st.integers(0, 3)))


@st.composite
def int_boxes(draw):
    """Boxes with Python int coordinates, on the same small grid."""
    x0, y0 = draw(st.integers(-2, 4)), draw(st.integers(-2, 4))
    return BBox(x0, y0, x0 + draw(st.integers(0, 3)), y0 + draw(st.integers(0, 3)))


@st.composite
def multi_image_detections(draw):
    """Detections of one class over up to four images, interleaved in the
    input: grid boxes (duplicates, nested and zero-area boxes are likely)
    and arbitrary ones, or only integer boxes, with scores that tie often."""
    images = [f"img{k}" for k in range(draw(st.integers(1, 4)))]
    box = draw(st.sampled_from([st.one_of(grid_boxes(), boxes()), int_boxes()]))
    score = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-10, 10))
    return draw(
        st.lists(
            st.builds(Detection, st.sampled_from(images), box, st.just("obj"), score),
            max_size=40,
        )
    )


@st.composite
def mixed_class_detections(draw):
    """Detections of up to three classes over up to three images, whose
    boxes come from a small pool, so the same box recurs in several
    classes and twice in one class: grid boxes (nested, touching and
    zero-area ones), boxes with -0.0 and 0.0 corners, boxes whose area
    overflows to inf, and arbitrary ones; scores tie often, -0.0 with
    0.0 too."""
    corner = st.sampled_from([-0.0, 0.0, 1.0, 3.0])
    signed_zero_box = st.tuples(corner, corner, corner, corner).map(
        lambda c: BBox(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
    )
    huge_box = st.sampled_from(
        [
            BBox(-1e308, -1e308, 1e308, 1e308),
            BBox(0.0, 0.0, 1e308, 1e308),
            BBox(-1e308, 0.0, 1e308, 1.0),
        ]
    )
    pool = draw(
        st.lists(
            st.one_of(grid_boxes(), signed_zero_box, huge_box, boxes()),
            min_size=1,
            max_size=12,
        )
    )
    images = [f"img{k}" for k in range(draw(st.integers(1, 3)))]
    classes = ["a", "b", "c"][: draw(st.integers(1, 3))]
    score = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0]), st.floats(-10, 10))
    row = st.builds(
        Detection, st.sampled_from(images), st.sampled_from(pool),
        st.sampled_from(classes), score,
    )
    return draw(st.lists(row, max_size=60))


def row_bits(rows):
    """Each row's image, class, and the bit patterns of its box and score,
    so that -0.0 and 0.0 differ."""
    return [
        (d.image_id, d.class_id, struct.pack("<4d", *d.box.as_tuple()),
         struct.pack("<d", d.score))
        for d in rows
    ]


def paper_shape_detections(n_classes, seed=0):
    """One image of 2,000 heavily overlapping boxes (min corners uniform in
    500 x 500, sides 20 to 200), each box in every one of ``n_classes``
    classes with its own Gaussian score: R-CNN's proposals per image."""
    rng = np.random.default_rng(seed)
    corner = rng.uniform(0, 500, size=(2000, 2))
    boxes = np.hstack([corner, corner + rng.uniform(20, 200, size=(2000, 2))])
    n = 2000 * n_classes
    return Detections(
        np.tile(boxes, (n_classes, 1)), rng.normal(size=n), np.zeros(n, dtype=np.intp),
        np.repeat(np.arange(n_classes), 2000), ("img",),
        tuple(f"c{k}" for k in range(n_classes)),
    )


def degenerate_detections(rng, n):
    """``n`` detections of one image and class, mostly on a coarse grid
    (duplicates, nested, touching and zero-area boxes) and otherwise random
    boxes that reach negative coordinates; scores tie often."""
    out = []
    for _ in range(n):
        if rng.random() < 0.7:
            x, y = rng.integers(0, 6, size=2) * 5.0
            w, h = rng.integers(0, 4, size=2) * 5.0
        else:
            x, y = rng.uniform(-100, 50, size=2)
            w, h = rng.uniform(0, 60, size=2)
        out.append(
            Detection(
                image_id="img0",
                box=BBox(x, y, x + w, y + h),
                class_id="obj",
                score=float(rng.integers(5)) / 4,
            )
        )
    return out


@st.composite
def hinge_problems(draw):
    """(X, y) for the trainer: random rows, rows drawn from a few distinct
    ones, constant columns, a single row, or blobs so far apart that most
    steps have no violator.  Values come from a seeded Gaussian, so no row
    sits exactly on the margin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "duplicated", "constant", "single", "blobs"]))
    n = 1 if kind == "single" else draw(st.integers(2, 60))
    dim = draw(st.integers(1, 6))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if kind == "duplicated":
        distinct = draw(st.integers(1, 4))
        X = rng.normal(size=(distinct, dim))[rng.integers(0, distinct, n)]
    elif kind == "blobs":
        X = y[:, None] * 20.0 + rng.normal(size=(n, dim)) * 0.1
    else:
        X = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
        if kind == "constant":
            X[:, : draw(st.integers(1, dim))] = rng.normal()
    return X, y


@st.composite
def mining_problems(draw):
    """(pos, neg, initial cache size) for ``train_detector``: positives on
    one side, a pool of easy negatives far on the other side with hard ones
    near the positives at random pool positions, so mining appends rows
    over several rounds and later additions have pool indices below and
    between earlier ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    m = draw(st.integers(8, 60))
    shift = np.zeros(dim)
    shift[0] = 2.0
    pos = rng.normal(size=(draw(st.integers(1, 12)), dim)) + shift
    neg = rng.normal(size=(m, dim)) * 0.5 - 3.0 * shift
    hard = rng.random(m) < draw(st.floats(0.1, 0.6))
    neg[hard] = rng.normal(size=(int(hard.sum()), dim)) * draw(st.floats(0.5, 2.0)) + shift
    return pos, neg, draw(st.integers(1, m // 2))


def make_blobs(seed, n=200, center=2.0, spread=0.3):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 2)) * spread + [center, 0.0]
    neg = rng.normal(size=(n, 2)) * spread + [-center, 0.0]
    return pos, neg


class TestBBox:
    def test_rejects_inverted(self):
        with pytest.raises(DataError):
            BBox(5, 0, 4, 10)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            BBox(0, 0, np.inf, 1)

    def test_area(self):
        assert BBox(0, 0, 4, 5).area == 20.0


class TestIou:
    def test_identical(self):
        b = BBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_half_overlap_rectangles(self):
        # intersection 50, union 150
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_degenerate_union_is_zero(self):
        p = BBox(3, 3, 3, 3)
        assert iou(p, p) == 0.0

    @given(a=boxes(), b=boxes())
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, a, b):
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0

    @given(a=boxes())
    @settings(max_examples=100, deadline=None)
    def test_self_iou(self, a):
        if a.area > 0:
            assert iou(a, a) == 1.0

    @given(
        a=st.lists(st.one_of(grid_boxes(), boxes()), min_size=1, max_size=12),
        b=st.lists(st.one_of(grid_boxes(), boxes()), min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_pairwise_equals_scalar_exactly(self, a, b):
        M = pairwise_iou(
            np.array([x.as_tuple() for x in a]), np.array([y.as_tuple() for y in b])
        )
        assert M.shape == (len(a), len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                assert M[i, j] == iou(x, y)

    @given(
        a=st.lists(st.one_of(grid_boxes(), boxes()), min_size=6, max_size=6),
        b=st.lists(st.one_of(grid_boxes(), boxes()), min_size=8, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_pairwise_batches_over_leading_dimensions(self, a, b):
        A = np.array([x.as_tuple() for x in a]).reshape(3, 2, 4)
        B = np.array([y.as_tuple() for y in b]).reshape(2, 1, 4, 4)
        M = pairwise_iou(A, B)
        assert M.shape == (2, 3, 2, 4)
        for k in range(2):
            for i in range(3):
                npt.assert_array_equal(M[k, i], pairwise_iou(A[i], B[k, 0]))

    @given(
        a=st.lists(int_boxes(), min_size=1, max_size=8),
        b=st.lists(int_boxes(), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_pairwise_takes_integer_boxes(self, a, b):
        A = np.array([x.as_tuple() for x in a])
        B = np.array([y.as_tuple() for y in b])
        assert A.dtype.kind == B.dtype.kind == "i"
        M = pairwise_iou(A, B)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                assert M[i, j] == iou(x, y)


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(DataError):
            TrainConfig(reg_lambda=0.0)
        with pytest.raises(DataError):
            TrainConfig(iterations=0)
        with pytest.raises(DataError):
            TrainConfig(max_hard_rounds=0)


class TestTrainDetector:
    def test_separable_blobs_high_heldout_accuracy(self):
        pos, neg = make_blobs(0)
        det = train_detector(pos, neg, TrainConfig(), class_id="a")
        tpos, tneg = make_blobs(1)
        sp = tpos @ det.weights + det.bias
        sn = tneg @ det.weights + det.bias
        acc = (np.sum(sp > 0) + np.sum(sn < 0)) / (len(sp) + len(sn))
        assert acc >= 0.99

    def test_degenerate_identical_point(self):
        point = np.array([[1.0, 2.0]])
        det = train_detector(point, point, TrainConfig())
        s = point @ det.weights + det.bias
        assert s[0] - s[0] == 0.0
        assert np.all(np.isfinite(det.weights))

    def test_scale_covariance_after_rescaled_regularization(self):
        pos, neg = make_blobs(2)
        base = train_detector(pos, neg, TrainConfig(reg_lambda=0.01))
        scaled = train_detector(
            pos * 10.0, neg * 10.0, TrainConfig(reg_lambda=0.01 * 100.0)
        )
        tpos, tneg = make_blobs(3)
        test = np.vstack([tpos, tneg])
        labels_base = test @ base.weights + base.bias > 0
        labels_scaled = (test * 10.0) @ scaled.weights + scaled.bias > 0
        npt.assert_array_equal(labels_base, labels_scaled)

    def test_bitwise_determinism(self):
        pos, neg = make_blobs(4)
        cfg = TrainConfig()
        a = train_detector(pos, neg, cfg)
        b = train_detector(pos, neg, cfg)
        npt.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_hard_negative_rounds_reduce_objective(self):
        # Pool larger than the initial cache, with the hard negatives
        # hidden beyond it so mining has to find them.
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(100, 3)) + [3.0, 0, 0]
        easy = rng.normal(size=(1024, 3)) + [-6.0, 0, 0]
        hard = rng.normal(size=(300, 3)) * 0.5 + [1.0, 0, 0]
        neg = np.vstack([easy, hard])
        record = []
        cfg = TrainConfig()
        det = train_detector(pos, neg, cfg, record=record)
        assert len(record) > 1, "mining never ran a second round"
        final_cache = record[-1]["cache"]
        y = np.concatenate([np.ones(len(pos)), -np.ones(len(final_cache))])
        X = np.vstack([pos, neg[final_cache]])
        first = hinge_objective(
            record[0]["weights"], record[0]["bias"], X, y, cfg.reg_lambda
        )
        last = hinge_objective(det.weights, det.bias, X, y, cfg.reg_lambda)
        assert last <= first

    def test_empty_class_rejected(self):
        with pytest.raises(DataError):
            train_detector(np.zeros((0, 2)), np.ones((3, 2)), TrainConfig())

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            train_detector(np.ones((2, 3)), np.ones((2, 4)), TrainConfig())

    def test_round_counts_certify_a_dual_lower_bound(self):
        # The mining data of test_hard_negative_rounds_reduce_objective.
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(100, 3)) + [3.0, 0, 0]
        easy = rng.normal(size=(1024, 3)) + [-6.0, 0, 0]
        hard = rng.normal(size=(300, 3)) * 0.5 + [1.0, 0, 0]
        neg = np.vstack([easy, hard])
        record = []
        cfg = TrainConfig()
        train_detector(pos, neg, cfg, record=record)
        assert len(record) > 1
        lam = cfg.reg_lambda
        for r in record:
            X = np.vstack([pos, neg[r["cache"]]])
            y = np.concatenate([np.ones(len(pos)), -np.ones(len(r["cache"]))])
            n = len(y)
            alpha = r["counts"] / (cfg.iterations * n)
            assert r["counts"].shape == (n,)
            assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0 / n)
            Z = y[:, None] * np.hstack([X, np.ones((n, 1))])
            wb = Z.T @ alpha / lam
            npt.assert_allclose(wb, np.append(r["weights"], r["bias"]), rtol=1e-9)
            dual = alpha.sum() - 0.5 * lam * float(wb @ wb)
            primal = hinge_objective(r["weights"], r["bias"], X, y, lam)
            assert 0.0 < dual <= primal

    @settings(max_examples=100, deadline=None)
    @given(
        problem=mining_problems(),
        iterations=st.sampled_from([1, 2, 50]),
        reg_lambda=st.sampled_from([1e-3, 1e-1, 10.0]),
        cache_columns=st.sampled_from([None, 0, 1, 3]),
    )
    def test_rounds_replay_the_step_by_step_loop(
        self, problem, iterations, reg_lambda, cache_columns
    ):
        # The Gram cache is carried from round to round; every round must
        # still be the step-by-step loop on its own rows.  Bounds of 0, 1
        # and 3 columns (of the first round's rows) force recomputes and
        # drop carried columns once later rounds have more rows.
        pos, neg, first = problem
        cfg = TrainConfig(reg_lambda=reg_lambda, iterations=iterations)
        record = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "INITIAL_NEG_CACHE", first)
            if cache_columns is not None:
                mp.setattr(
                    detection, "GRAM_CACHE_FLOATS", cache_columns * (len(pos) + first)
                )
            det = train_detector(pos, neg, cfg, record=record)
        for r in record:
            X = np.vstack([pos, neg[r["cache"]]])
            y = np.concatenate([np.ones(len(pos)), -np.ones(len(r["cache"]))])
            w0, b0, counts0 = subgradient_loop(X, y, cfg)
            npt.assert_array_equal(r["counts"], counts0)
            # The summand tolerance of TestSubgradientDescent.
            n = len(y)
            Za = np.abs(np.hstack([X, np.ones((n, 1))]))
            size = Za.T @ counts0 / (reg_lambda * iterations * n)
            error = np.abs(np.append(r["weights"], r["bias"]) - np.append(w0, b0))
            assert np.all(error <= 1e-9 * size), (error, size)
        for r, later in zip(record, record[1:]):
            assert r["new"] == len(later["cache"]) - len(r["cache"]) > 0
        assert record[-1]["new"] == 0 or len(record) == cfg.max_hard_rounds
        npt.assert_array_equal(det.weights, record[-1]["weights"])

    @settings(max_examples=100, deadline=None)
    @given(
        problem=mining_problems(),
        extra=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
        gather_rows=st.sampled_from([None, 1, 3]),
    )
    def test_pool_as_rows_of_one_array_is_the_copied_pool(
        self, problem, extra, seed, gather_rows
    ):
        # The pool's rows scattered, out of order, among other rows of one
        # array (some of them would violate if they were in the pool); small
        # gather blocks split each round's cache into several.
        pos, neg, first = problem
        rng = np.random.default_rng(seed)
        others = rng.normal(size=(extra, pos.shape[1])) + pos.mean(axis=0)
        F = np.vstack([neg, others])
        order = rng.permutation(len(F))
        F = F[order]
        rows = np.argsort(order)[rng.permutation(len(neg))]
        cfg = TrainConfig(reg_lambda=0.1, iterations=50)
        records = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "INITIAL_NEG_CACHE", first)
            if gather_rows is not None:
                mp.setattr(detection, "GATHER_FLOATS", gather_rows * pos.shape[1])
            a = train_detector(pos, F, cfg, record=records[0], rows=rows)
            b = train_detector(pos, F[rows], cfg, record=records[1])
        assert a.weights.tobytes() == b.weights.tobytes() and a.bias == b.bias
        assert len(records[0]) == len(records[1])
        for ra, rb in zip(*records):
            assert ra["weights"].tobytes() == rb["weights"].tobytes()
            assert ra["bias"] == rb["bias"] and ra["new"] == rb["new"]
            npt.assert_array_equal(ra["cache"], rb["cache"])
            npt.assert_array_equal(ra["counts"], rb["counts"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "where", [(2, 1), (40, 0), (45, 2)], ids=["in-cache", "pool", "outside-pool"]
    )
    def test_non_finite_negative_named_by_row_and_column(self, dtype, where):
        # Row 2 is in the initial cache (4 rows), row 40 only in the pool
        # that mining scores, row 45 outside the pool; rows are those of
        # ``neg``, whichever of them the pool holds.
        rng = np.random.default_rng(9)
        pos = rng.normal(size=(10, 3)) + 3.0
        neg = (rng.normal(size=(50, 3)) - 3.0).astype(dtype)
        neg[where] = np.nan
        neg[48, 0] = np.inf
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detection, "INITIAL_NEG_CACHE", 4)
            with pytest.raises(
                DataError,
                match=rf"^neg has a non-finite entry at row {where[0]}, "
                rf"column {where[1]}$",
            ):
                train_detector(
                    pos, neg, TrainConfig(iterations=20), rows=np.arange(45)
                )

    @pytest.mark.parametrize(
        "rows", [[], [[0, 1]], [0.0, 1.0], [0, 3], [-1, 0]],
        ids=["empty", "2-d", "float", "past-end", "negative"],
    )
    def test_bad_pool_rows_rejected(self, rows):
        with pytest.raises(DataError, match="rows"):
            train_detector(np.ones((2, 2)), np.ones((3, 2)), TrainConfig(), rows=rows)

    def test_record_new_counts_violators_left_outside_the_cache(self):
        # The mining data of test_hard_negative_rounds_reduce_objective.
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(100, 3)) + [3.0, 0, 0]
        easy = rng.normal(size=(1024, 3)) + [-6.0, 0, 0]
        hard = rng.normal(size=(300, 3)) * 0.5 + [1.0, 0, 0]
        neg = np.vstack([easy, hard])
        for rounds in (1, 10):
            record = []
            train_detector(pos, neg, TrainConfig(max_hard_rounds=rounds), record=record)
            last = record[-1]
            outside = np.setdiff1d(
                np.flatnonzero(neg @ last["weights"] + last["bias"] > -1.0), last["cache"]
            )
            assert last["new"] == outside.size
            if rounds == 1:  # stopped at the round limit with work left
                assert len(record) == 1 and last["new"] > 0
            else:  # stopped because nothing new violated
                assert len(record) < rounds and last["new"] == 0

    def test_mining_appends_each_rounds_new_rows_to_the_cache(self, monkeypatch):
        # Hard negatives at random pool positions: the third round adds rows
        # whose pool indices lie below ones the second round added.
        rng = np.random.default_rng(7)
        pos = rng.normal(size=(10, 3)) + [2.0, 0, 0]
        neg = rng.normal(size=(60, 3)) * 0.5 - [6.0, 0, 0]
        hard = rng.random(60) < 0.4
        neg[hard] = rng.normal(size=(int(hard.sum()), 3)) + [2.0, 0, 0]
        monkeypatch.setattr(detection, "INITIAL_NEG_CACHE", 10)
        record = []
        train_detector(pos, neg, TrainConfig(reg_lambda=0.1, iterations=50), record=record)
        assert len(record) == 3
        assert record[0]["cache"].tolist() == list(range(10))
        for r, later in zip(record, record[1:]):
            head, added = np.split(later["cache"], [len(r["cache"])])
            npt.assert_array_equal(head, r["cache"])
            violators = np.flatnonzero(neg @ r["weights"] + r["bias"] > -1.0)
            npt.assert_array_equal(added, np.setdiff1d(violators, r["cache"]))
            assert np.all(np.diff(added) > 0)
        assert np.any(np.diff(record[-1]["cache"]) < 0)


class TestGramCache:
    """Columns carried from one round's rows to the next, which appends."""

    # Integer rows keep every product exact, so a carried column must equal
    # the new round's product bit for bit.
    POOL = np.random.default_rng(3).integers(-4, 5, size=(9, 4)).astype(float)
    OLD = 5  # the first round's rows; the next round appends 4 more

    def carried(self):
        gram = detection._GramCache()
        Z = self.POOL[: self.OLD]
        gram.extend(Z)
        gram.add(Z, np.array([4, 1]))  # in one block
        gram.add(Z, np.array([0]))
        gram.extend(self.POOL)
        return gram

    def test_carried_columns_equal_the_new_products(self):
        gram = self.carried()
        Z = self.POOL
        assert gram.slot.tolist() == [2, 1, -1, -1, 0, -1, -1, -1, -1]
        for i, k in enumerate(gram.slot.tolist()):
            if k >= 0:
                npt.assert_array_equal(gram.cols[k], Z @ Z[i])
        assert len(gram.cols) == 3

    def test_extend_drops_the_latest_columns_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(detection, "GRAM_CACHE_FLOATS", 2 * len(self.POOL) + 1)
        gram = self.carried()
        Z = self.POOL
        assert gram.max_cols == 2 and len(gram.cols) == 2
        assert gram.slot.tolist() == [-1, 1, -1, -1, 0, -1, -1, -1, -1]
        npt.assert_array_equal(gram.cols[0], Z @ Z[4])
        npt.assert_array_equal(gram.cols[1], Z @ Z[1])


class TestHingeObjective:
    def test_bias_is_penalized_like_a_weight(self):
        X, y = np.zeros((1, 2)), np.ones(1)
        # margin 2 >= 1, so only the regularizer remains: 0.5 * l * b^2
        assert hinge_objective(np.zeros(2), 2.0, X, y, 0.1) == pytest.approx(0.2)


def replay(X, y, cfg):
    """The trainer's replay on the rows of ``(X, y)`` with a fresh Gram
    cache, as the first mining round starts it: (weights, bias, counts)."""
    n = X.shape[0]
    Z = y[:, None] * np.hstack([X, np.ones((n, 1))])
    gram = detection._GramCache()
    gram.extend(Z)
    return _replay(Z, gram, cfg)


class TestSubgradientDescent:
    """The count replay against the step-by-step loop of ``oracles``."""

    @settings(max_examples=150, deadline=None)
    @given(
        problem=hinge_problems(),
        iterations=st.sampled_from([1, 2, 3, 50]),
        reg_lambda=st.sampled_from([1e-3, 1e-1, 10.0]),
        cache_columns=st.sampled_from([None, 0, 1, 3]),
    )
    def test_replays_the_step_by_step_loop(
        self, problem, iterations, reg_lambda, cache_columns
    ):
        X, y = problem
        cfg = TrainConfig(reg_lambda=reg_lambda, iterations=iterations)
        w0, b0, counts0 = subgradient_loop(X, y, cfg)
        with pytest.MonkeyPatch.context() as mp:
            if cache_columns is not None:  # small bounds force the recompute
                mp.setattr(detection, "GRAM_CACHE_FLOATS", cache_columns * len(y))
            w, b, counts = replay(X, y, cfg)
        assert counts.dtype == np.int64
        npt.assert_array_equal(counts, counts0)
        # Relative to the size of the summands of w = Z.T @ c / (l * T * n):
        # where they cancel to 0, rounding leaves a few ulps of them.
        n = len(y)
        Za = np.abs(np.hstack([X, np.ones((n, 1))]))
        size = Za.T @ counts0 / (reg_lambda * iterations * n)
        error = np.abs(np.append(w, b) - np.append(w0, b0))
        assert np.all(error <= 1e-9 * size), (error, size)

    @pytest.mark.parametrize("cache_columns", [None, 0, 5])
    def test_mining_sized_problem_takes_every_path(self, cache_columns):
        # 1k rows, 3000 steps, classes 5 sigma apart on one axis: the run
        # skips quiet steps, adds new and cached Gram columns and
        # recomputes; bounds of 0 and 5 columns force the recompute.
        rng = np.random.default_rng(7)
        pos = rng.normal(size=(100, 30))
        neg = rng.normal(size=(900, 30))
        pos[:, 0] += 2.5
        neg[:, 0] -= 2.5
        X = np.vstack([pos, neg])
        y = np.concatenate([np.ones(100), -np.ones(900)])
        cfg = TrainConfig(reg_lambda=1e-3, iterations=3000)
        w0, b0, counts0 = subgradient_loop(X, y, cfg)
        with pytest.MonkeyPatch.context() as mp:
            if cache_columns is not None:
                mp.setattr(detection, "GRAM_CACHE_FLOATS", cache_columns * len(y))
            w, b, counts = replay(X, y, cfg)
        npt.assert_array_equal(counts, counts0)
        npt.assert_allclose(np.append(w, b), np.append(w0, b0), rtol=1e-9)

    @pytest.mark.parametrize("iterations,expected", [(1, [1, 1]), (2, [1, 2]), (3, [2, 3])])
    def test_margin_tie_is_not_a_violation(self, iterations, expected):
        # Orthogonal rows z = (1, 1, 1, 1) and (-1, 0, 0, 1), reg_lambda 2:
        # every value is dyadic, so both loops are exact.  After step 1 the
        # first margin is 1.0 exactly and the second 0.5, so step 2 has
        # one violator.
        X, y = np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]]), np.ones(2)
        cfg = TrainConfig(reg_lambda=2.0, iterations=iterations)
        _, _, counts0 = subgradient_loop(X, y, cfg)
        _, _, counts = replay(X, y, cfg)
        assert counts.tolist() == counts0.tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        scale=st.floats(1e-6, 1e3),
        k=st.integers(0, 5000),
        t=st.integers(2, 300),
        more=st.integers(0, 300),
    )
    def test_first_loud_step_matches_a_linear_scan(self, scale, k, t, more):
        T = t + more
        # umin just below, on and just above the threshold of step k + 1,
        # where the division that finds the candidate may round either way
        on = scale * k
        for umin in (float(np.nextafter(on, -np.inf)), on, float(np.nextafter(on, np.inf))):
            if not scale * (t - 1) <= umin:
                continue  # only called on a quiet step t
            loud = [s for s in range(t + 1, T + 1) if scale * (s - 1) > umin]
            assert _first_loud_step(umin, scale, t, T) == (loud[0] if loud else T + 1)


def one_image(X) -> Dataset:
    """A dataset ``one`` of a single image whose proposal features are ``X``."""
    X = np.asarray(X, dtype=float)
    return dataset_of("one", ["a"], [("img0", X, [(0, 0, 1, 1)] * X.shape[0])])


def score_one(det, X) -> np.ndarray:
    """``raw_score_rows`` of ``det`` alone over the one-image dataset of ``X``."""
    return raw_score_rows(one_image(X), [det])[0]


class TestScoreProposals:
    """``pipeline.raw_score_rows``, the one scorer of raw-frame detectors."""

    def test_unit_weight_reads_first_column(self):
        det = LinearDetector("a", np.array([1.0, 0.0, 0.0]), 0.0, "raw")
        s = score_one(det, [[3.0, 9.0, 9.0]])
        assert s[0] == 3.0

    def test_bias_only(self):
        det = LinearDetector("a", np.zeros(2), 0.7, "raw")
        npt.assert_array_equal(score_one(det, np.ones((4, 2))), np.full(4, 0.7))

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=5)
        b = float(rng.normal())
        X = rng.normal(size=(9, 5))
        det = LinearDetector("a", w, b, "raw")
        got = score_one(det, X)
        want = np.array(
            [sum(w[j] * X[i, j] for j in range(5)) + b for i in range(9)]
        )
        npt.assert_allclose(got, want, atol=1e-12)

    def test_frame_mismatch_is_hard_error(self):
        det = LinearDetector("a", np.ones(2), 0.0, "aligned:a")
        with pytest.raises(DataError, match="expects frame 'aligned:a', got 'raw'"):
            score_one(det, np.ones((1, 2)))

    def test_dim_mismatch(self):
        det = LinearDetector("a", np.ones(3), 0.0, "raw")
        with pytest.raises(
            DataError, match="class 'a' scores 3-dim features, dataset 'one' has 2"
        ):
            score_one(det, np.ones((1, 2)))


def det_at(x, score, image_id="img0", class_id="obj"):
    return Detection(image_id, BBox(x, 0, x + 10, 10), class_id, score)


def nms(dets, overlap_thresh):
    """``greedy_nms`` on a list of ``Detection`` rows, as a list."""
    return rows_of(greedy_nms(detections_from_rows(dets), overlap_thresh))


class TestDetections:
    def rows(self):
        return [det_at(0, 0.5), det_at(20, -1.0, image_id="img1", class_id="b")]

    def test_rows_round_trip(self):
        rows = self.rows()
        dets = detections_from_rows(rows)
        assert len(dets) == 2 and rows_of(dets) == rows
        assert dets.image_ids == ("img0", "img1") and dets.class_ids == ("obj", "b")
        assert rows_of(dets) == rows_of(
            detections_from_rows(rows, ("img1", "img0"), ("b", "obj"))
        )
        assert rows_of(detections_from_rows([])) == []

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.0, math.nan, 1.0, 1.0, 0.5], "box coordinates must be finite"),
            ([0.0, 0.0, math.inf, 1.0, 0.5], "box coordinates must be finite"),
            (
                [2.0, 1.0, 1.0, 2.0, 0.5],
                "degenerate box ordering: (2.0, 1.0, 1.0, 2.0)",
            ),
            ([0.0, 0.0, 1.0, 1.0, math.nan], "detection score must be finite"),
        ],
    )
    def test_row_checks_give_the_row_types_messages(self, row, message):
        with pytest.raises(DataError) as scalar:
            Detection("img0", BBox(*row[:4]), "obj", row[4])
        assert str(scalar.value) == message
        good = [0.0, 0.0, 1.0, 1.0, 0.5]
        table = np.array([good, row, [3.0, 0.0, 1.0, 1.0, math.inf]])
        with pytest.raises(DataError) as columns:
            Detections(table[:, :4], table[:, 4], [0] * 3, [0] * 3, ["img0"], ["obj"])
        assert str(columns.value) == message  # the first bad row's

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"boxes": np.zeros((2, 3))}, "columns must be"),
            ({"scores": np.zeros(3)}, "columns must be"),
            ({"image_index": [0, 2]}, r"codes outside \[0, 2\)"),
            ({"class_index": [0, -1]}, r"codes outside \[0, 2\)"),
            ({"image_ids": ["img0", "img0"]}, "duplicate names"),
        ],
    )
    def test_shapes_codes_and_names_checked(self, change, match):
        dets = detections_from_rows(self.rows())
        fields = {f.name: getattr(dets, f.name) for f in dataclasses.fields(dets)}
        with pytest.raises(DataError, match=match):
            Detections(**{**fields, **change})

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError, match="'img9' is not among"):
            detections_from_rows([det_at(0, 0.5, image_id="img9")], ["img0"])

    def test_take_gives_the_columns_of_the_constructor(self):
        dets = paper_shape_detections(3)
        mask = np.random.default_rng(5).random(len(dets)) < 0.3
        columns = ("boxes", "scores", "image_index", "class_index")
        for rows in (mask, np.flatnonzero(mask), np.flatnonzero(mask)[::-1]):
            # Rows of checked columns are not checked again.
            with mock.patch.object(detection, "box_faults", side_effect=AssertionError):
                got = dets.take(rows)
            want = Detections(
                *(getattr(dets, name)[rows] for name in columns),
                dets.image_ids, dets.class_ids,
            )
            for name in columns:
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert (got.image_ids, got.class_ids) == (want.image_ids, want.class_ids)
        # The constructor still checks every row, with BBox's message.
        taken = dets.take(mask)
        boxes = taken.boxes.copy()
        boxes[3, [0, 2]] = boxes[3, [2, 0]]  # x_min above x_max
        with pytest.raises(DataError) as expected:
            BBox(*boxes[3].tolist())
        with pytest.raises(DataError) as info:
            Detections(
                boxes, taken.scores, taken.image_index, taken.class_index,
                taken.image_ids, taken.class_ids,
            )
        assert str(info.value) == str(expected.value)


def two_images(gt=None) -> Dataset:
    """A dataset ``d`` of two images of one proposal each, with ``gt``."""
    boxes = [(0.0, 0.0, 1.0, 1.0)] * 2
    return Dataset("d", ["cat"], ("img0", "img1"), [1, 1], np.zeros((2, 1)), boxes, gt)


class TestGroundTruths:
    FIELDS = dict(
        boxes=[[0.0, 0.0, 1.0, 1.0], [2.0, 0.0, 3.0, 1.0]],
        image_index=[0, 1],
        class_index=[0, 0],
        image_ids=("img0", "img1"),
        class_ids=("cat",),
    )

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                {"boxes": np.zeros((2, 3))},
                "ground-truth columns must be (m, 4) boxes and m image and class codes",
            ),
            (
                {"class_index": [0]},
                "ground-truth columns must be (m, 4) boxes and m image and class codes",
            ),
            ({"image_index": [0, 2]}, "codes outside [0, 2)"),
            ({"class_index": [0, -1]}, "codes outside [0, 1)"),
            ({"image_ids": ("img0", "img0")}, "duplicate names in ['img0', 'img0']"),
            (
                {"class_ids": ("cat", "dog"), "class_index": [0, 1]},
                "image 'img1' references unknown class 'dog'",
            ),
            (
                {"image_ids": ("img0", "img9")},
                "dataset 'd': ground truth names an unknown image",
            ),
            (
                {"boxes": [[0.0, 0.0, 1.0, 1.0], [0.0, math.nan, 1.0, 1.0]]},
                "box coordinates must be finite",
            ),
            (
                {"boxes": [[0.0, 0.0, 1.0, 1.0], [2.0, 1.0, 1.0, 2.0]]},
                "degenerate box ordering: (2.0, 1.0, 1.0, 2.0)",
            ),
        ],
    )
    def test_faults_of_the_table_and_of_the_dataset_holding_it(self, change, message):
        with pytest.raises(DataError) as info:
            gt = GroundTruths(**{**self.FIELDS, **change})
            two_images(gt)
        assert str(info.value) == message

    def test_an_image_listed_without_rows_is_labeled(self):
        gt = GroundTruths(**{**self.FIELDS, "image_index": [0, 0]})
        assert two_images(gt).labeled
        gt = GroundTruths(**{**self.FIELDS, "image_index": [0, 0], "image_ids": ("img0",)})
        assert not two_images(gt).labeled
        assert not two_images().labeled

    def test_per_image_pads_each_named_image_in_row_order(self):
        gt = GroundTruths(
            [[0, 0, 1, 1], [5, 5, 6, 6], [2, 2, 3, 3], [7, 7, 8, 8]],
            [1, 0, 1, 1], [0, 0, 1, 0], ("a", "b"), ("cat", "dog"),
        )
        padded = gt.per_image("cat", ["b", "z", "a"])
        npt.assert_array_equal(
            padded,
            [
                [[0, 0, 1, 1], [7, 7, 8, 8]],
                [[0, 0, 0, 0], [0, 0, 0, 0]],
                [[5, 5, 6, 6], [0, 0, 0, 0]],
            ],
        )
        assert gt.per_image("emu", ["a", "b"]).shape == (2, 0, 4)


class TestGreedyNms:
    def test_identical_boxes_keep_best(self):
        a, b = det_at(0, 0.9), det_at(0, 0.8)
        assert nms([b, a], 0.5) == [a]

    def test_disjoint_boxes_both_kept(self):
        a, b = det_at(0, 0.9), det_at(100, 0.8)
        assert nms([a, b], 0.5) == [a, b]

    def test_matches_exhaustive_reference(self):
        for seed in range(50):
            dets = random_detections(np.random.default_rng(seed), 10)
            assert nms(dets, 0.3) == exhaustive_nms(dets, 0.3)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 300),
        thresh=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_loop_on_large_degenerate_inputs(self, seed, n, thresh):
        dets = degenerate_detections(np.random.default_rng(seed), n)
        assert nms(dets, thresh) == sequential_nms(dets, thresh)

    @pytest.mark.parametrize("thresh", [0.0, 0.3, 1.0])
    def test_matches_sequential_loop_across_row_blocks(self, thresh):
        # Too many for one tile: row blocks of the one image.
        n = 2 * math.isqrt(NMS_TILE_FLOATS) + 50
        dets = degenerate_detections(np.random.default_rng(7), n)
        assert nms(dets, thresh) == sequential_nms(dets, thresh)

    def test_idempotent(self):
        for seed in range(10):
            dets = random_detections(np.random.default_rng(seed), 12)
            once = nms(dets, 0.4)
            assert nms(once, 0.4) == once

    def test_output_structure(self):
        for seed in range(10):
            dets = random_detections(np.random.default_rng(100 + seed), 15)
            kept = nms(dets, 0.3)
            scores = [d.score for d in kept]
            assert scores == sorted(scores, reverse=True)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    assert iou(a.box, b.box) <= 0.3
            for d in dets:
                if d not in kept:
                    assert any(iou(d.box, k.box) > 0.3 for k in kept)

    def test_classes_suppressed_apart_in_order_of_first_appearance(self):
        # The same box in two classes: neither suppresses the other.  The
        # classes come out in the order they first appear.
        a, b = det_at(0, 1.0, class_id="a"), det_at(0, 0.5, class_id="b")
        c = det_at(1, 0.7, class_id="a")
        assert nms([b, a, c], 0.5) == [b, a]

    def test_threshold_validated(self):
        with pytest.raises(DataError):
            nms([det_at(0, 1.0)], 1.5)

    def test_tie_broken_by_image_then_box(self):
        # NMS sees one image, so its ties break by box; rank_key, the order
        # it shares with AP matching, puts the image id first.
        a = det_at(100, 0.5, image_id="img1")
        b = det_at(0, 0.5, image_id="img0")
        c = Detection("img0", BBox(0, 5, 10, 15), "obj", 0.5)
        assert nms([c, b], 0.9) == [b, c]
        assert sorted([a, c, b], key=rank_key) == [b, c, a]

    def test_mixed_image_ids_suppressed_per_image(self):
        # The same box in two images: neither suppresses the other.  Images
        # come out in the order they first appear.
        a, b = det_at(0, 0.9, image_id="img0"), det_at(0, 0.8, image_id="img1")
        c = det_at(1, 0.7, image_id="img0")
        assert nms([b, a, c], 0.3) == [b, a]
        # A class's images come out in the order they first appear among
        # its rows, after the classes that appear before it.
        d = det_at(0, 0.8, image_id="img1", class_id="other")
        assert nms([d, a, b, c], 0.3) == [d, a, b]

    @pytest.mark.parametrize("budget", [1, 7, 50, NMS_TILE_FLOATS])
    @given(dets=multi_image_detections(), thresh=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_multi_image_matches_per_image_sequential_loop(self, budget, dets, thresh):
        # Budget 1 gives one-row blocks, 7 and 50 tiles of several small
        # images with padding and row blocks of the larger ones.
        with mock.patch.object(detection, "NMS_TILE_FLOATS", budget):
            assert nms(dets, thresh) == per_image_nms(dets, thresh)

    @pytest.mark.parametrize("thresh", [0.0, 0.3, 1.0])
    def test_large_interleaved_images_match_per_image_sequential_loop(self, thresh):
        rng = np.random.default_rng(11)
        dets = [
            dataclasses.replace(d, image_id=f"img{k}")
            for d, k in zip(
                degenerate_detections(rng, 700),
                rng.choice(4, size=700, p=[0.6, 0.2, 0.15, 0.05]).tolist(),
            )
        ]
        assert nms(dets, thresh) == per_image_nms(dets, thresh)

    def test_tiles_pad_small_images_and_block_large_ones(self):
        # With a budget of 50 IoUs, images of 3 and 2 distinct boxes share
        # one tile padded to 3 x 3, whose conflicts are computed once for
        # all three classes (a quarter of the tile, here one image, per
        # pairwise_iou call); the image of 9 distinct boxes (81 IoUs) gets
        # blocks of conflict rows of at most 50 IoUs.
        rng = np.random.default_rng(3)
        sizes = {"a": 3, "b": 2, "c": 9}
        rows = [
            det_at(5 * k, 0.0, image_id=image)
            for image, n in sizes.items()
            for k in range(n)
        ]
        dets = [
            dataclasses.replace(d, class_id=c, score=float(rng.integers(5)) / 4)
            for c in "xyz"
            for d in rows
        ]
        shapes = []
        pairwise = detection.pairwise_iou

        def spy(A, B):
            out = pairwise(A, B)
            shapes.append(out.shape)
            return out

        with mock.patch.object(detection, "NMS_TILE_FLOATS", 50), mock.patch.object(
            detection, "pairwise_iou", spy
        ):
            assert row_bits(nms(dets, 0.3)) == row_bits(grouped_nms(dets, 0.3))
        assert [s for s in shapes if len(s) == 3] == [(1, 3, 3), (1, 3, 3)]
        blocks = [s for s in shapes if len(s) == 2]
        assert blocks and all(c <= 9 and r * c <= 50 for r, c in blocks)

    def test_rows_against_a_blocks_alive_boxes_serve_no_later_class(self):
        # With a budget of 7 IoUs an image of three boxes in a chain (a
        # overlaps b, b overlaps c) is walked lazily.  Class x keeps a and
        # c: its first block computes the rows of a and b against every
        # box, and its second c's row against c alone, the one box still
        # alive.  Class y ranks c first, so c's row must be computed again
        # against every box, or c would not suppress b.
        a, b, c = (BBox(x, 0, x + 10, 10) for x in (0, 4, 8))
        rows = [
            Detection("img0", box, cls, score)
            for cls, scores in (("x", (3.0, 2.0, 1.0)), ("y", (1.0, 2.0, 3.0)))
            for box, score in zip((a, b, c), scores)
        ]
        with mock.patch.object(detection, "NMS_TILE_FLOATS", 7):
            got = nms(rows, 0.3)
        assert got == grouped_nms(rows, 0.3) == [rows[0], rows[2], rows[5], rows[3]]

    @pytest.mark.parametrize("budget", [1, 7, 50, NMS_TILE_FLOATS])
    @given(dets=mixed_class_detections(), thresh=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_mixed_classes_match_per_group_sequential_loop(self, budget, dets, thresh):
        # Budget 1 walks every image of two or more distinct boxes lazily,
        # one conflict row at a time; 7 and 50 mix padded tiles with lazy
        # blocks; the default takes every image here in tiles.
        with mock.patch.object(detection, "NMS_TILE_FLOATS", budget):
            got = nms(dets, thresh)
        assert row_bits(got) == row_bits(grouped_nms(dets, thresh))

    @given(dets=mixed_class_detections(), thresh=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_rows_sharing_a_hash_only_add_table_entries(self, dets, thresh):
        # With a zero multiplier the hash is the bits of y_max alone, so
        # different boxes collide, runs of equal rows split and a box can
        # take several entries of its image's table.
        with mock.patch.object(detection, "BOX_HASH", np.uint64(0)):
            got = nms(dets, thresh)
        assert row_bits(got) == row_bits(grouped_nms(dets, thresh))

    @pytest.mark.parametrize("n_classes", [1, 3, 20])
    def test_paper_shape_computes_no_more_ious_than_one_call_per_class(
        self, n_classes
    ):
        dets = paper_shape_detections(n_classes)
        counted = [0]
        pairwise = detection.pairwise_iou

        def counting(A, B):
            out = pairwise(A, B)
            counted[0] += out.size
            return out

        with mock.patch.object(detection, "pairwise_iou", counting):
            together = greedy_nms(dets, 0.3)
            one_call = counted[0]
            apart = [
                greedy_nms(dets.take(dets.class_index == k), 0.3)
                for k in range(n_classes)
            ]
        assert one_call <= counted[0] - one_call
        assert rows_of(together) == [d for part in apart for d in rows_of(part)]

    def test_paper_shape_peak_memory_stays_below_twice_the_input(self):
        dets = paper_shape_detections(20)
        columns = sum(
            a.nbytes for a in (dets.boxes, dets.scores, dets.image_index, dets.class_index)
        )
        tracemalloc.start()
        try:
            greedy_nms(dets, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * columns

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aligndet import linalg
from aligndet.errors import DataError, NumericalError
from aligndet.linalg import (
    NormalizationStats,
    Subspace,
    identity_stats,
    matvec,
    normalize,
    pca,
    principal_angle_cosines,
    project,
    sorted_distinct,
    subspace_similarity,
)
from oracles import random_orthonormal

RT2 = math.sqrt(2.0)


class TestNormalize:
    def test_hand_case_sample_stddev(self):
        # mean (2, 3); sample std of {1,3} and {2,4} is sqrt(2)
        X, stats = normalize([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_allclose(stats.mean, [2.0, 3.0])
        npt.assert_allclose(stats.scale, [RT2, RT2])
        npt.assert_allclose(
            X, [[-1 / RT2, -1 / RT2], [1 / RT2, 1 / RT2]], atol=1e-15
        )

    def test_zero_variance_fallback(self):
        X, stats = normalize(np.zeros((3, 4)))
        npt.assert_array_equal(X, np.zeros((3, 4)))
        npt.assert_array_equal(stats.scale, np.ones(4))

    def test_supplied_stats_applied_unchanged(self):
        X, stats = normalize([[5.0]], NormalizationStats([5.0], [2.0]))
        npt.assert_array_equal(X, [[0.0]])
        npt.assert_array_equal(stats.mean, [5.0])

    def test_single_row_gets_unit_scale(self):
        X, stats = normalize([[3.0, -1.0]])
        npt.assert_array_equal(stats.scale, [1.0, 1.0])
        npt.assert_array_equal(X, [[0.0, 0.0]])

    def test_domains_keep_their_own_stats(self):
        rng = np.random.default_rng(7)
        A = rng.normal(loc=5.0, size=(40, 3))
        B = rng.normal(loc=-5.0, size=(40, 3))
        _, stats_a = normalize(A)
        B_own, stats_b = normalize(B)
        B_foreign, _ = normalize(B, stats_a)
        assert not np.allclose(B_own, B_foreign)
        assert abs(B_own.mean()) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            normalize(np.ones((2, 3)), NormalizationStats(np.zeros(2), np.ones(2)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            normalize([[1.0, np.nan]])

    def test_stats_require_positive_scale(self):
        with pytest.raises(DataError):
            NormalizationStats([0.0], [0.0])

    @given(
        n=st.integers(2, 30),
        d=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_self_stats_center_and_scale(self, n, d, seed):
        X = np.random.default_rng(seed).normal(size=(n, d)) * 3.0 + 1.0
        Xn, _ = normalize(X)
        npt.assert_allclose(Xn.mean(axis=0), 0.0, atol=1e-10)
        npt.assert_allclose(Xn.std(axis=0, ddof=1), 1.0, atol=1e-10)


    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 8),
        seed=st.integers(0, 10_000),
        loc=st.sampled_from([0.0, 1e3, -7.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_float32_input_gives_the_bits_of_its_upcast(self, n, d, seed, loc):
        X = (np.random.default_rng(seed).normal(size=(n, d)) * 3.0 + loc).astype(
            np.float32
        )
        Z32, s32 = normalize(X)
        Z64, s64 = normalize(X.astype(np.float64))
        assert Z32.dtype == np.float64
        assert Z32.tobytes() == Z64.tobytes()
        assert s32.mean.tobytes() == s64.mean.tobytes()
        assert s32.scale.tobytes() == s64.scale.tobytes()
        assert normalize(X, s64)[0].tobytes() == Z64.tobytes()


class TestMatvec:
    """``X @ w`` in row blocks, float32 blocks upcast into a buffer."""

    @given(
        n=st.integers(1, 50),
        d=st.integers(1, 12),
        block_rows=st.sampled_from([None, 1, 3, 8, 1000]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_float32_scores_as_its_upcast(self, n, d, block_rows, seed):
        # Blocks of one row (a row holding at least GATHER_FLOATS entries),
        # of a few rows (n not a multiple of them) and larger than n.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)).astype(np.float32)
        w = rng.normal(size=d)
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                mp.setattr(linalg, "GATHER_FLOATS", block_rows * d)
            got = matvec(X, w)
            want = matvec(X.astype(np.float64), w)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        npt.assert_allclose(got, X.astype(np.float64) @ w, rtol=1e-12, atol=1e-12)

    @given(
        n=st.integers(1, 50),
        d=st.integers(1, 12),
        k=st.integers(0, 4),
        dtype=st.sampled_from([np.float32, np.float64]),
        block_rows=st.sampled_from([None, 1, 3, 8, 1000]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_stack_gives_each_vectors_bits(self, n, d, k, dtype, block_rows, seed):
        # Row c of a stacked product is matvec of vector c alone, for
        # blocks of one row (a row of at least GATHER_FLOATS entries), of a
        # few rows (n not a multiple of them) and larger than n.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)).astype(dtype)
        ws = [rng.normal(size=d) for _ in range(k)]
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                mp.setattr(linalg, "GATHER_FLOATS", block_rows * d)
            stacked = matvec(X, ws)
            alone = [matvec(X, w) for w in ws]
        assert stacked.shape == (k, n) and stacked.dtype == np.float64
        for row, want in zip(stacked, alone):
            assert row.tobytes() == want.tobytes()

    def test_stack_of_rows_wider_than_a_block(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, linalg.GATHER_FLOATS + 3)).astype(np.float32)
        W = rng.normal(size=(3, X.shape[1]))
        stacked = matvec(X, W)
        for row, w in zip(stacked, W):
            assert row.tobytes() == matvec(X, w).tobytes()

    def test_one_block_is_the_whole_product(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 30))
        w = rng.normal(size=30)
        assert matvec(X, w).tobytes() == (X @ w).tobytes()
        assert matvec(X.astype(np.float32), w).tobytes() == (
            X.astype(np.float32).astype(np.float64) @ w
        ).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_non_finite_entry_named(self, dtype, bad):
        X = np.ones((9, 4), dtype=dtype)
        X[1, :] = 1e30  # finite, but its product overflows to inf
        X[6, 2] = bad
        X[8, 0] = bad
        w = np.full(4, 1e300)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "GATHER_FLOATS", 8)  # blocks of two rows
            with pytest.raises(
                DataError, match="^F has a non-finite entry at row 6, column 2$"
            ):
                matvec(X, w, "F")

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_non_finite_entry_named_in_a_stack(self):
        X = np.ones((5, 3), dtype=np.float32)
        X[3, 1] = np.nan
        with pytest.raises(DataError, match="^F has a non-finite entry at row 3, column 1$"):
            matvec(X, [np.ones(3), np.zeros(3)], "F")

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_zero_weight_still_finds_the_entry(self):
        X = np.ones((3, 2), dtype=np.float32)
        X[2, 1] = np.inf
        with pytest.raises(DataError, match="row 2, column 1"):
            matvec(X, np.zeros(2))

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_overflow_alone_is_not_an_error(self):
        got = matvec(np.full((2, 2), 1e200), np.full(2, 1e200))
        assert np.isinf(got).all()


class TestPca:
    def test_axis_aligned_line(self):
        X = np.array([[1.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0], [-1.0, 0, 0]])
        sub = pca(X, 1)
        npt.assert_allclose(sub.basis[:, 0], [1.0, 0.0, 0.0], atol=1e-12)
        npt.assert_allclose(sub.eigenvalues[0], np.var(X[:, 0], ddof=1))

    def test_planted_plane_in_5d(self):
        # Samples drawn exactly on span(e1, e2) with covariance diag(9, 1);
        # the oracle is the eigendecomposition of that exact covariance.
        rng = np.random.default_rng(42)
        z = rng.normal(size=(100, 2)) * np.sqrt([9.0, 1.0])
        X = np.zeros((100, 5))
        X[:, :2] = z
        sub = pca(X, 2)
        oracle_cov = np.diag([9.0, 1.0, 0.0, 0.0, 0.0])
        w, V = np.linalg.eigh(oracle_cov)
        true_plane = V[:, np.argsort(w)[::-1][:2]]
        assert subspace_similarity(sub.basis, true_plane) >= RT2 - 0.05

    def test_identical_rows_rank_error(self):
        X = np.tile([[1.0, 2.0, 3.0]], (3, 1))
        with pytest.raises(NumericalError, match="rank 0"):
            pca(X, 1)

    def test_rank_error_names_achievable_rank(self):
        X = np.zeros((10, 4))
        X[:, 0] = np.arange(10)
        X[:, 1] = 2.0 * np.arange(10)  # collinear, rank 1 after centering
        with pytest.raises(NumericalError, match="rank 1"):
            pca(X, 3)

    @pytest.mark.parametrize("d", [0, 5, 8])
    def test_d_out_of_range(self, d):
        X = np.random.default_rng(0).normal(size=(6, 8))  # limit = min(5, 8)
        if 1 <= d <= 5:
            pca(X, d)
        else:
            with pytest.raises(DataError, match="out of range"):
                pca(X, d)

    def test_sign_rule_largest_entry_nonnegative(self):
        rng = np.random.default_rng(11)
        sub = pca(rng.normal(size=(40, 6)), 4)
        idx = np.argmax(np.abs(sub.basis), axis=0)
        assert np.all(sub.basis[idx, np.arange(4)] >= 0.0)

    def test_orthonormality_and_spectral_order(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            X = np.random.default_rng(seed).normal(size=(25, 7)) * rng.uniform(
                0.5, 3.0
            )
            sub = pca(X, 4)
            gram = sub.basis.T @ sub.basis
            assert np.linalg.norm(gram - np.eye(4)) < 1e-8
            assert np.all(np.diff(sub.eigenvalues) <= 1e-12)
            total_var = np.trace(np.cov(X, rowvar=False))
            assert sub.eigenvalues.sum() <= total_var + 1e-8

    def test_full_eigendecomposition_oracle(self):
        # Small instances: pca's span must match a direct full
        # eigendecomposition of the explicitly formed covariance.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for n in (4, 9, 20):
                for D in (2, 5, 8):
                    X = rng.normal(size=(n, D))
                    dmax = min(n - 1, D)
                    for d in {1, dmax, max(1, dmax // 2)}:
                        sub = pca(X, d)
                        Xc = X - X.mean(axis=0)
                        w, V = np.linalg.eigh(Xc.T @ Xc / (n - 1))
                        top = V[:, np.argsort(w)[::-1][:d]]
                        cos = principal_angle_cosines(sub.basis, top)
                        assert np.all(cos > 1 - 1e-8)

    def test_cov_and_gram_paths_agree(self):
        # Covariance route (D <= n) and Gram route (D > n) both reproduce the
        # eigenvalues and sign-fixed basis of the explicit covariance eigh.
        rng = np.random.default_rng(3)
        for n, D in [(50, 8), (9, 20), (30, 30)]:
            X = rng.normal(size=(n, D))
            d = min(n - 1, D, 5)
            sub = pca(X, d)
            Xc = X - X.mean(axis=0)
            w, V = np.linalg.eigh(Xc.T @ Xc / (n - 1))
            order = np.argsort(w)[::-1][:d]
            top = V[:, order]
            top *= np.where(top[np.argmax(np.abs(top), axis=0), range(d)] < 0, -1, 1)
            npt.assert_allclose(sub.basis, top, atol=1e-8)
            npt.assert_allclose(sub.eigenvalues, w[order], atol=1e-8)

    def test_float32_input_gives_the_bits_of_its_upcast(self):
        rng = np.random.default_rng(11)
        for n, D in ((30, 5), (6, 20)):  # covariance and Gram paths
            X = rng.normal(size=(n, D)).astype(np.float32)
            a, b = pca(X, 3), pca(X.astype(np.float64), 3)
            assert a.basis.tobytes() == b.basis.tobytes()
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()

    def test_deterministic(self):
        X = np.random.default_rng(9).normal(size=(30, 6))
        a = pca(X, 3)
        b = pca(X, 3)
        npt.assert_array_equal(a.basis, b.basis)

    def test_stats_recorded(self):
        X = np.random.default_rng(1).normal(size=(20, 4))
        Xn, stats = normalize(X)
        sub = pca(Xn, 2, stats=stats)
        assert sub.stats is stats
        assert pca(Xn, 2).stats.dim == 4  # identity default


class TestProject:
    def test_identity_projection(self):
        B = np.eye(3)[:, :2]
        npt.assert_array_equal(project(np.eye(3), B), np.eye(3)[:, :2])

    def test_hand_case(self):
        npt.assert_array_equal(
            project([[1.0, 1.0, 0.0]], np.eye(3)[:, :2]), [[1.0, 1.0]]
        )

    def test_non_expansive(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 6))
        B = random_orthonormal(rng, 6, 3)
        P = project(X, B)
        assert np.all(
            np.linalg.norm(P, axis=1) <= np.linalg.norm(X, axis=1) + 1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            project(np.ones((2, 3)), np.ones((4, 2)))

    def test_projection_idempotence(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 5))
        B = random_orthonormal(rng, 5, 2)
        once = project(X, B)
        again = project(once @ B.T, B)
        npt.assert_allclose(once, again, atol=1e-8)


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        B = random_orthonormal(np.random.default_rng(0), 9, 4)
        npt.assert_allclose(principal_angle_cosines(B, B), np.ones(4), atol=1e-12)

    def test_orthogonal_subspaces(self):
        A = np.eye(4)[:, :2]
        B = np.eye(4)[:, 2:]
        npt.assert_allclose(principal_angle_cosines(A, B), np.zeros(2), atol=1e-15)

    def test_45_degree_plane(self):
        A = np.eye(2)[:, :1]
        B = np.array([[1.0], [1.0]]) / RT2
        npt.assert_allclose(principal_angle_cosines(A, B), [RT2 / 2], atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        A = random_orthonormal(rng, 10, 3)
        B = random_orthonormal(rng, 10, 5)
        npt.assert_allclose(
            principal_angle_cosines(A, B),
            principal_angle_cosines(B, A),
            atol=1e-10,
        )

    def test_ambient_mismatch(self):
        with pytest.raises(DataError):
            principal_angle_cosines(np.eye(3)[:, :1], np.eye(4)[:, :1])

    def test_accepts_subspace_objects(self):
        X = np.random.default_rng(3).normal(size=(30, 5))
        sub = pca(X, 2)
        npt.assert_allclose(
            principal_angle_cosines(sub, sub), np.ones(2), atol=1e-12
        )


class TestSubspaceSimilarity:
    def test_identical_d100(self):
        B = np.eye(120)[:, :100]
        assert subspace_similarity(B, B) == pytest.approx(10.0, abs=1e-10)

    def test_orthogonal(self):
        assert subspace_similarity(np.eye(4)[:, :2], np.eye(4)[:, 2:]) == 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        A = random_orthonormal(rng, 8, 3)
        Q = random_orthonormal(rng, 3, 3)
        assert subspace_similarity(A, A @ Q) == pytest.approx(
            math.sqrt(3), abs=1e-8
        )
        B = random_orthonormal(rng, 8, 3)
        assert subspace_similarity(A, B @ Q) == pytest.approx(
            subspace_similarity(A, B), abs=1e-8
        )

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            A = random_orthonormal(rng, 7, 3)
            B = random_orthonormal(rng, 7, 3)
            s = subspace_similarity(A, B)
            assert 0.0 <= s <= math.sqrt(3) + 1e-10


class TestSubspaceType:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(DataError, match="orthonormal"):
            Subspace(
                basis=np.ones((4, 2)),
                eigenvalues=np.array([2.0, 1.0]),
                stats=identity_stats(4),
            )

    def test_rejects_increasing_eigenvalues(self):
        with pytest.raises(DataError, match="nonincreasing"):
            Subspace(
                basis=np.eye(4)[:, :2],
                eigenvalues=np.array([1.0, 2.0]),
                stats=identity_stats(4),
            )

    def test_clamps_tiny_negative_eigenvalues(self):
        sub = Subspace(
            basis=np.eye(4)[:, :2],
            eigenvalues=np.array([1.0, -1e-12]),
            stats=identity_stats(4),
        )
        assert sub.eigenvalues[1] == 0.0

    @pytest.mark.parametrize("where", ["basis", "eigenvalues"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, where, value):
        # NaN fails no orthonormality or ordering comparison, so it needs
        # its own check.
        parts = {"basis": np.eye(4)[:, :2], "eigenvalues": np.array([2.0, 1.0])}
        parts[where] = parts[where].copy()
        parts[where].flat[-1] = value
        with pytest.raises(DataError, match="must be finite"):
            Subspace(stats=identity_stats(4), **parts)


@pytest.mark.parametrize("shape", [(0,), (1,), (7,), (50, 4)])
@pytest.mark.parametrize("dtype", [np.intp, np.uint64])
def test_sorted_distinct_is_np_unique(shape, dtype):
    values = np.random.default_rng(3).integers(0, 9, size=shape).astype(dtype)
    got = sorted_distinct(values)
    want = np.unique(values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

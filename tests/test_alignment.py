import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aligndet.alignment import (
    aligned_source_basis,
    alignment_objective,
    project_for_testing,
    project_for_training,
    solve_alignment,
)
from aligndet.errors import DataError
from aligndet.linalg import (
    NormalizationStats,
    Subspace,
    identity_stats,
    principal_angle_cosines,
    project,
    subspace_similarity,
)
from oracles import brute_force_objective, gd_align, project_target, random_orthonormal


def make_subspace(basis):
    basis = np.asarray(basis, dtype=float)
    d = basis.shape[1]
    return Subspace(
        basis=basis,
        eigenvalues=np.ones(d),
        stats=identity_stats(basis.shape[0]),
    )


def random_pair(seed, ambient=10, d=3):
    rng = np.random.default_rng(seed)
    S = make_subspace(random_orthonormal(rng, ambient, d))
    T = make_subspace(random_orthonormal(rng, ambient, d))
    return S, T


class TestObjective:
    def test_exact_alignment_is_zero(self):
        S, _ = random_pair(0)
        assert alignment_objective(np.eye(3), S, S) == pytest.approx(0.0, abs=1e-20)

    def test_zero_map_gives_d(self):
        S, T = random_pair(1, d=3)
        assert alignment_objective(np.zeros((3, 3)), S, T) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        S, T = random_pair(2)
        M = rng.normal(size=(3, 3))
        assert alignment_objective(M, S, T) == pytest.approx(
            brute_force_objective(M, S.basis, T.basis), rel=1e-12
        )

    def test_shape_mismatch(self):
        S, T = random_pair(3)
        with pytest.raises(DataError):
            alignment_objective(np.zeros((2, 3)), S, T)

    def test_unequal_subspace_dims_rejected(self):
        rng = np.random.default_rng(4)
        S = make_subspace(random_orthonormal(rng, 8, 3))
        T = make_subspace(random_orthonormal(rng, 8, 4))
        with pytest.raises(DataError, match="rejected rather than padded"):
            alignment_objective(np.zeros((3, 3)), S, T)


class TestSolveAlignment:
    def test_identity_when_target_equals_source(self):
        S, _ = random_pair(5)
        npt.assert_allclose(solve_alignment(S, S), np.eye(3), atol=1e-10)

    def test_zero_when_orthogonal(self):
        S = make_subspace(np.eye(6)[:, :2])
        T = make_subspace(np.eye(6)[:, 2:4])
        npt.assert_allclose(solve_alignment(S, T), np.zeros((2, 2)), atol=1e-15)

    def test_matches_gradient_descent_oracle(self):
        pairs = [random_pair(seed, ambient=20, d=4) for seed in range(3)]
        Bs = np.stack([S.basis for S, _ in pairs])
        Bt = np.stack([T.basis for _, T in pairs])
        M_gd = gd_align(Bs, Bt, lr=0.01, iters=100_000)
        for k, (S, T) in enumerate(pairs):
            M = solve_alignment(S, T)
            assert np.linalg.norm(M - M_gd[k]) < 1e-4

    def test_ambient_mismatch(self):
        rng = np.random.default_rng(7)
        S = make_subspace(random_orthonormal(rng, 8, 3))
        T = make_subspace(random_orthonormal(rng, 9, 3))
        with pytest.raises(DataError):
            solve_alignment(S, T)

    def test_contraction(self):
        for seed in range(10):
            S, T = random_pair(seed, ambient=12, d=4)
            svals = np.linalg.svd(solve_alignment(S, T), compute_uv=False)
            assert np.all(svals <= 1.0 + 1e-10)
            assert np.all(svals >= 0.0)

    def test_first_order_stationarity(self):
        S, T = random_pair(8)
        M = solve_alignment(S, T)
        grad = 2.0 * S.basis.T @ (S.basis @ M - T.basis)
        assert np.linalg.norm(grad) < 1e-8

    def test_optimality_under_perturbations(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            S, T = random_pair(100 + seed, ambient=12, d=3)
            M = solve_alignment(S, T)
            base = alignment_objective(M, S, T)
            for _ in range(100):
                delta = rng.normal(size=(3, 3))
                delta *= 0.01 / np.linalg.norm(delta)
                assert alignment_objective(M + delta, S, T) >= base - 1e-12

    def test_frobenius_norm_ties_to_similarity(self):
        # ||M*||_F^2 equals the sum of squared principal-angle cosines.
        for seed in range(10):
            S, T = random_pair(seed, ambient=15, d=4)
            M = solve_alignment(S, T)
            cos = principal_angle_cosines(S, T)
            assert np.linalg.norm(M) ** 2 == pytest.approx(
                np.sum(cos**2), abs=1e-8
            )
            assert np.linalg.norm(M) == pytest.approx(
                subspace_similarity(S, T), abs=1e-10
            )


class TestAlignedBasis:
    def test_identity_map_returns_source_basis(self):
        S, _ = random_pair(10)
        npt.assert_array_equal(aligned_source_basis(S, np.eye(3)), S.basis)

    def test_target_equals_source_case(self):
        S, _ = random_pair(11)
        Xa = aligned_source_basis(S, solve_alignment(S, S))
        npt.assert_allclose(Xa, S.basis, atol=1e-10)

    def test_orthogonal_pair_gives_zero(self):
        S = make_subspace(np.eye(6)[:, :2])
        T = make_subspace(np.eye(6)[:, 2:4])
        Xa = aligned_source_basis(S, solve_alignment(S, T))
        npt.assert_allclose(Xa, np.zeros((6, 2)), atol=1e-15)

    def test_dim_mismatch(self):
        S, T = random_pair(13)
        with pytest.raises(DataError):
            aligned_source_basis(S, np.eye(4))

    def test_rejects_non_finite_map(self):
        S, _ = random_pair(19)
        with pytest.raises(DataError, match="non-finite"):
            aligned_source_basis(S, np.full((3, 3), np.inf))


class TestProjections:
    def test_identity_alignment_reduces_to_pca_projection(self):
        rng = np.random.default_rng(14)
        S, _ = random_pair(14)
        X = rng.normal(size=(20, 10))
        Xa = aligned_source_basis(S, solve_alignment(S, S))
        npt.assert_allclose(
            project_for_training(X, Xa), project(X, S.basis), atol=1e-10
        )

    def test_zero_alignment_gives_zeros(self):
        S = make_subspace(np.eye(6)[:, :2])
        T = make_subspace(np.eye(6)[:, 2:4])
        Xa = aligned_source_basis(S, solve_alignment(S, T))
        out = project_for_training(np.ones((5, 6)), Xa)
        npt.assert_allclose(out, np.zeros((5, 2)), atol=1e-14)

    def test_two_step_associativity(self):
        rng = np.random.default_rng(15)
        S, T = random_pair(15)
        X = rng.normal(size=(25, 10))
        M = solve_alignment(S, T)
        Xa = aligned_source_basis(S, M)
        one_step = project_for_training(X, Xa)
        two_step = project(X, S.basis) @ M
        npt.assert_allclose(one_step, two_step, atol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 40), st.integers(1, 8)),
        n=st.integers(1, 20),
        bias=st.floats(-1e3, 1e3),
    )
    def test_testing_projects_on_target_basis_alone(self, seed, shape, n, bias):
        # The folded detector scores raw rows exactly as the unfolded path
        # does: z-score with T's stats, project on T's basis, score.
        D, d = shape[0], min(shape)
        rng = np.random.default_rng(seed)
        stats = NormalizationStats(
            rng.normal(scale=10.0, size=D), np.exp(rng.uniform(-3.0, 3.0, size=D))
        )
        T = Subspace(random_orthonormal(rng, D, d), np.ones(d), stats)
        w = rng.normal(size=d)
        X = rng.normal(loc=stats.mean, scale=5.0 * stats.scale, size=(n, D))
        v, c = project_for_testing(w, bias, T)
        expected = project_target(X, T) @ w + bias
        assert np.all(np.abs(X @ v + c - expected) <= 1e-12 * (1.0 + np.abs(expected)))

    def test_testing_non_expansive(self):
        # |basis @ w| = |w| for orthonormal columns, so the folded weights
        # in normalized units never outgrow the aligned-frame ones.
        rng = np.random.default_rng(17)
        _, T0 = random_pair(17)
        stats = NormalizationStats(rng.normal(size=10), rng.uniform(0.1, 5.0, 10))
        T = Subspace(T0.basis, T0.eigenvalues, stats)
        for _ in range(20):
            w = rng.normal(size=T.d)
            v, _ = project_for_testing(w, 0.5, T)
            assert np.linalg.norm(v * T.stats.scale) <= np.linalg.norm(w) + 1e-12

    def test_dim_mismatches(self):
        S, T = random_pair(18)
        Xa = aligned_source_basis(S, solve_alignment(S, T))
        with pytest.raises(DataError):
            project_for_training(np.ones((4, 7)), Xa)
        for w in (np.ones(T.d + 1), np.ones(T.d - 1), np.ones((T.d, 1))):
            with pytest.raises(DataError, match="detector weights"):
                project_for_testing(w, 0.0, T)

    def test_rejects_non_finite_aligned_basis(self):
        Xa = np.zeros((10, 3))
        Xa[0, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            project_for_training(np.ones((4, 10)), Xa)

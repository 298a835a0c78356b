"""Closed-form alignment of a source subspace to a target subspace, and the
projection conventions used for training and test data.

Every function works on plain arrays: the alignment map ``M`` is d x d, the
aligned source basis ``Xa`` D x d.  Source data is projected for retraining;
the test-time projection is folded into the retrained detector instead, so
proposals are scored raw.  Which class a pair belongs to is checked by the
adaptation state that holds it.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericalError
from .linalg import Subspace, project

_CONTRACTION_TOL = 1e-8


def _check_pair(S: Subspace, T: Subspace) -> None:
    if S.ambient_dim != T.ambient_dim:
        raise DataError(
            f"ambient dimensions differ: {S.ambient_dim} vs {T.ambient_dim}"
        )
    if S.d != T.d:
        raise DataError(
            f"subspace dimensions must match, got {S.d} and {T.d}; "
            "unequal dimensions are rejected rather than padded"
        )


def alignment_objective(M, S: Subspace, T: Subspace) -> float:
    """Squared Frobenius misfit of mapping S's basis onto T's with ``M``."""
    _check_pair(S, T)
    M = np.asarray(M, dtype=np.float64)
    if M.shape != (S.d, T.d):
        raise DataError(f"M must be {S.d}x{T.d}, got {M.shape}")
    R = S.basis @ M - T.basis
    return float(np.sum(R * R))


def solve_alignment(S: Subspace, T: Subspace) -> np.ndarray:
    """Minimizer ``M`` (d x d) of :func:`alignment_objective`.

    Closed form: the product of the transposed source basis and the target
    basis.  As a product of matrices with orthonormal columns it is a
    contraction (every singular value in [0, 1]).
    """
    _check_pair(S, T)
    M = S.basis.T @ T.basis
    if np.linalg.norm(M, 2) > 1.0 + _CONTRACTION_TOL:
        raise NumericalError("alignment map exceeds the contraction bound")
    return M


def aligned_source_basis(S: Subspace, M) -> np.ndarray:
    """Source basis carried into the target frame: ``Xa = basis_S @ M``."""
    return project(S.basis, M)


def project_for_training(X_src, Xa) -> np.ndarray:
    """Project source data (already normalized with S's stats) for retraining.

    Returns ``X_src @ Xa`` (n x d), the representation the adapted classifier
    is trained in.
    """
    return project(X_src, Xa)


def project_for_testing(w, b: float, T: Subspace) -> tuple[np.ndarray, float]:
    """Fold the test-time projection into an aligned-frame detector ``(w, b)``.

    Test-time data goes through the target subspace alone, not the aligned
    basis; the asymmetry is deliberate.  So a raw target row ``x`` scores
    ``((x - mean) / scale) @ basis @ w + b`` (T's stats and basis), which is
    ``x @ v + c`` for the returned ``v = basis @ w / scale``, ``c = b - mean @ v``.
    """
    if np.shape(w) != (T.d,):
        raise DataError(f"detector weights have shape {np.shape(w)}, need ({T.d},)")
    v = (T.basis @ w) / T.stats.scale
    return v, float(b - T.stats.mean @ v)

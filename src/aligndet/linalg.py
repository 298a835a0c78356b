"""Dense numerical substrate: feature-matrix validation, blocked
matrix-vector products over float32 or float64 features, z-score
normalization, PCA subspace extraction, projections, and principal angles
between subspaces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

# Eigenvalues of a sample covariance may dip slightly negative; anything
# below this is a real anomaly, anything above is clamped to zero.
EIGENVALUE_FLOOR = -1e-10
# ``matvec`` upcasts, and the trainer gathers, feature rows in blocks of at
# most this many floats (512 KiB of float64), so neither makes a temporary
# the size of the whole feature array.
GATHER_FLOATS = 1 << 16


def as_feature_matrix(X, name: str = "X") -> np.ndarray:
    """``X`` as an (n, D) matrix with n >= 1 and D >= 1, its entries not
    checked: a float32 array as it is (the dtype feature files hold; see
    ``matvec``), anything else coerced to float64."""
    if isinstance(X, np.ndarray) and X.dtype == np.float32:
        A = X
    else:
        A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional, got shape {A.shape}")
    n, D = A.shape
    if n < 1 or D < 1:
        raise DataError(f"{name} must be at least 1x1, got {n}x{D}")
    return A


def ensure_feature_matrix(X, name: str = "X") -> np.ndarray:
    """``as_feature_matrix`` with every entry finite."""
    A = as_feature_matrix(X, name)
    if not np.all(np.isfinite(A)):
        _raise_non_finite(A, name)
    return A


def _raise_non_finite(A: np.ndarray, name: str, first_row: int = 0) -> None:
    """Name the first non-finite entry of ``A``, whose rows are those of
    ``name`` from ``first_row`` on; return when every entry is finite."""
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        r, c = bad[0]
        raise DataError(
            f"{name} has a non-finite entry at row {first_row + r}, column {c}"
        )


def matvec(X: np.ndarray, w, name: str = "X") -> np.ndarray:
    """``X @ w`` in float64 for a float32 or float64 matrix ``X`` (see
    ``as_feature_matrix``), one product per block of at most
    ``GATHER_FLOATS`` entries (one row when a row holds more).  ``w`` is
    one vector, giving n products, or a sequence of k vectors, giving a
    (k, n) array whose row c is ``matvec(X, w[c])``.

    A float32 block is upcast into one reused float64 buffer first, once
    for all the vectors.  The upcast is exact and both dtypes are cut
    into the same blocks, so a float32 array scores bit for bit like the
    float64 array holding its values, and no float64 copy of it is made;
    a float64 block is a view.  Each vector's product with a block is the
    same ``np.matmul`` whether it comes alone or in a sequence.  A
    non-finite entry of ``X`` is a DataError that names it (``name`` has a
    non-finite entry at row r, column c).  With ``w`` finite it makes its
    row's products non-finite, so ``X`` is searched only when a product
    is.
    """
    single = isinstance(w, np.ndarray) and w.ndim == 1
    ws = [w] if single else list(w)
    n, D = X.shape
    step = max(1, GATHER_FLOATS // D)
    out = np.empty((len(ws), n))
    buf = None if X.dtype == np.float64 else np.empty((min(step, n), D))
    for a in range(0, n, step):
        block = X[a : a + step]
        if buf is not None:
            np.copyto(buf[: len(block)], block)
            block = buf[: len(block)]
        for wk, row in zip(ws, out):
            np.matmul(block, wk, out=row[a : a + step])
    if not np.isfinite(out).all():
        for r in np.flatnonzero(~np.isfinite(out).all(axis=0)).tolist():
            _raise_non_finite(X[r : r + 1], name, r)
    return out[0] if single else out


@dataclass(eq=False)
class NormalizationStats:
    """Per-dimension centering and scaling used before PCA.

    Attributes
    ----------
    mean : ndarray, shape (D,)
    scale : ndarray, shape (D,)
        Strictly positive; zero-variance dimensions receive scale 1.
    """

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.scale = np.asarray(self.scale, dtype=np.float64).reshape(-1)
        if self.mean.shape != self.scale.shape:
            raise DataError("mean and scale must have equal length")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.scale))):
            raise DataError("normalization stats must be finite")
        if np.any(self.scale <= 0.0):
            raise DataError("scale entries must be strictly positive")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def identity_stats(dim: int) -> NormalizationStats:
    """Stats that leave data unchanged (zero mean, unit scale)."""
    return NormalizationStats(np.zeros(dim), np.ones(dim))


def normalize(
    X, stats: NormalizationStats | None = None
) -> tuple[np.ndarray, NormalizationStats]:
    """Z-score the columns of ``X``.

    When ``stats`` is omitted, the mean is the column mean and the scale the
    sample standard deviation (divisor n-1); zero-variance columns and n=1
    inputs fall back to scale 1 so the transform stays defined.  Supplied
    stats are applied unchanged, so each domain can be normalized with its
    own statistics.  A float32 ``X`` is read as it is, without an upcast
    copy; the statistics and the result are float64 either way.

    Returns
    -------
    (ndarray, NormalizationStats)
        The normalized matrix and the stats that produced it.
    """
    A = ensure_feature_matrix(X)
    n, D = A.shape
    if stats is None:
        # float64 statistics of a float32 ``A`` without an upcast copy; they
        # equal those of the copy bit for bit.
        mean = A.mean(axis=0, dtype=np.float64)
        if n > 1:
            scale = A.std(axis=0, ddof=1, dtype=np.float64)
            # Bit-noise variance on a constant column must not explode the
            # transform; treat it as zero variance.
            floor = 1e-12 * np.maximum(1.0, np.abs(mean))
            scale = np.where(scale <= floor, 1.0, scale)
        else:
            scale = np.ones(D)
        stats = NormalizationStats(mean, scale)
    elif stats.dim != D:
        raise DataError(
            f"stats dimension {stats.dim} does not match data dimension {D}"
        )
    Z = A - stats.mean  # float64 whatever the dtype of A
    Z /= stats.scale  # in place: one temporary, the same float operations
    return Z, stats


@dataclass(eq=False)
class Subspace:
    """Orthonormal PCA basis plus the normalization that preceded it.

    Attributes
    ----------
    basis : ndarray, shape (D, d)
        Columns are orthonormal eigenvectors, leading eigenvalue first.
    eigenvalues : ndarray, shape (d,)
        Nonincreasing, clamped to be nonnegative.
    stats : NormalizationStats
        Normalization applied to the data this subspace was fit on.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray
    stats: NormalizationStats

    def __post_init__(self):
        # C order whatever the source (an eigh slice is Fortran-ordered, a
        # basis read from a bundle's array file is not), so products with
        # the basis sum in the same order and a saved state scores exactly
        # like the live one.
        self.basis = np.ascontiguousarray(self.basis, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.basis.ndim != 2:
            raise DataError("basis must be a D x d matrix")
        D, d = self.basis.shape
        if self.eigenvalues.shape != (d,):
            raise DataError("eigenvalues must have length d")
        if self.stats.dim != D:
            raise DataError("stats dimension does not match basis rows")
        # Every comparison below is false for NaN, so non-finite entries
        # must be rejected first.
        if not (np.isfinite(self.basis).all() and np.isfinite(self.eigenvalues).all()):
            raise DataError("basis and eigenvalues must be finite")
        gram = self.basis.T @ self.basis
        if np.linalg.norm(gram - np.eye(d)) >= 1e-8:
            raise DataError("basis columns are not orthonormal")
        if np.any(np.diff(self.eigenvalues) > 1e-12):
            raise DataError("eigenvalues must be nonincreasing")
        if np.any(self.eigenvalues < EIGENVALUE_FLOOR):
            raise NumericalError("eigenvalue below numerical floor")
        self.eigenvalues = np.maximum(self.eigenvalues, 0.0)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        """Subspace dimensionality (number of basis columns)."""
        return self.basis.shape[1]


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry nonnegative (in place)."""
    idx = np.argmax(np.abs(basis), axis=0)
    flip = basis[idx, np.arange(basis.shape[1])] < 0.0
    basis[:, flip] *= -1.0
    return basis


def pca(X, d: int, stats: NormalizationStats | None = None) -> Subspace:
    """Top-``d`` PCA subspace of ``X``.

    ``X`` is expected to be normalized already (see :func:`normalize`); it is
    centered internally so the decomposition is of the covariance of ``X``.
    The eigendecomposition runs on the D x D covariance when D <= n and on
    the n x n Gram matrix otherwise, whichever is smaller.

    Parameters
    ----------
    X : array-like, shape (n, D)
    d : int
        Requested dimensionality, 1 <= d <= min(n-1, D).
    stats : NormalizationStats, optional
        Recorded on the returned subspace; defaults to identity stats.

    Raises
    ------
    DataError
        If ``d`` is out of range.
    NumericalError
        If rank(X) < d; the achievable rank is named in the message.
    """
    A = ensure_feature_matrix(X)
    n, D = A.shape
    limit = min(n - 1, D)
    if not 1 <= d <= limit:
        raise DataError(f"d={d} out of range; need 1 <= d <= min(n-1, D) = {limit}")
    if stats is None:
        stats = identity_stats(D)
    elif stats.dim != D:
        raise DataError("stats dimension does not match data dimension")

    Xc = A - A.mean(axis=0, dtype=np.float64)
    denom = n - 1

    cov = D <= n
    w, V = np.linalg.eigh((Xc.T @ Xc if cov else Xc @ Xc.T) / denom)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]

    rank_tol = max(float(w[0]), 0.0) * 1e-10
    rank = int(np.sum(w > rank_tol))
    if rank < d:
        raise NumericalError(
            f"data rank {rank} is below the requested dimension {d}; "
            "no silent truncation"
        )

    if cov:
        basis = np.array(V[:, :d])
    else:
        # Gram eigenvector u maps to the covariance eigenvector
        # X^T u / sqrt((n-1) lambda), same eigenvalue.
        basis = (Xc.T @ V[:, :d]) / np.sqrt(denom * w[:d])
    basis = _fix_signs(basis)
    eigenvalues = np.maximum(w[:d], 0.0)
    return Subspace(basis=basis, eigenvalues=eigenvalues, stats=stats)


def project(X, basis) -> np.ndarray:
    """Project row vectors onto ``basis`` columns: returns ``X @ basis`` (n x d).

    Both operands must be finite matrices with matching inner dimension.
    """
    A = ensure_feature_matrix(X)
    B = ensure_feature_matrix(basis, "basis")
    if A.shape[1] != B.shape[0]:
        raise DataError(
            f"cannot project {A.shape} data onto basis with {B.shape} shape"
        )
    return A @ B


def _as_basis(subspace_or_basis) -> np.ndarray:
    if isinstance(subspace_or_basis, Subspace):
        return subspace_or_basis.basis
    B = np.asarray(subspace_or_basis, dtype=np.float64)
    if B.ndim != 2:
        raise DataError("basis must be a D x d matrix")
    return B


def principal_angle_cosines(A, B) -> np.ndarray:
    """Cosines of the principal angles between two subspaces.

    Accepts :class:`Subspace` objects or raw D x d orthonormal bases.
    Returns the singular values of ``A.T @ B`` sorted nonincreasing, each
    clamped into [0, 1].
    """
    Ba, Bb = _as_basis(A), _as_basis(B)
    if Ba.shape[0] != Bb.shape[0]:
        raise DataError(
            f"ambient dimensions differ: {Ba.shape[0]} vs {Bb.shape[0]}"
        )
    s = np.linalg.svd(Ba.T @ Bb, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def subspace_similarity(A, B) -> float:
    """2-norm of the principal-angle cosines.

    Ranges from 0 (orthogonal subspaces) to sqrt(min(dA, dB)) (identical).
    """
    return float(np.linalg.norm(principal_angle_cosines(A, B)))

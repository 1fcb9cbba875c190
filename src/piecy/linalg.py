"""Dense linear-algebra kernels for stream summarization.

Provides the randomized truncated SVD (Halko, Martinsson and Tropp, SIAM
Review 2011), projection onto its best-fit subspace, and a weighted variant
that reproduces the subspace of a row-duplicated matrix. Points are stored
one per row throughout. The decomposition ends in one dense thin SVD, of
the matrix's projection onto a Gaussian sketch of its column space; a
sketch as wide as the matrix's smaller side spans the whole column space,
so the result is then exact up to roundoff.

Every operation is pure with respect to its inputs and Projector values are
immutable once built, so results can move freely between threads.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_OVERSAMPLE = 10
DEFAULT_POWER_ITERATIONS = 2

#: Singular values below this fraction of the largest one are clamped to 0.
_SIGMA_CLIP = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a dense, finite, float64 matrix with one point per row."""
    mat = np.ascontiguousarray(a, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={mat.ndim}")
    if mat.shape[1] < 1:
        raise ValueError("matrix must have at least one column")
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains non-finite entries")
    return mat


@dataclass(frozen=True)
class SvdTruncation:
    """Configuration for the randomized truncated SVD."""

    rank: int
    oversample: int = DEFAULT_OVERSAMPLE
    power_iterations: int = DEFAULT_POWER_ITERATIONS
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.oversample < 0:
            raise ValueError("oversample must be >= 0")
        if self.power_iterations < 0:
            raise ValueError("power_iterations must be >= 0")


@dataclass(frozen=True)
class Projector:
    """Rank-l best-fit subspace: orthonormal right singular vectors plus
    the retained singular values (nonincreasing)."""

    vectors: np.ndarray         # (d, rank), orthonormal columns
    singular_values: np.ndarray  # (rank,)

    def __post_init__(self):
        self.vectors.setflags(write=False)
        self.singular_values.setflags(write=False)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column nonnegative."""
    out = np.array(vectors, copy=True)
    mag = np.abs(out)
    # a zero column gives row 0, and its +-0 entry is not negative
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = out[first, np.arange(out.shape[1])] < 0.0
    out[:, flip] = -out[:, flip]
    return out


def _clip_small(sigma: np.ndarray) -> np.ndarray:
    if sigma.size and sigma[0] > 0.0:
        sigma[sigma < _SIGMA_CLIP * sigma[0]] = 0.0
    return sigma


def randomized_truncated_svd(a, trunc: SvdTruncation) -> Projector:
    """Approximate top-``rank`` Projector via Gaussian sketching.

    Sketches the column space with r = rank + oversample Gaussian directions
    (with power iterations for spectral-gap sharpening) into an orthonormal
    Q, then takes the dense SVD of the small r-by-cols matrix Q^T A. Fully
    reproducible for a fixed seed.
    """
    mat = as_matrix(a)
    rows, cols = mat.shape
    ell = trunc.rank
    r = ell + trunc.oversample
    if r > min(rows, cols):
        raise ValueError(
            f"rank + oversample = {r} exceeds min(rows, cols) = {min(rows, cols)}"
        )

    rng = np.random.default_rng(trunc.seed)
    omega = rng.standard_normal((cols, r))
    q, _ = np.linalg.qr(mat @ omega)
    for _ in range(trunc.power_iterations):
        z, _ = np.linalg.qr(mat.T @ q)
        q, _ = np.linalg.qr(mat @ z)
    _, sigma, vt = np.linalg.svd(q.T @ mat, full_matrices=False)
    return Projector(_fix_signs(vt[:ell].T), _clip_small(sigma[:ell]))


def project(a, projector: Projector, basis: np.ndarray) -> np.ndarray:
    """Coordinates of the rows of ``a``, projected onto the subspace, in
    ``basis``: a (d, m) matrix with orthonormal columns whose span contains
    the subspace. The result is (A V)(V^T Q) = (A V V^T) Q, computed without
    forming the d-dimensional projected rows.
    """
    mat = as_matrix(a)
    v = projector.vectors
    if mat.shape[1] != v.shape[0]:
        raise ValueError(
            f"matrix has {mat.shape[1]} columns but the projector expects {v.shape[0]}"
        )
    if basis.shape[0] != v.shape[0]:
        raise ValueError(
            f"basis has {basis.shape[0]} rows but the projector expects {v.shape[0]}"
        )
    return (mat @ v) @ (v.T @ basis)


def weighted_best_fit(points, weights, trunc: SvdTruncation) -> Projector:
    """Best-fit subspace of the multiset where row i appears ``weights[i]``
    times, computed without materializing the duplicates.

    Scaling row i by sqrt(w_i) preserves every right singular vector of the
    duplicated matrix, so the decomposition runs on the scaled matrix. The
    caller's points and weights are untouched; project the original
    (unscaled) rows with the result.
    """
    mat = as_matrix(points)
    w = np.asarray(weights)
    if w.ndim != 1 or w.shape[0] != mat.shape[0]:
        raise ValueError("weights must be one per row")
    if not (np.all(w >= 1) and np.all(w % 1 == 0)):
        raise ValueError("weights must be positive integers (>= 1)")
    scaled = mat * np.sqrt(w.astype(np.float64))[:, None]
    return randomized_truncated_svd(scaled, trunc)

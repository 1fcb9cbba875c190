"""Dense linear-algebra kernels for stream summarization.

Provides the randomized truncated SVD (Halko, Martinsson and Tropp, SIAM
Review 2011), projection onto its best-fit subspace, and a weighted variant
that reproduces the subspace of a row-duplicated matrix. Points are stored
one per row throughout. The decomposition ends in one dense thin SVD, of
the matrix's projection onto a Gaussian sketch of its column space; a
sketch as wide as the matrix's smaller side spans the whole column space,
so the result is then exact up to roundoff.

The decompositions return the subspace itself: a read-only (cols, rank)
array of orthonormal right singular vectors. Every operation is pure with
respect to its inputs, so results can move freely between threads. The
number of power iterations is fixed at ``DEFAULT_POWER_ITERATIONS``.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

DEFAULT_OVERSAMPLE = 10
DEFAULT_POWER_ITERATIONS = 2


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
    seed: int = 0
    power_iterations: ClassVar[int] = DEFAULT_POWER_ITERATIONS

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.oversample < 0:
            raise ValueError("oversample must be >= 0")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column nonnegative."""
    out = np.array(vectors, copy=True)
    mag = np.abs(out)
    # a zero column gives row 0, and its +-0 entry is not negative
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = out[first, np.arange(out.shape[1])] < 0.0
    out[:, flip] = -out[:, flip]
    return out


def randomized_truncated_svd(a, trunc: SvdTruncation) -> np.ndarray:
    """Approximate top-``rank`` right singular vectors via Gaussian sketching.

    Sketches the column space with r = rank + oversample Gaussian directions
    (sharpened by ``DEFAULT_POWER_ITERATIONS`` power iterations) into an
    orthonormal Q, then takes the dense SVD of the small r-by-cols matrix
    Q^T A. Returns the read-only (cols, rank) basis V, each column's first
    non-negligible component nonnegative. Fully reproducible for a fixed
    seed.
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
    _, _, vt = np.linalg.svd(q.T @ mat, full_matrices=False)
    v = _fix_signs(vt[:ell].T)
    v.setflags(write=False)
    return v


def project(a, v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates of the rows of ``a``, projected onto the span of ``v``
    (a (d, rank) basis as the decompositions return it), in ``basis``: a
    (d, m) matrix with orthonormal columns whose span contains ``v``'s. The
    result is (A V)(V^T Q) = (A V V^T) Q, computed without forming the
    d-dimensional projected rows.
    """
    mat = as_matrix(a)
    if mat.shape[1] != v.shape[0]:
        raise ValueError(
            f"matrix has {mat.shape[1]} columns but the subspace expects {v.shape[0]}"
        )
    if basis.shape[0] != v.shape[0]:
        raise ValueError(
            f"basis has {basis.shape[0]} rows but the subspace expects {v.shape[0]}"
        )
    return (mat @ v) @ (v.T @ basis)


def weighted_best_fit(points, weights, trunc: SvdTruncation) -> np.ndarray:
    """Best-fit subspace of the multiset where row i appears ``weights[i]``
    times, computed without materializing the duplicates.

    Scaling row i by sqrt(w_i) preserves every right singular vector of the
    duplicated matrix, so the decomposition runs on the scaled matrix and
    returns its read-only (cols, rank) basis, as ``randomized_truncated_svd``
    does. The caller's points and weights are untouched; project the
    original (unscaled) rows with the result.
    """
    mat = as_matrix(points)
    w = np.asarray(weights)
    if w.ndim != 1 or w.shape[0] != mat.shape[0]:
        raise ValueError("weights must be one per row")
    if not (np.all(w >= 1) and np.all(w % 1 == 0)):
        raise ValueError("weights must be positive integers (>= 1)")
    scaled = mat * np.sqrt(w.astype(np.float64))[:, None]
    return randomized_truncated_svd(scaled, trunc)

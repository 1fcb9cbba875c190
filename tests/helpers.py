"""Shared test utilities and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
Jacobi eigensolver uses plain rotations, costs are brute-force double
loops, and the copy-by-copy insertion simulator recomputes the true SSE
from scratch at every step.

The exact references the library does not ship live here too:
``exact_truncated_svd`` and ``spectrum`` take one thin ``np.linalg.svd``,
``ambient_projection`` and ``reconstruction_error`` project rows in the
ambient dimension, and ``insertion_error_increment`` is the closed-form SSE
increase of a weighted insert. ``full_sketch`` configures the library's
randomized SVD with a sketch as wide as the matrix's smaller side, which
spans the whole column space and so makes that backend exact up to
roundoff.
"""

import numpy as np

from piecy.linalg import Projector, SvdTruncation


def exact_truncated_svd(a, rank: int) -> Projector:
    """Top-``rank`` right singular vectors and values of one thin SVD."""
    _, sigma, vt = np.linalg.svd(np.asarray(a, dtype=np.float64), full_matrices=False)
    return Projector(vt[:rank].T, sigma[:rank])


def spectrum(a, count: int) -> np.ndarray:
    """Top ``count`` singular values of one thin SVD, nonincreasing."""
    return np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)[:count]


def ambient_projection(a, projector: Projector) -> np.ndarray:
    """Rows of ``a`` projected onto the subspace, in the ambient dimension:
    A V V^T."""
    v = projector.vectors
    return (np.asarray(a, dtype=np.float64) @ v) @ v.T


def reconstruction_error(a, projector: Projector) -> float:
    """Squared Frobenius norm of A minus its projection."""
    resid = np.asarray(a, dtype=np.float64) - ambient_projection(a, projector)
    return float(np.einsum("ij,ij->", resid, resid))


def insertion_error_increment(group_weight: int, copies: int, dist_sq: float) -> float:
    """SSE increase from adding ``copies`` copies of one point at squared
    distance ``dist_sq`` from the centroid of a group of total weight
    ``group_weight``: s*w/(s+w) * dist_sq."""
    return group_weight * copies / (group_weight + copies) * dist_sq


def full_sketch(a, rank: int, seed: int = 0) -> SvdTruncation:
    """A randomized-SVD configuration whose sketch has r = min(rows, cols)
    columns (no fewer than ``rank``), so it spans the whole column space."""
    rows, cols = np.shape(a)
    return SvdTruncation(rank, oversample=max(min(rows, cols) - rank, 0), seed=seed)


def jacobi_eigh(sym, sweeps: int = 100, tol: float = 1e-14):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues sorted in decreasing order. Independent of any
    LAPACK-backed path.
    """
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    scale = max(np.abs(a).max(), 1.0)
    for _ in range(sweeps):
        off = np.sqrt(max((a**2).sum() - (np.diag(a)**2).sum(), 0.0))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    return np.sort(np.diag(a))[::-1]


def principal_angles(basis_a, basis_b) -> np.ndarray:
    """Principal angles (radians) between the column spans.

    Sine-based formula (singular values of the residual of one basis after
    projecting out the other), which stays accurate for tiny angles where
    arccos of a near-1 cosine loses half the digits.
    """
    qa, _ = np.linalg.qr(np.asarray(basis_a, dtype=np.float64))
    qb, _ = np.linalg.qr(np.asarray(basis_b, dtype=np.float64))
    resid = qb - qa @ (qa.T @ qb)
    sines = np.linalg.svd(resid, compute_uv=False)
    return np.arcsin(np.clip(sines, 0.0, 1.0))


def brute_weighted_sse(points, weights, center) -> float:
    """Double-loop weighted SSE to one center."""
    total = 0.0
    for x, w in zip(points, weights):
        diff = np.asarray(x, dtype=np.float64) - center
        total += w * float(diff @ diff)
    return total


def simulate_copy_insertions(group_points, new_point, copies, threshold):
    """Insert copies of ``new_point`` (1-d values) one at a time into the
    group, recomputing the true SSE from scratch each step; stop before the
    SSE would exceed the threshold. Returns how many copies fit."""
    pts = [float(v) for v in group_points]
    inserted = 0
    for _ in range(copies):
        trial = np.array(pts + [float(new_point)])
        sse = float(((trial - trial.mean()) ** 2).sum())
        if sse > threshold:
            break
        pts.append(float(new_point))
        inserted += 1
    return inserted


def feature_multiset(engine):
    """Features sorted by a flow-independent key (reference, level)."""
    return sorted(engine.features(),
                  key=lambda lf: (tuple(lf[1].reference), lf[0], lf[1].weight))


def assert_same_features(engine_a, engine_b, rtol: float = 1e-9):
    a = feature_multiset(engine_a)
    b = feature_multiset(engine_b)
    assert len(a) == len(b), f"feature counts differ: {len(a)} vs {len(b)}"
    for (lev_a, fa), (lev_b, fb) in zip(a, b):
        assert lev_a == lev_b
        assert fa.weight == fb.weight
        assert np.array_equal(fa.reference, fb.reference)
        assert np.allclose(fa.linear_sum, fb.linear_sum, rtol=rtol, atol=1e-12)
        assert abs(fa.square_sum - fb.square_sum) <= rtol * max(1.0, abs(fa.square_sum))


def assert_identical_features(engine_a, engine_b):
    """Bit-equal features in the same traversal order."""
    a, b = engine_a.features(), engine_b.features()
    assert len(a) == len(b), f"feature counts differ: {len(a)} vs {len(b)}"
    for (lev_a, fa), (lev_b, fb) in zip(a, b):
        assert lev_a == lev_b
        assert fa.weight == fb.weight
        assert fa.square_sum == fb.square_sum
        assert np.array_equal(fa.linear_sum, fb.linear_sum)
        assert np.array_equal(fa.reference, fb.reference)


class CountingIter:
    """Wrap an iterable, counting how many items were pulled."""

    def __init__(self, iterable):
        self._iterable = iterable
        self.count = 0

    def __iter__(self):
        for item in self._iterable:
            self.count += 1
            yield item


def collect(stream) -> np.ndarray:
    return np.stack(list(stream))

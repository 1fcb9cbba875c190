"""Shared test utilities and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
Jacobi eigensolver uses plain rotations, costs are brute-force double
loops, and the copy-by-copy insertion simulator recomputes the true SSE
from scratch at every step.
"""

import numpy as np


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

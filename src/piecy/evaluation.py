"""Weighted k-means++ seeding, weighted Lloyd refinement, and cost evaluation.

Costs are always the weighted sum of squared Euclidean distances to the
nearest center. Seeding follows the D^2 rule: the first center is drawn
with probability proportional to weight, later ones proportional to
weight times squared distance to the closest center chosen so far.
"""

import math
from dataclasses import dataclass

import numpy as np

from .streams import block_rows, iter_blocks
from .util import mix_seed

DEFAULT_REPETITIONS = 5
DEFAULT_MAX_ITERS = 100
DEFAULT_TOL = 1e-4


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array (one point per row)")
    return pts


def _as_weights(weights, count: int) -> np.ndarray:
    if weights is None:
        return np.ones(count)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (count,):
        raise ValueError("weights must be one per point")
    if not np.all(w > 0):
        raise ValueError("weights must be positive")
    return w


def sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (len(points), len(centers))."""
    d2 = points @ centers.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", points, points)[:, None]
    d2 += np.einsum("ij,ij->i", centers, centers)[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _draw(rng: np.random.Generator, mass: np.ndarray) -> int:
    """Index drawn with probability proportional to ``mass`` (nonnegative)."""
    cum = np.cumsum(mass)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


def kmeanspp_seed(points, weights, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k`` centers by the weighted D^2 rule.

    Repetition of a location can only happen once every distinct point is
    already a center (all remaining D^2 mass zero); then the draw falls
    back to plain weight-proportional sampling.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot seed centers from an empty point set")
    if k < 1:
        raise ValueError("k must be >= 1")
    w = _as_weights(weights, n)

    centers = np.empty((k, pts.shape[1]))
    idx = _draw(rng, w)
    centers[0] = pts[idx]
    diff = pts - centers[0]
    best = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
        mass = w * best
        idx = _draw(rng, mass) if mass.sum() > 0.0 else _draw(rng, w)
        centers[j] = pts[idx]
        np.subtract(pts, centers[j], out=diff)
        np.minimum(best, np.einsum("ij,ij->i", diff, diff), out=best)
    return centers


def lloyd_iterate(points, weights, centers, max_iters: int = DEFAULT_MAX_ITERS,
                  tol: float = DEFAULT_TOL, cost_log: list | None = None) -> np.ndarray:
    """Alternate weighted assignment and weighted centroid updates.

    Stops when the cost decrease drops below ``tol`` relative or after
    ``max_iters`` iterations; the assignment cost never increases. A center
    that loses all its points is re-seeded at the point with the largest
    weighted squared distance to its nearest center, which also cannot
    increase the cost.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    w = _as_weights(weights, n)
    ctr = np.array(centers, dtype=np.float64, copy=True)
    if ctr.ndim != 2 or ctr.shape[1] != pts.shape[1]:
        raise ValueError("centers must match the point dimension")
    k = ctr.shape[0]

    prev_cost = math.inf
    for _ in range(max_iters):
        d2 = sq_distances(pts, ctr)
        assign = d2.argmin(axis=1)
        best = d2[np.arange(n), assign]

        occupied = np.bincount(assign, minlength=k) > 0
        while not occupied.all():
            gain = w * best
            if gain.max() <= 0.0:
                break  # every point already sits on a center; nothing to move
            empty = int(np.flatnonzero(~occupied)[0])
            far = int(np.argmax(gain))
            ctr[empty] = pts[far]
            diff = pts - ctr[empty]
            cand = np.einsum("ij,ij->i", diff, diff)
            closer = cand < best
            assign[closer] = empty
            best[closer] = cand[closer]
            assign[far] = empty
            best[far] = 0.0
            occupied = np.bincount(assign, minlength=k) > 0

        cost = float(w @ best)
        if cost_log is not None:
            cost_log.append(cost)
        if math.isfinite(prev_cost) and prev_cost - cost <= tol * prev_cost:
            break
        prev_cost = cost

        onehot = np.zeros((n, k))
        onehot[np.arange(n), assign] = w
        mass = onehot.sum(axis=0)
        filled = mass > 0
        updated = (onehot.T @ pts) / np.where(filled, mass, 1.0)[:, None]
        ctr = np.where(filled[:, None], updated, ctr)
    return ctr


def weighted_cost(points, weights, centers) -> float:
    """Weighted SSE of points against their nearest center."""
    pts = _as_points(points)
    w = _as_weights(weights, pts.shape[0])
    ctr = np.asarray(centers, dtype=np.float64)
    if pts.shape[0] == 0:
        return 0.0
    return float(w @ sq_distances(pts, ctr).min(axis=1))


def evaluate_cost_multi(center_sets, point_stream) -> list:
    """Streaming SSE of the same stream against several center sets at once.

    One pass covers all sets; returns one cost per set, in order. Points
    are copied into one reused buffer of ``streams.BLOCK_BYTES`` bytes
    (``streams.iter_blocks``) whatever d is, so no read block is kept alive
    past its rows; a point whose shape is not (d,) is rejected. Points and
    centers are shifted by the centers' mean before the |a|^2 - 2a.b + |b|^2
    expansion, which would otherwise cancel on coordinates far from the origin.
    """
    sets = [np.asarray(c, dtype=np.float64) for c in center_sets]
    stacked = np.vstack(sets)
    bounds = np.cumsum([0] + [c.shape[0] for c in sets])
    totals = np.zeros(len(sets))
    dim = stacked.shape[1]
    shift = stacked.mean(axis=0)
    stacked -= shift

    for rows in iter_blocks(point_stream, block_rows(8 * dim), dim):
        rows -= shift  # in place: iter_blocks' own buffer
        d2 = sq_distances(rows, stacked)
        for i in range(len(sets)):
            totals[i] += d2[:, bounds[i]:bounds[i + 1]].min(axis=1).sum()
        del d2  # free it before the next block's distances are allocated
    return [float(t) for t in totals]


@dataclass(frozen=True)
class CostSummary:
    minimum: float
    maximum: float
    average: float
    median: float

    @classmethod
    def of(cls, costs) -> "CostSummary":
        arr = np.asarray(list(costs), dtype=np.float64)
        if arr.size == 0:
            raise ValueError("no costs to summarize")
        return cls(float(arr.min()), float(arr.max()),
                   float(arr.mean()), float(np.median(arr)))


def kmeans_repetitions(points, weights, k: int, reps: int = DEFAULT_REPETITIONS,
                       seed: int = 0):
    """Run seeding plus Lloyd ``reps`` times; each repetition owns an rng
    derived from (seed, repetition index). Returns [(centers, cost), ...]."""
    results = []
    for rep in range(reps):
        rng = np.random.default_rng(mix_seed(seed, rep))
        centers = kmeanspp_seed(points, weights, k, rng)
        centers = lloyd_iterate(points, weights, centers)
        results.append((centers, weighted_cost(points, weights, centers)))
    return results

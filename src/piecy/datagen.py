"""Seeded synthetic point-stream families.

All generators stream one point at a time in O(dim) working memory and are
bit-reproducible for a fixed config: randomness comes from numpy's Philox
counter-based 64-bit generator, with uniform reals taken by 53-bit mantissa
scaling (``Generator.random``), so streams are portable across platforms.
"""

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _check_seed(seed: int) -> None:
    """Reject a seed that is not a 128-bit Philox key, before any point is made."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")


def _check_finite(**ranges: float) -> None:
    """Reject a non-finite range, before any point is made."""
    for name, value in ranges.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SwnConfig:
    """Hidden-cluster instance: ``clusters`` point sets of
    ``points_per_cluster`` points each in ``dim`` dimensions. Every cluster
    picks ``active_dims`` coordinates at random (seeded shuffle, first
    ``active_dims`` entries) where its points spread uniformly over
    [-spread, spread]; all other coordinates are uniform noise in
    [-noise, noise]."""

    clusters: int
    points_per_cluster: int
    dim: int
    active_dims: int
    spread: float = 10.0
    noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 1 or self.points_per_cluster < 1 or self.dim < 1:
            raise ValueError("clusters, points_per_cluster and dim must be >= 1")
        if not 1 <= self.active_dims <= self.dim:
            raise ValueError("active_dims must be in [1, dim]")
        _check_finite(spread=self.spread, noise=self.noise)
        if not self.spread > self.noise > 0:
            raise ValueError("need spread > noise > 0")
        _check_seed(self.seed)

    @property
    def n_points(self) -> int:
        return self.clusters * self.points_per_cluster


@dataclass(frozen=True)
class LowerBoundConfig:
    """Nested-simplex instance: a k-vertex simplex scaled by ``spread`` in
    the first k dimensions, with an (n/k)-point simplex scaled by ``noise``
    placed at each vertex on disjoint blocks of the remaining n dimensions.
    The construction is deterministic."""

    k: int
    n: int
    spread: float = 1000.0
    noise: float = 100.0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.n < self.k or self.n % self.k != 0:
            raise ValueError("n must be a positive multiple of k")
        _check_finite(spread=self.spread, noise=self.noise)
        if not self.spread > self.noise > 0:
            raise ValueError("need spread > noise > 0")

    @property
    def dim(self) -> int:
        return self.k + self.n


@dataclass(frozen=True)
class RandomConfig:
    """n-by-n cube instance: n points with all coordinates uniform on
    [-spread, spread]."""

    n: int
    spread: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        _check_finite(spread=self.spread)
        if self.spread <= 0:
            raise ValueError("spread must be positive")
        _check_seed(self.seed)

    @property
    def dim(self) -> int:
        return self.n


def structured_with_noise(cfg: SwnConfig) -> Iterator[np.ndarray]:
    """Yield the hidden-cluster points in cluster-major order."""
    rng = _rng(cfg.seed)
    for _ in range(cfg.clusters):
        active = rng.permutation(cfg.dim)[: cfg.active_dims]
        for _ in range(cfg.points_per_cluster):
            point = (2.0 * rng.random(cfg.dim) - 1.0) * cfg.noise
            point[active] = (2.0 * rng.random(cfg.active_dims) - 1.0) * cfg.spread
            yield point


def lower_bound(cfg: LowerBoundConfig) -> Iterator[np.ndarray]:
    """Yield the nested-simplex points in vertex-major order.

    Point j of vertex i has exactly two nonzero coordinates:
    ``spread`` at dimension i and ``noise`` at dimension
    k + i*(n/k) + j.
    """
    per_vertex = cfg.n // cfg.k
    for vertex in range(cfg.k):
        for j in range(per_vertex):
            point = np.zeros(cfg.k + cfg.n)
            point[vertex] = cfg.spread
            point[cfg.k + vertex * per_vertex + j] = cfg.noise
            yield point


def random_cube(cfg: RandomConfig) -> Iterator[np.ndarray]:
    """Yield n points with n iid uniform coordinates each."""
    rng = _rng(cfg.seed)
    for _ in range(cfg.n):
        yield (2.0 * rng.random(cfg.n) - 1.0) * cfg.spread

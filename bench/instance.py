"""Seeded "swn" hidden-cluster instances and the references the checks use.

The generator is the benchmark's own numpy code, independent of
``piecy.datagen``: ``clusters`` blocks of ``per_cluster`` points in
cluster-major order. Each cluster draws ``active`` coordinates at random
where its points spread uniformly over [-spread, spread]; every other
coordinate is uniform noise in [-noise, noise]. Points go straight to disk
in the ``SCPT`` binary format (magic, little-endian u32 version 1, u32
dimension, then float64 records), a few MiB at a time, so neither writing
nor the reference computations below ever hold the whole stream.
"""

import struct
from dataclasses import dataclass

import numpy as np

HEADER = struct.Struct("<4sII")
CHUNK_BYTES = 4 << 20


@dataclass(frozen=True)
class SwnSpec:
    clusters: int
    per_cluster: int
    dim: int
    active: int
    spread: float = 10.0
    noise: float = 0.5

    @property
    def n(self) -> int:
        return self.clusters * self.per_cluster


@dataclass
class References:
    """Sums over the written stream, accumulated as it is generated."""

    n: int
    sq_norm_sum: float          # sum of |x|^2
    coord_sum: np.ndarray       # sum of x, per coordinate
    coord_abs_sum: np.ndarray   # sum of |x|, per coordinate (roundoff scale)
    planted_cost: float         # SSE of the planted partition to its centroids


def chunk_rows(dim: int) -> int:
    return max(1, CHUNK_BYTES // (8 * dim))


def write_swn(path: str, spec: SwnSpec, seed) -> References:
    """Write the instance for ``seed`` (an int or a tuple of ints, as
    ``numpy.random.default_rng`` takes it) to ``path``; return its references."""
    rng = np.random.default_rng(seed)
    d = spec.dim
    rows = chunk_rows(d)
    coord_sum = np.zeros(d)
    coord_abs_sum = np.zeros(d)
    sq_norm_sum = 0.0
    planted = 0.0
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(b"SCPT", 1, d))
        for _ in range(spec.clusters):
            active = rng.permutation(d)[:spec.active]
            c_sum = np.zeros(d)
            c_sq = 0.0
            left = spec.per_cluster
            while left:
                m = min(rows, left)
                block = rng.uniform(-spec.noise, spec.noise, size=(m, d))
                block[:, active] = rng.uniform(-spec.spread, spec.spread,
                                               size=(m, spec.active))
                fh.write(block.astype("<f8", copy=False).tobytes())
                c_sum += block.sum(axis=0)
                c_sq += float(np.einsum("ij,ij->", block, block))
                coord_abs_sum += np.abs(block).sum(axis=0)
                left -= m
            coord_sum += c_sum
            sq_norm_sum += c_sq
            planted += c_sq - float(c_sum @ c_sum) / spec.per_cluster
    return References(spec.n, sq_norm_sum, coord_sum, coord_abs_sum, planted)


def read_chunks(path: str, dim: int):
    """Yield the stream's points as row blocks of a few MiB."""
    rows = chunk_rows(dim)
    with open(path, "rb") as fh:
        fh.seek(HEADER.size)
        while True:
            block = np.fromfile(fh, dtype="<f8", count=rows * dim)
            if block.size == 0:
                return
            yield block.reshape(-1, dim)


def full_costs(path: str, dim: int, center_sets) -> list:
    """SSE of the stream to each center set, from explicit differences.

    Deliberately not the |x|^2 - 2x.c + |c|^2 expansion the library uses,
    so agreement between the two is evidence, not a tautology.
    """
    totals = [0.0] * len(center_sets)
    for block in read_chunks(path, dim):
        for s, centers in enumerate(center_sets):
            best = np.full(block.shape[0], np.inf)
            for c in centers:
                diff = block - c
                np.minimum(best, np.einsum("ij,ij->i", diff, diff), out=best)
            totals[s] += float(best.sum())
    return totals

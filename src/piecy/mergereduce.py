"""Merge-and-reduce computation tree for very long high-dimensional streams.

Level 0 receives stream pieces, each projected onto its best-fit subspace
before insertion into the level-0 engine. After ``num_pieces`` pieces, the
engine's weighted coreset is extracted, dimension-reduced again with the
weight-aware decomposition, and fed to the level-1 engine; the same rule
repeats up the tree, so each level shrinks the point count by a factor of
``num_pieces``. Only one engine per level is live and at most one
projector exists at any time.

Each level's engine keeps its points in span coordinates (``SpanEngine``):
it works in an orthonormal basis of the span of the projector bases it has
received, and its summary is mapped back to the ambient dimension once, when
it is extracted for the next level's reduction. An engine receives at most
``num_pieces`` batches of rank ``svd_dim`` before it is flushed, so the bound
that keeps the intrinsic dimension entering any single engine bounded on
arbitrarily long streams now also bounds the engine's working dimension:
at most ``num_pieces * svd_dim`` coordinates, whatever d is.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .coreset import Coreset
from .linalg import SvdTruncation, project, weighted_best_fit
from .pipeline import DEFAULT_CORESET_FACTOR, SpanEngine, default_svd_dim, iter_pieces
from .util import MASK64, mix_seed


@dataclass
class MrConfig:
    k: int
    piece_size: int
    num_pieces: int
    svd_dim: int | None = None
    coreset_size: int | None = None
    oversample: int = 10
    power_iterations: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.num_pieces < 2:
            raise ValueError("num_pieces must be >= 2")
        if self.svd_dim is None:
            self.svd_dim = default_svd_dim(self.k)
        if self.coreset_size is None:
            self.coreset_size = DEFAULT_CORESET_FACTOR * self.k
        if self.svd_dim < 1:
            raise ValueError("svd_dim must be >= 1")
        if self.piece_size < self.svd_dim:
            raise ValueError("piece_size must be >= svd_dim")
        if self.coreset_size < self.k:
            raise ValueError("coreset_size must be >= k")


@dataclass
class TreeStats:
    """Instrumentation: flush schedule and structural peaks."""

    flush_sources: list = field(default_factory=list)  # level flushed, in order
    peak_live_engines: int = 0
    peak_live_projectors: int = 0
    svd_calls: int = 0
    svd_seconds: float = 0.0
    points_read: int = 0
    pieces: int = 0


class _Slot:
    __slots__ = ("engine", "batches", "flushes")

    def __init__(self):
        self.engine = None
        self.batches = 0
        self.flushes = 0


class MergeReduceTree:
    """Mutable tree state; single writer, strictly ordered operations."""

    def __init__(self, dim: int, cfg: MrConfig):
        if cfg.svd_dim > dim:
            raise ValueError(f"svd_dim {cfg.svd_dim} exceeds point dimension {dim}")
        self._dim = dim
        self._cfg = cfg
        self._levels: list[_Slot] = []
        self._piece_index = 0
        self._live_engines = 0
        self.stats = TreeStats()

    @property
    def dim(self) -> int:
        return self._dim

    def _slot(self, level: int) -> _Slot:
        while len(self._levels) <= level:
            self._levels.append(_Slot())
        return self._levels[level]

    def _engine(self, level: int) -> SpanEngine:
        slot = self._slot(level)
        if slot.engine is None:
            slot.engine = SpanEngine(self._dim, self._cfg.coreset_size, self._cfg.svd_dim)
            self._live_engines += 1
            self.stats.peak_live_engines = max(self.stats.peak_live_engines,
                                               self._live_engines)
        return slot.engine

    def _feed(self, level: int, points: np.ndarray, weights, seed: int) -> None:
        """Project onto the weighted best-fit subspace and insert into one
        level's engine; unit weights when ``weights`` is None.

        Projection is skipped when the block has fewer rows than the target
        rank (vacuous) or when the rank reaches the ambient dimension.
        """
        cfg = self._cfg
        span = self._engine(level)
        rows = points.shape[0]
        ell = cfg.svd_dim
        if ell >= self._dim or rows < ell:
            coords = span.coordinates(points)
        else:
            oversample = min(cfg.oversample, min(rows, self._dim) - ell)
            trunc = SvdTruncation(ell, oversample, cfg.power_iterations, seed=seed)
            fit_weights = np.ones(rows, dtype=np.int64) if weights is None else weights
            t0 = time.perf_counter()
            self.stats.peak_live_projectors = max(self.stats.peak_live_projectors, 1)
            projector = weighted_best_fit(points, fit_weights, trunc)
            coords = project(points, projector, span.cover(projector.vectors))
            del projector
            self.stats.svd_seconds += time.perf_counter() - t0
            self.stats.svd_calls += 1
        span.insert(coords, weights)

    def push_piece(self, piece) -> None:
        """Project one piece and feed it to level 0 with unit weights.

        Piece seeds derive as seed xor piece index, matching the
        single-engine pipeline so a one-piece tree reproduces it exactly;
        flush seeds mix (level, flush ordinal) instead.
        """
        block = np.asarray(piece, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self._dim:
            raise ValueError(f"expected a piece of dimension {self._dim}")
        if block.shape[0] > self._cfg.piece_size:
            raise ValueError("piece exceeds the configured piece size")
        self._feed(0, block, None, (self._cfg.seed ^ self._piece_index) & MASK64)
        self._piece_index += 1
        slot = self._levels[0]
        slot.batches += 1
        self.stats.pieces += 1
        self.stats.points_read += block.shape[0]
        if slot.batches == self._cfg.num_pieces:
            self._flush(0)

    def _flush(self, level: int) -> None:
        """Move one level's summary up: extract, reduce, insert weighted."""
        slot = self._levels[level]
        summary = slot.engine.extract_coreset()
        slot.engine = None
        self._live_engines -= 1
        slot.batches = 0
        slot.flushes += 1
        self.stats.flush_sources.append(level)

        self._feed(level + 1, summary.points, summary.weights,
                   mix_seed(self._cfg.seed, level + 1, slot.flushes))
        upper = self._levels[level + 1]
        upper.batches += 1
        if upper.batches == self._cfg.num_pieces:
            self._flush(level + 1)

    def finalize(self) -> Coreset:
        """Cascade every live level bottom-up and return the top summary.

        Partially filled levels flush as-is; the topmost nonempty level is
        not flushed again, its coreset is the result.
        """
        while True:
            live = [i for i, s in enumerate(self._levels) if s.engine is not None]
            if len(live) <= 1:
                break
            self._flush(live[0])
        live = [i for i, s in enumerate(self._levels) if s.engine is not None]
        if not live:
            return Coreset(np.zeros((0, self._dim)), np.zeros(0, dtype=np.int64))
        return self._levels[live[0]].engine.extract_coreset()


def run_piecy_mr(points, dim: int, cfg: MrConfig,
                 tree_out: list | None = None) -> Coreset:
    """One pass of the merge-and-reduce pipeline over unit-weight points.

    ``tree_out``, when given, receives the tree object so callers can read
    its instrumentation after the run.
    """
    tree = MergeReduceTree(dim, cfg)
    if tree_out is not None:
        tree_out.append(tree)
    for piece in iter_pieces(points, cfg.piece_size, dim):
        tree.push_piece(piece)
    return tree.finalize()

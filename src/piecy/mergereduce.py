"""Merge-and-reduce computation tree for very long high-dimensional streams.

Level 0 receives stream pieces, each projected onto its best-fit subspace
before insertion into the level-0 engine. After ``num_pieces`` pieces, the
engine's weighted coreset is extracted, dimension-reduced again with the
weight-aware decomposition, and fed to the level-1 engine; the same rule
repeats up the tree, so each level shrinks the point count by a factor of
``num_pieces``. Only one engine per level is live and at most one
projector exists at any time.

Every block, stream piece or flushed summary, goes in through
``SpanEngine.feed``, the same projected-block feed ``run_piecy`` uses, so a
tree that never flushes reproduces ``run_piecy`` exactly. ``MrConfig`` is
``PiecyConfig`` plus ``num_pieces``, and the tree counts its work in the
same ``PipelineStats`` record, whose flush schedule and live-engine peak
only the tree fills in.

Each level's engine keeps its points in span coordinates (``SpanEngine``):
it works in an orthonormal basis of the span of the projector bases it has
received, and its summary is mapped back to the ambient dimension once, when
it is extracted for the next level's reduction. An engine receives at most
``num_pieces`` batches of rank ``svd_dim`` before it is flushed, so the bound
that keeps the intrinsic dimension entering any single engine bounded on
arbitrarily long streams now also bounds the engine's working dimension:
at most ``num_pieces * svd_dim`` coordinates, whatever d is.

A level's engines share one error threshold. The first engine at a level
starts cold, from the spread of its first points; each later one starts at
the final threshold of the engine that held the level before it, so it
does not re-learn the scale of its inputs by doubling up from a small
start. The carried threshold is not lowered: within a level it never goes
down, as it never would in one engine over the level's whole input, and
doubling still corrects it upward.
"""

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .coreset import Coreset
from .linalg import project, weighted_best_fit  # unused; bench/tracing.py wraps them here
from .pipeline import PiecyConfig, PipelineStats, SpanEngine, iter_pieces
from .util import MASK64, mix_seed


@dataclass
class MrConfig(PiecyConfig):
    """``PiecyConfig`` plus the number of batches each level takes before
    it flushes its summary one level up."""

    _: KW_ONLY
    num_pieces: int

    def __post_init__(self):
        super().__post_init__()
        if self.num_pieces < 2:
            raise ValueError("num_pieces must be >= 2")


class _Slot:
    __slots__ = ("span", "batches", "flushes", "threshold")

    def __init__(self):
        self.span = None
        self.batches = 0
        self.flushes = 0
        self.threshold = 0.0  # final threshold of the level's last engine


class MergeReduceTree:
    """Mutable tree state; single writer, strictly ordered operations."""

    def __init__(self, dim: int, cfg: MrConfig):
        if cfg.svd_dim > dim:
            raise ValueError(f"svd_dim {cfg.svd_dim} exceeds point dimension {dim}")
        self._dim = dim
        self._cfg = cfg
        self._levels: list[_Slot] = []
        self.stats = PipelineStats()

    def push_piece(self, piece) -> None:
        """Project one piece and feed it to level 0 with unit weights.

        Piece seeds derive as seed xor piece index, matching the
        single-engine pipeline so a tree that never flushes reproduces it
        exactly; flush seeds mix (level, flush ordinal) instead.
        """
        block = np.asarray(piece, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self._dim:
            raise ValueError(f"expected a piece of dimension {self._dim}")
        if not 0 < block.shape[0] <= self._cfg.piece_size:
            raise ValueError("piece must have between 1 and piece_size rows")
        self._feed(0, block, None, (self._cfg.seed ^ self.stats.pieces) & MASK64)
        self.stats.pieces += 1

    def _feed(self, level: int, block, weights, seed: int) -> None:
        """Feed one batch to a level, starting its engine if it has none,
        and flush the level once it holds ``num_pieces`` batches."""
        if level == len(self._levels):
            self._levels.append(_Slot())
        slot = self._levels[level]
        if slot.span is None:
            slot.span = SpanEngine(self._dim, self._cfg.coreset_size, slot.threshold)
            live = sum(s.span is not None for s in self._levels)
            self.stats.peak_live_engines = max(self.stats.peak_live_engines, live)
        slot.span.feed(block, weights, self._cfg, seed, self.stats)
        slot.batches += 1
        if slot.batches == self._cfg.num_pieces:
            self._flush(level)

    def _flush(self, level: int) -> None:
        """Move one level's summary up: extract, reduce, insert weighted."""
        slot = self._levels[level]
        summary = slot.span.extract_coreset()
        slot.threshold = slot.span.engine.threshold
        slot.span = None
        slot.batches = 0
        slot.flushes += 1
        self.stats.flush_sources.append(level)
        self._feed(level + 1, summary.points, summary.weights,
                   mix_seed(self._cfg.seed, level + 1, slot.flushes))

    def finalize(self) -> Coreset:
        """Cascade every live level bottom-up and return the top summary.

        Partially filled levels flush as-is; the topmost nonempty level is
        not flushed again, its coreset is the result.
        """
        while True:
            live = [i for i, s in enumerate(self._levels) if s.span is not None]
            if not live:
                return Coreset(np.zeros((0, self._dim)), np.zeros(0, dtype=np.int64))
            if len(live) == 1:
                return self._levels[live[0]].span.extract_coreset()
            self._flush(live[0])


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
    piece = None  # the piece buffer is not needed while the tree cascades
    return tree.finalize()

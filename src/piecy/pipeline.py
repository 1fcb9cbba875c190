"""Single-engine streaming pipelines and the projected-block feed.

``run_bico`` feeds raw points straight into one summarizer engine.
``run_piecy`` buffers the stream into pieces, reduces each piece's
intrinsic dimension by projecting onto its randomized best-fit subspace,
and feeds the projected points into the same kind of engine. Both consume
the stream exactly once and hold at most one piece, one subspace basis and
one engine at a time.

``SpanEngine.feed`` is the one place that decides whether a block goes in
projected or raw and how it is decomposed; ``run_piecy`` and every level of
the merge-and-reduce tree (``mergereduce``) feed their blocks through it,
configured by one ``PiecyConfig`` and counted in one ``PipelineStats``.
Every engine behind a ``SpanEngine`` runs in span coordinates: the
coordinates of an orthonormal basis of the span of the subspace bases and
raw blocks it has received, at most min(d, blocks * svd_dim) dimensions, and
the extracted coreset is mapped back to the ambient dimension once.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coreset import BicoEngine, Coreset, reject_infinite_norm
from .evaluation import CostSummary, kmeans_repetitions
from .linalg import (DEFAULT_OVERSAMPLE, SvdTruncation, project, randomized_truncated_svd,
                     weighted_best_fit)
from .streams import iter_blocks as iter_pieces
from .util import MASK64

#: A direction whose part outside the current span is below this fraction of
#: the longest input direction is roundoff, not a new dimension.
SPAN_TOL = 1e-12


def default_coreset_size(k: int) -> int:
    """Feature budget used when none is requested: 200k."""
    return 200 * k


def default_svd_dim(k: int) -> int:
    """Projection dimension used when none is requested: ceil(3k/2)."""
    return (3 * k + 1) // 2


@dataclass
class PiecyConfig:
    """Sizes of a projected run; a size left None takes its default, and
    ``piece_size``'s default is the resolved ``coreset_size``."""

    k: int
    piece_size: int | None = None
    svd_dim: int | None = None
    coreset_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.svd_dim is None:
            self.svd_dim = default_svd_dim(self.k)
        if self.coreset_size is None:
            self.coreset_size = default_coreset_size(self.k)
        if self.piece_size is None:
            self.piece_size = self.coreset_size
        if self.svd_dim < 1:
            raise ValueError("svd_dim must be >= 1")
        if self.coreset_size < self.k:
            raise ValueError("coreset_size must be >= k")
        if self.piece_size < self.svd_dim:
            raise ValueError("piece_size must be >= svd_dim")


@dataclass
class PipelineStats:
    """Instrumentation counters filled in by the projected pipelines. The
    last two are the merge-and-reduce tree's; ``run_piecy`` leaves them
    empty."""

    pieces: int = 0
    svd_calls: int = 0
    svd_seconds: float = 0.0
    flush_sources: list = field(default_factory=list)  # level flushed, in order
    peak_live_engines: int = 0


def span_complement(basis: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of the column span of
    ``directions`` (d, p) outside that of ``basis`` (d, m, orthonormal).

    Gram-Schmidt twice against ``basis``, then an SVD of the residual keeps
    the directions above ``SPAN_TOL``; one more pass and a QR restore the
    orthogonality the SVD's roundoff loses on short residuals. A column
    whose squared norm is not finite is rejected as ``BicoEngine.insert``
    rejects such a point.
    """
    scale = float(np.sqrt(np.einsum("ij,ij->j", directions, directions).max(initial=0.0)))
    if not math.isfinite(scale):
        reject_infinite_norm(directions)
    resid = directions - basis @ (basis.T @ directions)
    resid -= basis @ (basis.T @ resid)
    u, sigma, _ = np.linalg.svd(resid, full_matrices=False)
    new = u[:, sigma > SPAN_TOL * scale]
    new -= basis @ (basis.T @ new)
    return np.linalg.qr(new)[0]


class SpanEngine:
    """One summarizer engine run in the coordinates of its inputs' span.

    Both projected pipelines insert every block through ``feed``, either
    projected onto the block's best-fit subspace or raw, so the points lie
    in the span of the subspace bases and raw blocks received so far: at
    most min(d, batches * rank) dimensions. The engine's decisions depend
    only on inner products and distances between points, references and
    linear sums, all inside that span, so it runs in the coordinates of an
    orthonormal basis Q of the span and makes the same decisions up to
    roundoff. Q starts with no columns and the engine at dimension 0; Q
    grows by the part of each batch outside it, and new columns are
    orthogonal to the old ones, so the engine grows by zero coordinates
    exactly (``BicoEngine.grow``). ``extract_coreset`` maps the summary back
    to the ambient dimension with one product by Q^T.

    ``threshold`` is the engine's warm start (``BicoEngine``); 0.0 starts
    it cold. A squared distance is the same in span and ambient
    coordinates, so a threshold carries over between engines unchanged.
    """

    def __init__(self, dim: int, budget: int, threshold: float = 0.0):
        self.basis = np.zeros((dim, 0))  # orthonormal columns spanning the inputs
        self.engine = BicoEngine(0, budget, threshold)

    def cover(self, directions: np.ndarray) -> np.ndarray:
        """Extend the basis so its span contains the columns of ``directions``
        (d, p), grow the engine to match, and return the basis."""
        basis = self.basis
        if basis.shape[1] == basis.shape[0]:
            return basis
        new = span_complement(basis, directions)
        if new.shape[1]:
            basis = self.basis = np.hstack([basis, new])
            self.engine.grow(basis.shape[1])
        return basis

    def feed(self, block: np.ndarray, weights, cfg: PiecyConfig, seed: int,
             stats: PipelineStats) -> None:
        """Insert one (rows, d) block, unit-weight when ``weights`` is None.

        The block is projected onto its rank-``cfg.svd_dim`` best-fit
        subspace, decomposed with ``seed``: unit-weight blocks directly,
        weighted ones with the weight-aware decomposition. It goes in raw
        when the rank reaches the ambient dimension or the block has fewer
        rows than the rank, where projecting would be vacuous.
        """
        rows, dim = block.shape
        ell = cfg.svd_dim
        if ell >= dim or rows < ell:
            coords = block @ self.cover(block.T)
        else:
            oversample = min(DEFAULT_OVERSAMPLE, min(rows, dim) - ell)
            trunc = SvdTruncation(ell, oversample, seed=seed)
            t0 = time.perf_counter()
            if weights is None:
                v = randomized_truncated_svd(block, trunc)
            else:
                v = weighted_best_fit(block, weights, trunc)
            coords = project(block, v, self.cover(v))
            stats.svd_seconds += time.perf_counter() - t0
            stats.svd_calls += 1
        engine = self.engine
        if weights is None:
            for i in range(rows):
                engine.insert(coords[i])
        else:
            for i in range(rows):
                engine.insert(coords[i], int(weights[i]))

    def extract_coreset(self) -> Coreset:
        """The engine's coreset, in the ambient dimension."""
        coreset = self.engine.extract_coreset()
        return Coreset(coreset.points @ self.basis.T, coreset.weights)


def run_bico(points, dim: int, coreset_size: int) -> Coreset:
    """One pass of the plain summarizer over unit-weight points."""
    engine = BicoEngine(dim, coreset_size)
    for p in points:
        engine.insert(p)
    return engine.extract_coreset()


def run_piecy(points, dim: int, cfg: PiecyConfig,
              stats: PipelineStats | None = None) -> Coreset:
    """One pass of the piece-projected pipeline.

    Every full piece is projected onto its rank-``svd_dim`` best-fit
    subspace (randomized backend, seed xor piece index) before insertion.
    A final partial piece is projected as well unless it is smaller than
    the target rank, in which case projecting would be vacuous and the
    rows go in unprojected. Projection is skipped entirely when the target
    rank reaches the ambient dimension; the raw pieces' span then fills to
    d coordinates.
    """
    if cfg.svd_dim > dim:
        raise ValueError(f"svd_dim {cfg.svd_dim} exceeds point dimension {dim}")
    if stats is None:
        stats = PipelineStats()
    span = SpanEngine(dim, cfg.coreset_size)
    for index, piece in enumerate(iter_pieces(points, cfg.piece_size, dim)):
        span.feed(piece, None, cfg, (cfg.seed ^ index) & MASK64, stats)
        stats.pieces += 1
    piece = None  # the piece buffer is not needed while the coreset is extracted
    return span.extract_coreset()


def coreset_cost_report(coreset: Coreset, k: int, reps: int = 5,
                        seed: int = 0) -> CostSummary:
    """Cluster the summary ``reps`` times and summarize the weighted costs."""
    if len(coreset) == 0:
        raise ValueError("cannot evaluate an empty coreset")
    runs = kmeans_repetitions(coreset.points, coreset.weights.astype(np.float64),
                              k, reps=reps, seed=seed)
    return CostSummary.of(cost for _, cost in runs)

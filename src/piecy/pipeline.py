"""Single-engine streaming pipelines and the projected-block feed.

``run_bico`` feeds raw points straight into one summarizer engine.
``run_piecy`` buffers the stream into pieces, reduces each piece's
intrinsic dimension by projecting onto its randomized best-fit subspace,
and feeds the projected points into the same kind of engine. Both consume
the stream exactly once and hold at most one piece, one projector and one
engine at a time.

``SpanEngine.feed`` is the one place that decides whether a block goes in
projected or raw and how it is decomposed; ``run_piecy`` and every level of
the merge-and-reduce tree (``mergereduce``) feed their blocks through it,
configured by one ``PiecyConfig`` and counted in one ``PipelineStats``.
Projected points are kept in span coordinates: a ``SpanEngine`` runs its
engine in the coordinates of an orthonormal basis of the span of the
projector bases (and raw blocks) it has received, at most blocks * svd_dim
dimensions instead of the ambient d, and maps the extracted coreset back to
the ambient dimension once.
"""

import time
from dataclasses import dataclass

import numpy as np

from .coreset import BicoEngine, Coreset
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
    """Instrumentation counters filled in by the projected pipelines."""

    pieces: int = 0
    svd_calls: int = 0
    svd_seconds: float = 0.0


def span_complement(basis: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of the column span of
    ``directions`` (d, p) outside that of ``basis`` (d, m, orthonormal).

    Gram-Schmidt twice against ``basis``, then an SVD of the residual keeps
    the directions above ``SPAN_TOL``; one more pass and a QR restore the
    orthogonality the SVD's roundoff loses on short residuals.
    """
    resid = directions - basis @ (basis.T @ directions)
    resid -= basis @ (basis.T @ resid)
    u, sigma, _ = np.linalg.svd(resid, full_matrices=False)
    scale = float(np.sqrt(np.einsum("ij,ij->j", directions, directions).max(initial=0.0)))
    new = u[:, sigma > SPAN_TOL * scale]
    new -= basis @ (basis.T @ new)
    return np.linalg.qr(new)[0]


class SpanEngine:
    """One summarizer engine run in the coordinates of its inputs' span.

    Both projected pipelines insert every block through ``feed``, either
    projected onto the block's best-fit subspace or raw, so the points lie
    in the span of the projector bases and raw blocks received so far: at
    most batches * rank dimensions. The engine's decisions depend only on
    inner products and distances between points, references and linear
    sums, all inside that span, so it runs in the coordinates of an
    orthonormal basis Q of the span and makes the same decisions up to
    roundoff. Q grows by the part of each batch outside it; new columns are
    orthogonal to the old ones, so the engine grows by zero coordinates
    exactly (``BicoEngine.grow``). ``extract_coreset`` maps the summary back
    to the ambient dimension with one product by Q^T.

    With ``rank >= dim`` nothing is projected and the span is the whole
    space from the first full piece on, so the engine keeps the ambient
    coordinates and ``basis`` is None.

    ``threshold`` is the engine's warm start (``BicoEngine``); 0.0 starts
    it cold. A squared distance is the same in span and ambient
    coordinates, so a threshold carries over between engines unchanged.
    """

    def __init__(self, dim: int, budget: int, rank: int, threshold: float = 0.0):
        self._dim = dim
        self._budget = budget
        self._threshold = threshold
        self._basis = None if rank >= dim else np.zeros((dim, 0))
        # Created by the first cover when running in span coordinates.
        self.engine = (BicoEngine(dim, budget, threshold)
                       if self._basis is None else None)

    @property
    def basis(self) -> np.ndarray | None:
        """Orthonormal (d, dim) basis of the span; None for ambient coordinates."""
        return self._basis

    @property
    def dim(self) -> int:
        """The engine's working dimension."""
        return 0 if self.engine is None else self.engine.dim

    @property
    def threshold(self) -> float:
        """The engine's current threshold; the warm start before it exists."""
        return self._threshold if self.engine is None else self.engine.threshold

    def cover(self, directions: np.ndarray) -> np.ndarray | None:
        """Extend the basis so its span contains the columns of ``directions``
        (d, p), grow the engine to match, and return the basis."""
        basis = self._basis
        if basis is None or basis.shape[1] == self._dim:
            return basis
        new = span_complement(basis, directions)
        if new.shape[1] == 0 and self.engine is None:
            # An all-zero first block spans nothing; the engine needs a coordinate.
            new = np.eye(self._dim, 1)
        if new.shape[1]:
            basis = self._basis = np.hstack([basis, new])
            if self.engine is None:
                self.engine = BicoEngine(basis.shape[1], self._budget, self._threshold)
            else:
                self.engine.grow(basis.shape[1])
        return basis

    def coordinates(self, rows: np.ndarray) -> np.ndarray:
        """Coordinates of unprojected rows, after covering their row space."""
        basis = self.cover(rows.T)
        return rows if basis is None else rows @ basis

    def insert(self, coords: np.ndarray, weights=None) -> None:
        """Insert rows given in span coordinates, with unit or given weights."""
        engine = self.engine
        if weights is None:
            for i in range(coords.shape[0]):
                engine.insert(coords[i])
        else:
            for i in range(coords.shape[0]):
                engine.insert(coords[i], int(weights[i]))

    def feed(self, block: np.ndarray, weights, cfg: PiecyConfig, seed: int,
             stats: PipelineStats) -> None:
        """Insert one (rows, d) block, unit-weight when ``weights`` is None.

        The block is projected onto its rank-``cfg.svd_dim`` best-fit
        subspace, decomposed with ``seed``: unit-weight blocks directly,
        weighted ones with the weight-aware decomposition. It goes in raw
        when the rank reaches the ambient dimension or the block has fewer
        rows than the rank, where projecting would be vacuous.
        """
        rows = block.shape[0]
        ell = cfg.svd_dim
        if ell >= self._dim or rows < ell:
            coords = self.coordinates(block)
        else:
            oversample = min(DEFAULT_OVERSAMPLE, min(rows, self._dim) - ell)
            trunc = SvdTruncation(ell, oversample, seed=seed)
            t0 = time.perf_counter()
            if weights is None:
                projector = randomized_truncated_svd(block, trunc)
            else:
                projector = weighted_best_fit(block, weights, trunc)
            coords = project(block, projector, self.cover(projector.vectors))
            stats.svd_seconds += time.perf_counter() - t0
            stats.svd_calls += 1
        self.insert(coords, weights)

    def extract_coreset(self) -> Coreset:
        """The engine's coreset, in the ambient dimension."""
        if self.engine is None:
            return Coreset(np.zeros((0, self._dim)), np.zeros(0, dtype=np.int64))
        coreset = self.engine.extract_coreset()
        if self._basis is None:
            return coreset
        return Coreset(coreset.points @ self._basis.T, coreset.weights)


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
    rank reaches the ambient dimension.
    """
    if cfg.svd_dim > dim:
        raise ValueError(f"svd_dim {cfg.svd_dim} exceeds point dimension {dim}")
    if stats is None:
        stats = PipelineStats()
    span = SpanEngine(dim, cfg.coreset_size, cfg.svd_dim)
    for index, piece in enumerate(iter_pieces(points, cfg.piece_size, dim)):
        span.feed(piece, None, cfg, (cfg.seed ^ index) & MASK64, stats)
        stats.pieces += 1
    return span.extract_coreset()


def coreset_cost_report(coreset: Coreset, k: int, reps: int = 5, seed: int = 0,
                        max_iters: int = 100, tol: float = 1e-4) -> CostSummary:
    """Cluster the summary ``reps`` times and summarize the weighted costs."""
    if len(coreset) == 0:
        raise ValueError("cannot evaluate an empty coreset")
    runs = kmeans_repetitions(coreset.points, coreset.weights.astype(np.float64),
                              k, reps=reps, seed=seed, max_iters=max_iters, tol=tol)
    return CostSummary.of(cost for _, cost in runs)

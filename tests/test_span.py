"""Span-coordinate engines against the ambient-dimension algorithm.

The references below are the pipelines as they ran before engines moved
to span coordinates: project each block to d-dimensional rows and insert
those into a ``BicoEngine(d)``. The span-coordinate pipelines must make the
same decisions, so weights match exactly and points up to roundoff.
"""

import numpy as np
import pytest

from helpers import ambient_projection
from piecy.coreset import BicoEngine
from piecy.linalg import (DEFAULT_OVERSAMPLE, SvdTruncation, randomized_truncated_svd,
                          weighted_best_fit)
from piecy.mergereduce import MrConfig, run_piecy_mr
from piecy.pipeline import (PiecyConfig, PipelineStats, SpanEngine, iter_pieces, run_piecy,
                            span_complement)
from piecy.util import MASK64, mix_seed

# Fixed before the comparisons were first run: a few hundred roundoff
# units of float64 on O(1) coordinates.
POINT_RTOL = 1e-9
ORTHO_TOL = 1e-12


def reference_piecy(points, dim, cfg):
    engine = BicoEngine(dim, cfg.coreset_size)
    ell = cfg.svd_dim
    for index, piece in enumerate(iter_pieces(points, cfg.piece_size, dim)):
        rows = piece.shape[0]
        block = piece
        if ell < dim and rows >= ell:
            oversample = min(DEFAULT_OVERSAMPLE, min(rows, dim) - ell)
            trunc = SvdTruncation(ell, oversample, seed=(cfg.seed ^ index) & MASK64)
            block = ambient_projection(piece, randomized_truncated_svd(piece, trunc))
        for i in range(rows):
            engine.insert(block[i])
    return engine.extract_coreset()


def reference_piecy_mr(points, dim, cfg):
    # per level: [engine or None, batches, flushes, last final threshold]
    levels = []
    ell = cfg.svd_dim

    def reduce(block, weights, seed):
        rows = block.shape[0]
        if ell >= dim or rows < ell:
            return block
        oversample = min(DEFAULT_OVERSAMPLE, min(rows, dim) - ell)
        trunc = SvdTruncation(ell, oversample, seed=seed)
        if weights is None:
            weights = np.ones(rows, dtype=np.int64)
        return ambient_projection(block, weighted_best_fit(block, weights, trunc))

    def feed(level, block, weights):
        while len(levels) <= level:
            levels.append([None, 0, 0, 0.0])
        slot = levels[level]
        if slot[0] is None:
            slot[0] = BicoEngine(dim, cfg.coreset_size, slot[3])
        for i in range(block.shape[0]):
            if weights is None:
                slot[0].insert(block[i])
            else:
                slot[0].insert(block[i], int(weights[i]))
        slot[1] += 1
        if slot[1] == cfg.num_pieces:
            flush(level)

    def flush(level):
        slot = levels[level]
        summary = slot[0].extract_coreset()
        slot[3] = slot[0].threshold
        slot[0] = None
        slot[1] = 0
        slot[2] += 1
        seed = mix_seed(cfg.seed, level + 1, slot[2])
        feed(level + 1, reduce(summary.points, summary.weights, seed), summary.weights)

    for index, piece in enumerate(iter_pieces(points, cfg.piece_size, dim)):
        feed(0, reduce(piece, None, (cfg.seed ^ index) & MASK64), None)
    while True:
        live = [i for i, s in enumerate(levels) if s[0] is not None]
        if len(live) <= 1:
            break
        flush(live[0])
    if not live:
        return BicoEngine(dim, 1).extract_coreset()
    return levels[live[0]][0].extract_coreset()


def assert_same_coreset(got, want):
    assert np.array_equal(got.weights, want.weights)
    assert got.points.shape == want.points.shape
    err = np.linalg.norm(got.points - want.points, axis=1)
    assert (err <= POINT_RTOL * np.linalg.norm(want.points, axis=1)).all()


@pytest.fixture
def span_log(monkeypatch):
    """Checks every SpanEngine after each batch it is fed: an orthonormal
    (d, dim) basis and a working dimension within min(d, batches * svd_dim).
    Returns the (working dimension, ambient dimension) of every check."""
    log = []
    feed = SpanEngine.feed

    def checked_feed(self, block, weights, cfg, seed, stats):
        feed(self, block, weights, cfg, seed, stats)
        self.batches_seen = getattr(self, "batches_seen", 0) + 1
        d = block.shape[1]
        basis = self.basis
        dim = self.engine.dim
        assert basis.shape == (d, dim)
        gram = basis.T @ basis
        assert np.abs(gram - np.eye(dim)).max(initial=0.0) <= ORTHO_TOL
        assert dim <= min(d, self.batches_seen * cfg.svd_dim)
        log.append((dim, d))

    monkeypatch.setattr(SpanEngine, "feed", checked_feed)
    return log


def clustered(rng, n, dim, centers=6):
    means = rng.normal(scale=6.0, size=(centers, dim))
    return means[rng.integers(0, centers, size=n)] + rng.normal(size=(n, dim))


# (n, d, piece_size, svd_dim): several pieces; a raw tail shorter than the
# rank; svd_dim == d; more than d / svd_dim pieces, so the span saturates;
# an all-zero first piece, which spans nothing, raw and projected.
STREAMS = {
    "several-pieces": (240, 20, 60, 4),
    "raw-tail": (182, 20, 60, 4),
    "rank-equals-dim": (150, 6, 50, 6),
    "saturated": (400, 9, 40, 2),
    "zero-first-raw": (150, 6, 50, 6),
    "zero-first-projected": (240, 20, 60, 4),
}


def stream_data(name, seed):
    n, d, piece, _ = STREAMS[name]
    data = clustered(np.random.default_rng(seed), n, d)
    if name.startswith("zero-first"):
        data[:piece] = 0.0
    return data


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_piecy_matches_ambient_reference(name, span_log):
    n, d, piece, ell = STREAMS[name]
    data = stream_data(name, n + d)
    cfg = PiecyConfig(k=3, piece_size=piece, svd_dim=ell, coreset_size=25, seed=5)
    got = run_piecy(iter(data), d, cfg)
    assert_same_coreset(got, reference_piecy(iter(data), d, cfg))
    assert got.total_weight == n
    assert span_log
    if name == "saturated":
        assert span_log[-1] == (d, d)
    if name == "zero-first-raw":
        assert span_log[0] == (0, d)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_piecy_mr_matches_ambient_reference(name, span_log):
    n, d, piece, ell = STREAMS[name]
    data = stream_data(name, n * d)
    cfg = MrConfig(k=3, piece_size=piece, num_pieces=2, svd_dim=ell,
                   coreset_size=25, seed=6)
    got = run_piecy_mr(iter(data), d, cfg)
    assert_same_coreset(got, reference_piecy_mr(iter(data), d, cfg))
    assert got.total_weight == n


def test_piecy_mr_level_engine_saturates(span_log):
    d, ell = 9, 2
    data = clustered(np.random.default_rng(3), 600, d)
    cfg = MrConfig(k=3, piece_size=30, num_pieces=6, svd_dim=ell,
                   coreset_size=25, seed=2)
    got = run_piecy_mr(iter(data), d, cfg)
    assert_same_coreset(got, reference_piecy_mr(iter(data), d, cfg))
    assert (d, d) in span_log


class TestSpanEngine:
    def test_all_zero_first_block_leaves_dimension_0(self):
        span = SpanEngine(5, 10)
        cfg = PiecyConfig(k=1, svd_dim=5, coreset_size=10)
        span.feed(np.zeros((2, 5)), None, cfg, 0, PipelineStats())
        assert span.engine.dim == 0
        assert span.basis.shape == (5, 0)
        coreset = span.extract_coreset()
        assert coreset.points.shape == (1, 5)
        assert coreset.weights.tolist() == [2]
        assert not coreset.points.any()

    def test_empty_engine_extracts_empty_ambient_coreset(self):
        coreset = SpanEngine(7, 10).extract_coreset()
        assert coreset.points.shape == (0, 7)

    def test_warm_start_is_the_engines_threshold_before_any_feed(self):
        span = SpanEngine(7, 10, 2.5)
        assert span.engine.threshold == 2.5
        assert span.engine.dim == 0

    def test_dependent_directions_add_nothing(self):
        rng = np.random.default_rng(8)
        basis, _ = np.linalg.qr(rng.normal(size=(10, 3)))
        inside = basis @ rng.normal(size=(3, 4))
        assert span_complement(basis, inside).shape == (10, 0)
        mixed = np.hstack([inside, rng.normal(size=(10, 2))])
        new = span_complement(basis, mixed)
        assert new.shape == (10, 2)
        assert np.abs(basis.T @ new).max() <= ORTHO_TOL
        assert np.abs(new.T @ new - np.eye(2)).max() <= ORTHO_TOL

    def test_nearly_dependent_directions_stay_orthogonal(self):
        # Two residuals 1e-10 apart: the SVD divides their difference by
        # its singular value, which scales up the roundoff left along the
        # basis; the basis must stay orthonormal anyway.
        rng = np.random.default_rng(10)
        basis, _ = np.linalg.qr(rng.normal(size=(30, 8)))
        out, _ = np.linalg.qr(rng.normal(size=(30, 2)))
        out -= basis @ (basis.T @ out)
        first = basis @ rng.normal(size=8) + out[:, 0]
        second = basis @ rng.normal(size=8) + out[:, 0] + 1e-10 * out[:, 1]
        new = span_complement(basis, np.stack([first, second], axis=1))
        assert new.shape == (30, 2)
        assert np.abs(basis.T @ new).max() <= ORTHO_TOL
        assert np.abs(new.T @ new - np.eye(2)).max() <= ORTHO_TOL

    def test_coordinates_round_trip(self):
        rng = np.random.default_rng(9)
        span = SpanEngine(12, 50)
        low = rng.normal(size=(5, 12))
        basis = span.cover(low.T)
        assert span.engine.dim == 5
        assert np.allclose((low @ basis) @ basis.T, low, rtol=0, atol=1e-12)

import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import CountingIter
from piecy import mergereduce, pipeline
from piecy.coreset import BicoEngine
from piecy.evaluation import weighted_cost
from piecy.mergereduce import MrConfig, run_piecy_mr
from piecy.pipeline import (PiecyConfig, PipelineStats, coreset_cost_report,
                            default_svd_dim, iter_pieces, run_bico, run_piecy)


def subspace_points(rng, n, dim, intrinsic):
    basis, _ = np.linalg.qr(rng.normal(size=(dim, intrinsic)))
    return rng.normal(size=(n, intrinsic)) @ basis.T


class TestConfig:
    def test_defaults(self):
        cfg = PiecyConfig(k=10, piece_size=2000)
        assert cfg.svd_dim == 15
        assert cfg.coreset_size == 2000
        assert default_svd_dim(10) == 15
        assert default_svd_dim(1) == 2

    def test_piece_size_defaults_to_resolved_coreset_size(self):
        assert PiecyConfig(k=3).piece_size == 600
        assert PiecyConfig(k=3, coreset_size=50).piece_size == 50
        assert PiecyConfig(k=3, piece_size=7, coreset_size=50).piece_size == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecyConfig(k=10, piece_size=5)  # smaller than default svd_dim
        with pytest.raises(ValueError):
            PiecyConfig(k=0, piece_size=10)
        with pytest.raises(ValueError):
            PiecyConfig(k=10, piece_size=100, coreset_size=5)


class TestPieceIteration:
    def test_piece_shapes(self):
        pts = [np.full(3, float(i)) for i in range(10)]
        sizes = [p.shape[0] for p in iter_pieces(iter(pts), 4, 3)]
        assert sizes == [4, 4, 2]

    def test_values_preserved(self):
        pts = [np.array([float(i), -float(i)]) for i in range(5)]
        out = [p.copy() for p in iter_pieces(iter(pts), 2, 2)]
        flat = np.vstack(out)
        assert np.allclose(flat[:, 0], np.arange(5.0))


class TestPiecyStructure:
    def test_single_piece_single_svd(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(60, 10))
        cfg = PiecyConfig(k=2, piece_size=100, svd_dim=3, coreset_size=30, seed=1)
        stats = PipelineStats()
        coreset = run_piecy(iter(pts), 10, cfg, stats)
        assert stats.svd_calls == 1
        assert stats.pieces == 1
        assert (stats.flush_sources, stats.peak_live_engines) == ([], 0)  # the tree's
        assert len(coreset) <= 30
        assert coreset.total_weight == 60

    def test_three_and_a_half_pieces_means_four_svds(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(140, 8))  # piece size 40 -> 3 full + 1 of 20
        cfg = PiecyConfig(k=2, piece_size=40, svd_dim=5, coreset_size=40, seed=1)
        stats = PipelineStats()
        run_piecy(iter(pts), 8, cfg, stats)
        assert stats.pieces == 4
        assert stats.svd_calls == 4

    def test_tail_smaller_than_rank_is_fed_raw(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(43, 8))  # tail of 3 < svd_dim 5
        cfg = PiecyConfig(k=2, piece_size=40, svd_dim=5, coreset_size=40, seed=1)
        stats = PipelineStats()
        coreset = run_piecy(iter(pts), 8, cfg, stats)
        assert stats.pieces == 2
        assert stats.svd_calls == 1
        assert coreset.total_weight == 43

    def test_rank_matching_dimension_skips_svd(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 4))
        cfg = PiecyConfig(k=4, piece_size=25, svd_dim=4, coreset_size=20, seed=1)
        stats = PipelineStats()
        run_piecy(iter(pts), 4, cfg, stats)
        assert stats.svd_calls == 0

    def test_overflowing_raw_point_rejected(self):
        # At svd_dim == d raw blocks enter the span; a point whose squared
        # norm is not finite must be rejected, not projected away.
        cfg = MrConfig(k=1, piece_size=2, coreset_size=4, num_pieces=2)
        for big, msg in [(1e200, "point coordinates overflow"), (np.inf, "non-finite")]:
            pts = np.array([[0.0, big], [1.0, 0.0]])
            with pytest.raises(ValueError, match=msg):
                run_piecy(iter(pts), 2, cfg)
            with pytest.raises(ValueError, match=msg):
                run_piecy_mr(iter(pts), 2, cfg)

    def test_rank_above_dimension_rejected(self):
        cfg = PiecyConfig(k=4, piece_size=25, svd_dim=9, coreset_size=20)
        with pytest.raises(ValueError):
            run_piecy(iter([np.zeros(4)]), 4, cfg)

    def test_empty_stream_gives_empty_coreset(self):
        cfg = PiecyConfig(k=2, piece_size=10, svd_dim=2, coreset_size=10)
        coreset = run_piecy(iter([]), 5, cfg)
        assert len(coreset) == 0

    def test_one_pass_consumption(self):
        rng = np.random.default_rng(4)
        pts = [row for row in rng.normal(size=(90, 6))]
        counter = CountingIter(pts)
        cfg = PiecyConfig(k=2, piece_size=30, svd_dim=4, coreset_size=25, seed=0)
        run_piecy(iter(counter), 6, cfg)
        assert counter.count == 90

    @pytest.mark.parametrize("bad", [np.array([3.0]), 3.0])
    def test_malformed_point_rejected(self, bad):
        pts = [np.zeros(6)] * 10 + [bad] + [np.zeros(6)] * 10
        cfg = PiecyConfig(k=2, piece_size=30, svd_dim=4, coreset_size=25)
        with pytest.raises(ValueError, match="dimension 6"):
            run_piecy(iter(pts), 6, cfg)

    def test_peak_projectors_is_one(self, monkeypatch):
        """Every projector ``SpanEngine.feed`` makes is dead by the time the
        next decomposition starts, on piecy and on piecy-mr, so at most one
        is ever alive."""
        made = []

        def tracked(decompose):
            def call(*args):
                assert all(ref() is None for _, ref in made), "a projector outlived its block"
                projector = decompose(*args)
                made.append((decompose.__name__, weakref.ref(projector)))
                return projector
            return call

        for name in ("randomized_truncated_svd", "weighted_best_fit"):
            monkeypatch.setattr(pipeline, name, tracked(getattr(pipeline, name)))
        pts = np.random.default_rng(5).normal(size=(120, 6))
        sizes = dict(k=2, piece_size=30, svd_dim=4, coreset_size=25, seed=0)
        run_piecy(iter(pts), 6, PiecyConfig(**sizes))
        assert [name for name, _ in made] == ["randomized_truncated_svd"] * 4
        made.clear()
        run_piecy_mr(iter(pts), 6, MrConfig(**sizes, num_pieces=2))
        assert {name for name, _ in made} == {"randomized_truncated_svd",
                                              "weighted_best_fit"}
        assert all(ref() is None for _, ref in made)

    @pytest.mark.parametrize("algo", ["piecy", "piecy-mr"])
    def test_piece_buffer_is_dropped_before_extraction(self, monkeypatch, algo):
        """Extraction starts holding less than one piece: the piece buffer
        (1000 x 600, 4.8 MB) is gone once the stream is read."""
        piece_bytes = 1000 * 600 * 8
        at_extraction = []

        def traced(extract):
            def call(self):
                at_extraction.append(tracemalloc.get_traced_memory()[0])
                return extract(self)
            return call

        pts = np.random.default_rng(8).normal(size=(2500, 600))  # 2 pieces + a tail
        sizes = dict(k=2, piece_size=1000, svd_dim=5, coreset_size=50, seed=0)
        tracemalloc.start()
        try:
            if algo == "piecy":
                monkeypatch.setattr(pipeline.SpanEngine, "extract_coreset",
                                    traced(pipeline.SpanEngine.extract_coreset))
                coreset = run_piecy(iter(pts), 600, PiecyConfig(**sizes))
            else:
                monkeypatch.setattr(mergereduce.MergeReduceTree, "finalize",
                                    traced(mergereduce.MergeReduceTree.finalize))
                coreset = run_piecy_mr(iter(pts), 600, MrConfig(**sizes, num_pieces=4))
        finally:
            tracemalloc.stop()
        assert coreset.total_weight == 2500
        assert len(at_extraction) == 1
        assert at_extraction[0] < piece_bytes, f"{at_extraction[0]} bytes held"


class TestPiecyQuality:
    def test_lossless_when_points_live_in_low_dim_subspace(self):
        rng = np.random.default_rng(6)
        pts = subspace_points(rng, 300, 12, 3)
        cfg = PiecyConfig(k=3, piece_size=100, svd_dim=3, coreset_size=60, seed=2)
        projected = run_piecy(iter(pts), 12, cfg)
        raw = run_bico(iter(pts), 12, 60)
        centers = rng.normal(size=(3, 12))
        cost_p = weighted_cost(projected.points, projected.weights.astype(float), centers)
        cost_r = weighted_cost(raw.points, raw.weights.astype(float), centers)
        assert cost_p == pytest.approx(cost_r, rel=1e-6)

    def test_determinism_under_fixed_seed(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(200, 10))
        cfg = PiecyConfig(k=3, piece_size=50, svd_dim=4, coreset_size=50, seed=9)
        a = run_piecy(iter(pts), 10, cfg)
        b = run_piecy(iter(pts), 10, cfg)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_planted_clusters_cost_close_to_full_data(self):
        from piecy.datagen import SwnConfig, structured_with_noise
        from piecy.evaluation import evaluate_cost_multi, kmeans_repetitions
        data = np.stack(list(structured_with_noise(
            SwnConfig(clusters=5, points_per_cluster=80, dim=30,
                      active_dims=6, seed=3))))
        k = 5
        cfg = PiecyConfig(k=k, piece_size=100, svd_dim=8, coreset_size=200, seed=4)
        coreset = run_piecy(iter(data), 30, cfg)
        runs = kmeans_repetitions(coreset.points, coreset.weights.astype(float),
                                  k, reps=5, seed=5)
        cs_med = float(np.median(evaluate_cost_multi([c for c, _ in runs],
                                                     iter(data))))
        full = kmeans_repetitions(data, None, k, reps=5, seed=5)
        full_med = float(np.median([c for _, c in full]))
        assert abs(cs_med - full_med) <= 0.15 * full_med


class TestCostReport:
    def test_distinct_points_equal_k_cost_zero(self):
        engine = BicoEngine(2, 10)
        for v in ([0.0, 0.0], [4.0, 0.0], [0.0, 4.0]):
            engine.insert(np.array(v), 5)
        summary = coreset_cost_report(engine.extract_coreset(), k=3, reps=3, seed=0)
        assert summary.maximum == pytest.approx(0.0, abs=1e-12)

    def test_summary_ordering(self):
        rng = np.random.default_rng(8)
        coreset = run_bico(iter(rng.normal(size=(100, 3))), 3, 40)
        summary = coreset_cost_report(coreset, k=3, reps=5, seed=1)
        assert summary.minimum <= summary.median <= summary.maximum

    def test_more_centers_than_distinct_points_degenerates_to_zero(self):
        engine = BicoEngine(2, 10)
        engine.insert(np.array([1.0, 1.0]), 4)
        engine.insert(np.array([-3.0, 2.0]), 6)
        summary = coreset_cost_report(engine.extract_coreset(), k=5, reps=3, seed=2)
        assert summary.maximum == pytest.approx(0.0, abs=1e-12)

    def test_empty_coreset_rejected(self):
        from piecy.coreset import Coreset
        empty = Coreset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            coreset_cost_report(empty, k=1)

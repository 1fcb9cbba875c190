import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CountingIter
from piecy.datagen import SwnConfig, structured_with_noise
from piecy.evaluation import evaluate_cost_multi, kmeans_repetitions, weighted_cost
from piecy.mergereduce import MergeReduceTree, MrConfig, run_piecy_mr
from piecy.pipeline import PiecyConfig, SpanEngine, run_bico, run_piecy


def push_rows(tree, rows, piece_size):
    for start in range(0, len(rows), piece_size):
        tree.push_piece(rows[start:start + piece_size])


class TestConfig:
    def test_defaults_and_validation(self):
        cfg = MrConfig(k=10, piece_size=2000, num_pieces=5)
        assert cfg.svd_dim == 15
        assert cfg.coreset_size == 2000
        with pytest.raises(ValueError):
            MrConfig(k=10, piece_size=2000, num_pieces=1)
        with pytest.raises(ValueError):
            MrConfig(k=10, piece_size=4, num_pieces=3)
        with pytest.raises(ValueError):
            MrConfig(k=0, piece_size=10, num_pieces=3)
        with pytest.raises(ValueError):
            MrConfig(k=10, piece_size=100, num_pieces=3, coreset_size=5)
        with pytest.raises(TypeError):
            MrConfig(k=10, piece_size=2000)  # num_pieces is required


class TestFlushSchedule:
    def test_nine_pieces_branching_three(self):
        # piece size 5, three pieces per engine: flushes 0->1 after pieces
        # 3, 6, 9, and the third one cascades 1->2
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(45, 6))
        cfg = MrConfig(k=2, piece_size=5, num_pieces=3, svd_dim=2,
                       coreset_size=5, seed=1)
        tree = MergeReduceTree(6, cfg)
        push_rows(tree, rows, 5)
        assert tree.stats.pieces == 9
        assert tree.stats.flush_sources == [0, 0, 0, 1]
        assert tree.stats.peak_live_engines == 2
        coreset = tree.finalize()
        assert coreset.total_weight == 45

    def test_four_pieces_branching_two(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(20, 4))
        cfg = MrConfig(k=2, piece_size=5, num_pieces=2, svd_dim=2,
                       coreset_size=5, seed=1)
        tree = MergeReduceTree(4, cfg)
        push_rows(tree, rows, 5)
        sources = tree.stats.flush_sources
        # level 0 saw 4 pieces, level 1 received 2 summaries, level 2 one
        assert sources.count(0) == 2
        assert sources.count(1) == 1
        coreset = tree.finalize()
        assert coreset.total_weight == 20

    def test_square_piece_count_needs_no_partial_flush(self):
        rng = np.random.default_rng(2)
        cfg = MrConfig(k=2, piece_size=4, num_pieces=3, svd_dim=2,
                       coreset_size=4, seed=3)
        rows = rng.normal(size=(4 * 9, 5))
        tree = MergeReduceTree(5, cfg)
        push_rows(tree, rows, 4)
        flushes_before = len(tree.stats.flush_sources)
        tree.finalize()
        assert len(tree.stats.flush_sources) == flushes_before == 4

    def test_live_engine_bound(self):
        rng = np.random.default_rng(3)
        cfg = MrConfig(k=2, piece_size=6, num_pieces=2, svd_dim=2,
                       coreset_size=6, seed=3)
        pieces = 16
        rows = rng.normal(size=(6 * pieces, 4))
        tree = MergeReduceTree(4, cfg)
        push_rows(tree, rows, 6)
        bound = int(np.ceil(np.log(pieces) / np.log(cfg.num_pieces))) + 1
        assert tree.stats.peak_live_engines <= bound


class TestFinalize:
    def test_single_piece_equals_single_engine_pipeline(self):
        # One piece; then three pieces and a raw tail of 2 < svd_dim rows,
        # fewer than num_pieces, so level 0 never flushes.
        rng = np.random.default_rng(4)
        for n in (30, 122):
            rows = rng.normal(size=(n, 8))
            cfg = MrConfig(k=2, piece_size=40, num_pieces=5, svd_dim=3,
                           coreset_size=20, seed=7)
            tree = MergeReduceTree(8, cfg)
            push_rows(tree, rows, 40)
            got = tree.finalize()
            assert tree.stats.flush_sources == []
            want = run_piecy(iter(rows), 8,
                             PiecyConfig(k=2, piece_size=40, svd_dim=3,
                                         coreset_size=20, seed=7))
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.weights, want.weights)

    def test_empty_stream(self):
        cfg = MrConfig(k=2, piece_size=5, num_pieces=2, svd_dim=2, coreset_size=5)
        tree = MergeReduceTree(3, cfg)
        coreset = tree.finalize()
        assert len(coreset) == 0

    def test_partial_levels_cascade_bottom_up(self):
        rng = np.random.default_rng(5)
        cfg = MrConfig(k=2, piece_size=4, num_pieces=3, svd_dim=2,
                       coreset_size=4, seed=2)
        rows = rng.normal(size=(4 * 4, 4))  # 4 pieces: one flush + partial
        tree = MergeReduceTree(4, cfg)
        push_rows(tree, rows, 4)
        coreset = tree.finalize()
        assert coreset.total_weight == 16
        assert tree.stats.flush_sources[0] == 0

    def test_all_equal_points_collapse(self):
        cfg = MrConfig(k=1, piece_size=4, num_pieces=2, svd_dim=1,
                       coreset_size=4, seed=2)
        rows = np.tile([[2.0, -1.0, 3.0]], (24, 1))
        coreset = run_piecy_mr(iter(rows), 3, cfg)
        assert len(coreset) == 1
        assert coreset.weights[0] == 24
        assert np.allclose(coreset.points[0], [2.0, -1.0, 3.0])


def flush_rule(pieces, fanout):
    """The flush sources the tree must produce: an integer model of the
    rule, depending only on the piece count and the branching factor."""
    batches, sources = [], []

    def add(level):
        while len(batches) <= level:
            batches.append(0)
        batches[level] += 1
        if batches[level] == fanout:
            flush(level)

    def flush(level):
        batches[level] = 0
        sources.append(level)
        add(level + 1)

    for _ in range(pieces):
        add(0)
    while True:
        live = [i for i, b in enumerate(batches) if b > 0]
        if len(live) <= 1:
            return sources
        flush(live[0])


@pytest.fixture
def level_engines(monkeypatch):
    """Records every level engine the tree creates, as (level, engine,
    starting threshold), in creation order."""
    log = []
    engine = MergeReduceTree._engine

    def recording_engine(self, level):
        span = engine(self, level)
        if not any(span is seen for _, seen, _ in log):
            log.append((level, span, span.threshold))
        return span

    monkeypatch.setattr(MergeReduceTree, "_engine", recording_engine)
    return log


def swn_rows(clusters, per_cluster, dim, active, seed):
    return np.stack(list(structured_with_noise(SwnConfig(
        clusters=clusters, points_per_cluster=per_cluster, dim=dim,
        active_dims=active, seed=seed))))


class TestThresholdCarry:
    def test_later_engines_start_at_their_predecessors_final_threshold(
            self, level_engines):
        data = swn_rows(6, 200, 20, 4, 3)
        cfg = MrConfig(k=4, piece_size=50, num_pieces=3, svd_dim=5,
                       coreset_size=40, seed=2)
        coreset = run_piecy_mr(iter(data), 20, cfg)
        assert coreset.total_weight == len(data)
        last_final = {}
        carried = 0
        for level, span, start in level_engines:
            assert start == last_final.get(level, 0.0)
            carried += start > 0.0
            last_final[level] = span.threshold
        assert len(last_final) == 4
        assert carried >= 8

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(pieces=st.integers(1, 30), piece=st.integers(3, 8),
           fanout=st.integers(2, 4), seed=st.integers(0, 2**16))
    def test_mass_and_flush_rule_hold_with_warm_starts(self, pieces, piece,
                                                       fanout, seed):
        rows = np.random.default_rng(seed).normal(scale=3.0, size=(pieces * piece, 4))
        cfg = MrConfig(k=2, piece_size=piece, num_pieces=fanout, svd_dim=2,
                       coreset_size=3, seed=seed)
        tree = MergeReduceTree(4, cfg)
        push_rows(tree, rows, piece)
        assert tree.finalize().total_weight == len(rows)
        assert tree.stats.flush_sources == flush_rule(pieces, fanout)

    def test_scale_drop_costs_no_more_than_cold_starts(self, monkeypatch):
        # The second half is the first scaled by 1e-2, so the threshold the
        # first half's engines pass on is far above what the second half
        # needs; doubling never lowers it. The whole stream's cost is
        # checked against a tree whose engines all start cold.
        first = swn_rows(5, 300, 20, 4, 21)
        data = np.vstack([first, 1e-2 * first])
        k = 5
        cfg = MrConfig(k=k, piece_size=100, num_pieces=3, svd_dim=6,
                       coreset_size=60, seed=8)

        def median_full_cost():
            coreset = run_piecy_mr(iter(data), 20, cfg)
            assert coreset.total_weight == len(data)
            runs = kmeans_repetitions(coreset.points, coreset.weights.astype(float),
                                      k, reps=5, seed=3)
            return float(np.median(evaluate_cost_multi([c for c, _ in runs],
                                                       iter(data))))

        warm = median_full_cost()
        init = SpanEngine.__init__

        def cold_init(self, dim, budget, rank, threshold=0.0):
            init(self, dim, budget, rank)

        monkeypatch.setattr(SpanEngine, "__init__", cold_init)
        cold = median_full_cost()
        assert abs(warm - cold) <= 0.05 * cold


class TestMassAndDeterminism:
    @pytest.mark.parametrize("n,piece,fanout", [(37, 5, 2), (100, 10, 3), (64, 8, 4)])
    def test_mass_conservation(self, n, piece, fanout):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(n, 5))
        cfg = MrConfig(k=2, piece_size=piece, num_pieces=fanout, svd_dim=2,
                       coreset_size=piece, seed=0)
        coreset = run_piecy_mr(iter(rows), 5, cfg)
        assert coreset.total_weight == n

    def test_one_pass(self):
        rng = np.random.default_rng(6)
        rows = [r for r in rng.normal(size=(50, 4))]
        counter = CountingIter(rows)
        cfg = MrConfig(k=2, piece_size=10, num_pieces=2, svd_dim=2,
                       coreset_size=10, seed=0)
        run_piecy_mr(iter(counter), 4, cfg)
        assert counter.count == 50

    def test_determinism(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(120, 6))
        cfg = MrConfig(k=2, piece_size=12, num_pieces=3, svd_dim=3,
                       coreset_size=12, seed=11)
        a = run_piecy_mr(iter(rows), 6, cfg)
        b = run_piecy_mr(iter(rows), 6, cfg)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_piece_dimension_checked(self):
        cfg = MrConfig(k=2, piece_size=5, num_pieces=2, svd_dim=2, coreset_size=5)
        tree = MergeReduceTree(4, cfg)
        with pytest.raises(ValueError):
            tree.push_piece(np.zeros((3, 7)))
        with pytest.raises(ValueError):
            tree.push_piece(np.zeros((9, 4)))
        with pytest.raises(ValueError, match="svd_dim"):
            MergeReduceTree(1, cfg)  # rank 2 in a 1-d stream

    @pytest.mark.parametrize("bad", [np.array([3.0]), 3.0])
    def test_malformed_point_rejected(self, bad):
        pts = [np.zeros(6)] * 10 + [bad] + [np.zeros(6)] * 10
        cfg = MrConfig(k=2, piece_size=30, num_pieces=2, svd_dim=4, coreset_size=25)
        with pytest.raises(ValueError, match="dimension 6"):
            run_piecy_mr(iter(pts), 6, cfg)


class TestQuality:
    def test_projection_is_lossless_on_low_intrinsic_dimension(self):
        # dual run: with rank-3 projections on rank-3 data versus with the
        # projections disabled (rank = ambient dimension skips them)
        rng = np.random.default_rng(8)
        basis, _ = np.linalg.qr(rng.normal(size=(10, 3)))
        rows = rng.normal(size=(200, 3)) @ basis.T
        projected = run_piecy_mr(iter(rows), 10,
                                 MrConfig(k=3, piece_size=50, num_pieces=2,
                                          svd_dim=3, coreset_size=50, seed=5))
        identity = run_piecy_mr(iter(rows), 10,
                                MrConfig(k=3, piece_size=50, num_pieces=2,
                                         svd_dim=10, coreset_size=50, seed=5))
        centers = rng.normal(size=(3, 10))
        cost_a = weighted_cost(projected.points, projected.weights.astype(float),
                               centers)
        cost_b = weighted_cost(identity.points, identity.weights.astype(float),
                               centers)
        assert cost_a == pytest.approx(cost_b, rel=1e-6)

    def test_summary_cost_tracks_full_data_for_fixed_centers(self):
        # coreset-composition sanity: against arbitrary fixed center sets,
        # the weighted summary cost stays within 20% of the full-data cost
        from piecy.datagen import SwnConfig, structured_with_noise
        data = np.stack(list(structured_with_noise(
            SwnConfig(clusters=5, points_per_cluster=100, dim=30,
                      active_dims=6, seed=13))))
        cfg = MrConfig(k=5, piece_size=100, num_pieces=2, svd_dim=10,
                       coreset_size=100, seed=6)
        summary = run_piecy_mr(iter(data), 30, cfg)
        rng = np.random.default_rng(99)
        for _ in range(5):
            centers = rng.uniform(-10, 10, size=(5, 30))
            full = weighted_cost(data, None, centers)
            approx = weighted_cost(summary.points,
                                   summary.weights.astype(float), centers)
            assert abs(approx - full) <= 0.20 * full

    def test_planted_clusters_cost_close_to_full_data(self):
        from piecy.datagen import SwnConfig, structured_with_noise
        from piecy.evaluation import evaluate_cost_multi, kmeans_repetitions
        data = np.stack(list(structured_with_noise(
            SwnConfig(clusters=5, points_per_cluster=80, dim=30,
                      active_dims=6, seed=9))))
        k = 5
        cfg = MrConfig(k=k, piece_size=80, num_pieces=2, svd_dim=8,
                       coreset_size=120, seed=4)
        coreset = run_piecy_mr(iter(data), 30, cfg)
        runs = kmeans_repetitions(coreset.points, coreset.weights.astype(float),
                                  k, reps=5, seed=5)
        cs_med = float(np.median(evaluate_cost_multi([c for c, _ in runs],
                                                     iter(data))))
        full = kmeans_repetitions(data, None, k, reps=5, seed=5)
        full_med = float(np.median([c for _, c in full]))
        assert abs(cs_med - full_med) <= 0.20 * full_med

import tracemalloc

import numpy as np
import pytest

from piecy.evaluation import (CostSummary, evaluate_cost, evaluate_cost_multi,
                              kmeans_repetitions, kmeanspp_seed, lloyd_iterate,
                              weighted_cost)
from piecy.streams import BLOCK_BYTES


class TestSeeding:
    def test_k_equals_distinct_points_covers_all(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        rng = np.random.default_rng(1)
        centers = kmeanspp_seed(pts, None, 4, rng)
        assert weighted_cost(pts, None, centers) == pytest.approx(0.0, abs=1e-12)

    def test_second_center_follows_squared_distance_law(self):
        # first center is forced to the heavy point; remaining mass
        # proportional to weight * D^2 = (0, 2, 8) -> picks (0.2, 0.8)
        pts = np.array([[0.0], [np.sqrt(2.0)], [np.sqrt(8.0)]])
        weights = np.array([1e12, 1.0, 1.0])
        rng = np.random.default_rng(7)
        counts = np.zeros(3)
        trials = 100_000
        for _ in range(trials):
            centers = kmeanspp_seed(pts, weights, 2, rng)
            second = centers[1, 0]
            idx = int(np.argmin(np.abs(pts[:, 0] - second)))
            counts[idx] += 1
        freq = counts / trials
        assert freq[0] == pytest.approx(0.0, abs=1e-4)
        assert freq[1] == pytest.approx(0.2, abs=0.02)
        assert freq[2] == pytest.approx(0.8, abs=0.02)

    def test_coincident_points_k1(self):
        pts = np.tile([[2.0, 3.0]], (5, 1))
        centers = kmeanspp_seed(pts, None, 1, np.random.default_rng(0))
        assert np.allclose(centers[0], [2.0, 3.0])

    def test_more_centers_than_distinct_points_repeats(self):
        pts = np.array([[0.0], [1.0]])
        centers = kmeanspp_seed(pts, None, 4, np.random.default_rng(3))
        assert centers.shape == (4, 1)
        assert set(np.round(centers[:, 0], 9)) <= {0.0, 1.0}

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            kmeanspp_seed(np.zeros((0, 2)), None, 1, np.random.default_rng(0))

    def test_weight_proportional_first_center(self):
        pts = np.array([[0.0], [1.0]])
        weights = np.array([3.0, 1.0])
        rng = np.random.default_rng(11)
        first = [kmeanspp_seed(pts, weights, 1, rng)[0, 0] for _ in range(20_000)]
        share = np.mean(np.array(first) == 0.0)
        assert share == pytest.approx(0.75, abs=0.02)


class TestLloyd:
    def test_fixpoint_stops_immediately(self):
        pts = np.array([[0.0], [2.0], [10.0], [12.0]])
        centers = np.array([[1.0], [11.0]])
        log = []
        out = lloyd_iterate(pts, None, centers, cost_log=log)
        assert np.allclose(out, centers)
        assert len(log) == 2  # second pass observes zero decrease and stops

    def test_one_dimensional_convergence(self):
        pts = np.array([[0.0], [2.0]])
        out = lloyd_iterate(pts, None, np.array([[5.0]]))
        assert out[0, 0] == pytest.approx(1.0)
        assert weighted_cost(pts, None, out) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_cost_monotone(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 80))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        pts = rng.normal(size=(n, d))
        w = rng.integers(1, 5, size=n).astype(float)
        start = pts[rng.choice(n, size=k, replace=False)]
        log = []
        lloyd_iterate(pts, w, start, max_iters=40, tol=0.0, cost_log=log)
        for earlier, later in zip(log, log[1:]):
            assert later <= earlier * (1.0 + 1e-12) + 1e-12

    def test_empty_cluster_gets_reseeded(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        centers = np.array([[0.05, 0.0], [0.05, 0.1], [50.0, 50.0]])
        out = lloyd_iterate(pts, None, centers, max_iters=20)
        cost = weighted_cost(pts, None, out)
        assert cost <= 0.011  # both pairs resolved
        assert len(np.unique(np.round(out, 3), axis=0)) == 3

    def test_weighted_equals_repeated_points(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3))
        w = rng.integers(1, 5, size=12)
        start = pts[:3].copy()
        a = lloyd_iterate(pts, w.astype(float), start, max_iters=30)
        expanded = np.repeat(pts, w, axis=0)
        b = lloyd_iterate(expanded, None, start, max_iters=30)
        assert np.allclose(a, b, atol=1e-9)
        assert weighted_cost(pts, w.astype(float), a) == pytest.approx(
            weighted_cost(expanded, None, b), rel=1e-9)


class TestCostEvaluation:
    def test_centers_at_all_points(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert evaluate_cost(pts, iter(pts)) == 0.0

    def test_single_center_two_points(self):
        pts = [np.array([0.0, 0.0]), np.array([3.0, 4.0])]
        center = np.array([[0.0, 0.0]])
        assert evaluate_cost(center, iter(pts)) == pytest.approx(25.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(1000, 5))
        centers = rng.normal(size=(7, 5))
        got = evaluate_cost(centers, iter(pts))
        want = sum(min(float((x - c) @ (x - c)) for c in centers) for x in pts)
        assert got == pytest.approx(want, rel=1e-10)

    def test_multi_matches_individual(self):
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(200, 4))
        sets = [rng.normal(size=(3, 4)) for _ in range(3)]
        multi = evaluate_cost_multi(sets, iter(pts))
        single = [evaluate_cost(c, iter(pts)) for c in sets]
        assert np.allclose(multi, single, rtol=1e-12)

    def test_weighted_cost_equals_unit_expansion(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(30, 2))
        w = rng.integers(1, 6, size=30)
        centers = rng.normal(size=(4, 2))
        a = weighted_cost(pts, w.astype(float), centers)
        b = weighted_cost(np.repeat(pts, w, axis=0), None, centers)
        assert a == pytest.approx(b, rel=1e-12)


class TestSummaries:
    def test_order_statistics(self):
        s = CostSummary.of([5.0, 1.0, 3.0, 2.0, 4.0])
        assert s.minimum == 1.0
        assert s.maximum == 5.0
        assert s.median == 3.0
        assert s.minimum <= s.median <= s.maximum
        assert s.average == pytest.approx(3.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            CostSummary.of([])

    def test_repetitions_deterministic(self):
        rng = np.random.default_rng(29)
        pts = rng.normal(size=(60, 3))
        a = kmeans_repetitions(pts, None, 4, reps=3, seed=13)
        b = kmeans_repetitions(pts, None, 4, reps=3, seed=13)
        assert [cost for _, cost in a] == [cost for _, cost in b]
        for (ca, _), (cb, _) in zip(a, b):
            assert np.array_equal(ca, cb)

    def test_repetition_costs_vary_with_seed(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(60, 3))
        a = [c for _, c in kmeans_repetitions(pts, None, 4, reps=3, seed=1)]
        b = [c for _, c in kmeans_repetitions(pts, None, 4, reps=3, seed=2)]
        assert a != b


def stacked_cost_multi(center_sets, point_stream, chunk):
    """The list-and-stack buffering evaluate_cost_multi replaced, in blocks
    of ``chunk`` rows."""
    from piecy.evaluation import sq_distances
    sets = [np.asarray(c, dtype=np.float64) for c in center_sets]
    stacked = np.vstack(sets)
    bounds = np.cumsum([0] + [c.shape[0] for c in sets])
    totals = np.zeros(len(sets))
    rows = list(point_stream)
    for start in range(0, len(rows), chunk):
        d2 = sq_distances(np.stack(rows[start:start + chunk]), stacked)
        for i in range(len(sets)):
            totals[i] += d2[:, bounds[i]:bounds[i + 1]].min(axis=1).sum()
    return [float(t) for t in totals]


DIM = 64
ROWS = max(1, BLOCK_BYTES // (8 * DIM))  # rows of DIM float64s in one block


class TestCostBuffer:
    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1],
                             ids=["1", "rows-1", "rows", "rows+1", "2rows+1"])
    def test_bit_identical_to_stacked_chunks(self, n):
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, DIM))
        sets = [rng.normal(size=(4, DIM)) for _ in range(3)]
        got = evaluate_cost_multi(sets, iter(pts))
        assert got == stacked_cost_multi(sets, iter(pts), chunk=ROWS)

    def test_buffer_stays_within_a_block(self):
        """The pass holds about one block of rows whatever d is: 10k points
        at d=1000 are 80 MB, one block is 1 MiB."""
        rng = np.random.default_rng(7)
        sets = [rng.normal(size=(4, 1000)) for _ in range(3)]
        stream = (rng.normal(size=1000) for _ in range(10_000))
        tracemalloc.start()
        try:
            costs = evaluate_cost_multi(sets, stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(c > 0.0 for c in costs)
        assert peak < 2 * BLOCK_BYTES, f"peak {peak} bytes"

    def test_empty_stream_costs_zero(self):
        assert evaluate_cost_multi([np.zeros((2, 3))], iter([])) == [0.0]

    @pytest.mark.parametrize("row", [np.ones(1), np.ones(4), np.ones((1, 3)), 1.0])
    def test_row_of_wrong_shape_rejected(self, row):
        pts = [np.zeros(3), row, np.zeros(3)]
        with pytest.raises(ValueError):
            evaluate_cost_multi([np.zeros((2, 3))], iter(pts))

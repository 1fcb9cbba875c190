import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (assert_identical_features, assert_same_features,
                     brute_weighted_sse, insertion_error_increment, simulate_copy_insertions)
import piecy.coreset
from piecy.coreset import (SAMPLE_CAP, BicoEngine, ClusteringFeature, _min_pairwise_sq,
                           max_insertable_copies)
from piecy.streams import BLOCK_BYTES


class TestInsertionErrorIncrement:
    def test_two_unit_points(self):
        # oracle: cluster {0, x} with |x|^2 = 2 has SSE 2*(d/2)^2 = 1
        assert insertion_error_increment(1, 1, 2.0) == pytest.approx(1.0)

    def test_zero_distance(self):
        assert insertion_error_increment(5, 17, 0.0) == 0.0

    def test_matches_brute_force_recomputation(self):
        # two existing copies at +-a (centroid 0), insert 2 copies at x
        a = 1.0
        x = np.sqrt(3.0)  # squared distance to centroid = 3
        pts = np.array([a, -a, x, x])
        sse_after = float(((pts - pts.mean()) ** 2).sum())
        sse_before = 2 * a * a
        assert insertion_error_increment(2, 2, 3.0) == pytest.approx(
            sse_after - sse_before, rel=1e-12)
        assert insertion_error_increment(2, 2, 3.0) == pytest.approx(3.0)


class TestMaxInsertableCopies:
    def test_worked_boundary_case(self):
        # after 4 copies the error hits the threshold exactly; a 5th exceeds
        take = max_insertable_copies(4, 10, 1.0, 5.0, 2.0)
        assert take == 4
        assert 1.0 + insertion_error_increment(4, 4, 2.0) == pytest.approx(5.0)
        assert 1.0 + insertion_error_increment(4, 5, 2.0) > 5.0

    def test_zero_distance_guard_admits_all(self):
        assert max_insertable_copies(3, 1000, 4.0, 4.0, 0.0) == 1000

    def test_full_feature_admits_none(self):
        assert max_insertable_copies(1, 10, 5.0, 5.0, 1.0) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_sequential_simulation(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            group_size = int(rng.integers(1, 30))
            half = group_size // 2
            spread = float(rng.uniform(0.0, 2.0))
            group = [spread] * half + [-spread] * half + [0.0] * (group_size % 2)
            arr = np.array(group)
            cur_error = float(((arr - arr.mean()) ** 2).sum())
            new = float(rng.uniform(-4.0, 4.0))
            threshold = cur_error + float(rng.uniform(0.0, 20.0))
            copies = int(rng.integers(1, 100))
            dist_sq = float((new - arr.mean()) ** 2)
            got = max_insertable_copies(group_size, copies, cur_error,
                                        threshold, dist_sq)
            want = simulate_copy_insertions(group, new, copies, threshold)
            assert got == want


class TestClusteringFeature:
    def test_cost_at_own_point_is_zero(self):
        cf = ClusteringFeature.from_point(np.array([1.0, 2.0]))
        assert cf.cost_to(np.array([1.0, 2.0])) == pytest.approx(0.0, abs=1e-12)

    def test_cost_examples(self):
        cf = ClusteringFeature(2, np.array([2.0, 0.0]), 4.0, np.array([0.0, 0.0]))
        assert cf.cost_to(np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert cf.cost_to(np.array([0.0, 0.0])) == pytest.approx(4.0)

    def test_internal_error_examples(self):
        single = ClusteringFeature.from_point(np.array([3.0, -1.0]), 1)
        assert single.internal_error() == 0.0
        pair = ClusteringFeature(2, np.array([2.0, 0.0]), 4.0, np.array([0.0, 0.0]))
        assert pair.internal_error() == pytest.approx(2.0)
        heavy = ClusteringFeature.from_point(np.array([1.0, 1.0]), 3)
        assert heavy.internal_error() == pytest.approx(0.0, abs=1e-12)

    def test_cost_dimension_mismatch(self):
        cf = ClusteringFeature.from_point(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            cf.cost_to(np.array([1.0, 2.0, 3.0]))

    def test_cost_identity_against_brute_force(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(100, 7))
        weights = rng.integers(1, 9, size=100)
        features = [ClusteringFeature.from_point(x, int(w))
                    for x, w in zip(pts, weights)]
        for _ in range(20):
            center = rng.normal(size=7)
            total = sum(cf.cost_to(center) for cf in features)
            brute = brute_weighted_sse(pts, weights, center)
            assert total == pytest.approx(brute, rel=1e-10)


class TestEngineBasics:
    def test_first_weighted_point_builds_the_stated_feature(self):
        x = np.array([2.0, -1.0, 0.5])
        engine = BicoEngine(3, 8)
        engine.insert(x, 7)
        feats = engine.features()
        assert len(feats) == 1
        _, cf = feats[0]
        assert cf.weight == 7
        assert np.allclose(cf.linear_sum, 7 * x)
        assert cf.square_sum == pytest.approx(7 * float(x @ x))
        assert cf.internal_error() == pytest.approx(0.0, abs=1e-12)

    def test_feature_budget_and_mass(self):
        rng = np.random.default_rng(2)
        engine = BicoEngine(4, 50)
        for x in rng.normal(size=(1000, 4)):
            engine.insert(x)
        assert engine.num_features <= 50
        assert engine.total_weight == 1000
        coreset = engine.extract_coreset()
        assert len(coreset) <= 50
        assert coreset.total_weight == 1000

    def test_extract_single_feature_centroid(self):
        # one feature with n=3, s=(3,6) extracts as point (1,2), weight 3
        engine = BicoEngine(2, 4)
        engine.insert(np.array([1.0, 2.0]), 3)
        coreset = engine.extract_coreset()
        assert len(coreset) == 1
        assert np.allclose(coreset.points[0], [1.0, 2.0])
        assert coreset.weights[0] == 3

    def test_extract_empty_engine(self):
        coreset = BicoEngine(3, 5).extract_coreset()
        assert len(coreset) == 0
        assert coreset.total_weight == 0

    def test_rejects_bad_inputs(self):
        engine = BicoEngine(2, 4)
        with pytest.raises(ValueError):
            engine.insert(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            engine.insert(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            engine.insert(np.array([1.0, 2.0]), 0)
        with pytest.raises(ValueError, match="overflow"), np.errstate(over="ignore"):
            engine.insert(np.array([1e200, 1e200]))  # finite, but |x|^2 is not
        # fractional weights are refused, not floored; integral values of any type pass
        with pytest.raises(ValueError, match="integer"):
            engine.insert(np.array([1.0, 2.0]), 2.5)
        with pytest.raises(ValueError, match="integer"):
            engine.insert(np.array([3.0, 4.0]), np.float64(1.9))
        assert engine.total_weight == 0
        engine.insert(np.array([1.0, 2.0]), np.int64(2))
        engine.insert(np.array([3.0, 4.0]), 3)
        engine.insert(np.array([5.0, 6.0]), 2.0)
        assert engine.total_weight == 7
        with pytest.raises(ValueError):
            BicoEngine(-1, 4)
        with pytest.raises(ValueError):
            BicoEngine(2, 0)

    def test_dimension_0_engine_grows_to_d(self):
        engine = BicoEngine(0, 4)
        engine.insert(np.zeros(0))
        engine.insert(np.zeros(0), 2)
        assert engine.num_features == 1
        engine.grow(3)
        engine.insert(np.array([1.0, 2.0, 3.0]))
        coreset = engine.extract_coreset()
        assert coreset.points.shape == (2, 3)
        assert coreset.weights.tolist() == [3, 1]
        assert coreset.points.tolist() == [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]

    def test_total_weight_past_int64_is_rejected_before_any_change(self):
        top = int(np.iinfo(np.int64).max)
        with pytest.raises(ValueError, match="total weight"):
            BicoEngine(1, 4).insert(np.ones(1), 10**20)
        engine = BicoEngine(2, 4)
        engine.insert(np.array([1.0, 2.0]), 2**62)
        with pytest.raises(ValueError, match="total weight"):
            engine.insert(np.array([3.0, 4.0]), 2**62)
        assert engine.total_weight == 2**62
        assert engine.num_features == 1
        engine.insert(np.array([3.0, 4.0]), top - 2**62)
        coreset = engine.extract_coreset()
        assert coreset.weights.tolist() == [2**62, top - 2**62]
        assert coreset.total_weight == top

    def test_rejects_reused_buffer_mutated_to_nan(self):
        rng = np.random.default_rng(5)
        engine = BicoEngine(3, 4)
        buf = np.empty(3)
        for x in rng.normal(size=(20, 3)):  # past the build
            buf[:] = x
            engine.insert(buf)
            engine.insert(buf)
        assert engine.num_features <= 4
        total = engine.total_weight
        buf[:] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            engine.insert(buf)
        assert engine.total_weight == total
        for _, cf in engine.features():
            assert np.isfinite(cf.linear_sum).all()

    def test_refilled_buffer_matches_fresh_copies(self):
        # The engine's memos must follow the buffer's content, not the
        # buffer object: refilling one array between inserts leaves the
        # same features as inserting a fresh copy of every point.
        rng = np.random.default_rng(0)
        points = rng.normal(size=(300, 5))
        weights = rng.integers(1, 4, size=300)
        for use_weights in (False, True):
            reused = BicoEngine(5, 20)
            fresh = BicoEngine(5, 20)
            buf = np.empty(5)
            for x, w in zip(points, weights):
                buf[:] = x
                if use_weights:
                    reused.insert(buf, int(w))
                    fresh.insert(x.copy(), int(w))
                else:
                    reused.insert(buf)
                    fresh.insert(x.copy())
            assert reused.threshold == fresh.threshold
            assert_identical_features(reused, fresh)

    def test_bootstrap_only_stream_aggregates_locations(self):
        engine = BicoEngine(2, 10)
        a = np.array([1.0, 1.0])
        b = np.array([2.0, 2.0])
        engine.insert(a, 2)
        engine.insert(b)
        engine.insert(a, 3)
        coreset = engine.extract_coreset()
        assert len(coreset) == 2
        order = np.argsort(coreset.weights)
        assert coreset.weights[order[0]] == 1
        assert coreset.weights[order[1]] == 5
        assert np.allclose(coreset.points[order[1]], a)


def full_matrix_min_pairwise_sq(sample):
    """The m x m reference the block-wise scan replaces."""
    if sample.shape[0] < 2:
        return 1.0
    norms = np.einsum("ij,ij->i", sample, sample)
    d2 = norms[:, None] + norms[None, :] - 2.0 * (sample @ sample.T)
    np.fill_diagonal(d2, np.inf)
    d2[~(d2 > 0.0)] = np.inf
    smallest = float(d2.min())
    if smallest == np.inf:
        return 1e-12 * float(max(norms.max(), 1.0))
    return smallest


@st.composite
def exact_samples(draw):
    """Samples of 2 to SAMPLE_CAP rows (eight row blocks) with small integer
    coordinates times a power of two, so every product and sum in the
    distance matrix is exact and any BLAS kernel gives the same bits. Some
    rows repeat others and every zero coordinate has a random sign."""
    rows = draw(st.integers(2, SAMPLE_CAP))
    dim = draw(st.integers(1, 300))
    distinct = draw(st.integers(1, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(-8, 9, size=(distinct, dim)).astype(np.float64)
    sample = values[rng.integers(0, distinct, size=rows)]
    zeros = sample == 0.0
    sample[zeros] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=int(zeros.sum())))
    return sample * 2.0 ** draw(st.integers(-30, 30))


class TestStartingThreshold:
    def test_min_pairwise_matches_brute_force(self):
        # one row block, then a full sample over eight
        rng = np.random.default_rng(11)
        for rows, dim in [(60, 5), (SAMPLE_CAP, 100)]:
            sample = rng.normal(size=(rows, dim))
            brute = min(float((((sample[i + 1:] - sample[i]) ** 2).sum(axis=1)).min())
                        for i in range(rows - 1))
            assert _min_pairwise_sq(sample) == pytest.approx(brute, rel=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(sample=exact_samples())
    def test_block_scan_equals_full_matrix_bit_for_bit(self, sample):
        assert (_min_pairwise_sq(sample).hex()
                == full_matrix_min_pairwise_sq(sample).hex())

    def test_cold_build_stays_within_a_few_blocks(self):
        # A cold build measures its first SAMPLE_CAP locations. Full
        # SAMPLE_CAP x SAMPLE_CAP matrices of them peaked at about 16 MB of
        # traced allocation; the built engine holds about 0.3 MB.
        points = np.random.default_rng(12).normal(size=(SAMPLE_CAP, 8))
        engine = BicoEngine(8, SAMPLE_CAP - 1)
        tracemalloc.start()
        try:
            for x in points:
                engine.insert(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.threshold > 0.0
        assert engine.total_weight == SAMPLE_CAP
        assert peak < 3 * BLOCK_BYTES, f"peak {peak} bytes"

    def test_no_positive_distance_falls_back_to_a_small_threshold(self):
        # 0.0 and -0.0 are distinct locations at distance zero
        sample = np.array([[0.0], [-0.0]])
        assert _min_pairwise_sq(sample) == 1e-12
        engine = BicoEngine(1, 1)
        engine.insert(np.array([0.0]))
        engine.insert(np.array([-0.0]))
        assert 0.0 < engine.threshold < 1e-9
        engine.insert(np.array([1.0]))
        assert engine.num_features == 1
        assert engine.total_weight == 3


class TestWarmStart:
    def test_given_threshold_is_reported_and_used_at_the_build(self, monkeypatch):
        def no_sample(sample):
            raise AssertionError("a warm engine must not measure its sample")

        monkeypatch.setattr(piecy.coreset, "_min_pairwise_sq", no_sample)
        engine = BicoEngine(2, 3, threshold=5.0)
        assert engine.threshold == 5.0
        for v in (0.0, 0.1, 0.2):
            engine.insert(np.array([v, 0.0]))
        # at most budget locations: still buffered and returned exactly
        assert engine.features()[2][1].reference.tolist() == [0.2, 0.0]
        assert engine.num_features == 3
        engine.insert(np.array([0.3, 0.0]))
        assert engine.threshold == 5.0
        assert engine.num_features == 1
        assert engine.total_weight == 4

    def test_cold_engine_reports_zero_before_the_build(self):
        engine = BicoEngine(2, 3)
        engine.insert(np.array([1.0, 2.0]))
        assert engine.threshold == 0.0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_threshold(self, bad):
        with pytest.raises(ValueError, match="threshold"):
            BicoEngine(2, 3, threshold=bad)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(1, 3), budget=st.integers(1, 6),
           threshold=st.floats(1e-3, 1e3),
           stream=st.lists(st.tuples(st.integers(0, 11), st.integers(1, 6)),
                           min_size=1, max_size=40))
    def test_weighted_insert_equals_unit_inserts(self, dim, budget, threshold, stream):
        # locations on a small grid, so the stream revisits them
        grid = np.random.default_rng(dim).normal(scale=5.0, size=(12, dim))
        a = BicoEngine(dim, budget, threshold)
        b = BicoEngine(dim, budget, threshold)
        for loc, w in stream:
            a.insert(grid[loc], w)
            for _ in range(w):
                b.insert(grid[loc])
        assert a.total_weight == b.total_weight == sum(w for _, w in stream)
        assert a.threshold == b.threshold
        assert_same_features(a, b)


class TestWeightedUnitEquivalence:
    def test_basic_equivalence_without_rebuilds(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(40, 3))
        ws = rng.integers(1, 7, size=40)
        a = BicoEngine(3, 100)
        b = BicoEngine(3, 100)
        for x, w in zip(xs, ws):
            a.insert(x, int(w))
            for _ in range(int(w)):
                b.insert(x)
        assert_same_features(a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_equivalence_through_rebuilds(self, seed):
        rng = np.random.default_rng(40 + seed)
        xs = rng.normal(scale=4.0, size=(400, 5))
        ws = rng.integers(1, 9, size=400)
        a = BicoEngine(5, 25)
        b = BicoEngine(5, 25)
        for x, w in zip(xs, ws):
            a.insert(x, int(w))
            for _ in range(int(w)):
                b.insert(x)
        assert a.total_weight == b.total_weight == int(ws.sum())
        assert a.threshold == b.threshold  # same rebuild history
        assert_same_features(a, b)

    @pytest.mark.parametrize("trial", range(3))
    def test_equivalence_at_criterion_01_scale(self, trial):
        # acceptance criterion 01's first streams, without its time budget
        rng = np.random.default_rng(1000 + trial)
        points = rng.normal(scale=5.0, size=(5000, 20))
        weights = rng.integers(1, 11, size=5000)
        a = BicoEngine(20, 100)
        b = BicoEngine(20, 100)
        for x, w in zip(points, weights):
            a.insert(x, int(w))
            for _ in range(int(w)):
                b.insert(x)
        assert a.total_weight == b.total_weight == int(weights.sum())
        assert a.threshold == b.threshold
        assert_same_features(a, b, rtol=1e-9)

    def test_interleaved_duplicate_locations(self):
        # revisiting an old location later in the stream
        a = BicoEngine(1, 3)
        b = BicoEngine(1, 3)
        seq = [(0.0, 2), (1.0, 1), (0.0, 3), (5.0, 2), (1.0, 4), (9.0, 1), (0.0, 2)]
        for v, w in seq:
            x = np.array([v])
            a.insert(x, w)
            for _ in range(w):
                b.insert(np.array([v]))
        assert_same_features(a, b)


def radius_sq(threshold: float, level: int) -> float:
    """Admission radius^2 of ``level``: T/16 at level 1, halving per level."""
    return threshold / 16.0 * 0.5 ** (level - 1)


def feature_tree(engine):
    """(level, reference, parent index or -1) per feature, read back from the
    preorder traversal that ``features()`` returns."""
    nodes, path = [], []
    for level, cf in engine.features():
        del path[level - 1:]
        nodes.append((level, cf.reference, path[-1] if path else -1))
        path.append(len(nodes) - 1)
    return nodes


class TestLevelRadii:
    @staticmethod
    def one_root_engine(threshold):
        # warm at budget 2: the third distinct location builds the structure,
        # and all three lie within 2e-6 of the first, so they share one root
        root = np.array([3.0, -2.0])
        engine = BicoEngine(2, 2, threshold)
        for dx in (0.0, 1e-6, 2e-6):
            engine.insert(root + [dx, 0.0])
        assert engine.num_features == 1
        return engine, root

    @pytest.mark.parametrize("fraction, roots", [(0.99, 1), (1.01, 2)])
    def test_level_1_radius_is_a_sixteenth_of_the_threshold(self, fraction, roots):
        threshold = 64.0
        engine, root = self.one_root_engine(threshold)
        engine.insert(root + [0.0, math.sqrt(fraction * threshold / 16.0)])
        assert engine.threshold == threshold
        assert [level for level, _ in engine.features()] == [1] * roots

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(1, 3), budget=st.integers(1, 8),
           warm=st.one_of(st.just(0.0), st.floats(1e-2, 1e3)),
           stream=st.lists(st.tuples(st.integers(0, 23), st.integers(1, 20)),
                           max_size=60))
    def test_siblings_apart_and_children_within_their_level_radius(
            self, dim, budget, warm, stream):
        # 24 distinct integer locations keep both the engine's expansion and
        # the explicit differences below exact; the first budget + 1 build
        rng = np.random.default_rng(dim)
        grid = rng.integers(-6, 7, size=(24, dim)).astype(float)
        grid[:, 0] = rng.permutation(24) - 12
        engine = BicoEngine(dim, budget, warm)
        for loc in range(budget + 1):
            engine.insert(grid[loc])
        for loc, w in stream:
            engine.insert(grid[loc], w)
        t = engine.threshold
        nodes = feature_tree(engine)
        for i, (level, ref, parent) in enumerate(nodes):
            r2 = radius_sq(t, level)
            for other_level, other, other_parent in nodes[i + 1:]:
                if other_parent == parent and other_level == level:
                    diff = ref - other
                    assert float(diff @ diff) > r2 * (1.0 - 1e-9)
            if parent >= 0:
                parent_level, parent_ref, _ = nodes[parent]
                diff = ref - parent_ref
                assert float(diff @ diff) <= radius_sq(t, parent_level) * (1.0 + 1e-9)


class TestRebuild:
    def test_conservation_through_rebuilds(self):
        rng = np.random.default_rng(9)
        engine = BicoEngine(3, 12)
        total_w = 0
        total_s = np.zeros(3)
        total_q = 0.0
        for x in rng.normal(scale=3.0, size=(600, 3)):
            w = int(rng.integers(1, 5))
            engine.insert(x, w)
            total_w += w
            total_s += w * x
            total_q += w * float(x @ x)
        feats = [cf for _, cf in engine.features()]
        assert sum(cf.weight for cf in feats) == total_w
        got_s = np.sum([cf.linear_sum for cf in feats], axis=0)
        got_q = sum(cf.square_sum for cf in feats)
        assert np.allclose(got_s, total_s, rtol=1e-7)
        assert got_q == pytest.approx(total_q, rel=1e-9)

    def test_two_distant_points_with_budget_one(self):
        engine = BicoEngine(1, 1)
        engine.insert(np.array([0.0]))
        engine.insert(np.array([100.0]))
        # doubling must eventually merge everything into a single feature
        assert engine.num_features == 1
        feats = engine.features()
        assert feats[0][1].weight == 2

    def test_coincident_features_merge_without_error(self):
        engine = BicoEngine(2, 2)
        x = np.array([1.0, 1.0])
        for _ in range(5):
            engine.insert(x)
        engine.insert(np.array([50.0, 50.0]))
        engine.insert(np.array([-50.0, 50.0]))  # forces a rebuild at budget 2
        feats = [cf for _, cf in engine.features()]
        assert engine.num_features <= 2
        assert sum(cf.weight for cf in feats) == 7

    def test_threshold_respected_after_every_insert(self):
        rng = np.random.default_rng(21)
        engine = BicoEngine(2, 8)
        for x in rng.normal(scale=2.0, size=(300, 2)):
            engine.insert(x)
            t = engine.threshold
            if t == 0.0:
                continue  # still buffering
            for _, cf in engine.features():
                assert cf.internal_error() <= t * (1.0 + 1e-9) + 1e-12


class TestEngineAgainstBruteCost:
    def test_summary_cost_close_to_exact_for_fine_budget(self):
        # every point fits its own feature: summary cost to any center is exact
        rng = np.random.default_rng(33)
        pts = rng.normal(size=(30, 4))
        engine = BicoEngine(4, 64)
        for x in pts:
            engine.insert(x)
        center = rng.normal(size=4)
        total = sum(cf.cost_to(center) for _, cf in engine.features())
        brute = brute_weighted_sse(pts, np.ones(30), center)
        assert total == pytest.approx(brute, rel=1e-10)


class TestGrow:
    """An engine grown mid-stream must match one that saw every point
    zero-padded from the start."""

    @staticmethod
    def grown_and_padded(early, late, budget):
        small, large = early.shape[1], late.shape[1]
        grown = BicoEngine(small, budget)
        padded = BicoEngine(large, budget)
        for x in early:
            grown.insert(x)
            padded.insert(np.concatenate([x, np.zeros(large - small)]))
        state = (grown._roots is not None, grown.threshold)
        grown.grow(large)
        assert grown.dim == large
        for x in late:
            grown.insert(x)
            padded.insert(x)
        assert grown.total_weight == padded.total_weight
        assert grown.threshold == padded.threshold
        assert_same_features(grown, padded, rtol=1e-12)
        return state

    def first_threshold(self, points, budget):
        engine = BicoEngine(points.shape[1], budget)
        for x in points:
            engine.insert(x)
            if engine.threshold > 0.0:
                return engine.threshold
        raise AssertionError("the engine never built its structure")

    def test_grow_during_bootstrap(self):
        rng = np.random.default_rng(50)
        early = rng.normal(size=(20, 3))
        late = rng.normal(size=(300, 5))
        built, _ = self.grown_and_padded(early, late, budget=40)
        assert not built

    def test_grow_after_build_before_rebuild(self):
        # A cold build of distinct points at budget < 256 doubles at once
        # (R_1 falls below the sample's smallest pairwise distance), so the
        # early points are 310 of a shuffled 7x7x7 integer lattice at budget
        # 300, which builds without a rebuild.
        rng = np.random.default_rng(51)
        lattice = np.stack(np.meshgrid(*[np.arange(7.0)] * 3), axis=-1).reshape(-1, 3)
        early = rng.permutation(lattice)[:310]
        late = rng.normal(size=(300, 6))
        built, threshold = self.grown_and_padded(early, late, budget=300)
        assert built
        assert threshold == self.first_threshold(early, 300)

    def test_grow_after_rebuild(self):
        rng = np.random.default_rng(52)
        early = rng.normal(scale=3.0, size=(400, 4))
        late = rng.normal(scale=3.0, size=(400, 7))
        built, threshold = self.grown_and_padded(early, late, budget=20)
        assert built
        assert threshold > self.first_threshold(early, 20)

    def test_grow_keeps_repeated_bootstrap_locations_merged(self):
        grown = BicoEngine(2, 10)
        x = np.array([1.0, -2.0])
        grown.insert(x, 2)
        grown.insert(np.array([0.5, 0.5]))
        grown.grow(3)
        grown.insert(np.array([1.0, -2.0, 0.0]), 3)
        coreset = grown.extract_coreset()
        assert len(coreset) == 2
        assert sorted(coreset.weights.tolist()) == [1, 5]

    def test_grow_cannot_shrink(self):
        engine = BicoEngine(4, 10)
        engine.insert(np.ones(4))
        with pytest.raises(ValueError):
            engine.grow(3)
        engine.grow(4)
        assert engine.dim == 4


class TestBootstrapBuffer:
    """Before the build the engine holds one entry per distinct location,
    however often and in whatever order the locations repeat."""

    def test_repeated_locations_hold_one_entry_each(self):
        # 100k unit inserts over 50 locations, under the budget so the engine
        # never builds. One entry per insert would hold about 40 MB here.
        locations = np.random.default_rng(60).normal(size=(50, 10))
        engine = BicoEngine(10, 1000)
        tracemalloc.start()
        try:
            for i in range(100_000):
                engine.insert(locations[i % 50])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.num_features == 50
        assert engine.total_weight == 100_000
        assert [cf.weight for _, cf in engine.features()] == [2000] * 50
        assert peak < 1 << 20, f"peak {peak} bytes"

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(1, 3), budget=st.integers(1, 8), warm=st.booleans(),
           stream=st.lists(st.tuples(st.integers(0, 7), st.integers(1, 5)),
                           min_size=1, max_size=40),
           grow_at=st.one_of(st.none(), st.integers(0, 40)))
    def test_repeats_equal_one_weighted_insert_per_location(
            self, dim, budget, warm, stream, grow_at):
        # At most ``budget`` locations, so the whole stream is bootstrap. With
        # ``grow_at`` the engine grows by one coordinate before that insert;
        # a location first seen before the grow comes back zero-padded.
        wide = dim + (grow_at is not None)
        rng = np.random.default_rng(budget)
        grid = rng.normal(scale=3.0, size=(budget, wide))

        def location(loc, early, d):
            x = np.zeros(d)
            cols = dim if early else wide
            x[:cols] = grid[loc, :cols]
            return x

        threshold = 2.0 if warm else 0.0
        interleaved = BicoEngine(dim, budget, threshold)
        totals = {}  # location -> [first seen before the grow, summed weight]
        for i, (loc, w) in enumerate(stream):
            if i == grow_at:
                interleaved.grow(wide)
            loc %= budget
            entry = totals.setdefault(loc, [interleaved.dim == dim, 0])
            entry[1] += w
            interleaved.insert(location(loc, entry[0], interleaved.dim), w)
        interleaved.grow(wide)

        weighted = BicoEngine(dim, budget, threshold)
        for loc, (early, w) in totals.items():  # first-arrival order
            if not early:
                weighted.grow(wide)
            weighted.insert(location(loc, early, weighted.dim), w)
        weighted.grow(wide)

        assert interleaved.num_features == weighted.num_features == len(totals)
        assert interleaved.threshold == weighted.threshold == threshold
        assert_identical_features(interleaved, weighted)
        # distinct points past the budget: the build replays the buffer,
        # then rebuilds
        for x in rng.normal(scale=3.0, size=(2 * budget + 2, wide)):
            interleaved.insert(x)
            weighted.insert(x)
        assert interleaved.threshold == weighted.threshold > 0.0
        assert interleaved.total_weight == weighted.total_weight
        assert_identical_features(interleaved, weighted)

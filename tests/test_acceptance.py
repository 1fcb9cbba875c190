"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-10 gate the build at the stated tolerances; criterion 11 is an
informational runtime report and never fails on timing ordering.
"""

import contextlib
import time

import numpy as np
import pytest

from helpers import (assert_same_features, brute_weighted_sse, exact_truncated_svd,
                     full_sketch, insertion_error_increment, principal_angles,
                     reconstruction_error, simulate_copy_insertions, spectrum)
from piecy.coreset import BicoEngine, ClusteringFeature, max_insertable_copies
from piecy.datagen import (LowerBoundConfig, RandomConfig, SwnConfig,
                           lower_bound, random_cube, structured_with_noise)
from piecy.evaluation import (evaluate_cost_multi, kmeans_repetitions,
                              kmeanspp_seed, lloyd_iterate)
from piecy.linalg import SvdTruncation, randomized_truncated_svd, weighted_best_fit
from piecy.mergereduce import MergeReduceTree, MrConfig, run_piecy_mr
from piecy.pipeline import PiecyConfig, run_bico, run_piecy


@contextlib.contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL  {description} "
              f"[{time.perf_counter() - start:.1f}s]")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS  {description} "
          f"[{time.perf_counter() - start:.1f}s]")


def swn_matrix(clusters, per_cluster, dim, active, seed):
    cfg = SwnConfig(clusters=clusters, points_per_cluster=per_cluster,
                    dim=dim, active_dims=active, seed=seed)
    return np.stack(list(structured_with_noise(cfg)))


@pytest.mark.wallclock
def test_criterion_01_weighted_unit_equivalence():
    with criterion(1, "weighted vs unit-copy insertion equivalence, 20 streams"):
        start = time.perf_counter()
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            points = rng.normal(scale=5.0, size=(5000, 20))
            weights = rng.integers(1, 11, size=5000)
            weighted = BicoEngine(20, 100)
            units = BicoEngine(20, 100)
            for x, w in zip(points, weights):
                weighted.insert(x, int(w))
            for x, w in zip(points, weights):
                for _ in range(int(w)):
                    units.insert(x)
            assert weighted.total_weight == units.total_weight == int(weights.sum())
            assert_same_features(weighted, units, rtol=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


@pytest.mark.wallclock
def test_criterion_02_closed_form_insertion_math():
    with criterion(2, "closed-form capacity matches copy-by-copy simulation"):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 1000:
            group_size = int(rng.integers(1, 40))
            half = group_size // 2
            spread = float(rng.uniform(0.0, 2.0))
            group = [spread] * half + [-spread] * half + [0.0] * (group_size % 2)
            arr = np.array(group)
            centroid = float(arr.mean())
            cur_error = float(((arr - centroid) ** 2).sum())
            new = float(rng.uniform(-4.0, 4.0))
            threshold = cur_error + float(rng.uniform(0.0, 25.0))
            copies = int(rng.integers(1, 101))
            dist_sq = (new - centroid) ** 2
            got = max_insertable_copies(group_size, copies, cur_error,
                                        threshold, dist_sq)
            want = simulate_copy_insertions(group, new, copies, threshold)
            assert got == want, (group_size, copies, cur_error, threshold, dist_sq)
            if got:
                inc = insertion_error_increment(group_size, got, dist_sq)
                brute = np.array(group + [new] * got)
                brute_inc = float(((brute - brute.mean()) ** 2).sum()) - cur_error
                assert inc == pytest.approx(brute_inc, rel=1e-9, abs=1e-9)
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_03_feature_cost_identity():
    with criterion(3, "feature cost formula equals brute-force weighted SSE"):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(100, 10))
        weights = rng.integers(1, 12, size=100)
        features = [ClusteringFeature.from_point(x, int(w))
                    for x, w in zip(points, weights)]
        for _ in range(20):
            center = rng.normal(scale=2.0, size=10)
            total = sum(cf.cost_to(center) for cf in features)
            brute = brute_weighted_sse(points, weights, center)
            assert total == pytest.approx(brute, rel=1e-10)


@pytest.mark.wallclock
def test_criterion_04_randomized_svd_accuracy():
    with criterion(4, "randomized SVD within 10% of exact reconstruction error"):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(10):
            data = swn_matrix(20, 50, 200, 20, seed)
            for rank in (20, 25, 30):
                exact = reconstruction_error(data, exact_truncated_svd(data, rank))
                approx = reconstruction_error(
                    data, randomized_truncated_svd(
                        data, SvdTruncation(rank, seed=seed * 100 + rank)))
                worst = max(worst, abs(approx - exact) / exact)
        assert worst <= 0.10, f"worst deviation {worst:.4f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_05_weighted_best_fit_equals_duplication():
    with criterion(5, "weighted best-fit subspace equals explicit duplication"):
        rng = np.random.default_rng(31)
        for _ in range(100):
            rows = int(rng.integers(4, 21))
            cols = int(rng.integers(3, 11))
            rank = min(3, rows, cols)
            mat = rng.normal(size=(rows, cols))
            weights = rng.integers(1, 6, size=rows)
            fast = weighted_best_fit(mat, weights, full_sketch(mat, rank))
            dup = exact_truncated_svd(np.repeat(mat, weights, axis=0), rank)
            assert principal_angles(fast.vectors, dup.vectors).max() <= 1e-8


@pytest.mark.wallclock
def test_criterion_06_pipeline_quality():
    with criterion(6, "piecy and piecy-mr costs close to full-data and plain-engine"):
        start = time.perf_counter()
        data = swn_matrix(20, 500, 200, 20, 7)
        n, dim = data.shape
        k = 20
        budget = 200 * k

        plain = run_bico(iter(data), dim, budget)
        piecy = run_piecy(iter(data), dim,
                          PiecyConfig(k=k, piece_size=2000, svd_dim=30,
                                      coreset_size=budget, seed=3))
        merged = run_piecy_mr(iter(data), dim,
                              MrConfig(k=k, piece_size=2000, num_pieces=3,
                                       svd_dim=30, coreset_size=budget, seed=3))
        for summary in (plain, piecy, merged):
            assert summary.total_weight == n

        def median_full_cost(coreset):
            runs = kmeans_repetitions(coreset.points,
                                      coreset.weights.astype(float),
                                      k, reps=5, seed=11)
            costs = evaluate_cost_multi([c for c, _ in runs], iter(data))
            return float(np.median(costs))

        full_runs = kmeans_repetitions(data, None, k, reps=5, seed=11)
        full_median = float(np.median([c for _, c in full_runs]))
        plain_median = median_full_cost(plain)
        piecy_median = median_full_cost(piecy)
        merged_median = median_full_cost(merged)
        print(f"\n  medians: full={full_median:.4g} plain={plain_median:.4g} "
              f"piecy={piecy_median:.4g} piecy-mr={merged_median:.4g}")

        assert abs(piecy_median - full_median) <= 0.15 * full_median
        assert abs(merged_median - full_median) <= 0.15 * full_median
        assert abs(piecy_median - plain_median) <= 0.10 * plain_median
        assert abs(merged_median - plain_median) <= 0.10 * plain_median
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"


def test_criterion_07_merge_reduce_structure():
    with criterion(7, "merge-and-reduce flush schedule and live-object peaks"):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(45, 6))
        cfg = MrConfig(k=2, piece_size=5, num_pieces=3, svd_dim=2,
                       coreset_size=5, seed=1)
        tree = MergeReduceTree(6, cfg)
        for s in range(0, 45, 5):
            tree.push_piece(rows[s:s + 5])
        assert tree.stats.flush_sources == [0, 0, 0, 1]
        assert tree.stats.peak_live_engines == 2
        tree.finalize()

        for pieces, fanout, seed in ((7, 2, 1), (20, 3, 2), (16, 4, 3), (30, 5, 4)):
            cfg = MrConfig(k=2, piece_size=6, num_pieces=fanout, svd_dim=2,
                           coreset_size=6, seed=seed)
            tree = MergeReduceTree(4, cfg)
            data = np.random.default_rng(seed).normal(size=(6 * pieces, 4))
            for s in range(0, len(data), 6):
                tree.push_piece(data[s:s + 6])
            bound = int(np.ceil(np.log(pieces) / np.log(fanout))) + 1
            assert tree.stats.peak_live_engines <= bound
            tree.finalize()


def test_criterion_08_mass_conservation_everywhere():
    with criterion(8, "coreset weights sum exactly to the stream length"):
        rng = np.random.default_rng(9)
        cases = [(137, 4), (1000, 12), (503, 7)]
        for n, dim in cases:
            data = rng.normal(size=(n, dim))
            assert run_bico(iter(data), dim, 40).total_weight == n
            assert run_piecy(
                iter(data), dim,
                PiecyConfig(k=3, piece_size=50, svd_dim=3, coreset_size=40,
                            seed=1)).total_weight == n
            assert run_piecy_mr(
                iter(data), dim,
                MrConfig(k=3, piece_size=25, num_pieces=3, svd_dim=3,
                         coreset_size=25, seed=1)).total_weight == n
        # weighted ingestion conserves total mass as well
        engine = BicoEngine(3, 20)
        total = 0
        for x in rng.normal(size=(400, 3)):
            w = int(rng.integers(1, 9))
            engine.insert(x, w)
            total += w
        assert engine.extract_coreset().total_weight == total


def test_criterion_09_clustering_primitives():
    with criterion(9, "descent cost monotone; seeding follows the D^2 law"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(int(rng.integers(20, 60)), int(rng.integers(1, 5))))
            k = int(rng.integers(1, 6))
            start = pts[rng.choice(len(pts), size=min(k, len(pts)), replace=False)]
            log = []
            lloyd_iterate(pts, None, start, max_iters=25, tol=0.0, cost_log=log)
            for earlier, later in zip(log, log[1:]):
                assert later <= earlier * (1.0 + 1e-12) + 1e-12

        pts = np.array([[0.0], [np.sqrt(2.0)], [np.sqrt(8.0)]])
        weights = np.array([1e12, 1.0, 1.0])
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        trials = 100_000
        for _ in range(trials):
            centers = kmeanspp_seed(pts, weights, 2, rng)
            counts[int(np.argmin(np.abs(pts[:, 0] - centers[1, 0])))] += 1
        freq = counts / trials
        assert abs(freq[1] - 0.2) <= 0.02
        assert abs(freq[2] - 0.8) <= 0.02
        assert freq[0] <= 1e-4


def test_criterion_10_generator_structure_and_spectra():
    with criterion(10, "generator structural checks and spectrum shapes"):
        lb_cfg = LowerBoundConfig(k=10, n=200)
        lb = np.stack(list(lower_bound(lb_cfg)))
        per_vertex = lb_cfg.n // lb_cfg.k
        for row in lb:
            nz = np.nonzero(row)[0]
            assert len(nz) == 2
            assert row[nz[0]] == lb_cfg.spread and row[nz[1]] == lb_cfg.noise
        gap = lb[0] - lb[1]
        assert float(gap @ gap) == pytest.approx(2 * lb_cfg.noise ** 2)
        lb_spec = spectrum(lb, 30)
        assert lb_spec[lb_cfg.k - 1] / lb_spec[lb_cfg.k] > 10.0

        swn_cfg = SwnConfig(clusters=20, points_per_cluster=50, dim=200,
                            active_dims=20, seed=1)
        swn = np.stack(list(structured_with_noise(swn_cfg)))
        assert np.abs(swn).max() <= swn_cfg.spread
        for cluster in range(swn_cfg.clusters):
            rows = swn[cluster * 50:(cluster + 1) * 50]
            loud = np.nonzero((np.abs(rows) > swn_cfg.noise).any(axis=0))[0]
            assert len(loud) <= swn_cfg.active_dims
        swn_spec = spectrum(swn, 200)
        ratios = swn_spec[:-1] / swn_spec[1:]
        half = len(ratios) // 2
        assert ratios[:half].max() < 1.2
        assert int(np.argmax(ratios)) > half
        assert ratios.max() > 2.0

        rnd = np.stack(list(random_cube(RandomConfig(n=300, seed=2))))
        rnd_spec = spectrum(rnd, 25)
        rnd_ratios = rnd_spec[:-1] / rnd_spec[1:]
        assert rnd_ratios.max() < 1.3


def test_criterion_11_runtime_trend_report():
    with criterion(11, "runtime trend report (informational, non-gating)"):
        k = 50
        budget = 1000
        cfg = SwnConfig(clusters=50, points_per_cluster=2000, dim=1000,
                        active_dims=100, seed=3)
        n = cfg.n_points
        timings = {}

        t0 = time.perf_counter()
        plain = run_bico(structured_with_noise(cfg), cfg.dim, budget)
        timings["bico"] = time.perf_counter() - t0
        assert plain.total_weight == n

        t0 = time.perf_counter()
        piecy = run_piecy(structured_with_noise(cfg), cfg.dim,
                          PiecyConfig(k=k, piece_size=2000, svd_dim=75,
                                      coreset_size=budget, seed=4))
        timings["piecy"] = time.perf_counter() - t0
        assert piecy.total_weight == n

        t0 = time.perf_counter()
        merged = run_piecy_mr(structured_with_noise(cfg), cfg.dim,
                              MrConfig(k=k, piece_size=2000, num_pieces=10,
                                       svd_dim=75, coreset_size=budget, seed=4))
        timings["piecy-mr"] = time.perf_counter() - t0
        assert merged.total_weight == n

        print(f"\n  wall-clock (n={n}, d={cfg.dim}, k={k}, budget={budget}): "
              + "  ".join(f"{name}={secs:.1f}s" for name, secs in timings.items()))
        if timings["piecy-mr"] <= timings["bico"]:
            print("  observed ordering: piecy-mr <= bico (as expected)")
        else:
            print("  observed ordering: piecy-mr > bico on this hardware/instance")

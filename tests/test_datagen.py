import math

import numpy as np
import pytest

from helpers import collect, spectrum
from piecy.datagen import (LowerBoundConfig, RandomConfig, SwnConfig,
                           lower_bound, random_cube, structured_with_noise)

NON_FINITE = (math.inf, -math.inf, math.nan)


class TestStructuredWithNoise:
    CFG = SwnConfig(clusters=6, points_per_cluster=15, dim=40, active_dims=8, seed=4)

    def test_shape(self):
        data = collect(structured_with_noise(self.CFG))
        assert data.shape == (6 * 15, 40)

    def test_coordinate_bounds(self):
        cfg = self.CFG
        data = collect(structured_with_noise(cfg))
        assert np.abs(data).max() <= cfg.spread
        # coordinates above the noise level stay inside one per-cluster
        # dimension set of size active_dims
        for cluster in range(cfg.clusters):
            rows = data[cluster * 15:(cluster + 1) * 15]
            loud = set(np.nonzero((np.abs(rows) > cfg.noise).any(axis=0))[0])
            assert len(loud) <= cfg.active_dims

    def test_deterministic_and_seed_sensitive(self):
        a = collect(structured_with_noise(self.CFG))
        b = collect(structured_with_noise(self.CFG))
        assert np.array_equal(a, b)
        other = SwnConfig(clusters=6, points_per_cluster=15, dim=40,
                          active_dims=8, seed=5)
        assert not np.array_equal(a, collect(structured_with_noise(other)))

    def test_validation(self):
        with pytest.raises(ValueError):
            SwnConfig(clusters=2, points_per_cluster=3, dim=4, active_dims=5)
        with pytest.raises(ValueError):
            SwnConfig(clusters=2, points_per_cluster=3, dim=4, active_dims=2,
                      spread=1.0, noise=2.0)
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match="seed"):
                SwnConfig(clusters=2, points_per_cluster=3, dim=4, active_dims=2,
                          seed=seed)
        for name in ("spread", "noise"):
            for value in NON_FINITE:
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    SwnConfig(clusters=2, points_per_cluster=3, dim=4, active_dims=2,
                              **{name: value})

    def test_spectrum_shape(self):
        # head of large values, slow middle decline, steeper drop near the
        # signal rank
        cfg = SwnConfig(clusters=20, points_per_cluster=50, dim=200,
                        active_dims=20, seed=1)
        values = spectrum(collect(structured_with_noise(cfg)), 200)
        assert np.all(values[:-1] >= values[1:] - 1e-9)
        ratios = values[:-1] / values[1:]
        half = len(ratios) // 2
        assert ratios[:half].max() < 1.2          # slow early decline
        assert int(np.argmax(ratios)) > half      # the knee sits in the tail
        assert ratios.max() > 2.0                 # and it is a real drop
        assert values[0] / values[-1] > 5.0


class TestLowerBound:
    CFG = LowerBoundConfig(k=5, n=50)

    def test_shape_and_support(self):
        cfg = self.CFG
        data = collect(lower_bound(cfg))
        assert data.shape == (cfg.n, cfg.k + cfg.n)
        for row in data:
            nonzero = np.nonzero(row)[0]
            assert len(nonzero) == 2
            assert row[nonzero[0]] == cfg.spread
            assert row[nonzero[1]] == cfg.noise

    def test_vertex_major_order_and_distances(self):
        cfg = self.CFG
        data = collect(lower_bound(cfg))
        per_vertex = cfg.n // cfg.k
        first = data[:per_vertex]
        assert np.all(first[:, 0] == cfg.spread)
        # within one vertex simplex: squared distance 2*noise^2
        d01 = first[0] - first[1]
        assert float(d01 @ d01) == pytest.approx(2 * cfg.noise**2)
        # across vertices: 2*spread^2 + 2*noise^2
        cross = data[0] - data[per_vertex]
        assert float(cross @ cross) == pytest.approx(
            2 * cfg.spread**2 + 2 * cfg.noise**2)

    def test_disjoint_noise_dimensions(self):
        cfg = self.CFG
        data = collect(lower_bound(cfg))
        noise_dims = [int(np.nonzero(row)[0][1]) for row in data]
        assert len(set(noise_dims)) == cfg.n

    def test_spectrum_knee_at_k(self):
        cfg = LowerBoundConfig(k=10, n=200)
        values = spectrum(collect(lower_bound(cfg)), 30)
        assert values[cfg.k - 1] / values[cfg.k] > 10.0
        # flat plateau before the knee, flat floor after it
        assert values[0] / values[cfg.k - 1] < 1.01
        assert values[cfg.k] / values[29] < 1.01

    def test_validation(self):
        with pytest.raises(ValueError):
            LowerBoundConfig(k=1, n=10)
        with pytest.raises(ValueError):
            LowerBoundConfig(k=3, n=10)
        for name in ("spread", "noise"):
            for value in NON_FINITE:
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    LowerBoundConfig(k=2, n=4, **{name: value})


class TestRandomCube:
    def test_shape_bounds_and_mean(self):
        cfg = RandomConfig(n=400, seed=6)
        data = collect(random_cube(cfg))
        assert data.shape == (400, 400)
        assert np.abs(data).max() <= cfg.spread
        # coordinate means concentrate around zero
        bound = 12.0 * cfg.spread / np.sqrt(cfg.n)
        assert np.abs(data.mean(axis=0)).max() <= bound

    def test_deterministic(self):
        cfg = RandomConfig(n=50, seed=9)
        assert np.array_equal(collect(random_cube(cfg)), collect(random_cube(cfg)))

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomConfig(n=0)
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match="seed"):
                RandomConfig(n=3, seed=seed)
        for value in NON_FINITE:
            with pytest.raises(ValueError, match="spread must be finite"):
                RandomConfig(n=3, spread=value)
        assert len(collect(random_cube(RandomConfig(n=3, seed=2**128 - 1)))) == 3

    def test_spectrum_slightly_decreasing_no_knee(self):
        cfg = RandomConfig(n=300, seed=2)
        values = spectrum(collect(random_cube(cfg)), 25)
        ratios = values[:-1] / values[1:]
        assert ratios.max() < 1.3
        assert values[0] / values[-1] < 3.0


class TestStreamingBehaviour:
    def test_generators_are_lazy(self):
        cfg = SwnConfig(clusters=1000, points_per_cluster=1000, dim=8,
                        active_dims=2, seed=0)
        stream = structured_with_noise(cfg)
        first = next(stream)
        assert first.shape == (8,)

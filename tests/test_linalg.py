import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ambient_projection, exact_truncated_svd, full_sketch, jacobi_eigh,
                     principal_angles, reconstruction_error, spectrum)
from piecy.linalg import (Projector, SvdTruncation, project, randomized_truncated_svd,
                          weighted_best_fit)


def random_orthonormal(rng, dim, cols):
    q, _ = np.linalg.qr(rng.normal(size=(dim, cols)))
    return q


def full_svd(a, rank, seed=0):
    """The library's randomized SVD with a sketch spanning the column space."""
    return randomized_truncated_svd(a, full_sketch(a, rank, seed))


class TestExactTruncatedSvd:
    def test_diagonal_matrix(self):
        a = np.diag([3.0, 2.0, 1.0])
        proj = full_svd(a, 2)
        assert np.allclose(proj.singular_values, [3.0, 2.0], atol=1e-12)
        # sign convention makes these exactly the standard basis vectors
        assert np.allclose(proj.vectors[:, 0], [1, 0, 0], atol=1e-12)
        assert np.allclose(proj.vectors[:, 1], [0, 1, 0], atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=7)
        u /= np.linalg.norm(u)
        v = rng.normal(size=5)
        v /= np.linalg.norm(v)
        proj = full_svd(np.outer(u, v), 1)
        assert proj.singular_values[0] == pytest.approx(1.0, abs=1e-10)
        assert abs(float(proj.vectors[:, 0] @ v)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(20, 10))
        proj = full_svd(a, 3)
        gram_eigs = jacobi_eigh(a.T @ a)
        expected = np.sqrt(np.clip(gram_eigs[:3], 0.0, None))
        assert np.allclose(proj.singular_values, expected, rtol=1e-8)

    def test_wide_matrix_uses_small_gram_side(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(6, 40))
        proj = full_svd(a, 5)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(proj.singular_values, ref[:5], rtol=1e-9)
        gram = proj.vectors.T @ proj.vectors
        assert np.allclose(gram, np.eye(5), atol=1e-8)

    def test_rank_beyond_matrix_rank_pads_with_zeros(self):
        rng = np.random.default_rng(13)
        a = np.outer(rng.normal(size=4), rng.normal(size=9))
        proj = full_svd(a, 3)
        assert proj.singular_values[0] > 0
        assert np.all(proj.singular_values[1:] == 0.0)
        gram = proj.vectors.T @ proj.vectors
        assert np.allclose(gram, np.eye(3), atol=1e-8)

    def test_zero_matrix(self):
        proj = full_svd(np.zeros((4, 6)), 2)
        assert np.all(proj.singular_values == 0.0)
        assert np.allclose(proj.vectors.T @ proj.vectors, np.eye(2), atol=1e-12)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            full_svd(np.eye(3), 4)
        with pytest.raises(ValueError):
            full_svd(np.eye(3), 0)

    def test_rejects_non_finite(self):
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(ValueError):
            full_svd(a, 1)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 20), cols=st.integers(1, 12), inner=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_full_sketch_matches_thin_svd(self, rows, cols, inner, seed):
        # a sketch as wide as the smaller side spans the column space, so the
        # randomized backend is exact up to roundoff at every rank
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
        for rank in range(1, min(rows, cols) + 1):
            got = full_svd(a, rank, seed).singular_values
            want = spectrum(a, rank)
            assert np.abs(got - want).max() <= 1e-10 * want[0]


class TestRandomizedTruncatedSvd:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(5)
        a = np.outer(rng.normal(size=50), rng.normal(size=12))
        proj = randomized_truncated_svd(a, SvdTruncation(1, oversample=5, seed=9))
        norm_sq = float((a * a).sum())
        assert reconstruction_error(a, proj) <= 1e-8 * norm_sq

    def test_zero_matrix(self):
        proj = randomized_truncated_svd(np.zeros((30, 8)),
                                        SvdTruncation(2, oversample=5, seed=1))
        assert np.all(proj.singular_values == 0.0)
        assert reconstruction_error(np.zeros((30, 8)), proj) == 0.0

    def test_close_to_exact_on_noisy_low_rank(self):
        rng = np.random.default_rng(17)
        base = rng.normal(size=(120, 4)) @ rng.normal(size=(4, 30))
        noisy = base + 0.01 * rng.normal(size=base.shape)
        exact = exact_truncated_svd(noisy, 4)
        approx = randomized_truncated_svd(noisy, SvdTruncation(4, seed=2))
        e1 = reconstruction_error(noisy, exact)
        e2 = reconstruction_error(noisy, approx)
        assert abs(e2 - e1) <= 0.05 * e1

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(40, 15))
        t = SvdTruncation(3, oversample=4, power_iterations=1, seed=77)
        p1 = randomized_truncated_svd(a, t)
        p2 = randomized_truncated_svd(a, t)
        assert np.array_equal(p1.vectors, p2.vectors)
        assert np.array_equal(p1.singular_values, p2.singular_values)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(40, 15))
        p1 = randomized_truncated_svd(a, SvdTruncation(3, seed=1))
        p2 = randomized_truncated_svd(a, SvdTruncation(3, seed=2))
        assert not np.array_equal(p1.vectors, p2.vectors)

    def test_two_sided_path_on_tall_input(self):
        # a tall input (600 rows, sketch of 5) still recovers an exact rank-3 matrix
        rng = np.random.default_rng(31)
        base = rng.normal(size=(600, 3)) @ rng.normal(size=(3, 20))
        proj = randomized_truncated_svd(base, SvdTruncation(3, oversample=2, seed=4))
        norm_sq = float((base * base).sum())
        assert reconstruction_error(base, proj) <= 1e-6 * norm_sq

    def test_rank_plus_oversample_must_fit(self):
        with pytest.raises(ValueError):
            randomized_truncated_svd(np.eye(5), SvdTruncation(3, oversample=10))


class TestProject:
    def test_full_space_projection_is_identity(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=(9, 6))
        basis = random_orthonormal(rng, 6, 6)
        proj = Projector(basis, np.ones(6))
        assert np.allclose(project(a, proj, np.eye(6)), a, atol=1e-10)

    def test_diagonal_top_two(self):
        a = np.diag([3.0, 2.0, 1.0])
        proj = full_svd(a, 2)
        assert np.allclose(project(a, proj, np.eye(3)), np.diag([3.0, 2.0, 0.0]), atol=1e-10)

    def test_residual_matches_tail_singular_values(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(15, 8))
        proj = full_svd(a, 3)
        tail = np.linalg.svd(a, compute_uv=False)[3:]
        expected = float((tail ** 2).sum())
        assert reconstruction_error(a, proj) == pytest.approx(expected, rel=1e-8)

    def test_dimension_mismatch(self):
        proj = full_svd(np.eye(4), 2)
        with pytest.raises(ValueError):
            project(np.zeros((3, 5)), proj, np.eye(4))
        with pytest.raises(ValueError):
            project(np.zeros((3, 4)), proj, np.eye(5, 2))

    def test_coordinates_in_a_containing_basis(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(9, 7))
        proj = full_svd(a, 2)
        basis, _ = np.linalg.qr(np.hstack([proj.vectors, rng.normal(size=(7, 3))]))
        coords = project(a, proj, basis)
        assert coords.shape == (9, 5)
        assert np.allclose(coords, ambient_projection(a, proj) @ basis, rtol=0, atol=1e-12)
        assert np.allclose(coords @ basis.T, ambient_projection(a, proj), rtol=0, atol=1e-12)


class TestWeightedBestFit:
    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(12, 6))
        w = weighted_best_fit(a, np.ones(12, dtype=int), full_sketch(a, 3, seed=3))
        u = exact_truncated_svd(a, 3)
        assert principal_angles(w.vectors, u.vectors).max() <= 1e-8

    def test_matches_explicit_duplication(self):
        rng = np.random.default_rng(47)
        a = rng.normal(size=(4, 3))
        weights = np.array([1, 2, 1, 3])
        dup = np.repeat(a, weights, axis=0)
        w = weighted_best_fit(a, weights, full_sketch(a, 2))
        u = exact_truncated_svd(dup, 2)
        assert principal_angles(w.vectors, u.vectors).max() <= 1e-8
        assert np.allclose(w.singular_values, u.singular_values, rtol=1e-9)

    def test_single_row_spans_that_row(self):
        row = np.array([[3.0, 0.0, 4.0]])
        proj = weighted_best_fit(row, [5], full_sketch(row, 1))
        direction = row[0] / np.linalg.norm(row[0])
        assert abs(float(proj.vectors[:, 0] @ direction)) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_weights(self):
        a = np.eye(3)
        with pytest.raises(ValueError):
            weighted_best_fit(a, [1, 0, 1], full_sketch(a, 1))
        with pytest.raises(ValueError):
            weighted_best_fit(a, [1, -2, 1], full_sketch(a, 1))
        with pytest.raises(ValueError):
            weighted_best_fit(a, [1, 1], full_sketch(a, 1))
        with pytest.raises(ValueError):
            weighted_best_fit(a, [1.5, 1, 1], full_sketch(a, 1))

    def test_projection_keeps_weights_and_scale(self):
        # projecting the original rows (not the scaled ones) must reproduce
        # points from the duplicated matrix's subspace
        rng = np.random.default_rng(53)
        a = rng.normal(size=(6, 4))
        weights = np.array([2, 1, 4, 1, 3, 2])
        proj = weighted_best_fit(a, weights, full_sketch(a, 2))
        dup = np.repeat(a, weights, axis=0)
        dup_proj = exact_truncated_svd(dup, 2)
        got = project(a, proj, np.eye(4))
        want = ambient_projection(a, dup_proj)
        assert np.allclose(got, want, atol=1e-8)


class TestProjectorInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_orthonormal_columns_both_backends(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(8, 40))
        cols = int(rng.integers(4, 12))
        rank = int(rng.integers(1, min(rows, cols) - 1)) if min(rows, cols) > 2 else 1
        a = rng.normal(size=(rows, cols))
        for proj in (full_svd(a, rank, seed),
                     randomized_truncated_svd(
                         a, SvdTruncation(rank, oversample=min(3, min(rows, cols) - rank),
                                          seed=seed))):
            gram = proj.vectors.T @ proj.vectors
            assert np.abs(gram - np.eye(rank)).max() <= 1e-8
            sv = proj.singular_values
            assert np.all(sv[:-1] >= sv[1:] - 1e-12)
            assert np.all(sv >= 0.0)

    def test_error_monotone_in_rank(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(18, 9))
        errors = [reconstruction_error(a, exact_truncated_svd(a, r))
                  for r in range(1, 9)]
        assert all(e1 >= e2 - 1e-9 for e1, e2 in zip(errors, errors[1:]))

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_matches_duplication_property(self, seed):
        rng = np.random.default_rng(100 + seed)
        rows = int(rng.integers(4, 20))
        cols = int(rng.integers(3, 10))
        rank = min(3, cols, rows)
        a = rng.normal(size=(rows, cols))
        weights = rng.integers(1, 6, size=rows)
        w = weighted_best_fit(a, weights, full_sketch(a, rank))
        u = exact_truncated_svd(np.repeat(a, weights, axis=0), rank)
        assert principal_angles(w.vectors, u.vectors).max() <= 1e-8

    def test_projector_arrays_read_only(self):
        proj = full_svd(np.eye(3), 2)
        with pytest.raises(ValueError):
            proj.vectors[0, 0] = 9.0

"""Contribution pipeline checks: cosine, similarity matrix, factors, weights."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fednorm import contribution as co


def random_similarity(rng, r):
    """A valid similarity matrix built from random unit vectors."""
    latents = [rng.normal(size=6) for _ in range(r)]
    return co.similarity_matrix(latents, range(r))


class TestCosine:
    def test_self_similarity_is_one(self):
        assert co.cosine([3.0, 4.0], [3.0, 4.0]) == 1.0

    def test_orthogonal_is_zero(self):
        assert co.cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antiparallel_is_minus_one(self):
        assert co.cosine([2.0, 0.0], [-2.0, 0.0]) == -1.0

    def test_45_degrees(self):
        assert_allclose(co.cosine([1.0, 1.0], [1.0, 0.0]), 1.0 / np.sqrt(2.0), rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            assert_allclose(co.cosine(2.5 * a, 7.0 * b), co.cosine(a, b), rtol=1e-12)

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=4) * 10.0 ** rng.integers(-6, 7)
            assert -1.0 <= co.cosine(a, 3.0 * a) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(co.DegenerateLatent):
            co.cosine([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            co.cosine([1.0, 0.0], [1.0, 0.0, 0.0])


class TestSimilarityMatrix:
    def test_worked_example(self):
        latents = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert_array_equal(
            co.similarity_matrix(latents, [0, 1, 2]),
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        )

    def test_identical_latents_give_all_ones(self):
        z = np.array([0.3, -1.2, 0.5])
        assert_allclose(co.similarity_matrix([z] * 4, range(4)), 1.0, rtol=0, atol=1e-12)

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(2)
        for r in (2, 3, 7, 12):
            s = random_similarity(rng, r)
            assert_array_equal(s, s.T)
            assert_array_equal(np.diagonal(s), 1.0)
            assert s.min() >= -1.0 and s.max() <= 1.0

    def test_matches_pairwise_cosine(self):
        rng = np.random.default_rng(3)
        latents = [rng.normal(size=5) for _ in range(5)]
        s = co.similarity_matrix(latents, range(5))
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert_allclose(s[i, j], co.cosine(latents[i], latents[j]), rtol=1e-12)

    def test_degenerate_latent_names_client(self):
        with pytest.raises(co.DegenerateLatent, match="client 9") as info:
            co.similarity_matrix([np.array([1.0, 0.0]), np.zeros(2)], [4, 9])
        assert info.value.client_id == 9

    def test_needs_two_clients(self):
        with pytest.raises(ValueError, match=">= 2"):
            co.similarity_matrix([np.ones(3)], [0])

    def test_needs_consistent_dims(self):
        """Latents of one length, and as many of them as client ids."""
        with pytest.raises(ValueError, match="dimensions"):
            co.similarity_matrix([np.ones(3), np.ones(4)], [0, 1])
        with pytest.raises(ValueError, match="3 latents for 2 client ids"):
            co.similarity_matrix([np.ones(3)] * 3, [0, 1])


class TestContributionFactors:
    def test_worked_example(self):
        s = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        lam = co.contribution_factors(s, temperature=1.0)
        assert_allclose(lam, [0.57768, 0.57768, 0.84464], rtol=0, atol=1e-5)
        # the client with disjoint data gets the strictly largest factor
        assert lam[2] > lam[0] and lam[2] > lam[1]

    def test_identical_clients_uniform(self):
        lam = co.contribution_factors(np.ones((3, 3)), temperature=0.5)
        assert_allclose(lam, 2.0 / 3.0, rtol=1e-15)

    def test_huge_temperature_flattens(self):
        rng = np.random.default_rng(4)
        for r in (2, 5, 9):
            lam = co.contribution_factors(random_similarity(rng, r), temperature=1e9)
            assert np.abs(lam - (r - 1) / r).max() < 1e-6

    def test_unit_temperature_equals_unscaled_form(self):
        """Dividing by T=1.0 is exact, so the scaled and raw forms agree."""
        rng = np.random.default_rng(5)
        s = random_similarity(rng, 6)
        lam = co.contribution_factors(s, temperature=1.0)
        off = s[~np.eye(6, dtype=bool)].reshape(6, 5)
        sigma = off.sum(axis=1) + np.diagonal(s)
        e = np.exp(sigma - sigma.max())
        assert_array_equal(lam, 1.0 - e / e.sum())

    def test_sum_identity_and_range(self):
        """Factors sum to R-1 and stay inside (0,1) across random matrices."""
        rng = np.random.default_rng(6)
        for _ in range(200):
            r = int(rng.integers(2, 21))
            s = random_similarity(rng, r)
            t = float(rng.choice([0.25, 0.5, 1.0, 4.0, 100.0]))
            lam = co.contribution_factors(s, t)
            assert abs(lam.sum() - (r - 1)) < 1e-9
            assert np.all(lam > 0.0) and np.all(lam < 1.0)

    def test_extreme_sharpness_saturates_gracefully(self):
        """Temperatures far below the working range may underflow the softmax;
        the factors then touch the closed interval ends instead of blowing up."""
        s = np.ones((3, 3))
        s[2, :2] = s[:2, 2] = -1.0
        lam = co.contribution_factors(s, temperature=1e-3)
        assert abs(lam.sum() - 2.0) < 1e-9
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0)

    def test_outlier_gets_strict_maximum(self):
        """Block structure: one client orthogonal to an all-ones block."""
        for r in (3, 5, 10):
            s = np.ones((r, r))
            s[-1, :] = 0.0
            s[:, -1] = 0.0
            s[-1, -1] = 1.0
            lam = co.contribution_factors(s, temperature=0.5)
            assert np.all(lam[-1] > lam[:-1])

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            co.contribution_factors(np.ones((2, 2)), temperature=0.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            co.contribution_factors(np.ones((2, 3)), temperature=1.0)

    def test_overflowing_temperature_is_rejected_without_warnings(self):
        """Row sums over a subnormal temperature overflow float64: that names
        the temperature; a finite quotient whose spread overflows still gives
        saturated factors.  Neither emits a RuntimeWarning."""
        s = np.ones((3, 3))
        s[2, :2] = s[:2, 2] = -1.0  # row sums 1, 1, -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="temperature 1e-310"):
                co.contribution_factors(np.ones((2, 2)), temperature=1e-310)
            lam = co.contribution_factors(s, temperature=1e-308)
        assert_array_equal(lam, [0.5, 0.5, 1.0])


class TestNormalizeWeights:
    def test_worked_example(self):
        lam = np.array([0.57768, 0.57768, 0.84464])
        u = co.normalize_weights(lam, np.full(3, 1.0 / 3.0))
        assert_allclose(u, [0.28884, 0.28884, 0.42232], rtol=0, atol=1e-5)

    def test_uniform_factors_reproduce_importance(self):
        nu = np.array([0.5, 0.3, 0.2])
        u = co.normalize_weights(np.full(3, 0.25), nu)
        assert_array_equal(u, nu)

    def test_uniform_factors_near_identity_generic(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = int(rng.integers(2, 12))
            nu = rng.dirichlet(np.ones(r))
            u = co.normalize_weights(np.full(r, 0.37), nu)
            assert_allclose(u, nu, rtol=0, atol=1e-15)

    def test_degenerate_importance_passthrough(self):
        u = co.normalize_weights(np.array([0.3, 0.5, 0.9]), np.array([1.0, 0.0, 0.0]))
        assert_array_equal(u, [1.0, 0.0, 0.0])

    def test_simplex_contract(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            r = int(rng.integers(2, 21))
            lam = co.contribution_factors(random_similarity(rng, r), 0.5)
            nu = rng.dirichlet(np.ones(r))
            u = co.normalize_weights(lam, nu)
            assert np.all(u >= 0.0)
            assert abs(u.sum() - 1.0) < 1e-12

    def test_rejects_negative_importance(self):
        with pytest.raises(ValueError, match="non-negative"):
            co.normalize_weights(np.array([0.5, 0.5]), np.array([1.5, -0.5]))

    def test_rejects_unnormalized_importance(self):
        with pytest.raises(ValueError, match="sum to 1"):
            co.normalize_weights(np.array([0.5, 0.5]), np.array([0.7, 0.7]))

    def test_rejects_vanishing_product(self):
        with pytest.raises(ValueError, match="vanished"):
            co.normalize_weights(np.array([0.0, 0.0]), np.array([0.5, 0.5]))

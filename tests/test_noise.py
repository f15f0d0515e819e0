import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhsense.errors import DomainError
from nhsense.noise import (
    binomial_variance, propagate_error,
    sample_projection, sample_projection_batch, scaled_binomial_variance,
)
from nhsense.verification import _variance_standard_error, make_rng


class TestBinomialVariance:
    def test_deterministic_outcomes(self):
        assert binomial_variance(0.0, 7) == 0.0
        assert binomial_variance(1.0, 7) == 0.0

    def test_arithmetic(self):
        assert binomial_variance(0.5, 100) == pytest.approx(0.0025, rel=1e-15)

    def test_monte_carlo(self):
        # 1e5 simulated estimators, nu=50, p=0.3
        est = sample_projection_batch(0.3, 1.0, 50, 100_000, seed=715)
        analytic = binomial_variance(0.3, 50)
        assert analytic == pytest.approx(0.0042, rel=1e-12)
        se = _variance_standard_error(0.3, 1.0, 50, 100_000)
        assert abs(est.var(ddof=1) - analytic) < 5 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            binomial_variance(1.2, 10)
        with pytest.raises(DomainError):
            binomial_variance(0.5, 0)


class TestScaledBinomialVariance:
    def test_reduces_to_binomial(self):
        assert scaled_binomial_variance(0.5, 1.0, 1) == pytest.approx(0.25, rel=1e-15)
        for p in (0.0, 0.3, 0.8, 1.0):
            assert scaled_binomial_variance(p, 1.0, 9) == binomial_variance(p, 9)

    def test_edges(self):
        assert scaled_binomial_variance(0.0, 2.0, 5) == 0.0
        assert scaled_binomial_variance(2.0, 2.0, 5) == 0.0

    def test_gain_scale(self):
        # C0 = e^{2 Gamma T} with Gamma T = 0.5; P = 1, nu = 10
        c0 = math.exp(1.0)
        assert scaled_binomial_variance(1.0, c0, 10) == pytest.approx(
            (math.e - 1.0) / 10.0, rel=1e-14)

    def test_monte_carlo_rescaled(self):
        # estimator scale*(B/nu) with B ~ Bin(nu, P/C0)
        c0, p, nu = math.exp(1.0), 1.0, 10
        est = sample_projection_batch(p, c0, nu, 200_000, seed=9182)
        se = _variance_standard_error(p, c0, nu, 200_000)
        assert abs(est.var(ddof=1) - scaled_binomial_variance(p, c0, nu)) < 5 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            scaled_binomial_variance(0.5, 0.9, 10)  # scale below 1
        with pytest.raises(DomainError):
            scaled_binomial_variance(2.5, 2.0, 10)  # p above scale


class TestMultinomialVariance:
    def test_arithmetic(self):
        assert binomial_variance(0.25, 4) == pytest.approx(0.046875, rel=1e-15)

    def test_certain_outcome(self):
        assert binomial_variance(1.0, 3) == 0.0

    def test_monte_carlo_marginals(self):
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        n_shots, reps = 100, 100_000
        counts = make_rng(5150).multinomial(n_shots, probs, size=reps)
        est = counts / n_shots
        for i, p in enumerate(probs):
            analytic = binomial_variance(p, n_shots)
            se = _variance_standard_error(p, 1.0, n_shots, reps)
            assert abs(est[:, i].var(ddof=1) - analytic) < 5 * se


class TestPropagateError:
    def test_single_gradient(self):
        assert propagate_error([1.0], [0.3]) == pytest.approx(0.3, rel=1e-15)

    def test_antisymmetric_pair(self):
        a, v = 1.7, 0.02
        assert propagate_error([a, -a], [v, v]) == pytest.approx(2 * a**2 * v, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            propagate_error([1.0, 2.0], [0.1])

    @given(g=st.floats(-50, 50), v=st.floats(0, 10), scale=st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_quadratic_in_gradient_linear_in_variance(self, g, v, scale):
        base = propagate_error([g], [v])
        assert propagate_error([scale * g], [v]) == pytest.approx(scale**2 * base, rel=1e-9, abs=1e-12)
        assert propagate_error([g], [scale * v]) == pytest.approx(scale * base, rel=1e-9, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(0, 5)), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_additive_over_components(self, pairs):
        grads = [g for g, _ in pairs]
        variances = [v for _, v in pairs]
        total = propagate_error(grads, variances)
        parts = sum(propagate_error([g], [v]) for g, v in pairs)
        assert total == pytest.approx(parts, rel=1e-9, abs=1e-12)


class TestSampleProjection:
    def test_degenerate_probabilities(self):
        for seed in (0, 1, 99):
            assert sample_projection(0.0, 1.0, 20, seed) == 0.0
            assert sample_projection(1.0, 1.0, 20, seed) == 1.0
            assert sample_projection(2.0, 2.0, 20, seed) == 2.0

    def test_seed_regression(self):
        # pinned at first implementation: Philox stream, Bernoulli thresholding
        assert sample_projection(0.3, 1.0, 50, 20240811) == pytest.approx(0.34, abs=0)
        assert sample_projection(0.7, 2.5, 40, 99) == pytest.approx(0.875, abs=0)

    def test_reproducible(self):
        a = sample_projection(0.42, 1.0, 137, 7)
        b = sample_projection(0.42, 1.0, 137, 7)
        assert a == b

    def test_batch_matches_distribution(self):
        vals = sample_projection_batch(0.25, 1.0, 40, 50_000, seed=3)
        assert vals.mean() == pytest.approx(0.25, abs=0.005)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_projection(1.5, 1.0, 10, 0)

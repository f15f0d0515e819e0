import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.stats import binom

from nhsense.errors import DomainError
from nhsense.noise import (
    _binomial_pmf, check_trials, propagate_error, sample_projection_batch, sample_projection_counts,
    scaled_binomial_variance,
)
from nhsense.pt_ep import PtEpParams, response_variance
from nhsense.verification import (
    _NOISE_CASES, _count_variance, _noise_z_scores, _variance_standard_error, check_noise, make_rng,
)


class TestBinomialVariance:
    """The law at c0 = 1, the plain binomial p(1 - p)/nu."""

    def test_deterministic_outcomes(self):
        assert scaled_binomial_variance(0.0, 1.0, 7) == 0.0
        assert scaled_binomial_variance(1.0, 1.0, 7) == 0.0

    def test_arithmetic(self):
        assert scaled_binomial_variance(0.5, 1.0, 100) == pytest.approx(0.0025, rel=1e-15)

    def test_monte_carlo(self):
        # 1e5 simulated estimators, nu=50, p=0.3
        est = sample_projection_batch(0.3, 1.0, 50, 100_000, seed=715)
        analytic = scaled_binomial_variance(0.3, 1.0, 50)
        assert analytic == pytest.approx(0.0042, rel=1e-12)
        se = _variance_standard_error(0.3, 1.0, 50, 100_000)
        assert abs(est.var(ddof=1) - analytic) < 5 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            scaled_binomial_variance(1.2, 1.0, 10)
        with pytest.raises(DomainError):
            scaled_binomial_variance(0.5, 1.0, 0)


class TestScaledBinomialVariance:
    def test_reduces_to_binomial(self):
        assert scaled_binomial_variance(0.5, 1.0, 1) == pytest.approx(0.25, rel=1e-15)
        for p in (0.0, 0.3, 0.8, 1.0):
            assert scaled_binomial_variance(p, 1.0, 9) == p * (1.0 - p) / 9

    @pytest.mark.parametrize("c0", [1.0, math.e])
    def test_stack_member_is_its_lone_call(self, c0):
        ps = np.linspace(0.0, c0, 11)
        stacked = scaled_binomial_variance(ps, c0, 9)
        assert stacked.shape == ps.shape
        assert stacked.tolist() == [scaled_binomial_variance(p, c0, 9) for p in ps.tolist()]

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_stack_with_one_bad_member_names_p(self, bad):
        with pytest.raises(DomainError, match=r"probability p\b"):
            scaled_binomial_variance(np.array([0.2, bad, 0.4]), 1.0, 9)

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
        assert scaled_binomial_variance(0.25, 1.0, 4) == pytest.approx(0.046875, rel=1e-15)

    def test_certain_outcome(self):
        assert scaled_binomial_variance(1.0, 1.0, 3) == 0.0

    def test_monte_carlo_marginals(self):
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        n_shots, reps = 100, 100_000
        counts = make_rng(5150).multinomial(n_shots, probs, size=reps)
        est = counts / n_shots
        for i, p in enumerate(probs):
            analytic = scaled_binomial_variance(p, 1.0, n_shots)
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

    @pytest.mark.parametrize("gradient, variances", [([1.0], [math.nan]), ([math.nan], [0.1]),
                                                     ([math.inf], [0.0]), ([1.0, 2.0], [0.1, math.inf])])
    def test_non_finite_rejected(self, gradient, variances):
        # a DomainError, not a nan result (inf² · 0) or a numpy RuntimeWarning
        with pytest.raises(DomainError, match="gradient and variances must be finite"):
            propagate_error(gradient, variances)

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
            assert sample_projection_batch(0.0, 1.0, 20, 5, seed).tolist() == [0.0] * 5
            assert sample_projection_batch(1.0, 1.0, 20, 5, seed).tolist() == [1.0] * 5
            assert sample_projection_batch(2.0, 2.0, 20, 5, seed).tolist() == [2.0] * 5

    def test_reproducible(self):
        a = sample_projection_batch(0.42, 1.0, 137, 50, 7)
        b = sample_projection_batch(0.42, 1.0, 137, 50, 7)
        assert a.tolist() == b.tolist()

    def test_batch_matches_distribution(self):
        vals = sample_projection_batch(0.25, 1.0, 40, 50_000, seed=3)
        assert vals.mean() == pytest.approx(0.25, abs=0.005)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_projection_batch(1.5, 1.0, 10, 1, 0)


class TestCheckTrials:
    @pytest.mark.parametrize("nu", [1, 7, np.int64(3), np.int32(400), np.uint8(2)])
    def test_accepts_integers(self, nu):
        assert check_trials(nu) is nu

    @pytest.mark.parametrize("nu", [True, False, 2.5, 2.0, np.float64(3.0), "3", None, 0, -1, np.int64(0)])
    def test_rejects_naming_nu(self, nu):
        with pytest.raises(DomainError, match=r"\bnu\b"):
            check_trials(nu)

    @pytest.mark.parametrize("call", [
        lambda: scaled_binomial_variance(0.3, 1.0, 2.5),
        lambda: scaled_binomial_variance(0.3, 2.0, 2.5),
        lambda: PtEpParams(1, 0.5, 4, 0.05, 1, nu=2.5),
        lambda: sample_projection_counts(0.3, 1.0, 2.5, 10, 1),
        lambda: sample_projection_batch(0.3, 1.0, True, 10, 1),
    ])
    def test_non_integer_counts_fail_at_the_boundary(self, call):
        with pytest.raises(DomainError, match="nu"):
            call()


@pytest.fixture(scope="module")
def noise_z():
    """z-scores of the noise check's 15 cases at 300 fixed seeds, one row per seed."""
    return np.array([_noise_z_scores(seed) for seed in range(300)])


class TestProjectionCounts:
    @pytest.mark.parametrize("p, scale, nu", _NOISE_CASES)
    def test_pmf_is_scipy_binomial(self, p, scale, nu):
        pmf = _binomial_pmf(p / scale, nu)
        np.testing.assert_allclose(pmf, binom.pmf(np.arange(nu + 1), nu, p / scale), rtol=1e-10, atol=1e-300)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    @pytest.mark.parametrize("nu", [1, 25, 400])
    def test_certain_outcomes_fill_one_bin(self, scale, nu):
        for p, occupied in ((0.0, 0), (scale, nu)):
            counts = sample_projection_counts(p, scale, nu, 50_000, seed=nu)
            assert counts[occupied] == 50_000 and np.count_nonzero(counts) == 1
            assert _count_variance(counts, scale) == 0.0

    def test_counts_hold_every_estimate(self):
        counts = sample_projection_counts(0.6 * math.e, math.e, 25, 50_000, seed=11)
        assert counts.shape == (26,) and counts.sum() == 50_000

    def test_count_variance_is_the_variance_of_the_estimates(self):
        counts = sample_projection_counts(0.3, 2.5, 40, 5_000, seed=4)
        estimates = np.repeat(2.5 * np.arange(41) / 40, counts)
        assert _count_variance(counts, 2.5) == pytest.approx(estimates.var(ddof=1), rel=1e-12)

    @pytest.mark.parametrize("p, scale, nu, reps", [
        (0.5, 0.0, 10, 10), (0.5, -1.0, 10, 10), (-0.1, 1.0, 10, 10), (1.5, 1.0, 10, 10),
        (0.5, 1.0, 0, 10), (0.5, 1.0, 2.5, 10), (0.5, 1.0, True, 10), (0.5, 1.0, 10, 0),
        (0.5, math.inf, 10, 10), (0.5, math.nan, 10, 10), (0.5, 0.5, 10, 10),
        (math.nan, 1.0, 10, 10), (0.5, 1.0, 10, 2.5), (0.5, 1.0, 10, True),
    ])
    def test_domain_matches_the_batch_sampler(self, p, scale, nu, reps):
        # the one input rule, tabled: each case differs from (0.5, 1.0, 10, 10) in one
        # input, and the law, both samplers and response_variance (those that take
        # the input) each raise a DomainError whose message opens with its name
        case = dict(p=p, scale=scale, nu=nu, reps=reps)
        (bad,) = [name for name, good in zip(case, (0.5, 1.0, 10, 10)) if repr(case[name]) != repr(good)]
        calls = {"sample_projection_batch": lambda: sample_projection_batch(p, scale, nu, reps, 1),
                 "sample_projection_counts": lambda: sample_projection_counts(p, scale, nu, reps, 1)}
        if bad != "reps":
            calls["scaled_binomial_variance"] = lambda: scaled_binomial_variance(p, scale, nu)
            calls["response_variance"] = lambda: response_variance(p, 0.0, scale, nu, 1.0)
        named = {"p": r"(probability|P)\b", "scale": r"(scale|C0)\b", "nu": r"nu\b", "reps": r"reps\b"}[bad]
        missed = []
        for function, call in calls.items():
            try:
                call()
                missed.append(f"{function}: no error")
            except DomainError as err:
                if not re.match(named, str(err)):
                    missed.append(f"{function}: {err}")
        assert not missed, f"{bad} not named: {missed}"

    def test_check_noise_is_the_worst_case(self):
        assert check_noise(45)[0].observed == np.abs(_noise_z_scores(45)).max()

    def test_z_scores_are_standard(self, noise_z):
        # per case over 300 seeds, the SE of the mean is 0.058 and of the SD 0.041;
        # measured: means -0.103 to 0.114, SDs 0.898 to 1.081
        assert np.abs(noise_z.mean(axis=0)).max() < 0.25
        sd = noise_z.std(axis=0, ddof=1)
        assert sd.min() > 0.85 and sd.max() < 1.15

    def test_five_percent_too_large_a_formula_fails_the_gate(self, noise_z):
        # expected z 7.06 to 8.33 by case; over 300 seeds each case alone fails
        # the 5 SE gate at 98.0 % to 100 % of them (mean |z| 6.99 to 8.32), and
        # the check as a whole at every one (smallest worst |z| 8.56)
        offset = np.array([0.05 * scaled_binomial_variance(p, scale, nu)
                           / _variance_standard_error(p, scale, nu, 50_000) for p, scale, nu in _NOISE_CASES])
        assert offset.min() > 7.0 and offset.max() < 8.4
        inflated = np.abs(noise_z - offset)
        assert (inflated > 5.0).mean(axis=0).min() >= 0.95
        assert inflated.mean(axis=0).min() > 6.5
        assert inflated.max(axis=1).min() > 5.0

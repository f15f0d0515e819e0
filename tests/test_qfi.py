import math
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from nhsense import evolution
from nhsense.errors import DomainError
from nhsense.evolution import HamiltonianFamily, propagate
from nhsense.noise import make_rng
from nhsense.operators import SIGMA_X, SIGMA_Z, covariance, seminorm, variance
from nhsense.pseudo_hermitian import PseudoHermitianParams, hamiltonian_family, probe_state
from nhsense.pt_ep import PtEpParams
from nhsense.qfi import (
    RATE_QFI_FLOOR, _integrals, _widths, cramer_rao, fidelity_curvature, qfi_fidelity_oracle, qfi_pure, qfi_series,
)
from nhsense.verification import _random_instances, family_stack

from conftest import KET0, KET_PLUS, constant, per_time, random_family, random_hermitian, random_state

# dilated sensor at eps=0.1, omega=1, lam=0, t=tau: closed form
# 4 b^2 tau^2 / Omega^2 + 4 c^2 / Omega^4 with sin(Omega tau) = 1
F_EXAMPLE = 13.167023258332254
TAU_EXAMPLE = 2.368064562748707


class TestQfiPure:
    def test_zero_generator(self):
        assert qfi_pure(np.zeros((2, 2)), KET0) == 0.0

    def test_multiplicative_sigma_x(self):
        for t in (0.5, 1.0, 2.0):
            assert qfi_pure(t * SIGMA_X, KET0) == pytest.approx(4 * t**2, rel=1e-14)

    def test_example_value_from_propagation(self):
        fam = hamiltonian_family(0.1, 1.0)
        rec = propagate(fam, 0.0, np.array([0.0, TAU_EXAMPLE]), tol=1e-11)
        got = qfi_pure(rec.h[-1], probe_state(0.1))
        assert got == pytest.approx(F_EXAMPLE, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            qfi_pure(SIGMA_X, np.array([1, 0, 0, 0], dtype=complex))


class TestFidelityOracle:
    def test_zero_encoding(self, rng):
        h = random_hermitian(rng, 2)
        fam = HamiltonianFamily(dim=2, evaluate=constant(h),
                                evaluate_dlambda=constant(np.zeros((2, 2))))
        assert abs(qfi_fidelity_oracle(fam, 0.0, KET0, 1.0)) < 1e-8

    def test_commuting_closed_form(self):
        # H = lam sigma_z on |+>: F = 4 t^2 Var(sigma_z) = 4
        fam = HamiltonianFamily(dim=2, evaluate=lambda lam, t: per_time(lam, t)[..., None, None] * SIGMA_Z,
                                evaluate_dlambda=constant(SIGMA_Z))
        got = qfi_fidelity_oracle(fam, 0.3, KET_PLUS, 1.0)
        assert got == pytest.approx(4.0, abs=1e-4)

    def test_example_grid_point(self):
        fam = hamiltonian_family(0.1, 1.0)
        got = qfi_fidelity_oracle(fam, 0.0, probe_state(0.1), TAU_EXAMPLE)
        assert got == pytest.approx(F_EXAMPLE, rel=1e-4)

    def test_agrees_with_generator_route(self, rng):
        # the second difference amplifies integration noise, so the step is
        # kept large enough that the 10 d^2 truncation budget dominates
        for dim in (2, 4):
            fam = random_family(rng, dim)
            psi0 = random_state(rng, dim)
            rec = propagate(fam, 0.2, np.array([0.0, 1.2]), tol=1e-12)
            f_gen = qfi_pure(rec.h[-1], psi0)
            for dlam in (3e-3, 1e-2):
                f_fid = qfi_fidelity_oracle(fam, 0.2, psi0, 1.2, dlam=dlam)
                assert abs(f_gen - f_fid) <= max(1e-6, 10 * dlam**2)

    def test_one_batch_of_five_equals_serial_composition(self, rng, integrate_calls, monkeypatch):
        # lam, lam ± d/2 and lam ± d are one U-only batch; each member keeps
        # its own steps, so the value is that of five separate propagations
        fam = random_family(rng, 4)
        psi0 = random_state(rng, 4)
        lam, t, dlam = 0.2, 1.2, 1e-2
        got = qfi_fidelity_oracle(fam, lam, psi0, t, dlam=dlam)
        assert [(n, tangent) for n, _, tangent, _ in integrate_calls] == [(5, False)]
        monkeypatch.undo()

        def psi(x):
            return evolution.propagators(fam, [x], t, tol=1e-12)[0] @ psi0

        def overlap(a, b):
            return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))

        def second_difference(d):
            return -4.0 * (overlap(psi(lam), psi(lam + d)) - 2.0 + overlap(psi(lam), psi(lam - d))) / d**2

        assert repr(got) == repr(evolution.richardson(second_difference, dlam))

    def test_is_the_fidelity_curvature_of_its_batch(self, rng):
        fam = random_family(rng, 2)
        psi0 = random_state(rng, 2)
        lam, t, dlam = -0.1, 1.2, 3e-3
        u = evolution.propagators(fam, [lam, lam + dlam / 2, lam - dlam / 2, lam + dlam, lam - dlam], t,
                                  tol=1e-12)
        assert repr(qfi_fidelity_oracle(fam, lam, psi0, t, dlam=dlam)) == repr(fidelity_curvature(psi0, u, dlam))


class TestQfiSeries:
    def test_constant_sigma_x_channel_bound(self, rng):
        # H = lam sigma_x + sigma_z: sqrt(F) <= 2t, equality only for optimal probes
        fam = HamiltonianFamily(dim=2, evaluate=lambda lam, t: per_time(lam, t)[..., None, None] * SIGMA_X + SIGMA_Z,
                                evaluate_dlambda=constant(SIGMA_X))
        times = np.linspace(0.0, 2.0, 6)
        for _ in range(5):
            psi0 = random_state(rng, 2)
            series = qfi_series(propagate(fam, 0.1, times), psi0, fam)
            assert np.all(np.sqrt(series.qfi) <= 2 * times + 1e-8)
            assert np.allclose(np.sqrt(series.channel_bound), 2 * times, atol=1e-9)

    def test_example_rate_everywhere_in_band(self):
        fam = hamiltonian_family(0.1, 1.0)
        times = np.linspace(0.0, 2 * TAU_EXAMPLE, 12)
        series = qfi_series(propagate(fam, 0.0, times, tol=1e-11), probe_state(0.1), fam)
        assert np.all(np.abs(series.sqrt_qfi_rate) <= 2.0 + 1e-6)
        assert np.allclose(series.rate_bound, 2.0, atol=1e-12)

    def test_example_rate_matches_closed_form(self):
        from nhsense.pseudo_hermitian import qfi_rate_closed
        p = PseudoHermitianParams(0.1, 1.0, 0.0)
        fam = hamiltonian_family(0.1, 1.0)
        times = np.array([0.0, TAU_EXAMPLE / 2, TAU_EXAMPLE])
        series = qfi_series(propagate(fam, 0.0, times, tol=1e-11), probe_state(0.1), fam)
        for k in (1, 2):
            assert series.sqrt_qfi_rate[k] == pytest.approx(qfi_rate_closed(p, times[k]), abs=1e-6)

    def test_qfi_zero_at_start_and_nonnegative(self, rng):
        fam = random_family(rng, 4)
        series = qfi_series(propagate(fam, 0.0, np.linspace(0.0, 1.5, 6)), random_state(rng, 4), fam)
        assert series.qfi[0] == pytest.approx(0.0, abs=1e-10)
        assert np.all(series.qfi >= -1e-10)
        # F(0) = 0 is below RATE_QFI_FLOOR, so the rate at 0 is the forward difference of sqrt(F)
        assert series.qfi[0] <= RATE_QFI_FLOOR
        sqrt_f = np.sqrt(np.maximum(series.qfi, 0.0))
        assert series.sqrt_qfi_rate[0] == (sqrt_f[1] - sqrt_f[0]) / (series.times[1] - series.times[0])

    def test_channel_bound_monotone(self, rng):
        fam = random_family(rng, 2)
        series = qfi_series(propagate(fam, 0.3, np.linspace(0.0, 2.0, 8)), random_state(rng, 2), fam)
        assert np.all(np.diff(series.channel_bound) >= -1e-12)

    def test_stacked_series_equals_its_lone_calls(self, rng):
        # qfi, rate bound and covariance rate as stack calls: each point is its 2-D call
        fam = random_family(rng, 4)
        psi0, times = random_state(rng, 4), np.linspace(0.0, 1.5, 6)
        rec = propagate(fam, 0.2, times)
        series = qfi_series(rec, psi0, fam)
        dh = fam.evaluate_dlambda(np.full(times.size, 0.2), times)
        herm_atol = max(1e-12, 10.0 * rec.tol)
        assert (series.qfi <= RATE_QFI_FLOOR).tolist() == [True] + [False] * 5
        sqrt_f = np.sqrt(np.maximum(series.qfi, 0.0))
        assert series.sqrt_qfi_rate[0] == (sqrt_f[1] - sqrt_f[0]) / (times[1] - times[0])
        for k in range(1, times.size):
            f = qfi_pure(rec.h[k], psi0, atol=herm_atol)
            assert series.qfi[k] == f and series.rate_bound[k] == seminorm(dh[k])
            dh_dt = rec.U[k].conj().T @ dh[k] @ rec.U[k]
            assert series.sqrt_qfi_rate[k] == 8.0 * covariance(dh_dt, rec.h[k], psi0, atol=herm_atol) / (
                2.0 * math.sqrt(f))
        one = qfi_series(propagate(fam, 0.2, times[:1]), psi0, fam)
        assert one.sqrt_qfi_rate.tolist() == [0.0] and (one.qfi <= RATE_QFI_FLOOR).tolist() == [True]

    def test_rate_below_the_floor_is_the_forward_difference(self):
        # a weak generator keeps F below RATE_QFI_FLOOR at every point: forward
        # differences of sqrt(F), backward at the last point
        h1 = 1e-8 * SIGMA_X
        fam = HamiltonianFamily(dim=2, evaluate=lambda lam, t: per_time(lam, t)[..., None, None] * h1 + SIGMA_Z,
                                evaluate_dlambda=constant(h1))
        times = np.array([0.0, 0.4, 1.0, 1.3, 2.0])
        series = qfi_series(propagate(fam, 0.0, times, tol=1e-11), KET_PLUS, fam)
        assert (series.qfi <= RATE_QFI_FLOOR).all() and series.qfi[1:].min() > 0.0
        sqrt_f = np.sqrt(np.maximum(series.qfi, 0.0))
        slopes = np.diff(sqrt_f) / np.diff(times)
        assert series.sqrt_qfi_rate.tolist() == [*slopes, slopes[-1]]

    def test_commuting_family_closed_form(self, rng):
        # [H0, H1] = 0: F = 4 t^2 Var(H1) exactly
        h0 = random_hermitian(rng, 3)
        h1 = 0.7 * h0 - 0.2 * h0 @ h0
        fam = HamiltonianFamily(dim=3, evaluate=lambda lam, t: per_time(lam, t)[..., None, None] * h1 + h0,
                                evaluate_dlambda=constant(h1))
        psi0 = random_state(rng, 3)
        times = np.linspace(0.0, 2.0, 5)
        series = qfi_series(propagate(fam, 0.4, times, tol=1e-11), psi0, fam)
        expected = 4 * times**2 * variance(h1, psi0)
        assert np.allclose(series.qfi, expected, rtol=1e-8, atol=1e-10)


class TestCramerRao:
    def test_simple(self):
        assert cramer_rao(4.0, 1) == pytest.approx(0.5, rel=1e-15)

    def test_zero_information(self):
        assert cramer_rao(0.0, 10) == math.inf

    def test_example_arithmetic(self):
        assert cramer_rao(F_EXAMPLE, 100) == pytest.approx(0.027558539550262964, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            cramer_rao(-1.0, 1)
        with pytest.raises(DomainError):
            cramer_rao(1.0, 0)

    @pytest.mark.parametrize("qfi_value", [math.nan, math.inf])
    def test_rejects_non_finite_information(self, qfi_value):
        with pytest.raises(DomainError, match="QFI must be finite and nonnegative"):
            cramer_rao(qfi_value, 1)


class TestChannelBoundUncertainty:
    """The width integral of the uncertainty floor 1/(sqrt(nu) integral), over (0, t) as one
    piece, as `qfi_series` integrates its channel bound, against closed forms."""

    def test_constant_sigma_x(self):
        fam = HamiltonianFamily(dim=2, evaluate=lambda lam, t: per_time(lam, t)[..., None, None] * SIGMA_X,
                                evaluate_dlambda=constant(SIGMA_X))
        t_final = TAU_EXAMPLE
        [integral] = _integrals(partial(_widths, fam, 0.0), [0.0, t_final])
        assert integral == pytest.approx(2 * t_final, rel=1e-10)

    def test_zero_encoding_infinite(self):
        # dH/dlam = 0: the integral is exactly 0, so the floor 1/(sqrt(nu) integral) is +inf
        fam = HamiltonianFamily(dim=2, evaluate=constant(SIGMA_Z),
                                evaluate_dlambda=constant(np.zeros((2, 2))))
        assert _integrals(partial(_widths, fam, 0.0), [0.0, 1.0]).tolist() == [0.0]

    def test_ep_drive_analytic_integral(self):
        # width of the drive derivative is delta s |sin(wd s)|; for wd T <= pi
        # the integral is delta [sin(wd T) - wd T cos(wd T)] / wd^2
        p = PtEpParams(J=1.0, Gamma=0.3, omega=4.0, delta=0.05, omega_delta=0.8)

        def ev(lam, t):
            return (0.5 * p.delta * np.cos(lam * t))[..., None, None] * (np.eye(2) - SIGMA_Z)

        def dev(lam, t):
            return (-0.5 * p.delta * t * np.sin(lam * t))[..., None, None] * (np.eye(2) - SIGMA_Z)

        fam = HamiltonianFamily(dim=2, evaluate=ev, evaluate_dlambda=dev)
        wd_t = p.omega_delta * p.T
        assert wd_t <= math.pi
        integral = p.delta * (math.sin(wd_t) - wd_t * math.cos(wd_t)) / p.omega_delta**2
        [got] = _integrals(partial(_widths, fam, p.omega_delta), [0.0, p.T])
        assert got == pytest.approx(integral, rel=1e-9)


class TestIntegrals:
    """The in-package G7-K15 rule against scipy's quad as the oracle."""

    @staticmethod
    def pieces(edges):
        return zip(edges[:-1], edges[1:])

    def test_smooth_pieces(self):
        edges = [0.0, 0.5, 2.0, 7.0]
        got = _integrals(lambda s: np.exp(-s) * np.cos(3.0 * s), edges)
        want = [quad(lambda s: math.exp(-s) * math.cos(3.0 * s), a, b, epsabs=1e-13, epsrel=1e-10)[0]
                for a, b in self.pieces(edges)]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_each_round_is_one_call(self):
        # a cubic is exact in both rules, so every piece closes in the first round
        calls = []

        def cubic(s):
            calls.append(s.size)
            return s**3 - 2.0 * s

        edges = np.linspace(-1.0, 3.0, 9)
        got = _integrals(cubic, edges)
        antiderivative = edges**4 / 4.0 - edges**2
        np.testing.assert_allclose(got, np.diff(antiderivative), rtol=1e-14, atol=1e-15)
        assert calls == [15 * 8]

    def test_no_pieces(self):
        assert _integrals(lambda s: 1 / 0, [1.0]).shape == (0,)

    @pytest.mark.parametrize("wd", [0.3, 1.7, 6.0])
    def test_lobes_split_at_their_kinks(self, wd):
        delta, t_end = 0.05, 5.0
        kinks = [k * math.pi / wd for k in range(1, math.ceil(wd * t_end / math.pi))]
        got = _integrals(lambda s: delta * s * np.abs(np.sin(wd * s)), [0.0, *kinks, t_end]).sum()
        want = quad(lambda s: delta * s * abs(math.sin(wd * s)), 0.0, t_end, epsabs=1e-13, epsrel=1e-10,
                    points=kinks or None, limit=200)[0]
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("seed", [43, 44, 45])
    def test_width_integrals_of_the_qfi_bound_suite(self, seed):
        # the 48 integrals that check_qfi_bounds takes at this seed, member j of a stack at lam = j
        grid = np.linspace(0.0, 1.5, 7)
        count = 0
        for terms, _, lams in _random_instances(make_rng(seed), 8).values():
            stack = family_stack(terms, lams)
            for j in range(len(lams)):
                width = partial(_widths, stack, float(j))
                got = _integrals(width, grid)
                want = [quad(lambda s: width(np.array([s]))[0], a, b, epsabs=1e-13, epsrel=1e-10,
                             limit=200)[0] for a, b in self.pieces(grid)]
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
                count += got.size
        assert count == 48

    def test_step_converges_once_bisection_isolates_the_jump(self):
        # after ~54 halvings the jump's subinterval is one ulp wide, all 15 nodes fall on
        # one float there, and the rule closes on the exact area, as quad does
        calls = []

        def step(s):
            calls.append(s.size)
            return (s > 1.0 / 3.0).astype(float)

        [got] = _integrals(step, [0.0, 1.0])
        want = quad(lambda s: float(s > 1.0 / 3.0), 0.0, 1.0, epsabs=1e-13, epsrel=1e-10, limit=200)[0]
        assert got == pytest.approx(want, rel=1e-15) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert len(calls) < 60 and max(calls) <= 2 * 15

    @pytest.mark.parametrize("f, message", [(lambda s: 1.0 / s, "subintervals still open"),
                                            (lambda s: np.full(s.shape, np.nan), "not finite")],
                             ids=["divergent", "nan"])
    def test_unresolvable_integrand_raises_quickly(self, f, message):
        # 1/s has the same K15 - G7 on every [0, h], so the subintervals at 0 never close
        start = time.perf_counter()
        with pytest.raises(DomainError, match=message):
            _integrals(f, [0.0, 1.0])
        assert time.perf_counter() - start < 1.0

    def test_everywhere_rough_integrand_stops_at_the_subinterval_limit(self):
        # every subinterval fails, so the open set would double each round without the limit
        with pytest.raises(DomainError, match="still open"):
            _integrals(lambda s: np.sin(1e6 * s) ** 2 + (s * 1e7 % 1.0 > 0.5), [0.0, 1.0])

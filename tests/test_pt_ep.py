import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from nhsense import pt_ep
from nhsense.errors import DomainError
from nhsense.noise import sample_projection_batch
from nhsense.operators import SIGMA_X, SIGMA_Z
from nhsense.pt_ep import (
    SCAN_COLUMNS, EpScanRow, PtEpParams, ep_sensitivity, ep_susceptibility, find_ep,
    find_response_dip, hamiltonian_domega_delta, hamiltonian_total, hermitian_bound_ep,
    pj_pgamma, propagate_period, propagate_period_tangent, response_energy,
    response_variance, scan,
)

# regression values pinned at first verified build (bisection at tol 1e-12)
GAMMA_EP_J1_W1 = 0.6180339887499011
GAMMA_EP_J1_W4 = 1.0650605221996057
DIP_J1_W4_D005 = 0.2065397059705546
# tight roots: brentq at xtol 1e-15 on tol-1e-13 propagations (the dip for default_base())
GAMMA_EP_J1_W4_TIGHT = 1.0650605221995824
DIP_J1_W4_D005_TIGHT = 0.2065397059708299


def default_base(gamma=GAMMA_EP_J1_W4):
    return PtEpParams(J=1.0, Gamma=gamma, omega=4.0, delta=0.05, omega_delta=1.0)


class TestParams:
    @pytest.mark.parametrize("name", ["J", "Gamma", "omega", "delta", "omega_delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        # nan <= 0 is False, so without a finiteness check PtEpParams(J=nan, ...) was accepted
        params = dict(J=1.0, Gamma=0.5, omega=4.0, delta=0.05, omega_delta=1.0)
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            PtEpParams(**{**params, name: value})

    @pytest.mark.parametrize("name", ["J", "omega_delta"])
    def test_period_phase_bound_is_inclusive(self, name):
        # name * T = MAX_PERIOD_PHASE exactly is accepted, the next float up is not
        params = dict(J=1.0, Gamma=0.5, omega=4.0, delta=0.05, omega_delta=1.0)
        period = 2.0 * math.pi / 4.0
        top = pt_ep.MAX_PERIOD_PHASE / period
        while top * period > pt_ep.MAX_PERIOD_PHASE:
            top = math.nextafter(top, 0.0)
        assert getattr(PtEpParams(**{**params, name: top}), name) == top
        with pytest.raises(DomainError, match=f"{name} T = .* exceeds 10000"):
            PtEpParams(**{**params, name: math.nextafter(top, math.inf)})

    def test_noise_scale_bound_is_inclusive(self):
        # 2 Gamma T up to ln(max float): C0 = e^(2 Gamma T) is finite; one float
        # up, .C0 would raise OverflowError, so the params are rejected
        period = 2.0 * math.pi / 4.0
        top = math.log(sys.float_info.max) / (2.0 * period)
        while 2.0 * top * period > math.log(sys.float_info.max):
            top = math.nextafter(top, 0.0)
        p = PtEpParams(J=1.0, Gamma=top, omega=4.0, delta=0.05, omega_delta=1.0)
        assert math.isfinite(p.C0) and p.C0 > 1e307
        with pytest.raises(DomainError, match="C0 = e\\^\\(2 Gamma T\\) overflows"):
            PtEpParams(J=1.0, Gamma=math.nextafter(top, math.inf), omega=4.0, delta=0.05, omega_delta=1.0)

    @pytest.mark.parametrize("omega_delta", [1e150, 1e200, 1.7e308])
    def test_rejects_huge_omega_delta(self, omega_delta):
        # omega_delta T = 1.7e308 * pi/2 overflows to inf, where hermitian_bound_ep
        # failed with an OverflowError from math.ceil
        with pytest.raises(DomainError, match="omega_delta T = .* exceeds"):
            PtEpParams(J=1.0, Gamma=0.2, omega=4.0, delta=0.05, omega_delta=omega_delta)

    def test_find_ep_omega_delta_is_inert(self):
        # at delta = 0 the perturbation term is 0 * cos(omega_delta t): the
        # Hamiltonian is the same float matrix for any omega_delta
        for gamma in (0.01, GAMMA_EP_J1_W4, 3.0):
            a, b = (PtEpParams(J=1.0, Gamma=gamma, omega=4.0, delta=0.0, omega_delta=wd) for wd in (1.0, 4.0))
            for t in np.linspace(0.0, a.T, 17):
                assert np.array_equal(hamiltonian_total(a, t), hamiltonian_total(b, t))
        assert find_ep(1.0, 4.0) == 1.0650605221995795


class TestHamiltonian:
    def test_hermitian_when_lossless(self):
        p = PtEpParams(J=1.0, Gamma=0.0, omega=2.0, delta=0.03, omega_delta=0.7)
        for t in np.linspace(0.0, p.T, 9):
            h = hamiltonian_total(p, t)
            assert np.abs(h - h.conj().T).max() < 1e-15

    def test_drive_envelope(self):
        p = PtEpParams(J=1.3, Gamma=0.2, omega=2.0, delta=0.0, omega_delta=1.0)
        assert hamiltonian_total(p, 0.0)[0, 1] == pytest.approx(2 * p.J, rel=1e-15)
        assert abs(hamiltonian_total(p, math.pi / p.omega)[0, 1]) < 1e-15

    def test_matches_definition_without_perturbation(self):
        p = PtEpParams(J=0.8, Gamma=0.4, omega=3.0, delta=0.0, omega_delta=1.0)
        rng = np.random.default_rng(17)
        for t in rng.uniform(0.0, p.T, size=8):
            expected = p.J * (1 + math.cos(p.omega * t)) * SIGMA_X + 1j * p.Gamma * SIGMA_Z
            assert np.abs(hamiltonian_total(p, float(t)) - expected).max() == 0.0

    def test_anti_hermitian_part(self):
        p = default_base()
        for t in (0.0, 0.3, 1.1):
            h = hamiltonian_total(p, t)
            anti = (h - h.conj().T) / 2.0
            assert np.abs(anti - 1j * p.Gamma * SIGMA_Z).max() < 1e-15

    def test_omega_delta_derivative(self):
        p = default_base()
        h = 1e-6
        for t in (0.0, 0.3, 1.1):
            fd = (hamiltonian_total(base_at(p, p.omega_delta + h), t)
                  - hamiltonian_total(base_at(p, p.omega_delta - h), t)) / (2 * h)
            assert np.abs(hamiltonian_domega_delta(p, t) - fd).max() < 1e-9


class TestPropagation:
    def test_unitary_when_hermitian(self):
        p = PtEpParams(J=1.0, Gamma=0.0, omega=4.0, delta=0.0, omega_delta=1.0)
        u = propagate_period(p, tol=1e-11)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10

    def test_decoupled_gain_loss(self):
        # J = 0, delta = 0: dU/dt = Gamma sigma_z U
        p = PtEpParams(J=1e-300, Gamma=0.35, omega=4.0, delta=0.0, omega_delta=1.0)
        u = propagate_period(p, tol=1e-11)
        expected = np.diag([math.exp(p.Gamma * p.T), math.exp(-p.Gamma * p.T)])
        assert np.abs(u - expected).max() < 1e-9

    def test_tangent_matches_propagator_and_difference_quotient(self):
        p = base_at(default_base(), 0.8)
        u, w = propagate_period_tangent(p, tol=1e-11)
        assert np.abs(u - propagate_period(p, tol=1e-11)).max() < 1e-9
        h = 1e-4
        fd = (propagate_period(base_at(p, p.omega_delta + h), tol=1e-13)
              - propagate_period(base_at(p, p.omega_delta - h), tol=1e-13)) / (2 * h)
        assert np.abs(w - fd).max() < 1e-6

    def test_unimodular_determinant(self):
        # trace of H is real, so |det U| = 1 despite the gain
        for gamma in (0.0, 0.5, 1.2):
            p = PtEpParams(J=1.0, Gamma=gamma, omega=4.0, delta=0.05, omega_delta=0.6)
            u = propagate_period(p, tol=1e-11)
            assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=1e-10)

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            propagate_period(default_base(), tol=1e-2)


class TestMeasurablePair:
    def test_identity(self):
        assert pj_pgamma(np.eye(2)) == (0.0, 0.0)

    def test_bit_flip(self):
        pj, pg = pj_pgamma(SIGMA_X)
        assert pj == 1.0
        assert pg == pytest.approx(0.0, abs=1e-15)

    def test_quarter_rabi(self):
        u = np.cos(math.pi / 4) * np.eye(2) - 1j * np.sin(math.pi / 4) * SIGMA_X
        pj, pg = pj_pgamma(u)
        assert pj == pytest.approx(0.5, rel=1e-14)
        assert pg == pytest.approx(0.0, abs=1e-15)

    def test_may_exceed_one_under_gain(self):
        pj, pg = pj_pgamma(propagate_period(default_base(), tol=1e-10))
        c0 = default_base().C0
        assert 1.0 < pj <= c0 + 1e-9
        assert 0.0 <= pg <= c0 + 1e-9


class TestResponseEnergy:
    def test_no_response(self):
        assert response_energy(0.4, 0.4, 2.0) == 0.0

    def test_maximal_response(self):
        t_period = 3.0
        assert response_energy(1.0, 0.0, t_period) == pytest.approx(
            math.pi / (2 * t_period), rel=1e-15)

    def test_half_difference(self):
        t_period = 2 * math.pi
        assert response_energy(0.75, 0.25, t_period) == pytest.approx(0.125, rel=1e-14)

    def test_domain_error_carries_value(self):
        with pytest.raises(DomainError, match="-0.2"):
            response_energy(0.1, 0.3, 1.0)
        with pytest.raises(DomainError):
            response_energy(1.5, 0.2, 1.0)

    @given(st.floats(0.0, 1.0), st.floats(0.1, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, diff, t_period):
        e_res = response_energy(diff, 0.0, t_period)
        assert math.sin(e_res * t_period) ** 2 == pytest.approx(diff, abs=1e-9)


class TestFindEp:
    def test_unbroken_side_is_positive(self):
        # Gamma = 0 gives P_J - P_Gamma = sin^2(E T) >= 0
        p = PtEpParams(J=1.0, Gamma=0.0, omega=1.0, delta=0.0, omega_delta=1.0)
        pj, pg = pj_pgamma(propagate_period(p, tol=1e-11))
        assert pj - pg >= -1e-12

    def test_located_root_regression(self):
        gamma = find_ep(1.0, 1.0, tol=1e-10)
        assert gamma == pytest.approx(GAMMA_EP_J1_W1, abs=1e-9)

    def test_root_within_requested_tol(self):
        a = find_ep(1.0, 4.0, tol=1e-6)
        b = find_ep(1.0, 4.0, tol=5e-7)
        assert abs(a - GAMMA_EP_J1_W4) <= 1e-6 + 1e-9
        assert abs(b - GAMMA_EP_J1_W4) <= 5e-7 + 1e-9
        assert abs(a - b) <= 1.5e-6

    def test_no_sign_change_reported(self):
        with pytest.raises(DomainError):
            find_ep(1.0, 1.0, bracket=(2.0, 2.9), tol=1e-8)

    def test_prescan_member_equals_serial_propagation(self, monkeypatch):
        # the 25-point pre-scan is one batch; each member keeps its own steps,
        # so it is bit for bit the propagation of that Gamma alone
        propagators = []
        original = pt_ep._propagate_periods

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            propagators.append(out[0])
            return out

        monkeypatch.setattr(pt_ep, "_propagate_periods", recorded)
        find_ep(1.0, 4.0, tol=1e-6)
        monkeypatch.undo()
        prescan = propagators[0]
        grid = np.linspace(*pt_ep.default_ep_bracket(1.0), 25)
        assert prescan.shape == (25, 2, 2)
        for k in (0, 8, 9, 24):
            p = PtEpParams(J=1.0, Gamma=grid[k], omega=4.0, delta=0.0, omega_delta=1.0)
            assert np.array_equal(prescan[k], propagate_period(p, tol=1e-12))


class TestPiecedPeriod:
    """A U-only period runs on a grid of _PIECES intervals, one batch member each, chained in order."""

    @pytest.mark.parametrize("gamma, delta, omega_delta", [
        (0.3, 0.0, 1.0), (GAMMA_EP_J1_W4_TIGHT, 0.0, 1.0), (1.5, 0.0, 1.0), (3.0, 0.0, 1.0),
        (GAMMA_EP_J1_W4_TIGHT, 0.05, 0.2065), (GAMMA_EP_J1_W4_TIGHT, 0.05, 1.7)])
    def test_matches_one_shot_dop853(self, gamma, delta, omega_delta):
        p = PtEpParams(J=1.0, Gamma=gamma, omega=4.0, delta=delta, omega_delta=omega_delta)

        def rhs(t, y):
            return (-1j * hamiltonian_total(p, t) @ y.reshape(2, 2)).ravel()

        ref = solve_ivp(rhs, (0.0, p.T), np.eye(2, dtype=complex).ravel(), method="DOP853",
                        rtol=2.3e-14, atol=1e-16).y[:, -1].reshape(2, 2)
        u = propagate_period(p, tol=1e-12)
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_one_piece_is_the_one_member_run(self, monkeypatch):
        p = default_base()
        [whole] = pt_ep.integrate(pt_ep._family([p]), np.arange(1), (0.0, p.T), 1e-12)[0][:, -1]
        monkeypatch.setattr(pt_ep, "_PIECES", 1)
        assert np.array_equal(propagate_period(p, tol=1e-12), whole)

    def test_every_prescan_member_equals_serial_propagation(self):
        ps = [PtEpParams(J=1.0, Gamma=g, omega=4.0, delta=0.0, omega_delta=1.0)
              for g in np.linspace(*pt_ep.default_ep_bracket(1.0), 25).tolist()]
        prescan, _ = pt_ep._propagate_periods(ps, 1e-12, tangent=False)
        for k, p in enumerate(ps):
            assert np.array_equal(prescan[k], propagate_period(p, tol=1e-12)), k


class TestRootFinders:
    """Both roots come from Brent's method: few propagations, tight roots."""

    @staticmethod
    def propagations(integrate_calls) -> list:
        """Periods in each propagation: a batch of B periods counts as B propagations."""
        # one lam entry per period, on the pieced grid
        assert {points for _, points, *_ in integrate_calls} == {pt_ep._PIECES + 1}
        return [n for n, *_ in integrate_calls]

    def test_find_ep_evaluations_and_accuracy(self, integrate_calls):
        gamma = find_ep(1.0, 4.0, tol=1e-12)
        batches = self.propagations(integrate_calls)
        assert batches[0] == 25 and set(batches[1:]) == {1}  # the pre-scan batch, then serial Brent
        assert sum(batches) <= 31  # pre-scan plus Brent, each bracket end propagated once
        assert abs(gamma - GAMMA_EP_J1_W4_TIGHT) <= 2e-12

    def test_find_response_dip_evaluations_and_accuracy(self, integrate_calls):
        dip = find_response_dip(default_base(), (0.05, 2.0), tol=1e-12)
        batches = self.propagations(integrate_calls)
        assert batches[0] == 2 and set(batches[1:]) == {1}  # both bracket ends, then serial Brent
        assert sum(batches) <= 11  # sign check plus Brent, each bracket end propagated once
        assert abs(dip - DIP_J1_W4_D005_TIGHT) <= 2e-12

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(DomainError, match="root tolerance"):
            find_ep(1.0, 4.0, tol=tol)
        with pytest.raises(DomainError, match="root tolerance"):
            find_response_dip(default_base(), (0.05, 2.0), tol=tol)

    @pytest.mark.parametrize("end", [0, 1], ids=["lo", "hi"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_bracket_end_rejected(self, end, value, monkeypatch):
        # find_ep(1, 4, (0.01, inf)) used to warn in linspace, then fail with
        # "Gamma must be finite, got nan" from a propagation
        def must_not_run(*args, **kwargs):
            raise AssertionError("a non-finite bracket reached the propagation")

        monkeypatch.setattr(pt_ep, "integrate", must_not_run)
        finders = ((lambda b: find_ep(1.0, 4.0, b), [0.01, 3.0], "Gamma"),
                   (lambda b: find_response_dip(default_base(), b), [0.05, 2.0], "omega_delta"))
        for finder, bracket, name in finders:
            bracket[end] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=f"{name} bracket .* must have finite ends"):
                    finder(tuple(bracket))


def _monotone_functions(count: int):
    """(f, a, b): seeded increasing functions with one root inside [a, b], roots of order 1 to 5.

    The 1e-300 scale makes the slopes of the inverse quadratic step underflow.
    """
    families = (
        lambda r, s, c: lambda x: s * (x - r) ** 3 + c * c * (x - r),
        lambda r, s, c: lambda x: 1e-300 * s * (x - r) ** 3,
        lambda r, s, c: lambda x: s * (x - r) ** 5,
        lambda r, s, c: lambda x: s * (x - r) * abs(x - r) ** 3,
        lambda r, s, c: lambda x: math.expm1(s * (x - r)),
        lambda r, s, c: lambda x: math.atan(s * (x - r)) + 1e-3 * c,
        lambda r, s, c: lambda x: (x - r) ** 3 + s * (x - r) + c,
    )
    rng = np.random.default_rng(20261018)
    for k in range(count):
        r, s, c, a, b = (float(v) for v in rng.uniform([-3, 0.1, -1, -6, 5], [3, 10, 1, -5, 6]))
        yield families[k % len(families)](r, s, c), a, b


class TestBrent:
    """`pt_ep._brent` ports scipy's brentq step for step, so both return the same float."""

    XTOLS = (1e-4, 1e-10, 1e-12, 1e-15)

    def test_matches_scipy_brentq_bit_for_bit(self):
        unconverged = 0
        for f, a, b in _monotone_functions(350):
            for xtol in self.XTOLS:
                try:
                    expected = brentq(f, a, b, xtol=xtol)
                except RuntimeError:  # 100 iterations were not enough for either
                    unconverged += 1
                    with pytest.raises(DomainError, match="did not converge"):
                        pt_ep._brent(f, a, f(a), b, f(b), xtol)
                else:
                    assert pt_ep._brent(f, a, f(a), b, f(b), xtol) == expected, (a, b, xtol)
        # roots of order 4 and 5 exhaust the budget at some xtols; most of the 1400 pairs converge
        assert 0 < unconverged < 350

    def test_exhausted_iterations_raise_the_package_error(self):
        # the same budget as brentq: it converges in n iterations, not in n - 1
        f, a, b = next(_monotone_functions(1))
        root, info = brentq(f, a, b, xtol=1e-15, full_output=True)
        n = info.iterations
        assert pt_ep._brent(f, a, f(a), b, f(b), 1e-15, maxiter=n) == root
        with pytest.raises(RuntimeError):
            brentq(f, a, b, xtol=1e-15, maxiter=n - 1)
        with pytest.raises(DomainError, match=f"did not converge in {n - 1} iterations") as err:
            pt_ep._brent(f, a, f(a), b, f(b), 1e-15, maxiter=n - 1)
        assert not isinstance(err.value, RuntimeError)

    def test_exact_zero_at_an_end_returned_as_is(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert pt_ep._brent(f, 1.0, f(1.0), 3.0, f(3.0), 1e-12) == 1.0
        assert pt_ep._brent(f, -2.0, f(-2.0), 1.0, f(1.0), 1e-12) == 1.0
        assert calls == [1.0, 3.0, -2.0, 1.0]

    def test_equal_signs_at_the_ends_raise(self):
        with pytest.raises(DomainError, match="same sign"):
            pt_ep._brent(lambda x: x * x + 1.0, -1.0, 2.0, 2.0, 5.0, 1e-12)


class TestResponseVariance:
    def test_divergence_at_dip(self):
        assert response_variance(0.5, 0.5, 2.0, 1, 1.0) == math.inf

    def test_arithmetic(self):
        # C0=1, PG=0, PJ=0.5, nu=1, T=1: (0.5 - 0.25) / (4 * 0.5 * 0.5)
        assert response_variance(0.5, 0.0, 1.0, 1, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_delta_method_equivalence(self):
        from nhsense.noise import propagate_error, scaled_binomial_variance
        rng = np.random.default_rng(4242)
        for _ in range(100):
            c0 = float(rng.uniform(1.0, 30.0))
            diff = float(rng.uniform(0.02, 0.98))
            pg = float(rng.uniform(0.0, min(c0 - diff, 4.0)))
            pj = pg + diff
            t_period = float(rng.uniform(0.3, 8.0))
            nu = int(rng.integers(1, 100))
            direct = response_variance(pj, pg, c0, nu, t_period)
            slope = 1.0 / (2 * t_period * math.sqrt(diff * (1 - diff)))
            composed = propagate_error(
                [slope, -slope],
                [scaled_binomial_variance(pj, c0, nu), scaled_binomial_variance(pg, c0, nu)])
            assert direct == pytest.approx(composed, rel=1e-12)

    def test_monte_carlo_mid_range(self):
        # sample P_J and P_Gamma estimates, recompute E_res, compare variances
        pj, pg, c0, t_period, nu, reps = 0.7, 0.2, 2.0, 2.0, 10_000, 100_000
        est_j = sample_projection_batch(pj, c0, nu, reps, seed=1301)
        est_g = sample_projection_batch(pg, c0, nu, reps, seed=1302)
        diff = np.clip(est_j - est_g, 0.0, 1.0)
        e_res = np.arcsin(np.sqrt(diff)) / t_period
        analytic = response_variance(pj, pg, c0, nu, t_period)
        assert e_res.var(ddof=1) == pytest.approx(analytic, rel=0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            response_variance(1.4, 0.2, 2.0, 1, 1.0)  # difference above 1
        with pytest.raises(DomainError):
            response_variance(2.5, 0.2, 2.0, 1, 1.0)  # P above C0


class TestSusceptibilityAndSensitivity:
    def test_no_perturbation_means_no_response_change(self):
        p = PtEpParams(J=1.0, Gamma=0.3, omega=4.0, delta=0.0, omega_delta=0.5)
        assert ep_susceptibility(p, tol=1e-10) == pytest.approx(0.0, abs=1e-7)

    def test_growth_towards_dip(self):
        base = default_base()
        chis = [ep_susceptibility(base_at(base, DIP_J1_W4_D005 + off), tol=1e-10)
                for off in (3e-2, 3e-3, 3e-4)]
        assert chis[1] > 2.5 * chis[0]
        assert chis[2] > 2.5 * chis[1]

    def test_step_halving_stability(self):
        p = base_at(default_base(), 0.8)
        a = ep_susceptibility(p, tol=1e-11, rel_step=1e-5)
        b = ep_susceptibility(p, tol=1e-11, rel_step=5e-6)
        assert a == pytest.approx(b, rel=1e-6)

    def test_default_route_reproducible_and_matches_oracle(self):
        # The pinned scan fixture gates chi_E at rel 1e-9, so the default
        # route must not jitter with the last bit of omega_delta.  The
        # oracle is the Richardson route at the tightest tol; its noise grows
        # as the step shrinks (~2e-8 at rel_step 1e-4), so it uses 1e-3.
        for wd in (0.35, 0.8, 1.5):
            p = base_at(default_base(), wd)
            chi = ep_susceptibility(p, tol=1e-10)
            shifted = ep_susceptibility(base_at(default_base(), float(np.nextafter(wd, np.inf))),
                                        tol=1e-10)
            assert shifted == pytest.approx(chi, rel=1e-10)
            oracle = ep_susceptibility(p, tol=1e-13, rel_step=1e-3)
            assert chi == pytest.approx(oracle, rel=1e-8)

    def test_sensitivity_bounded_on_approach(self):
        base = default_base()
        vals = [ep_sensitivity(base_at(base, DIP_J1_W4_D005 + off), tol=1e-10)
                for off in (1e-2, 1e-3, 1e-4)]
        assert max(vals) / min(vals) < 1.2

    def test_nu_scaling(self):
        p1 = base_at(default_base(), 0.9)
        p4 = PtEpParams(J=p1.J, Gamma=p1.Gamma, omega=p1.omega, delta=p1.delta,
                        omega_delta=p1.omega_delta, nu=4)
        assert ep_sensitivity(p4, tol=1e-10) == pytest.approx(
            ep_sensitivity(p1, tol=1e-10) / 2.0, rel=1e-6)

    def test_sensitivity_above_bound(self):
        for wd in (0.35, 0.8, 1.5):
            p = base_at(default_base(), wd)
            assert ep_sensitivity(p, tol=1e-10) >= hermitian_bound_ep(p) - 1e-9


class TestHermitianBoundEp:
    def test_quarter_period_closed_form(self):
        # wd T = pi/2: integral = delta / wd^2, bound = wd^2/(sqrt(nu) delta)
        omega = 4.0
        wd = (math.pi / 2) / (2 * math.pi / omega)
        p = PtEpParams(J=1.0, Gamma=0.2, omega=omega, delta=0.05, omega_delta=wd)
        assert hermitian_bound_ep(p) == pytest.approx(wd**2 / p.delta, rel=1e-10)

    def test_quadrature_matches_antiderivative(self):
        # integral s sin(w s) ds = [sin(w s) - w s cos(w s)] / w^2 while w T <= pi
        omega = 4.0
        for wd_t in (0.4, 1.2, 2.4, math.pi):
            wd = wd_t / (2 * math.pi / omega)
            p = PtEpParams(J=1.0, Gamma=0.2, omega=omega, delta=0.05, omega_delta=wd)
            closed = wd**2 / (p.delta * (math.sin(wd_t) - wd_t * math.cos(wd_t)))
            assert hermitian_bound_ep(p) == pytest.approx(closed, rel=1e-10)

    def test_no_encoding_is_unbounded(self):
        p = PtEpParams(J=1.0, Gamma=0.2, omega=4.0, delta=0.0, omega_delta=0.5)
        assert hermitian_bound_ep(p) == math.inf

    @pytest.mark.parametrize("omega, omega_delta", [(4.0, 1e-120), (1e300, 0.05)])
    def test_underflowing_integral_is_unbounded(self, omega, omega_delta):
        # omega_delta T below ~1e-103: the lobe sum ~ x³/3 underflows to 0, and
        # the bound takes its limit +inf instead of dividing by zero
        p = PtEpParams(J=1.0, Gamma=0.2, omega=omega, delta=0.05, omega_delta=omega_delta)
        assert hermitian_bound_ep(p) == math.inf

    @pytest.mark.parametrize("omega_delta", [1.5e154, 2e154, 4e154])
    def test_squared_frequency_beyond_the_float_range(self, omega_delta):
        # omega_delta T = 2 pi (two lobes, 4 pi in all) while omega_delta² overflows;
        # the bound omega_delta² / (4 pi delta) is still a float
        p = PtEpParams(J=1.0, Gamma=0.0, omega=omega_delta, delta=1.0, omega_delta=omega_delta)
        assert hermitian_bound_ep(p) == pytest.approx((omega_delta / math.sqrt(4.0 * math.pi)) ** 2, rel=1e-14)

    @pytest.mark.parametrize("lobes", [3e-5, 0.4, 1.0, 2.6, 7.5, 200.0, 449.7, 2500.3])
    def test_kinked_integrand_beyond_pi(self, lobes):
        # wd T = lobes * pi (T = pi/2), up to thousands of |sin| lobes; the
        # oracle integrates s |sin(wd s)| by quadrature on each lobe separately
        p = PtEpParams(J=1.0, Gamma=0.2, omega=4.0, delta=0.05, omega_delta=2.0 * lobes)
        wd = p.omega_delta
        edges = [k * math.pi / wd for k in range(math.ceil(lobes))] + [p.T]
        integral = sum(quad(lambda s: s * abs(math.sin(wd * s)), a, b, epsabs=0.0, epsrel=1e-13)[0]
                       for a, b in zip(edges, edges[1:]))
        assert hermitian_bound_ep(p) == pytest.approx(1.0 / (p.delta * integral), rel=1e-10)


# x³/3 region, both sides of the switch to the plain form at 1, the zeros of G
# near 4.49 and 7.73 (roots of tan x = x), and large x
G_POINTS = [1e-6, 1e-4, 1e-2, 0.1, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
            2.0, math.pi, 4.4, 4.493409457909064, 4.6,
            7.725251836937707, 10.0, 123.456, 1e3, 1e4]


class TestSinMinusXCos:
    @pytest.mark.parametrize("x", G_POINTS)
    def test_against_40_digit_reference(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = mpmath.sin(x) - x * mpmath.cos(x)
        err = abs(float(pt_ep._sin_minus_x_cos(x) - ref))
        eps = np.finfo(float).eps
        # absolute in units of max(1, x), because G has zeros; relative below
        # the first zero, where the plain form cancels (7.8e-5 relative at 1e-6)
        assert err <= 4 * eps * max(1.0, x)
        if x < 4.4:
            assert err <= 4 * eps * float(ref)

    def test_zero_at_zero(self):
        assert pt_ep._sin_minus_x_cos(0.0) == 0.0


class TestScan:
    def test_dip_location_regression(self):
        dip = find_response_dip(default_base(), (0.05, 2.0), tol=1e-10)
        assert dip == pytest.approx(DIP_J1_W4_D005, abs=1e-9)

    def test_rows_flagged_not_dropped(self):
        grid = np.array([0.1, 0.5, 1.0])  # first point sits in the negative-difference region
        rows = scan(default_base(), grid, tol=1e-10)
        assert len(rows) == 3
        assert rows[0].excluded_reason != ""
        assert math.isnan(rows[0].E_res)
        for row in rows[1:]:
            assert row.excluded_reason == ""
            assert row.sensitivity >= row.hermitian_bound - 1e-9
            assert 0.0 <= row.PJ <= default_base().C0 + 1e-9
            assert 0.0 <= row.PGamma <= default_base().C0 + 1e-9

    def test_rows_next_to_dip_get_slope(self):
        # 1e-6 above the dip P_J - P_Gamma ~ 2e-8: inside the usable range,
        # though a difference stencil of step 1e-5 omega_delta would cross
        # the dip.  There E_res ~ sqrt(omega_delta - dip), so chi_E ~ 1/sqrt
        # and the sensitivity stays on its plateau.
        rows = scan(default_base(), DIP_J1_W4_D005 + np.array([1e-6, 3e-6]), tol=1e-10)
        assert [r.excluded_reason for r in rows] == ["", ""]
        assert rows[0].chi_E / rows[1].chi_E == pytest.approx(math.sqrt(3.0), rel=1e-2)
        assert rows[0].sensitivity == pytest.approx(rows[1].sensitivity, rel=1e-3)

    def test_column_contract(self):
        assert list(EpScanRow.__dataclass_fields__) == list(SCAN_COLUMNS)

    def test_one_propagation_per_row(self, integrate_calls):
        # P_J, P_Gamma and chi_E of every row come from its member of one tangent batch
        scan(default_base(), np.linspace(0.05, 2.0, 80), tol=1e-10)
        assert [(n, tangent) for n, _, tangent, _ in integrate_calls] == [(80, True)]

    def test_tightest_tol_row(self):
        # tol/2 falls below TOL_MIN at tol 1e-13: the solve is clamped there
        [tight] = scan(default_base(), [0.8], tol=1e-13)
        [loose] = scan(default_base(), [0.8], tol=1e-10)
        assert tight.excluded_reason == ""
        for name in ("PJ", "PGamma", "E_res", "var_E", "chi_E", "sensitivity"):
            assert getattr(tight, name) == pytest.approx(getattr(loose, name), rel=1e-8)
        for tol in (9e-14, 1.5e-6):
            with pytest.raises(DomainError, match="tol"):
                scan(default_base(), [0.8], tol=tol)

    def test_row_alone_equals_row_in_grid(self):
        # each member of the batch keeps its own steps: a row scanned alone is,
        # bit for bit, the same row inside the 80-row default grid
        grid = np.linspace(0.05, 2.0, 80)
        rows = scan(default_base(), grid, tol=1e-10)
        for k in (0, 6, 7, 40, 79):  # excluded, either side of the dip, interior, last
            [alone] = scan(default_base(), grid[k:k + 1], tol=1e-10)
            assert repr(alone) == repr(rows[k])  # repr: exact floats, and nan equals nan


def base_at(base: PtEpParams, omega_delta: float) -> PtEpParams:
    from dataclasses import replace
    return replace(base, omega_delta=omega_delta)

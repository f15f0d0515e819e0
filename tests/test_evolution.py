import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm, expm_frechet

from nhsense.errors import DomainError, PropagationError
from nhsense.evolution import (
    _INTERNAL_TOL_FACTOR, _RTOL_FLOOR, HamiltonianFamily, generator_finite_difference, generators,
    integrate, propagate, propagators,
)
from nhsense.operators import SIGMA_X, expm_hermitian
from nhsense.pseudo_hermitian import (
    PseudoHermitianParams, generator_closed, hamiltonian_family, probe_state, qfi_numeric,
)
from nhsense.pt_ep import PtEpParams, hamiltonian_domega_delta, hamiltonian_total
from nhsense.qfi import channel_bound_uncertainty, qfi_fidelity_oracle

from conftest import constant, make_rng, random_family, random_hermitian


def one_member(h_of_t):
    """The Hamiltonian of a member whose Hamiltonian is h_of_t(t), one scalar time at a time."""
    return lambda params, t: np.array([h_of_t(s) for s in t])


def constant_family(h, dh, dim):
    return HamiltonianFamily(dim=dim, evaluate=constant(h), evaluate_dlambda=constant(dh))


def multiplicative_family(h1, h0):
    """H(lam) = lam h1 + h0, time-independent."""
    return HamiltonianFamily(dim=h0.shape[0],
                             evaluate=lambda lam, t: lam[:, None, None] * h1 + h0,
                             evaluate_dlambda=constant(h1))


def at(fam_evaluate, lam, t):
    """A family callable's matrix at one scalar (lam, t)."""
    return fam_evaluate(np.array([lam]), np.array([t]))[0]


class TestIntegrate:
    def test_constant_non_hermitian_matches_expm_and_frechet(self, rng):
        # H(lam) = H0 + lam H1 with H0 non-Hermitian: U = e^{-iHt}, W = dU/dlam
        # is the Frechet derivative of expm at -iHt in the direction -iH1 t
        h0 = random_hermitian(rng, 3) + 0.4j * random_hermitian(rng, 3)
        h1 = random_hermitian(rng, 3) + 0.2j * random_hermitian(rng, 3)
        lam = 0.3
        h = h0 + lam * h1
        times = np.array([0.0, 0.6, 1.3])
        [u], [w] = integrate(constant(h), 3, [lam], times, 1e-12, dhamiltonian=constant(h1))
        for k, t in enumerate(times):
            assert np.abs(u[k] - expm(-1j * h * t)).max() < 1e-10
            _, expected_w = expm_frechet(-1j * h * t, -1j * h1 * t)
            assert np.abs(w[k] - expected_w).max() < 1e-10

    def test_propagator_only_without_tangent(self, rng):
        h = random_hermitian(rng, 2)
        u, w = integrate(constant(h), 2, [0.0], np.array([0.0, 1.0]), 1e-11)
        assert w is None
        assert np.abs(u[0, -1] - expm_hermitian(h, 1.0)).max() < 1e-10

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # nan arithmetic
    def test_step_below_ten_ulp_raises(self):
        # a nan Hamiltonian rejects every step; the step shrinks until it
        # falls below 10 ulp of t, which ends the run instead of a hang
        def bad(params, t):
            return np.where((t > 0.5)[:, None, None], np.nan, 1.0) * SIGMA_X

        with pytest.raises(PropagationError, match="10 ulp"):
            integrate(bad, 2, np.arange(3), np.array([0.0, 1.0]), 1e-10)


class TestAgainstSolveIvp:
    """The batched core is scipy's RK45 controller: same steps, same numbers."""

    @staticmethod
    def solve_ivp_reference(hamiltonian, dhamiltonian, dim, times, tol):
        # the state layout and rtol = atol of integrate, through scipy's own RK45
        inner = max(tol / _INTERNAL_TOL_FACTOR, _RTOL_FLOOR)
        width = dim if dhamiltonian is None else 2 * dim

        def rhs(t, y):
            uw = y.reshape(dim, width)
            d = (-1j * hamiltonian(t)) @ uw
            if dhamiltonian is not None:
                d[:, dim:] -= 1j * (dhamiltonian(t) @ uw[:, :dim])
            return d.ravel()

        y0 = np.zeros((dim, width), dtype=complex)
        y0[:, :dim] = np.eye(dim)
        t_eval = times if times.size > 2 else None
        sol = solve_ivp(rhs, (0.0, times[-1]), y0.ravel(), method="RK45", t_eval=t_eval,
                        rtol=inner, atol=inner)
        y = (sol.y if t_eval is not None else sol.y[:, [0, -1]]).T.reshape(-1, dim, width)
        return y[:, :, :dim], (y[:, :, dim:] if dhamiltonian is not None else None), sol.nfev

    def check(self, hamiltonian, dhamiltonian, dim, times, tol):
        calls = []

        def counted(params, t):
            calls.append(t.size)
            return one_member(hamiltonian)(params, t)

        d_member = None if dhamiltonian is None else one_member(dhamiltonian)
        [u], w = integrate(counted, dim, [0], times, tol, dhamiltonian=d_member)
        u_ref, w_ref, nfev = self.solve_ivp_reference(hamiltonian, dhamiltonian, dim, times, tol)
        # H is evaluated once per step attempt at its five stage times; the
        # sixth RHS evaluation, at the step's end, reuses the last of them.
        # With the two of the initial step that is 2 + 6 per attempt, as in scipy.
        assert calls[:2] == [1, 1] and set(calls[2:]) == {5}
        assert 2 + 6 * (len(calls) - 2) == nfev
        assert np.abs(u - u_ref).max() <= 1e-13 * max(1.0, np.abs(u_ref).max())
        if dhamiltonian is not None:
            assert np.abs(w[0] - w_ref).max() <= 1e-13 * max(1.0, np.abs(w_ref).max())

    @pytest.mark.parametrize("tangent", [False, True])
    def test_pt_period(self, tangent):
        p = PtEpParams(J=1.0, Gamma=1.0650605221995801, omega=4.0, delta=0.05, omega_delta=0.2228)
        self.check(lambda t: hamiltonian_total(p, t),
                   (lambda t: hamiltonian_domega_delta(p, t)) if tangent else None,
                   2, np.array([0.0, p.T]), 1e-12)

    def test_vanishing_start_with_rejected_steps(self, rng):
        # H(0) = 0 gives the tiny first step 1e-6, so the step grows by the
        # factor limit 10; at tol 1e-6 this run rejects three steps
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        self.check(lambda t: math.sin(3 * t) * a + t * t * b, None, 3, np.linspace(0.0, 4.0, 5), 1e-6)

    def test_random_family_dense_output(self):
        # a 7-point grid is filled from the quartic interpolant, as t_eval is
        fam = random_family(make_rng(7), 4)
        self.check(lambda t: at(fam.evaluate, 0.3, t), lambda t: at(fam.evaluate_dlambda, 0.3, t),
                   4, np.linspace(0.0, 2.0, 7), 1e-10)


class TestPropagate:
    def test_time_independent_matches_expm(self, rng):
        h = random_hermitian(rng, 4)
        fam = constant_family(h, np.zeros((4, 4), dtype=complex), 4)
        times = np.linspace(0.0, 2.0, 5)
        rec = propagate(fam, 0.7, times, tol=1e-11)
        for k, t in enumerate(times):
            assert np.abs(rec.U[k] - expm_hermitian(h, t)).max() < 1e-10

    def test_zero_dlambda_gives_zero_generator(self, rng):
        h = random_hermitian(rng, 3)
        fam = constant_family(h, np.zeros((3, 3), dtype=complex), 3)
        rec = propagate(fam, 0.0, np.linspace(0.0, 3.0, 4))
        assert np.abs(rec.h).max() < 1e-12

    def test_initial_conditions(self, rng):
        fam = random_family(rng, 2)
        rec = propagate(fam, 0.1, np.array([0.0, 1.0]))
        assert np.array_equal(rec.U[0], np.eye(2))
        assert np.abs(rec.h[0]).max() == 0.0

    def test_example_generator_closed_form(self):
        # dilated-sensor family: propagated h vs the block closed form
        fam = hamiltonian_family(0.1, 1.0)
        p = PseudoHermitianParams(0.1, 1.0, 0.2)
        times = np.array([0.0, 0.9, 1.8, 2.7])
        rec = propagate(fam, 0.2, times, tol=1e-10)
        for k, t in enumerate(times):
            assert np.abs(rec.h[k] - generator_closed(p, t)).max() < 1e-8

    def test_unitarity_along_grid(self, rng):
        fam = random_family(rng, 4)
        tol = 1e-10
        rec = propagate(fam, -0.2, np.linspace(0.0, 2.5, 9), tol=tol)
        for u in rec.U:
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 10 * tol

    def test_generator_hermitian_along_grid(self, rng):
        fam = random_family(rng, 4)
        rec = propagate(fam, 0.4, np.linspace(0.0, 2.5, 9), tol=1e-10)
        for h in rec.h:
            assert np.abs(h - h.conj().T).max() < 1e-9

    @pytest.mark.parametrize("dim", [2, 4])
    def test_hermitian_part_hides_only_integration_error(self, rng, dim):
        # h is the Hermitian part of i U† W; the anti-Hermitian part it drops
        # must be integration error, within the record's 10*tol contract
        tol = 1e-10
        fam = random_family(rng, dim)
        times = np.linspace(0.0, 2.5, 6)
        [u], [w] = integrate(fam.evaluate, dim, [0.3], times, tol,
                             dhamiltonian=fam.evaluate_dlambda)
        for uk, wk in zip(u, w):
            raw = 1j * uk.conj().T @ wk
            assert np.abs(raw - raw.conj().T).max() / 2.0 <= 10 * tol

    def test_refinement_convergence(self, rng):
        fam = random_family(rng, 3)
        times = np.linspace(0.0, 2.0, 5)
        for tol in (1e-8, 1e-10):
            coarse = propagate(fam, 0.3, times, tol=tol)
            fine = propagate(fam, 0.3, times, tol=tol / 2)
            assert np.abs(coarse.U - fine.U).max() < tol

    def test_commuting_family_generator(self, rng):
        # [H, dH/dlam] = 0 makes h(t) = t dH/dlam exactly
        h0 = random_hermitian(rng, 3)
        h1 = 0.4 * h0 + 0.1 * h0 @ h0
        fam = multiplicative_family(h1, h0)
        times = np.linspace(0.0, 2.0, 5)
        rec = propagate(fam, 0.25, times, tol=1e-11)
        for k, t in enumerate(times):
            assert np.abs(rec.h[k] - t * h1).max() < 1e-9

    def test_grid_validation(self, rng):
        fam = random_family(rng, 2)
        with pytest.raises(DomainError):
            propagate(fam, 0.0, np.array([0.5, 1.0]))  # must start at 0
        with pytest.raises(DomainError):
            propagate(fam, 0.0, np.array([0.0, 1.0, 0.5]))  # not ascending
        with pytest.raises(DomainError, match="finite"):
            propagate(fam, 0.0, np.array([0.0, np.inf]))  # would never reach the end
        with pytest.raises(DomainError):
            propagate(fam, 0.0, np.array([0.0, 1.0]), tol=1e-3)  # tol out of range

    @pytest.mark.filterwarnings("error")
    def test_non_finite_hamiltonian_reported(self):
        def bad(lam, t):
            return np.where((t > 0.5)[:, None, None], np.diag([np.inf, 0.0]), np.zeros((2, 2)))

        fam = HamiltonianFamily(dim=2, evaluate=bad, evaluate_dlambda=constant(np.zeros((2, 2))))
        with pytest.raises(PropagationError, match="non-finite Hamiltonian evaluation at t="):
            propagate(fam, 0.0, np.array([0.0, 1.0]))


class TestGeneratorFiniteDifference:
    def test_zero_family(self, rng):
        h = random_hermitian(rng, 2)
        fam = constant_family(h, np.zeros((2, 2), dtype=complex), 2)
        got = generator_finite_difference(fam, 0.0, 1.0, dlam=1e-4)
        assert np.abs(got).max() < 1e-8

    def test_multiplicative_sigma_x(self):
        # H = lam sigma_x: h(t) = t sigma_x (finite-difference error ~ t^3 d^2/6)
        fam = HamiltonianFamily(dim=2,
                                evaluate=lambda lam, t: lam[:, None, None] * SIGMA_X,
                                evaluate_dlambda=constant(SIGMA_X))
        got = generator_finite_difference(fam, 0.3, 1.0, dlam=1e-4, tol=1e-11)
        assert np.abs(got - 1.0 * SIGMA_X).max() < 1e-8

    def test_cross_check_against_augmented_ode(self):
        fam = hamiltonian_family(0.1, 1.0)
        t = 1.5
        rec = propagate(fam, 0.2, np.array([0.0, t]), tol=1e-10)
        fd = generator_finite_difference(fam, 0.2, t, dlam=1e-4, tol=1e-10)
        assert np.abs(fd - rec.h[-1]).max() < 1e-6

    def test_random_families_agree(self, rng):
        for dim in (2, 4):
            fam = random_family(rng, dim)
            rec = propagate(fam, 0.1, np.array([0.0, 1.2]), tol=1e-10)
            fd = generator_finite_difference(fam, 0.1, 1.2, dlam=1e-4, tol=1e-10)
            assert np.abs(fd - rec.h[-1]).max() < 1e-6

    def test_requires_positive_step(self, rng):
        fam = random_family(rng, 2)
        with pytest.raises(DomainError):
            generator_finite_difference(fam, 0.0, 1.0, dlam=0.0)


def test_propagators_at_zero_time(rng):
    fam = random_family(rng, 3)
    assert np.array_equal(propagators(fam, [0.2, -0.1], 0.0), np.broadcast_to(np.eye(3), (2, 3, 3)))


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_bad_end_time_rejected(t):
    # a negative or non-finite end time is an error, not the identity or a zero QFI
    fam = hamiltonian_family(0.1, 1.0)
    psi0 = probe_state(0.1)
    for call in (lambda: propagators(fam, [0.0], t),
                 lambda: qfi_numeric(PseudoHermitianParams(0.1, 1.0), t),
                 lambda: qfi_fidelity_oracle(fam, 0.0, psi0, t)):
        with pytest.raises(DomainError, match="t must be finite and >= 0"):
            call()


def test_finite_difference_consistency_of_family(rng):
    # evaluate_dlambda should be the lam-derivative of evaluate
    fam = random_family(rng, 3)
    lam, t, d = 0.2, 0.7, 1e-6
    fd = (at(fam.evaluate, lam + d, t) - at(fam.evaluate, lam - d, t)) / (2 * d)
    assert np.abs(fd - at(fam.evaluate_dlambda, lam, t)).max() < 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arg", ["lam", "dlam"])
def test_non_finite_lam_or_step_rejected_before_evaluation(arg, bad):
    # a DomainError naming the argument, not a failure deep in the numerics
    def must_not_run(lam, t):
        raise AssertionError("a non-finite argument reached the family")

    fam = HamiltonianFamily(dim=2, evaluate=must_not_run, evaluate_dlambda=must_not_run)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    lam, dlam = (bad, 1e-3) if arg == "lam" else (0.1, bad)
    calls = [lambda: generator_finite_difference(fam, lam, 1.0, dlam=dlam),
             lambda: qfi_fidelity_oracle(fam, lam, psi0, 1.0, dlam=dlam)]
    if arg == "lam":
        calls += [lambda: propagate(fam, lam, np.array([0.0, 1.0])),
                  lambda: propagators(fam, [0.0, lam], 1.0),
                  lambda: channel_bound_uncertainty(fam, lam, 1.0, 1)]
    for call in calls:
        with pytest.raises(DomainError, match=f"^{arg} must be finite.*, got {bad}"):
            call()


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2), (1, 3, 3)])
def test_family_callable_must_return_a_stack(shape):
    # the old scalar protocol, one matrix per call, is rejected, as is a
    # stack of the wrong length or dimension
    fam = HamiltonianFamily(dim=2, evaluate=lambda lam, t: np.zeros(shape),
                            evaluate_dlambda=lambda lam, t: np.zeros(shape))
    with pytest.raises(DomainError, match=r"must return a \(1, 2, 2\) stack"):
        propagate(fam, 0.0, np.array([0.0, 1.0]))


def test_empty_lam_batch_rejected(rng):
    # an empty batch is a DomainError at the boundary, not a reshape failure in the core
    fam = random_family(rng, 2)
    for call in (lambda: propagators(fam, [], 1.0),
                 lambda: generators(fam, np.array([]), np.array([0.0, 1.0]))):
        with pytest.raises(DomainError, match="lam must be non-empty"):
            call()

import math

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from nhsense.errors import DomainError, PropagationError
from nhsense.evolution import (
    HamiltonianFamily, generator_finite_difference, integrate, propagate, propagator_at,
)
from nhsense.operators import SIGMA_X, expm_hermitian
from nhsense.pseudo_hermitian import (
    PseudoHermitianParams, generator_closed, hamiltonian_family, probe_state, qfi_numeric,
)
from nhsense.qfi import qfi_fidelity_oracle

from conftest import random_family, random_hermitian


def constant_family(h, dh, dim):
    return HamiltonianFamily(dim=dim, evaluate=lambda lam, t: h, evaluate_dlambda=lambda lam, t: dh)


def multiplicative_family(h1, h0):
    """H(lam) = lam h1 + h0, time-independent."""
    return HamiltonianFamily(dim=h0.shape[0],
                             evaluate=lambda lam, t: lam * h1 + h0,
                             evaluate_dlambda=lambda lam, t: h1)


class TestIntegrate:
    def test_constant_non_hermitian_matches_expm_and_frechet(self, rng):
        # H(lam) = H0 + lam H1 with H0 non-Hermitian: U = e^{-iHt}, W = dU/dlam
        # is the Frechet derivative of expm at -iHt in the direction -iH1 t
        h0 = random_hermitian(rng, 3) + 0.4j * random_hermitian(rng, 3)
        h1 = random_hermitian(rng, 3) + 0.2j * random_hermitian(rng, 3)
        lam = 0.3
        h = h0 + lam * h1
        times = np.array([0.0, 0.6, 1.3])
        u, w = integrate(lambda t: h, 3, times, 1e-12, dhamiltonian=lambda t: h1)
        for k, t in enumerate(times):
            assert np.abs(u[k] - expm(-1j * h * t)).max() < 1e-10
            _, expected_w = expm_frechet(-1j * h * t, -1j * h1 * t)
            assert np.abs(w[k] - expected_w).max() < 1e-10

    def test_propagator_only_without_tangent(self, rng):
        h = random_hermitian(rng, 2)
        u, w = integrate(lambda t: h, 2, np.array([0.0, 1.0]), 1e-11)
        assert w is None
        assert np.abs(u[-1] - expm_hermitian(h, 1.0)).max() < 1e-10


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
        u, w = integrate(lambda t: fam.evaluate(0.3, t), dim, times, tol,
                         dhamiltonian=lambda t: fam.evaluate_dlambda(0.3, t))
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

    def test_non_finite_hamiltonian_reported(self):
        def bad(lam, t):
            return np.array([[np.inf, 0], [0, 0]], dtype=complex) if t > 0.5 else np.zeros((2, 2))

        fam = HamiltonianFamily(dim=2, evaluate=bad, evaluate_dlambda=lambda lam, t: np.zeros((2, 2)))
        with pytest.raises(PropagationError):
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
                                evaluate=lambda lam, t: lam * SIGMA_X,
                                evaluate_dlambda=lambda lam, t: SIGMA_X)
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


def test_propagator_at_zero_time(rng):
    fam = random_family(rng, 3)
    assert np.array_equal(propagator_at(fam, 0.2, 0.0), np.eye(3))


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_bad_end_time_rejected(t):
    # a negative or non-finite end time is an error, not the identity or a zero QFI
    fam = hamiltonian_family(0.1, 1.0)
    psi0 = probe_state(0.1)
    for call in (lambda: propagator_at(fam, 0.0, t),
                 lambda: qfi_numeric(PseudoHermitianParams(0.1, 1.0), t),
                 lambda: qfi_fidelity_oracle(fam, 0.0, psi0, t)):
        with pytest.raises(DomainError, match="t must be finite and >= 0"):
            call()


def test_finite_difference_consistency_of_family(rng):
    # evaluate_dlambda should be the lam-derivative of evaluate
    fam = random_family(rng, 3)
    lam, t, d = 0.2, 0.7, 1e-6
    fd = (fam.evaluate(lam + d, t) - fam.evaluate(lam - d, t)) / (2 * d)
    assert np.abs(fd - fam.evaluate_dlambda(lam, t)).max() < 1e-8

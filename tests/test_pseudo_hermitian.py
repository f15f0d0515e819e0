import math
import re
import sys

import numpy as np
import pytest

from nhsense import evolution
from nhsense.errors import DomainError
from nhsense.operators import ID2, SIGMA_X, SIGMA_Y, expm_hermitian, seminorm, tensor
from nhsense.pseudo_hermitian import (
    PseudoHermitianParams, _asymmetry, _splitting, conditional_population_from_dilation, dilated_hamiltonian,
    hamiltonian_family, hermitian_bound, p1_closed, p1_slope, postselection_success,
    probe_state, qfi_closed, qfi_numeric, qfi_rate_closed, sensitivity,
    susceptibility, sweep, two_level_population,
)
from nhsense.verification import check_pseudo_hermitian

from oracles import generator_closed

EPS, OMEGA = 0.1, 1.0
P0 = PseudoHermitianParams(EPS, OMEGA, 0.0)
TAU = P0.tau


def splitting(p):
    """The level splitting Omega of each member, as p.lam was given."""
    return p.given(_splitting(p)[1])


def asymmetry(p):
    """The asymmetry delta_lam of each member, as p.lam was given."""
    return p.given(_asymmetry(p, _splitting(p)[1]))


class TestParams:
    def test_derived_coefficients(self):
        assert P0.b == pytest.approx(11 / 30, rel=1e-15)          # 4*0.1*1.1/1.2
        assert P0.c == pytest.approx(0.5527707983925667, rel=1e-14)
        assert splitting(P0) == pytest.approx(2 * math.sqrt(0.11), rel=1e-15)
        assert TAU == pytest.approx(2.368064562748707, rel=1e-15)

    def test_omega_tau_quarter_period(self):
        assert splitting(P0) * TAU == pytest.approx(math.pi / 2, rel=1e-14)

    def test_rejects_degenerate_dilation(self):
        with pytest.raises(DomainError):
            PseudoHermitianParams(0.0, 1.0)
        with pytest.raises(DomainError):
            PseudoHermitianParams(0.1, -1.0)

    @pytest.mark.parametrize("epsilon", [1e154, 1e300, 9e307, 1e308])
    def test_rejects_overflowing_coupling(self, epsilon):
        # e(1+e) overflows: b and c would be inf and tau 0, and a sweep failed
        # later with "probability nan outside [0, 1]"; from 9e307 on 1 + 2e
        # overflows too, b and c were nan and the error said omega was too small
        with pytest.raises(DomainError, match=re.escape(f"epsilon {epsilon:g} too large")):
            PseudoHermitianParams(epsilon, 1.0)
        assert math.isfinite(PseudoHermitianParams(5e76, 1.0).b)

    @pytest.mark.parametrize("omega", [1e78, 1e200, sys.float_info.max])
    def test_rejects_omega_whose_coupling_overflows(self, omega):
        # c ~ 0.55 omega here: c⁴ overflowed, and a float ** that overflows raises
        # OverflowError, so sweep-ph --omega 1e78 stopped with a traceback
        for make in (lambda: PseudoHermitianParams(EPS, omega), lambda: hamiltonian_family(EPS, omega)):
            with pytest.raises(DomainError, match=re.escape(f"omega {omega:g} too large")):
                make()
        assert math.isfinite(PseudoHermitianParams(EPS, 1e76).c)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("epsilon, omega", [(1e300, 1.0), (1e154, 1.0), (1e150, 1e10)])
    def test_family_rejects_couplings_that_overflow(self, epsilon, omega):
        # b = 4 omega e(1 + e)/(1 + 2e) overflowed to inf: the family's matrices were
        # all nan, with a RuntimeWarning, and no DomainError
        with pytest.raises(DomainError, match=re.escape(f"epsilon {epsilon:g} too large")):
            hamiltonian_family(epsilon, omega)

    def test_omega_fourth_power_bound(self):
        # lam this large sets Omega = hypot(lam + b, c) = lam; the largest lam whose
        # Omega⁴ is a finite float is accepted, and qfi_closed is finite there
        def fourth_power_is_finite(x):
            try:
                return math.isfinite(x**4)
            except OverflowError:
                return False

        top = sys.float_info.max ** 0.25
        while not fourth_power_is_finite(top):
            top = math.nextafter(top, 0.0)
        assert not fourth_power_is_finite(math.nextafter(top, math.inf))
        assert splitting(PseudoHermitianParams(EPS, OMEGA, top)) == top
        assert math.isfinite(qfi_closed(PseudoHermitianParams(EPS, OMEGA, top), 1.0))
        assert math.isfinite(qfi_closed(PseudoHermitianParams(EPS, OMEGA, -top), 1.0))
        for lam in (math.nextafter(top, math.inf), -math.nextafter(top, math.inf), 1e300):
            with pytest.raises(DomainError, match="whose 4th power overflows"):
                PseudoHermitianParams(EPS, OMEGA, lam)

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan),
                                      (0.1, math.inf), (0.1, 1.0, math.nan), (0.1, 1.0, -math.inf)])
    def test_rejects_non_finite(self, args):
        # nan <= 0 is False, so without a finiteness check nan passed as a valid parameter
        with pytest.raises(DomainError, match="must be finite"):
            PseudoHermitianParams(*args)


def test_family_stack_is_dilated_hamiltonian_bit_for_bit():
    # the family evaluates a whole stack of lam at once, with the float
    # operations of dilated_hamiltonian at each lam
    fam = hamiltonian_family(EPS, OMEGA)
    lam, t = np.linspace(-0.5, 0.5, 7), np.linspace(0.0, 2.0, 7)
    stack = fam.evaluate(lam, t)
    for j in range(lam.size):
        assert np.array_equal(stack[j], dilated_hamiltonian(PseudoHermitianParams(EPS, OMEGA, float(lam[j]))))
    assert np.array_equal(fam.evaluate_dlambda(lam, t), np.broadcast_to(tensor(ID2, SIGMA_X), (7, 4, 4)))


CLOSED_FORMS_OF_T = {
    "qfi_closed": lambda t: qfi_closed(P0, t),
    "qfi_rate_closed": lambda t: qfi_rate_closed(P0, t),
    "two_level_population": lambda t: two_level_population(P0, t),
    "p1_closed": lambda t: p1_closed(P0, t),
    "susceptibility": lambda t: susceptibility(P0, t),
    "p1_slope": lambda t: p1_slope(P0, t),
    "hermitian_bound": lambda t: hermitian_bound(t, 1),
    "qfi_numeric": lambda t: qfi_numeric(P0, t),
    "generator_closed": lambda t: generator_closed(P0, t),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS_OF_T))
@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_closed_forms_reject_bad_time(name, t):
    # nan passed `t < 0` and gave nan; inf failed with a bare math domain error
    with pytest.raises(DomainError, match=f"t must be finite and >= 0, got {t}"):
        CLOSED_FORMS_OF_T[name](t)


def lam_grid(eps):
    """A lam grid through the dip lam = 0, the zero asymmetry lam = -2 eps omega and lam = -b,
    where the P1 slope is exactly 0."""
    b = PseudoHermitianParams(eps, OMEGA).b
    return np.concatenate([np.linspace(-0.5, 0.5, 101), [0.0, -2.0 * eps * OMEGA, -b]])


STACKED_FORMS = {
    "Omega": lambda p, t: splitting(p),
    "delta_lam": lambda p, t: asymmetry(p),
    "two_level_population": two_level_population,
    "susceptibility": susceptibility,
    "p1_closed": p1_closed,
    "p1_slope": p1_slope,
    "sensitivity": lambda p, t: sensitivity(p, t, 3),
    "qfi_closed": qfi_closed,
    "qfi_rate_closed": qfi_rate_closed,
    "postselection_success": postselection_success,
    "conditional_population_from_dilation": conditional_population_from_dilation,
    "qfi_numeric": qfi_numeric,
}


class TestLamStack:
    @pytest.mark.parametrize("name", sorted(STACKED_FORMS))
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_stack_member_is_its_lone_call_bit_for_bit(self, name, eps):
        # at t = 0, at the dip time tau and where cos(Omega t) = 0 at zero asymmetry
        form = STACKED_FORMS[name]
        p = PseudoHermitianParams(eps, OMEGA, lam_grid(eps))
        t_cos0 = math.pi / (2.0 * splitting(PseudoHermitianParams(eps, OMEGA, -2.0 * eps * OMEGA)))
        for t in (0.0, p.tau / 3, p.tau, t_cos0, 2 * p.tau):
            stacked = form(p, t)
            assert isinstance(stacked, np.ndarray) and stacked.shape == p.lams.shape
            for lam, member in zip(p.lams.tolist(), stacked.tolist()):
                lone = form(PseudoHermitianParams(eps, OMEGA, lam), t)
                assert type(lone) is float and repr(lone) == repr(member), (t, lam)

    def test_the_grid_reaches_each_guard(self):
        p = PseudoHermitianParams(EPS, OMEGA, lam_grid(EPS))
        dip, zero_asymmetry, flat = -3, -2, -1
        sens = sensitivity(p, TAU, 1)
        assert math.isnan(sens[dip]) and sens[flat] == math.inf  # 0/0, and a slope of exactly 0
        assert p1_slope(p, TAU)[flat] == 0.0
        t_cos0 = math.pi / (2.0 * splitting(p)[zero_asymmetry])
        assert asymmetry(p)[zero_asymmetry] == 0.0
        assert two_level_population(p, t_cos0)[zero_asymmetry] == 1.0
        assert susceptibility(p, t_cos0)[zero_asymmetry] == 0.0

    def test_stack_is_an_immutable_copy(self):
        lams = np.linspace(-0.5, 0.5, 5)
        p = PseudoHermitianParams(EPS, OMEGA, lams)
        assert p.lam == tuple(lams.tolist()) and np.array_equal(p.lams, lams) and not p.lams.flags.writeable
        lams[0] = 7.0
        assert p.lam[0] == p.lams[0] == -0.5
        # a frozen params value compares and hashes by its values, a stack too
        twin = PseudoHermitianParams(EPS, OMEGA, list(p.lam))
        assert twin == p and hash(twin) == hash(p) and twin != PseudoHermitianParams(EPS, OMEGA, p.lam[:4])

    def test_lone_lam_is_a_stack_of_one(self):
        assert P0.lams.tolist() == [0.0] and type(P0.lam) is float
        assert type(splitting(P0)) is float and type(asymmetry(P0)) is float
        assert dilated_hamiltonian(P0).shape == (4, 4)

    @pytest.mark.parametrize("lam, match", [([], "lam must be non-empty"),
                                            ([0.0, math.nan], "lam must be finite, got nan"),
                                            ([0.0, -math.inf], "lam must be finite, got -inf"),
                                            (np.zeros((2, 2)), r"lam must be one value or a 1-d stack")])
    def test_rejects_a_bad_stack(self, lam, match):
        with pytest.raises(DomainError, match=match):
            PseudoHermitianParams(EPS, OMEGA, lam)

    @pytest.mark.parametrize("lams, named", [([0.0, 1e300, 0.5], "1e+300"), ([-0.5, 0.0, -1e300], "-1e+300")])
    def test_omega_overflow_is_checked_at_the_stacks_ends(self, lams, named):
        with pytest.raises(DomainError, match=rf"too large at omega 1, lam {re.escape(named)}: .* overflows"):
            PseudoHermitianParams(EPS, OMEGA, lams)

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_generator_closed_member_is_its_lone_call(self, eps):
        # the stack once raised a TypeError; each member is 4×4, a lone lam gives one 4×4
        p = PseudoHermitianParams(eps, OMEGA, lam_grid(eps))
        for t in (0.0, p.tau, 2 * p.tau):
            stacked = generator_closed(p, t)
            assert stacked.shape == (p.lams.size, 4, 4)
            for lam, member in zip(p.lams.tolist(), stacked):
                lone = generator_closed(PseudoHermitianParams(eps, OMEGA, lam), t)
                assert lone.shape == (4, 4) and repr(lone.tolist()) == repr(member.tolist())


class TestDilatedHamiltonian:
    def test_construction_identity(self):
        p = PseudoHermitianParams(0.25, 1.3, 0.4)
        expected = (p.b + p.lam) * tensor(ID2, np.array([[0, 1], [1, 0]])) \
            - p.c * tensor(SIGMA_Y, SIGMA_Y)
        assert np.abs(dilated_hamiltonian(p) - expected).max() == 0.0

    def test_degenerate_spectrum(self):
        w = np.linalg.eigvalsh(dilated_hamiltonian(P0))
        om = 2 * OMEGA * math.sqrt(EPS * (1 + EPS))
        assert np.allclose(w, [-om, -om, om, om], atol=1e-12)

    def test_commutes_with_ancilla_sigma_y(self):
        for lam in (-0.4, 0.0, 0.7):
            h = dilated_hamiltonian(PseudoHermitianParams(EPS, OMEGA, lam))
            sy_a = tensor(SIGMA_Y, ID2)
            assert np.abs(h @ sy_a - sy_a @ h).max() < 1e-14


class TestProbeState:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("epsilon, reason", [(math.nan, "must be finite"), (math.inf, "must be finite"),
                                                 (0.0, "must be positive"), (-0.1, "must be positive"),
                                                 (9e307, "too large"), (1e308, "too large")])
    def test_epsilon_domain_of_the_params(self, epsilon, reason):
        # nan and inf gave a nan state, 1e308 an all-zero, unnormalised one
        with pytest.raises(DomainError, match=f"^epsilon .*{reason}"):
            probe_state(epsilon)
        with pytest.raises(DomainError, match=f"^epsilon .*{reason}"):
            PseudoHermitianParams(epsilon, OMEGA)

    def test_largest_epsilon_gives_a_normalised_state(self):
        psi = probe_state(8.98e307)
        assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-15)

    def test_small_epsilon_limit(self):
        psi = probe_state(1e-9)
        assert abs(psi[0]) == pytest.approx(1.0, abs=1e-8)
        assert np.abs(psi[1:]).max() < 1e-4

    def test_amplitudes(self):
        psi = probe_state(0.1)
        assert psi[0].real == pytest.approx(0.9574271077563381, rel=1e-14)
        assert psi[2].real == pytest.approx(0.2886751345948129, rel=1e-14)
        assert psi[1] == 0 and psi[3] == 0
        assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-15)

    def test_sigma_y_basis_balance(self):
        # equal weight on both ancilla sigma_y eigenstates: |alpha|^2 = |beta|^2
        psi = probe_state(0.37)
        up_y = np.array([1.0, 1j]) / math.sqrt(2)
        a0, a1 = psi[0], psi[2]
        alpha = np.conj(up_y[0]) * a0 + np.conj(up_y[1]) * a1
        beta = np.conj(up_y[0]) * a0 - np.conj(up_y[1]) * a1
        assert abs(alpha) ** 2 - abs(beta) ** 2 == pytest.approx(0.0, abs=1e-14)


class TestTwoLevelPopulation:
    def test_initial(self):
        assert two_level_population(P0, 0.0) == 1.0

    def test_quarter_period_dip(self):
        assert two_level_population(P0, TAU) == pytest.approx(0.0, abs=1e-25)

    def test_zero_asymmetry_freezes_population(self):
        # lam = -2 eps omega makes delta_lam = 0: the state never leaves |0>_s
        p = PseudoHermitianParams(EPS, OMEGA, -2 * EPS * OMEGA)
        assert asymmetry(p) == pytest.approx(0.0, abs=1e-15)
        for t in np.linspace(0.0, 3 * TAU, 17):
            assert two_level_population(p, t) == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        for lam in np.linspace(-1, 1, 21):
            p = PseudoHermitianParams(EPS, OMEGA, float(lam))
            for t in np.linspace(0, 2 * TAU, 13):
                assert 0.0 <= two_level_population(p, t) <= 1.0


class TestDilationEquivalence:
    def test_initial(self):
        assert conditional_population_from_dilation(P0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_grid_agreement(self):
        for lam in np.linspace(-1.0, 1.0, 9):
            p = PseudoHermitianParams(EPS, OMEGA, float(lam))
            for t in np.linspace(0.0, 2 * TAU, 11):
                assert conditional_population_from_dilation(p, t) == pytest.approx(
                    two_level_population(p, t), abs=1e-8)

    def test_dip(self):
        assert conditional_population_from_dilation(P0, TAU) == pytest.approx(0.0, abs=1e-12)

    def test_success_probability_reported(self):
        # the diverging-susceptibility regime comes with shrinking success odds;
        # no decay law is asserted, only that the number is a probability
        for t in np.linspace(0.0, 2 * TAU, 7):
            s = postselection_success(P0, t)
            assert 0.0 <= s <= 1.0
        assert postselection_success(P0, 0.0) == pytest.approx(
            (1 + EPS) / (1 + 2 * EPS), rel=1e-12)


class TestP1Closed:
    def test_initial_value(self):
        assert p1_closed(P0, 0.0) == pytest.approx((1 + EPS) / (1 + 2 * EPS), rel=1e-15)
        assert p1_closed(P0, 0.0) == pytest.approx(0.9166666666666666, rel=1e-14)

    def test_dip(self):
        assert p1_closed(P0, TAU) == pytest.approx(0.0, abs=1e-25)

    def test_radicand_identity(self):
        # lam^2 + 2 b lam + (b^2 + c^2) == (lam + b)^2 + c^2
        for lam in np.linspace(-3.0, 3.0, 25):
            p = PseudoHermitianParams(EPS, OMEGA, float(lam))
            radicand = lam**2 + 8 * EPS * (1 + EPS) * lam * OMEGA / (1 + 2 * EPS) \
                + 4 * EPS * (1 + EPS) * OMEGA**2
            assert radicand == pytest.approx(splitting(p)**2, abs=1e-12)

    def test_matches_direct_propagation(self):
        for lam in np.linspace(-0.5, 0.5, 9):
            p = PseudoHermitianParams(EPS, OMEGA, float(lam))
            for t in np.linspace(0.0, 2 * TAU, 9):
                psi_t = expm_hermitian(dilated_hamiltonian(p), t) @ probe_state(EPS)
                assert p1_closed(p, t) == pytest.approx(abs(psi_t[0]) ** 2, abs=1e-10)


class TestSusceptibility:
    def test_stationary_point(self):
        # delta_lam = 0 freezes S at 1, a maximum in lam
        p = PseudoHermitianParams(EPS, OMEGA, -2 * EPS * OMEGA)
        assert abs(susceptibility(p, 0.7 * TAU)) < 1e-6

    def test_symbolic_oracle_spot(self):
        # dS/dlam and dP1/dlam against sympy at 40 digits, on a lam grid
        # through the fixture rows -0.365 (P1 slope) and -0.2 (stationary
        # S at eps = 0.1), at the protocol time of each eps.
        import sympy as sp

        lam_s = sp.Symbol("lam")
        for eps in (0.1, 0.01):
            tau = PseudoHermitianParams(eps, OMEGA).tau
            e_s, om_s, t_s = sp.Float(eps, 40), sp.Float(OMEGA, 40), sp.Float(tau, 40)
            b_s = 4 * om_s * e_s * (1 + e_s) / (1 + 2 * e_s)
            c_s = 2 * om_s * sp.sqrt(e_s * (1 + e_s)) / (1 + 2 * e_s)
            big_omega = sp.sqrt((lam_s + b_s) ** 2 + c_s**2)
            d_s = (lam_s + 2 * e_s * om_s) / big_omega
            cs2, sn2 = sp.cos(big_omega * t_s) ** 2, sp.sin(big_omega * t_s) ** 2
            s_expr = cs2 / (cs2 + d_s**2 * sn2)
            radicand = lam_s**2 + 8 * e_s * (1 + e_s) * lam_s * om_s / (1 + 2 * e_s) \
                + 4 * e_s * (1 + e_s) * om_s**2
            p1_expr = (1 + e_s) / (1 + 2 * e_s) * sp.cos(t_s * sp.sqrt(radicand)) ** 2
            slopes = ((susceptibility, sp.diff(s_expr, lam_s)), (p1_slope, sp.diff(p1_expr, lam_s)))
            for lam in (-0.5, -0.365, -0.2, -0.1, -0.03, -0.02, -0.005, 0.0, 0.05, 0.2, 0.5):
                p = PseudoHermitianParams(eps, OMEGA, lam)
                for slope, derivative in slopes:
                    exact = float(derivative.subs(lam_s, sp.Float(lam, 40)).evalf(30))
                    got = slope(p, tau)
                    if abs(exact) > 1e-6:
                        assert got == pytest.approx(exact, rel=1e-10), (slope.__name__, eps, lam)
                    else:
                        assert got == pytest.approx(exact, abs=1e-12), (slope.__name__, eps, lam)

    def test_divergence_trend(self):
        # peak grows as eps shrinks (window scaled with eps, where the peak lives)
        peaks = []
        for eps in (0.1, 0.01, 0.001):
            tau = PseudoHermitianParams(eps, OMEGA).tau
            peaks.append(max(
                abs(susceptibility(PseudoHermitianParams(eps, OMEGA, float(lam)), tau))
                for lam in np.linspace(-4 * eps, 0.0, 301)))
        assert peaks[1] / peaks[0] > 5.0
        assert peaks[2] / peaks[1] > 5.0


class TestSensitivity:
    def test_dip_undefined(self):
        # P1 = 0 with zero slope: 0/0, excluded from minima
        assert math.isnan(sensitivity(P0, TAU, 1))

    def test_never_beats_hermitian_bound(self):
        bound = hermitian_bound(TAU, 1)
        for lam in np.linspace(-0.5, 0.5, 101):
            s = sensitivity(PseudoHermitianParams(EPS, OMEGA, float(lam)), TAU, 1)
            if math.isfinite(s):
                assert s >= bound - 1e-9

    def test_finite_at_peak_susceptibility(self):
        eps = 0.001
        tau = PseudoHermitianParams(eps, OMEGA).tau
        lams = np.linspace(-4 * eps, 0.0, 301)
        chis = [abs(susceptibility(PseudoHermitianParams(eps, OMEGA, float(l)), tau)) for l in lams]
        lam_star = float(lams[int(np.argmax(chis))])
        s = sensitivity(PseudoHermitianParams(eps, OMEGA, lam_star), tau, 1)
        assert math.isfinite(s)

    def test_nu_scaling(self):
        p = PseudoHermitianParams(EPS, OMEGA, 0.2)
        assert sensitivity(p, TAU, 4) == pytest.approx(sensitivity(p, TAU, 1) / 2, rel=1e-10)


class TestQfiClosedForms:
    def test_zero_time(self):
        assert qfi_closed(P0, 0.0) == 0.0

    def test_reference_value(self):
        assert qfi_closed(P0, TAU) == pytest.approx(13.167023258332254, rel=1e-14)

    def test_matches_numeric(self):
        for lam in (-0.2, 0.0, 0.3):
            p = PseudoHermitianParams(EPS, OMEGA, lam)
            for t in (TAU / 2, TAU, 1.7 * TAU):
                assert qfi_numeric(p, t) == pytest.approx(
                    qfi_closed(p, t), rel=1e-8)

    def test_rate_initial_value_and_band(self):
        for lam in (-0.3, 0.0, 0.4):
            p = PseudoHermitianParams(EPS, OMEGA, lam)
            assert qfi_rate_closed(p, 0.0) == pytest.approx(2.0, rel=1e-12)
            for t in np.linspace(0.0, 3 * TAU, 40):
                assert abs(qfi_rate_closed(p, t)) <= 2.0 + 1e-12

    def test_pure_sigma_x_encoding_limit(self):
        # c -> 0 (theta -> 0): F -> 4 t^2 and rate -> 2
        p = PseudoHermitianParams(1e-12, OMEGA, 0.5)
        for t in (0.5, 1.0, 2.0):
            assert qfi_closed(p, t) == pytest.approx(4 * t**2, rel=1e-9)
            assert qfi_rate_closed(p, t) == pytest.approx(2.0, rel=1e-9)

    def test_rate_matches_finite_difference(self):
        step = 1e-5
        for lam in (-0.2, 0.3):
            p = PseudoHermitianParams(EPS, OMEGA, lam)
            for t in (TAU / 2, TAU, 1.5 * TAU):
                fd = (math.sqrt(qfi_closed(p, t + step)) - math.sqrt(qfi_closed(p, t - step))) / (2 * step)
                assert qfi_rate_closed(p, t) == pytest.approx(fd, abs=1e-5)


class TestHermitianBound:
    def test_values(self):
        assert hermitian_bound(1.0, 1) == 0.5
        assert hermitian_bound(TAU, 1) == pytest.approx(0.2111428919064732, rel=1e-14)
        assert hermitian_bound(1.0, 4) == pytest.approx(0.25, rel=1e-15)

    def test_is_channel_bound_with_sigma_x_width(self):
        # 1/(sqrt(nu) t ||sigma_x||) with width 2
        dsx = tensor(ID2, np.array([[0, 1], [1, 0]], dtype=complex))
        assert hermitian_bound(TAU, 1) == pytest.approx(1.0 / (TAU * seminorm(dsx)), rel=1e-14)


class TestSweep:
    def test_rows_and_flags(self):
        rows = sweep(EPS, OMEGA, np.linspace(-0.3, 0.3, 7), nu=1)
        assert len(rows) == 7
        for row in rows:
            assert 0.0 <= row.S <= 1.0
            assert 0.0 <= row.P1 <= 1.0
            if math.isfinite(row.sensitivity):
                assert row.sensitivity >= row.hermitian_bound - 1e-9
            assert row.qfi_numeric == pytest.approx(row.qfi_closed, rel=1e-6)
        # the lam = 0 row sits exactly on the dip: flagged, not dropped
        center = rows[3]
        assert center.lam == 0.0
        assert math.isnan(center.sensitivity)

    def test_rows_are_the_lone_closed_forms(self):
        grid = np.linspace(-0.3, 0.3, 7)
        for lam, row in zip(grid.tolist(), sweep(EPS, OMEGA, grid, nu=2)):
            p = PseudoHermitianParams(EPS, OMEGA, lam)
            lone = (lam, two_level_population(p, TAU), susceptibility(p, TAU), p1_closed(p, TAU),
                    p1_slope(p, TAU), sensitivity(p, TAU, 2), qfi_closed(p, TAU), qfi_numeric(p, TAU),
                    qfi_rate_closed(p, TAU), hermitian_bound(TAU, 2))
            assert repr(tuple(vars(row).values())) == repr(lone)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            sweep(EPS, OMEGA, [], nu=1)

    def test_non_finite_lam_rejected_before_propagation(self):
        with pytest.raises(DomainError, match="lam must be finite"):
            sweep(EPS, OMEGA, [0.0, math.nan], nu=1)

    @pytest.mark.parametrize("grid", [[-2e77, 0.0], [2e77, 0.0], [-0.5, 0.5, 2e77]])
    def test_out_of_domain_grid_rejected_before_propagation(self, grid, monkeypatch):
        # Omega⁴ overflows at lam = ±2e77, whether the lam opens or closes the grid
        def must_not_run(*args, **kwargs):
            raise AssertionError("an out-of-domain lam reached the propagation")

        monkeypatch.setattr(evolution, "integrate", must_not_run)
        with pytest.raises(DomainError, match="Omega"):
            sweep(EPS, OMEGA, grid, nu=1)

    @pytest.mark.parametrize("grid", [[0.0, 1e4], [-1e77, 0.0]])
    def test_grid_past_the_old_phase_bound_runs(self, grid):
        # Omega tau = 2.4e4 and 2.4e77: time stepping ran past a 30 s timeout at the first,
        # and the sweep once rejected both; the spectral generator does not step
        rows = sweep(EPS, OMEGA, grid, nu=1)
        assert all(row.qfi_numeric == pytest.approx(row.qfi_closed, rel=1e-12) for row in rows)

    def test_grid_in_the_domain_where_lam_0_is_not(self):
        # epsilon 1e77: b ~ 2e77 puts lam = 0 out of the domain (Omega⁴ overflows),
        # but not a grid near lam = -b; the family takes b and c from the grid
        with pytest.raises(DomainError, match="4th power overflows"):
            PseudoHermitianParams(1e77, OMEGA)
        rows = sweep(1e77, OMEGA, [-2e77, -1.99e77], nu=1)
        assert all(row.qfi_numeric == pytest.approx(row.qfi_closed, rel=1e-12) for row in rows)

    def test_no_time_stepping(self, integrate_calls):
        # the dilated H is constant, so neither the sweep, a lone qfi_numeric nor verify's
        # pseudo-Hermitian suite steps in time: each takes its generator from one
        # eigendecomposition per stack, and every row's qfi_numeric equals qfi_numeric alone
        grid = np.linspace(-0.5 * OMEGA, 0.5 * OMEGA, 201)
        rows = sweep(EPS, OMEGA, grid, nu=1)
        for k in (0, 100, 200):
            alone = qfi_numeric(PseudoHermitianParams(EPS, OMEGA, float(grid[k])), TAU)
            assert repr(alone) == repr(rows[k].qfi_numeric)
        assert all(r.passed for r in check_pseudo_hermitian())
        assert integrate_calls == []


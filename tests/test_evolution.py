import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm, expm_frechet

from nhsense import evolution
from nhsense.cli import main
from nhsense.errors import DomainError, PropagationError
from nhsense.evolution import (
    _INTERNAL_TOL_FACTOR, _RTOL_FLOOR, HamiltonianFamily, _product, generators, integrate, magnus_propagators,
    propagate, propagators,
)
from nhsense.operators import SIGMA_X, SIGMA_Z, expm_hermitian
from nhsense.pseudo_hermitian import (
    PseudoHermitianParams, hamiltonian_family, probe_state, qfi_numeric,
)
from nhsense.pt_ep import PtEpParams, _family
from nhsense.qfi import qfi_fidelity_oracle
from nhsense.verification import family_stack, random_terms

from conftest import (
    constant, constant_family, make_rng, per_time, pt_dhamiltonian, pt_hamiltonian, random_family,
    random_hermitian,
)
from oracles import generator_closed, generator_finite_difference


def one_member(h_of_t):
    """The Hamiltonian of a member whose Hamiltonian is h_of_t(t), one scalar time at a time."""
    def evaluate(params, t):
        shape = np.broadcast_shapes(params.shape, t.shape)
        m = np.array([h_of_t(s) for s in np.broadcast_to(t, shape).ravel()])
        return m.reshape(shape + m.shape[1:])
    return evaluate


def shifted(fam, start):
    """The family fam with time measured from start: H(lam, start + t)."""
    return HamiltonianFamily(dim=fam.dim, evaluate=lambda lam, t: fam.evaluate(lam, t + start),
                             evaluate_dlambda=lambda lam, t: fam.evaluate_dlambda(lam, t + start))


def multiplicative_family(h1, h0):
    """H(lam) = lam h1 + h0, time-independent."""
    return HamiltonianFamily(dim=h0.shape[0],
                             evaluate=lambda lam, t: per_time(lam, t)[..., None, None] * h1 + h0,
                             evaluate_dlambda=constant(h1))


def at(fam_evaluate, lam, t):
    """A family callable's matrix at one scalar (lam, t)."""
    return fam_evaluate(np.array([lam]), np.array([t]))[0]


def grid_case(case):
    """(family, lams, times) of a two-member batch on a multi-interval grid."""
    if case == "pt-period":
        ps = [PtEpParams(J=1.0, Gamma=0.5, omega=4.0, delta=0.05, omega_delta=wd) for wd in (0.3, 1.1)]
        return _family(ps), np.arange(2), np.linspace(0.0, ps[0].T, 5)
    return random_family(make_rng(11), 3), np.array([0.3, -0.4]), np.linspace(0.0, 2.0, 6)


class TestIntegrate:
    def test_constant_non_hermitian_matches_expm_and_frechet(self, rng):
        # H(lam) = H0 + lam H1 with H0 non-Hermitian: U = e^{-iHt}, W = dU/dlam
        # is the Frechet derivative of expm at -iHt in the direction -iH1 t
        h0 = random_hermitian(rng, 3) + 0.4j * random_hermitian(rng, 3)
        h1 = random_hermitian(rng, 3) + 0.2j * random_hermitian(rng, 3)
        lam = 0.3
        h = h0 + lam * h1
        times = np.array([0.0, 0.6, 1.3])
        [u], [w] = integrate(constant_family(h, h1), [lam], times, 1e-12, tangent=True)
        for k, t in enumerate(times):
            assert np.abs(u[k] - expm(-1j * h * t)).max() < 1e-10
            _, expected_w = expm_frechet(-1j * h * t, -1j * h1 * t)
            assert np.abs(w[k] - expected_w).max() < 1e-10

    def test_propagator_only_without_tangent(self, rng):
        h = random_hermitian(rng, 2)
        u, w = integrate(constant_family(h), [0.0], np.array([0.0, 1.0]), 1e-11)
        assert w is None
        assert np.abs(u[0, -1] - expm_hermitian(h, 1.0)).max() < 1e-10

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf arithmetic
    def test_step_below_ten_ulp_raises(self):
        # H = 1e300 sigma_x past t = 0.5 is finite, so it passes the evaluation
        # check, but it overflows the stage states to inf and every step into it
        # is rejected; the step shrinks until it falls below 10 ulp of t, which
        # ends the run instead of a hang
        def huge(params, t):
            return np.where((t > 0.5)[..., None, None], 1e300, 1.0) * SIGMA_X

        fam = HamiltonianFamily(dim=2, evaluate=huge, evaluate_dlambda=constant(np.zeros((2, 2))))
        with pytest.raises(PropagationError, match="10 ulp"):
            integrate(fam, np.arange(3), np.array([0.0, 1.0]), 1e-10)

    def test_nan_hamiltonian_stops_at_its_evaluation(self):
        # a nan stack is caught where the family returns it, before the
        # integrator takes a step with it
        def bad(params, t):
            return np.where((t > 0.5)[..., None, None], np.nan, 1.0) * SIGMA_X

        fam = HamiltonianFamily(dim=2, evaluate=bad, evaluate_dlambda=constant(np.zeros((2, 2))))
        with pytest.raises(PropagationError, match="non-finite Hamiltonian evaluation at t="):
            integrate(fam, np.arange(3), np.array([0.0, 1.0]), 1e-10)

    def test_non_finite_first_step_raises(self):
        # f0 / scale overflows, so the first step is nan; a nan time never
        # reaches the end time and never falls below 10 ulp, so it would hang
        with pytest.raises(PropagationError, match="initial step size is not finite"):
            integrate(constant_family(1e300 * SIGMA_X), [0], np.array([0.0, 1.0]), 1e-10)

    @pytest.mark.parametrize("case", ["random-hermitian", "pt-period"])
    def test_grid_point_is_chained_from_interval_members(self, case):
        # interval k is a member run from the identity over (0, t_{k+1} - t_k)
        # with H at t_k + s, bit for bit a two-point run of the shifted family;
        # the record chains U_{k+1} = P_k U_k and W_{k+1} = P_k W_k + W_piece U_k
        fam, lams, times = grid_case(case)
        u, w = integrate(fam, lams, times, 1e-10, tangent=True)
        eps = np.finfo(float).eps
        for k in range(times.size - 1):
            start = times[k]
            p, wp = (x[:, 1] for x in integrate(shifted(fam, start), lams, (0.0, times[k + 1] - start),
                                                1e-10, tangent=True))
            if k == 0:
                assert repr(u[:, 1].tolist()) == repr(p.tolist())
                assert repr(w[:, 1].tolist()) == repr(wp.tolist())
                continue
            assert np.all(np.abs(u[:, k + 1] - p @ u[:, k]) <= 4 * eps * (np.abs(p) @ np.abs(u[:, k])))
            scale = np.abs(p) @ np.abs(w[:, k]) + np.abs(wp) @ np.abs(u[:, k])
            assert np.all(np.abs(w[:, k + 1] - (p @ w[:, k] + wp @ u[:, k])) <= 8 * eps * scale)


class TestAgainstSolveIvp:
    """The batched core is scipy's DOP853 controller on the span-unit system: same steps, same numbers."""

    @staticmethod
    def solve_ivp_reference(hamiltonian, dhamiltonian, dim, t_end, tol, rtol=None):
        # the state layout of integrate from the identity on (0, t_end), through scipy's DOP853; the
        # default is the system of integrate's member at its own rtol = atol, whose tangent is W / u
        # for u = max(1, 2^floor(log2 t_end)), an explicit rtol the plain system
        unit = max(1.0, 2.0 ** math.floor(math.log2(t_end))) if rtol is None else 1.0
        rtol = max(tol / _INTERNAL_TOL_FACTOR, _RTOL_FLOOR) if rtol is None else rtol
        width = dim if dhamiltonian is None else 2 * dim

        def rhs(t, y):
            uw = y.reshape(dim, width)
            d = (-1j * hamiltonian(t)) @ uw
            if dhamiltonian is not None:
                d[:, dim:] -= 1j * ((dhamiltonian(t) / unit) @ uw[:, :dim])
            return d.ravel()

        y0 = np.zeros((dim, width), dtype=complex)
        y0[:, :dim] = np.eye(dim)
        sol = solve_ivp(rhs, (0.0, t_end), y0.ravel(), method="DOP853", rtol=rtol, atol=rtol)
        y = sol.y[:, -1].reshape(dim, width)
        return y[:, :dim], (y[:, dim:] if dhamiltonian is not None else None), sol.nfev

    def check(self, hamiltonian, dhamiltonian, dim, times, tol):
        calls, members = [], []
        tangent = dhamiltonian is not None
        fam = HamiltonianFamily(dim, one_member(hamiltonian), one_member(dhamiltonian) if tangent else None)

        def counted(params, t):
            calls.append(t.size)
            return fam.evaluate(params, t)

        def recorded(*args):
            members.append(dopri(*args))
            return members[-1]

        dopri = evolution._dopri
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "_dopri", recorded)
            [u], w = integrate(fam, [0], times, tol, tangent)
        assert np.array_equal(u[0], np.eye(dim))
        # each interval's member is solve_ivp from the identity over that interval, H at t_k + s
        width = dim if dhamiltonian is None else 2 * dim
        for k, end_state in enumerate(members[0].T.reshape(-1, dim, width)):  # (n, members) entries-first
            start = times[k]
            shifted = None if dhamiltonian is None else (lambda s: dhamiltonian(start + s))
            u_ref, w_ref, _ = self.solve_ivp_reference(lambda s: hamiltonian(start + s), shifted, dim,
                                                       times[k + 1] - start, tol)
            assert np.abs(end_state[:, :dim] - u_ref).max() <= 1e-13 * max(1.0, np.abs(u_ref).max())
            if dhamiltonian is not None:
                assert np.abs(end_state[:, dim:] - w_ref).max() <= 1e-13 * max(1.0, np.abs(w_ref).max())
        # the chained record at each grid point is the propagation (0, t_k) to within 10 tol
        for k in range(1, times.size):
            u_ref, w_ref, _ = self.solve_ivp_reference(hamiltonian, dhamiltonian, dim, times[k], tol,
                                                       rtol=1e-13)
            assert np.abs(u[k] - u_ref).max() <= 10 * tol
            if dhamiltonian is not None:
                assert np.abs(w[0, k] - w_ref).max() <= 10 * tol
        # H is evaluated once per step attempt at its eleven stage times; the
        # twelfth RHS evaluation, at the step's end, reuses the last of them.
        # With the two of the initial step that is 2 + 12 per attempt, as in scipy.
        integrate(replace(fam, evaluate=counted), [0], times[[0, -1]], tol, tangent)
        nfev = self.solve_ivp_reference(hamiltonian, dhamiltonian, dim, times[-1], tol)[2]
        assert calls[:2] == [1, 1] and set(calls[2:]) == {11}
        assert 2 + 12 * (len(calls) - 2) == nfev

    @pytest.mark.parametrize("tangent", [False, True])
    def test_pt_period(self, tangent):
        p = PtEpParams(J=1.0, Gamma=1.0650605221995801, omega=4.0, delta=0.05, omega_delta=0.2228)
        self.check(lambda t: pt_hamiltonian(p, t), (lambda t: pt_dhamiltonian(p, t)) if tangent else None,
                   2, np.array([0.0, p.T]), 1e-12)

    def test_pt_period_grid(self):
        p = PtEpParams(J=1.0, Gamma=0.5, omega=4.0, delta=0.05, omega_delta=1.1)
        self.check(lambda t: pt_hamiltonian(p, t), lambda t: pt_dhamiltonian(p, t),
                   2, np.linspace(0.0, p.T, 5), 1e-10)

    def test_tangent_in_span_units(self):
        # a tangent member of span T = 2 pi integrates W / 4 with dH/dlam / 4; the core multiplies by 4
        p = PtEpParams(J=1.0, Gamma=0.5, omega=1.0, delta=0.05, omega_delta=0.3)
        self.check(lambda t: pt_hamiltonian(p, t), lambda t: pt_dhamiltonian(p, t),
                   2, np.array([0.0, p.T]), 1e-10)

    def test_vanishing_start_with_rejected_steps(self, rng):
        # H(0) = 0 gives the tiny first step 1e-6, so the step grows by the
        # factor limit 10; at tol 1e-6 the run to t = 4 rejects three steps
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        self.check(lambda t: math.sin(3 * t) * a + t * t * b, None, 3, np.linspace(0.0, 4.0, 5), 1e-6)

    def test_random_family_grid_points(self):
        fam = random_family(make_rng(7), 4)
        self.check(lambda t: at(fam.evaluate, 0.3, t), lambda t: at(fam.evaluate_dlambda, 0.3, t),
                   4, np.linspace(0.0, 2.0, 7), 1e-10)


def stage_operands(rng, m, dim):
    """Entries-first stacks as `integrate`'s apply passes them: gen[j] (dim, dim, m), uw (dim, 2 dim, m)
    and uw[:, :dim]."""
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, uw = draw(5, dim, dim, m)[3], draw(dim * 2 * dim * m).reshape(dim, 2 * dim, m)
    return a, uw, uw[:, :dim]


def loop_product(a, b):
    """sum_j a[i, j] b[j, k] by a Python loop over j = 0 ... d-1, one multiply and one add per j.

    Each term multiplies two arrays of the output's shape: a one-element product of two
    broadcast operands takes numpy's scalar complex multiply, which rounds apart from the fused
    multiply-add of its vector loop (so at d = w = m = 1, a[:, 0, None] * b[0] would not do).
    """
    d, w = a.shape[0], b.shape[1]
    out = np.repeat(a[:, :1], w, 1) * np.repeat(b[:1], d, 0)
    for j in range(1, d):
        out += np.repeat(a[:, j:j + 1], w, 1) * np.repeat(b[j:j + 1], d, 0)
    return out


class TestStageProduct:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_equals_the_loop_over_the_inner_index_bit_for_bit(self, rng, dim):
        # one multiply and one reduce add in the order j = 0 ... d-1, at every batch size; at
        # m = 1 the member axis is no inner loop, and numpy could have reordered the reduce
        for m in (1, 2, 3, 16, 17, 80, 144, 400):
            a, *bs = stage_operands(rng, m, dim)
            for b in bs:
                assert np.array_equal(_product(a, b), loop_product(a, b)), m
                out = np.empty(b.shape, dtype=complex)
                assert _product(a, b, out) is out and np.array_equal(out, loop_product(a, b)), m

    @pytest.mark.parametrize("m", [1, 2, 3, 16, 17, 80, 144, 400, 1000])
    def test_member_equals_its_lone_product_bit_for_bit(self, rng, m):
        # a member's floats do not depend on the batch it sits in
        for dim in (1, 2, 3, 4):
            a, *bs = stage_operands(rng, m, dim)
            for b in bs:
                out = _product(a, b)
                for i in range(m):
                    assert np.array_equal(out[..., i:i + 1], _product(a[..., i:i + 1], b[..., i:i + 1])), (dim, i)


def test_default_scan_ep_step_attempts(integrate_calls, magnus_calls, tmp_path):
    # the work of each batch of the default scan-ep
    assert main(["scan-ep", "--out", str(tmp_path / "scan.csv")]) == 0
    # find_ep's Magnus step counts: the first half of the pre-scan (the root lies in it), each
    # period checked, then six Brent evaluations at the larger count of the bracket's two ends
    assert magnus_calls == [(13, [128] * 2 + [256] * 11)] + [(1, [256])] * 6
    # the step attempts of the tangent scan, the one batch of the DOP853 core: 80 rows, each
    # period four members (29 attempts with each period one member)
    assert integrate_calls == [(80, 5, True, 9)]


class TestMagnus:
    """The U-only route: sixth-order Magnus steps whose count checks itself, members independent."""

    @staticmethod
    def ep_batch(gammas, omega_deltas):
        """The EP family of one period per (Gamma, omega_delta), J = 1, omega = 4, delta = 0.05."""
        ps = [PtEpParams(J=1.0, Gamma=g, omega=4.0, delta=0.05, omega_delta=wd)
              for g, wd in zip(gammas, omega_deltas)]
        return _family(ps), np.arange(len(ps)), ps[0].T

    def test_sixth_order_at_the_default_ep_period(self):
        # against the DOP853 core at its floor the error falls 64x per step doubling
        fam, lams, period = self.ep_batch([1.0650605221995904], [0.2228])
        ref = integrate(fam, lams, (0.0, period), 1e-13)[0][0, -1]
        errs = [np.abs(magnus_propagators(fam, lams, period, 1e-6, steps=n)[0][0] - ref).max()
                for n in (32, 64, 128)]
        assert errs[0] / errs[1] >= 50 and errs[1] / errs[2] >= 50, errs
        assert errs[2] <= 1e-12

    def test_nilpotent_exponent_takes_the_series(self):
        # H = sigma_x + i sigma_z squares to 0, so U = 1 - i H t; its exponents have q² = 0
        # exactly, where sinh(q)/q = 0/0 unless the series gives it
        h = SIGMA_X + 1j * SIGMA_Z
        u, n = magnus_propagators(constant_family(h), [0.0], 2.0, 1e-12)
        assert np.abs(u[0] - (np.eye(2) - 2j * h)).max() <= 1e-14
        assert n.tolist() == [128]

    @pytest.mark.parametrize("m", [1, 2, 3, 16, 17, 80, 1000])
    def test_member_equals_its_lone_run_bit_for_bit(self, m):
        # 1000 members leave one step per chunk; the chunks' products enter the same tree
        gen = make_rng(5)
        fam, lams, period = self.ep_batch(gen.uniform(0.0, 3.0, m), gen.uniform(0.1, 3.0, m))
        batch, n = magnus_propagators(fam, lams, period, 1e-10, steps=64)
        assert n.tolist() == [64] * m
        for i in sorted({0, m // 2, m - 1}):
            alone = magnus_propagators(fam, lams[i:i + 1], period, 1e-10, steps=64)[0]
            assert np.array_equal(batch[i:i + 1], alone), i

    def test_checked_member_equals_its_lone_run(self):
        fam, lams, period = self.ep_batch(np.linspace(0.01, 3.0, 25), [1.0] * 25)
        batch, counts = magnus_propagators(fam, lams, period, 1e-12)
        for i in (0, 1, 2, 24):
            alone, n = magnus_propagators(fam, lams[i:i + 1], period, 1e-12)
            assert np.array_equal(batch[i], alone[0]) and n[0] == counts[i], i

    def test_chunked_long_period_equals_one_chunk(self, monkeypatch):
        # J T = 9,426: 2^13 steps in chunks of 1024 and of 16 steps, and in one chunk
        ps = [PtEpParams(J=6000.5, Gamma=11.18, omega=4.0, delta=0.0, omega_delta=4.0)]
        fam, period = _family(ps), ps[0].T
        chunked = [magnus_propagators(fam, [0], period, 1e-10, steps=2 ** 13)[0]]
        for budget in (16, 2 ** 13):
            monkeypatch.setattr(evolution, "_MAGNUS_BUDGET", budget)
            chunked.append(magnus_propagators(fam, [0], period, 1e-10, steps=2 ** 13)[0])
        assert np.array_equal(chunked[0], chunked[1]) and np.array_equal(chunked[0], chunked[2])

    def test_non_finite_hamiltonian_names_its_time(self):
        def evaluate(lam, t):
            t = np.broadcast_to(t, np.broadcast_shapes(lam.shape, t.shape))
            return np.where((t > 0.5)[..., None, None], np.nan, 1.0) * SIGMA_X

        fam = HamiltonianFamily(2, evaluate, constant(np.zeros((2, 2))))
        with pytest.raises(PropagationError, match=r"non-finite Hamiltonian evaluation at t=0\.50"):
            magnus_propagators(fam, [0.0], 1.0, 1e-10)

    @pytest.mark.parametrize("tol", [1e-14, 1e-5, math.nan])
    def test_tolerance_outside_the_domain_rejected(self, tol):
        with pytest.raises(DomainError, match="tol"):
            magnus_propagators(constant_family(SIGMA_X), [0.0], 1.0, tol)

    def test_check_that_never_passes_raises(self, monkeypatch):
        # 512 Magnus steps cannot resolve J T = 4,712 (it takes 2^14): the check fails up to the cap
        ps = [PtEpParams(J=3000.0, Gamma=1.0, omega=4.0, delta=0.0, omega_delta=4.0)]
        monkeypatch.setattr(evolution, "_MAGNUS_N_MAX", 512)
        with pytest.raises(PropagationError, match="Magnus error check still fails at 512 steps"):
            magnus_propagators(_family(ps), [0], ps[0].T, 1e-10)

    def test_unchecked_count_whose_propagator_overflows_raises(self):
        # one step over J T = 9,426: the exponential of its exponent overflows
        ps = [PtEpParams(J=6000.5, Gamma=11.18, omega=4.0, delta=0.0, omega_delta=4.0)]
        with pytest.raises(PropagationError, match="at 1 Magnus steps is not finite"):
            magnus_propagators(_family(ps), [0], ps[0].T, 1e-10, steps=1)

    @pytest.mark.parametrize("steps", [0, 3, 96])
    def test_given_count_must_be_a_power_of_two(self, steps):
        with pytest.raises(DomainError, match="power of two"):
            magnus_propagators(constant_family(SIGMA_X), [0.0], 1.0, 1e-10, steps=steps)

    def test_only_two_dim_families(self):
        with pytest.raises(DomainError, match="2-dim"):
            magnus_propagators(constant_family(np.eye(3)), [0.0], 1.0, 1e-10)


class TestPropagate:
    def test_time_independent_matches_expm(self, rng):
        h = random_hermitian(rng, 4)
        fam = constant_family(h)
        times = np.linspace(0.0, 2.0, 5)
        rec = propagate(fam, 0.7, times, tol=1e-11)
        for k, t in enumerate(times):
            assert np.abs(rec.U[k] - expm_hermitian(h, t)).max() < 1e-10

    def test_zero_dlambda_gives_zero_generator(self, rng):
        h = random_hermitian(rng, 3)
        fam = constant_family(h)
        rec = propagate(fam, 0.0, np.linspace(0.0, 3.0, 4))
        assert np.abs(rec.h).max() < 1e-12

    def test_initial_conditions(self, rng):
        fam = random_family(rng, 2)
        rec = propagate(fam, 0.1, np.array([0.0, 1.0]))
        assert np.array_equal(rec.U[0], np.eye(2))
        assert np.abs(rec.h[0]).max() == 0.0

    def test_grid_point_agrees_with_two_point_run(self):
        # the first interval is the two-point run bit for bit; a later point,
        # chained from the intervals before it, is that run to within 10 tol
        fam = hamiltonian_family(0.1, 1.0)
        times, tol = np.array([0.0, 0.9, 1.8, 2.7]), 1e-10
        rec = propagate(fam, 0.2, times, tol=tol)
        for k in range(1, times.size):
            alone = propagate(fam, 0.2, times[[0, k]], tol=tol)
            if k == 1:
                assert repr(rec.h[k].tolist()) == repr(alone.h[1].tolist())
            assert np.abs(rec.U[k] - alone.U[1]).max() <= 10 * tol
            assert np.abs(rec.h[k] - alone.h[1]).max() <= 10 * tol

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
        [u], [w] = integrate(fam, [0.3], times, tol, tangent=True)
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
            return np.where((t > 0.5)[..., None, None], np.diag([np.inf, 0.0]), np.zeros((2, 2)))

        fam = HamiltonianFamily(dim=2, evaluate=bad, evaluate_dlambda=constant(np.zeros((2, 2))))
        with pytest.raises(PropagationError, match="non-finite Hamiltonian evaluation at t="):
            propagate(fam, 0.0, np.array([0.0, 1.0]))


class TestGeneratorFiniteDifference:
    def test_zero_family(self, rng):
        h = random_hermitian(rng, 2)
        fam = constant_family(h)
        got = generator_finite_difference(fam, 0.0, 1.0, dlam=1e-4)
        assert np.abs(got).max() < 1e-8

    def test_multiplicative_sigma_x(self):
        # H = lam sigma_x: h(t) = t sigma_x (finite-difference error ~ t^3 d^2/6)
        fam = HamiltonianFamily(dim=2,
                                evaluate=lambda lam, t: per_time(lam, t)[..., None, None] * SIGMA_X,
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
                  lambda: propagators(fam, [0.0, lam], 1.0)]
    for call in calls:
        with pytest.raises(DomainError, match=f"^{arg} must be finite.*, got {bad}"):
            call()


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2), (1, 3, 3)])
def test_family_callable_must_return_a_stack(shape):
    # the old scalar protocol, one matrix per call, is rejected, as is a
    # stack of the wrong length or dimension
    fam = HamiltonianFamily(dim=2, evaluate=lambda lam, t: np.zeros(shape),
                            evaluate_dlambda=lambda lam, t: np.zeros(shape))
    with pytest.raises(DomainError, match=r"must return a \(1, 1, 2, 2\) stack"):
        propagate(fam, 0.0, np.array([0.0, 1.0]))


def test_empty_lam_batch_rejected(rng):
    # an empty or 2-d batch is a DomainError at the boundary, not a reshape, transpose or
    # broadcast failure in the core
    fam = random_family(rng, 2)
    for lams, match in (([], "lam must be non-empty"),
                        ([[0.1, 0.2]], r"lam must be one value or a 1-d stack, got shape \(1, 2\)")):
        for call in (lambda: propagators(fam, lams, 1.0),
                     lambda: generators(fam, np.array(lams), np.array([0.0, 1.0])),
                     lambda: magnus_propagators(fam, lams, 1.0, 1e-8)):
            with pytest.raises(DomainError, match=match):
                call()


class TestEvaluateStack:
    """evaluate_stack tests every entry of a stack, so a finite stack whose sum overflows passes."""

    T = np.array([0.0, 0.25, 0.5, 0.75])

    @staticmethod
    def stack(member_values):
        return lambda lam, t: np.array([np.diag([v, 0.0]) for v in member_values], dtype=complex)

    @pytest.mark.filterwarnings("error")
    def test_finite_stack_whose_sum_overflows_is_accepted(self):
        big = np.finfo(float).max
        m = evolution.evaluate_stack(self.stack([big, big, -big, big]), 2, np.zeros(4), self.T)
        assert np.array_equal(m[:, 0, 0], [big, big, -big, big])
        with np.errstate(over="ignore"):
            assert np.isinf(m.sum())  # only the sum is not finite

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_member_is_reported_at_its_first_time(self, bad):
        big = np.finfo(float).max
        for values, first in (([1.0, bad, 2.0, bad], 0.25), ([big, big, bad, 1.0], 0.5),
                              ([bad, 1.0, 1.0, 1.0], 0)):
            with pytest.raises(PropagationError, match=f"^non-finite Hamiltonian evaluation at t={first:g}$"):
                evolution.evaluate_stack(self.stack(values), 2, np.zeros(4), self.T)


    def test_first_non_finite_time_in_member_major_order(self):
        # member 0 turns non-finite at its third stage time, member 1 at its
        # first, which is the earlier time: the report follows the members
        t = np.array([[0.1, 0.4, 0.7], [0.05, 0.2, 0.3]])
        bad = np.array([[False, False, True], [True, False, False]])

        def evaluate(lam, t):
            return np.where(bad[..., None, None], np.nan, 1.0) * SIGMA_X

        with pytest.raises(PropagationError, match=r"^non-finite Hamiltonian evaluation at t=0\.7$"):
            evolution.evaluate_stack(evaluate, 2, np.zeros((2, 1)), t)

    @pytest.mark.parametrize("shape", [(2, 2), (6, 2, 2), (2, 1, 2, 2), (3, 3, 2, 2)])
    def test_other_shapes_rejected_for_member_times(self, shape):
        # against (2, 1) lam and (2, 3) times only a (2, 3, 2, 2) stack passes:
        # not a lone matrix, the flat stack, one matrix per member or a wrong length
        with pytest.raises(DomainError, match=r"must return a \(2, 3, 2, 2\) stack"):
            evolution.evaluate_stack(lambda lam, t: np.zeros(shape), 2, np.zeros((2, 1)), np.zeros((2, 3)))


def in_package_families(rng):
    """(name, family, lam of each of 3 members) of every family the package builds."""
    ps = [PtEpParams(J=1.0, Gamma=g, omega=4.0, delta=0.05, omega_delta=wd)
          for g, wd in ((0.3, 0.8), (0.9, 1.7), (1.2, 0.2))]
    lams = [0.3, -0.2, 0.45]
    return [("pt_ep", _family(ps), np.arange(3.0)),
            ("family_stack", family_stack([random_terms(rng, 3) for _ in lams], lams), np.arange(3.0)),
            ("random_family", random_family(rng, 3), np.array(lams)),
            ("hamiltonian_family", hamiltonian_family(0.1, 1.0), np.array(lams))]


@pytest.mark.parametrize("k", [1, 11])
def test_member_times_equal_the_flat_evaluation_bit_for_bit(rng, k):
    # one lam per member, (m, 1), against its times, (m, k), gives the stack of
    # the flat call on the repeated arrays, as the core's evaluations need
    t = rng.uniform(0.0, 3.0, size=(3, k))
    for name, fam, lams in in_package_families(rng):
        for evaluate in (fam.evaluate, fam.evaluate_dlambda):
            got = evaluate(lams[:, None], t)
            want = evaluate(np.repeat(lams, k), t.ravel())
            assert got.shape == (3, k, fam.dim, fam.dim), name
            assert got.dtype == want.dtype and np.ascontiguousarray(got).tobytes() == want.tobytes(), name
            # the broadcast shape also where lam, not t, has it
            assert evaluate(np.repeat(lams[:, None], k, 1), t[:, :1]).shape == got.shape, name


def test_core_evaluates_one_lam_per_member(rng, integrate_calls):
    # the core passes each running member's lam once, (m, 1), against its
    # stage times, (m, k): two (m, 1) calls for the initial step, then (m, 11)
    generators(random_family(rng, 2), [0.1, -0.3, 0.2], np.linspace(0.0, 1.0, 3))
    propagators(_family([PtEpParams(J=1.0, Gamma=0.3, omega=4.0, delta=0.05, omega_delta=0.8)]), [0.0], 1.0)
    shapes = integrate_calls.shapes
    assert shapes[:2] == [((6, 1), (6, 1))] * 2
    assert len(shapes) > 4 and all(len(lam) == len(t) == 2 and lam == (t[0], 1) and t[1] in (1, 11)
                                   for lam, t in shapes)

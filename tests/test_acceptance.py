"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import nhsense.pseudo_hermitian as ph
import nhsense.pt_ep as pt
from nhsense.cli import main
from nhsense.evolution import PropagationRecord, generators, propagate
from nhsense.noise import sample_projection_batch, scaled_binomial_variance
from nhsense.qfi import qfi_pure, qfi_series
from nhsense.verification import (
    _variance_standard_error, check_operator_inequalities, family_stack, make_rng, random_state, random_terms,
)

from oracles import dilated_family

OMEGA = 1.0


@contextlib.contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f} s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s:.0f} s budget"


def test_criterion_01_closed_vs_numeric_qfi():
    with criterion(1, "closed-form vs numerical QFI within 1e-8 relative", 5.0):
        for eps in (0.1, 0.01):
            fam = dilated_family(eps, OMEGA)
            psi0 = ph.probe_state(eps)
            tau = ph.PseudoHermitianParams(eps, OMEGA).tau
            grid = np.array([0.0, tau / 4, tau / 2, tau, 2 * tau])
            for lam in (-0.2, 0.0, 0.3):
                p = ph.PseudoHermitianParams(eps, OMEGA, lam)
                rec = propagate(fam, lam, grid, tol=1e-11)
                for k in range(1, grid.size):
                    f_num = qfi_pure(rec.h[k], psi0)
                    f_closed = ph.qfi_closed(p, float(grid[k]))
                    assert f_num == pytest.approx(f_closed, rel=1e-8)


def test_criterion_02_rate_formula_and_band():
    with criterion(2, "exact QFI rate matches d sqrt(F)/dt within 1e-5, |rate| <= 2", 5.0):
        step = 1e-5
        for eps in (0.1, 0.01):
            fam = dilated_family(eps, OMEGA)
            psi0 = ph.probe_state(eps)
            tau = ph.PseudoHermitianParams(eps, OMEGA).tau
            t_points = [tau / 4, tau / 2, tau, 2 * tau]
            grid = np.array([0.0] + sorted(t + s for t in t_points for s in (-step, step)))
            for lam in (-0.2, 0.0, 0.3):
                p = ph.PseudoHermitianParams(eps, OMEGA, lam)
                rec = propagate(fam, lam, grid, tol=1e-12)
                sqrt_f = {float(t): math.sqrt(qfi_pure(rec.h[k], psi0))
                          for k, t in enumerate(grid)}
                for t in t_points:
                    numeric = (sqrt_f[t + step] - sqrt_f[t - step]) / (2 * step)
                    closed = ph.qfi_rate_closed(p, t)
                    assert closed == pytest.approx(numeric, abs=1e-5)
                    assert abs(closed) <= 2.0


def test_criterion_03_channel_bound():
    with criterion(3, "sqrt(F) below the spectral-width integral (channel bound)", 30.0):
        # dilated sensor: width of the encoding operator is exactly 2
        for eps in (0.1, 0.01):
            fam = dilated_family(eps, OMEGA)
            psi0 = ph.probe_state(eps)
            tau = ph.PseudoHermitianParams(eps, OMEGA).tau
            grid = np.array([0.0, tau / 4, tau / 2, tau, 2 * tau])
            for lam in (-0.2, 0.0, 0.3):
                rec = propagate(fam, lam, grid, tol=1e-11)
                for k, t in enumerate(grid):
                    assert math.sqrt(qfi_pure(rec.h[k], psi0)) <= 2 * t + 1e-8

        # 100 seeded random 4-dim families, one tangent batch; the stack's
        # parameter is the member index, so member j's record is at lam = j
        rng = make_rng(31415)
        times = np.array([0.0, 0.4, 0.8, 1.2])
        terms, probes, lams = [], [], []
        for _ in range(100):
            terms.append(random_terms(rng, 4))
            probes.append(random_state(rng, 4))
            lams.append(float(rng.uniform(-0.5, 0.5)))
        stack = family_stack(terms, lams)
        us, hs = generators(stack, np.arange(100), times, tol=1e-10)
        for j, psi0 in enumerate(probes):
            record = PropagationRecord(lam=float(j), times=times, U=us[j], h=hs[j], tol=1e-10)
            series = qfi_series(record, psi0, stack)
            violation = (np.sqrt(np.maximum(series.qfi, 0.0))
                         - np.sqrt(series.channel_bound)).max()
            assert violation <= 1e-8


def test_criterion_04_dilation_equivalence():
    with criterion(4, "dilated dynamics reproduces the two-level closed forms", 10.0):
        eps = 0.1
        tau = ph.PseudoHermitianParams(eps, OMEGA).tau
        lams = np.linspace(-1.0, 1.0, 50)
        times = np.linspace(0.0, 2 * tau, 20)
        for lam in lams:
            p = ph.PseudoHermitianParams(eps, OMEGA, float(lam))
            h = ph.dilated_hamiltonian(p)
            from nhsense.operators import expm_hermitian
            psi0 = ph.probe_state(eps)
            for t in times:
                s_closed = ph.two_level_population(p, float(t))
                s_dilated = ph.conditional_population_from_dilation(p, float(t))
                assert abs(s_dilated - s_closed) <= 1e-8
                psi_t = expm_hermitian(h, float(t)) @ psi0
                assert abs(ph.p1_closed(p, float(t)) - abs(psi_t[0]) ** 2) <= 1e-10


def test_criterion_05_sensitivity_floor_and_susceptibility_trend():
    with criterion(5, "sensitivity floor 1/(2 tau) holds; peak |chi| grows >= 5x per decade", 20.0):
        chi_peaks = []
        for eps in (0.1, 0.01, 0.001):
            pe = ph.PseudoHermitianParams(eps, OMEGA)
            tau = pe.tau
            floor = ph.hermitian_bound(tau, 1)
            best = math.inf
            for lam in np.linspace(-0.5 * OMEGA, 0.5 * OMEGA, 501):
                s = ph.sensitivity(ph.PseudoHermitianParams(eps, OMEGA, float(lam)), tau, 1)
                if math.isfinite(s):
                    best = min(best, s)
            assert best >= floor - 1e-9
            # the peak lives near lam = -2 eps omega with width ~eps, so the
            # trend is measured on a window that scales with eps
            chi_peaks.append(max(
                abs(ph.susceptibility(ph.PseudoHermitianParams(eps, OMEGA, float(lam)), tau))
                for lam in np.linspace(-4 * eps * OMEGA, 0.0, 501)))
        assert chi_peaks[1] >= 5.0 * chi_peaks[0]
        assert chi_peaks[2] >= 5.0 * chi_peaks[1]


def test_criterion_06_response_variance_formula():
    with criterion(6, "response-energy variance: delta-method identity and Monte Carlo", 60.0):
        rng = make_rng(271828)
        from nhsense.noise import propagate_error
        for _ in range(100):
            c0 = float(rng.uniform(1.0, 30.0))
            diff = float(rng.uniform(0.02, 0.98))
            pg = float(rng.uniform(0.0, min(c0 - diff, 4.0)))
            pj = pg + diff
            period = float(rng.uniform(0.3, 8.0))
            nu = int(rng.integers(1, 50))
            direct = pt.response_variance(pj, pg, c0, nu, period)
            slope = 1.0 / (2 * period * math.sqrt(diff * (1 - diff)))
            composed = propagate_error(
                [slope, -slope],
                [scaled_binomial_variance(pj, c0, nu), scaled_binomial_variance(pg, c0, nu)])
            assert direct == pytest.approx(composed, rel=1e-12)

        # Monte Carlo at three mid-range points: nu = 1e4 shots, 1e5 trials
        for k, (pj, pg, c0, period) in enumerate(
                [(0.7, 0.2, 2.0, 2.0), (1.3, 0.8, 4.0, 1.5), (0.55, 0.05, 1.5, 1.0)]):
            nu, reps = 10_000, 100_000
            est_j = sample_projection_batch(pj, c0, nu, reps, seed=9000 + 2 * k)
            est_g = sample_projection_batch(pg, c0, nu, reps, seed=9001 + 2 * k)
            e_res = np.arcsin(np.sqrt(np.clip(est_j - est_g, 0.0, 1.0))) / period
            analytic = pt.response_variance(pj, pg, c0, nu, period)
            assert e_res.var(ddof=1) == pytest.approx(analytic, rel=0.10)


def test_criterion_07_ep_approach_non_divergence_and_bound():
    with criterion(7, "sensitivity plateaus on the dip approach, above the uncertainty floor", 60.0):
        gamma_ep = pt.find_ep(1.0, 4.0, tol=1e-12)
        base = pt.PtEpParams(J=1.0, Gamma=gamma_ep, omega=4.0, delta=0.05, omega_delta=1.0)
        dip = pt.find_response_dip(base, (0.05, 2.0), tol=1e-12)
        offsets = np.geomspace(1e-4, 3e-2, 20) * dip
        rows = pt.scan(base, dip + offsets, tol=1e-10)
        assert all(row.excluded_reason == "" for row in rows)
        sens = np.array([row.sensitivity for row in rows])
        chi = np.array([row.chi_E for row in rows])
        sqrt_var = np.array([math.sqrt(row.var_E) for row in rows])
        assert sens.max() / sens.min() <= 1.5
        assert chi.max() / chi.min() > 10.0
        assert sqrt_var.max() / sqrt_var.min() > 10.0
        for row in rows:
            assert row.sensitivity >= row.hermitian_bound - 1e-9


def test_criterion_08_projection_noise_monte_carlo():
    with criterion(8, "binomial and multinomial shot noise within 5 standard errors", 30.0):
        reps = 100_000
        stream = make_rng(60221)
        for p_true in (0.1, 0.3, 0.5, 0.9):
            for nu in (10, 50, 400):
                seed = int(stream.integers(0, 2**62))
                est = sample_projection_batch(p_true, 1.0, nu, reps, seed)
                se = _variance_standard_error(p_true, 1.0, nu, reps)
                assert abs(est.var(ddof=1) - scaled_binomial_variance(p_true, 1.0, nu)) < 5 * se

        probs = np.array([0.4, 0.3, 0.2, 0.1])
        n_shots = 100
        counts = make_rng(60222).multinomial(n_shots, probs, size=reps) / n_shots
        for i, p_true in enumerate(probs):
            se = _variance_standard_error(p_true, 1.0, n_shots, reps)
            assert abs(counts[:, i].var(ddof=1) - scaled_binomial_variance(p_true, 1.0, n_shots)) < 5 * se


def test_criterion_09_operator_inequality_suites():
    with criterion(9, "operator inequalities over 1000 seeded instances each", 30.0):
        results = check_operator_inequalities(seed=777, n=1000)
        names = {r.name for r in results}
        assert {"seminorm-triangle", "seminorm-unitary-invariance", "variance-bound",
                "covariance-inequality", "seminorm-additivity"} <= names
        for r in results:
            assert r.passed, f"{r.name}: worst violation {r.observed} > {r.tolerance}"
            assert r.tolerance <= 1e-10 or r.name == "expm-unitarity"


def test_criterion_10_verify_determinism(tmp_path, verify_report_42):
    with criterion(10, "verify runs are byte-identical for a fixed seed", 120.0):
        code, report = verify_report_42
        out = tmp_path / "b.json"
        assert code == 0
        assert main(["verify", "--seed", "42", "--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == report

"""Seeded verification suites for every inequality the package claims.

Each check runs a deterministic battery (random instances come from an
explicitly seeded Philox stream) and reports the worst observed violation
against its tolerance.  The suites back the `verify` CLI subcommand and are
reused by the test suite at larger instance counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import pseudo_hermitian as ph
from . import pt_ep
from .evolution import HamiltonianFamily, propagate
from .noise import (
    binomial_variance, make_rng, propagate_error, sample_projection_batch, scaled_binomial_variance,
)
from .operators import covariance, expm_hermitian, seminorm, variance
from .qfi import qfi_fidelity_oracle, qfi_pure, qfi_series


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: str
    observed: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _result(name: str, target: str, observed: float, tolerance: float) -> CheckResult:
    return CheckResult(name=name, target=target, observed=float(observed),
                       tolerance=float(tolerance), passed=bool(observed <= tolerance))


# ---------------------------------------------------------------- instances

def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_family(rng: np.random.Generator, dim: int) -> HamiltonianFamily:
    """Smooth random family H = A + sin(w0 t) B + lam (C + cos(w1 t) D)."""
    h0a, h0b = random_hermitian(rng, dim), random_hermitian(rng, dim)
    h1a, h1b = random_hermitian(rng, dim), random_hermitian(rng, dim)
    w0, w1 = rng.uniform(0.5, 2.0, size=2)

    def evaluate_dlambda(lam, t):
        return h1a + np.cos(w1 * t)[:, None, None] * h1b

    def evaluate(lam, t):
        return h0a + np.sin(w0 * t)[:, None, None] * h0b + lam[:, None, None] * evaluate_dlambda(lam, t)

    return HamiltonianFamily(dim=dim, evaluate=evaluate, evaluate_dlambda=evaluate_dlambda)


# ------------------------------------------------------------- operator suite

def check_operator_inequalities(seed: int, n: int = 1000) -> list[CheckResult]:
    """Triangle, unitary invariance, variance and covariance bounds, additivity."""
    rng = make_rng(seed)
    worst_triangle = worst_invariance = worst_var = worst_cov = worst_add = worst_unit = -np.inf
    for _ in range(n):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        u = random_unitary(rng, dim)
        psi = random_state(rng, dim)

        worst_triangle = max(worst_triangle, seminorm(a + b) - seminorm(a) - seminorm(b))
        worst_invariance = max(worst_invariance, abs(seminorm(u.conj().T @ a @ u) - seminorm(a)))
        worst_var = max(worst_var, variance(a, psi) - seminorm(a) ** 2 / 4.0)
        worst_cov = max(worst_cov, abs(covariance(a, b, psi))
                        - math.sqrt(variance(a, psi) * variance(b, psi)))
        ue = expm_hermitian(a, float(rng.uniform(0.0, 3.0)))
        worst_unit = max(worst_unit, np.abs(ue.conj().T @ ue - np.eye(dim)).max())

        n_sites = int(rng.integers(1, 5))
        h1 = random_hermitian(rng, 2)
        total = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
        for j in range(n_sites):
            term = np.eye(1, dtype=complex)
            for k in range(n_sites):
                term = np.kron(term, h1 if k == j else np.eye(2, dtype=complex))
            total += term
        worst_add = max(worst_add, abs(seminorm(total) - n_sites * seminorm(h1)))

    return [
        _result("seminorm-triangle", "||A+B|| - ||A|| - ||B|| <= 0", worst_triangle, 1e-10),
        _result("seminorm-unitary-invariance", "| ||U†AU|| - ||A|| | = 0", worst_invariance, 1e-10),
        _result("variance-bound", "Var[A] - ||A||²/4 <= 0", worst_var, 1e-10),
        _result("covariance-inequality", "|Cov[A,B]| - sqrt(Var Var) <= 0", worst_cov, 1e-10),
        _result("expm-unitarity", "||U†U - 1||_max = 0", worst_unit, 1e-10),
        _result("seminorm-additivity", "| ||sum h_j|| - N ||h|| | = 0 (N <= 4)", worst_add, 1e-10),
    ]


# ------------------------------------------------------------------ QFI suite

def check_qfi_bounds(seed: int, n_families: int = 10, tol: float = 1e-10) -> list[CheckResult]:
    """Channel bound and rate bound on random families."""
    rng = make_rng(seed)
    grid = np.linspace(0.0, 1.5, 7)
    worst_channel = worst_rate = worst_negative = -np.inf
    for _ in range(n_families):
        dim = 2 if rng.random() < 0.5 else 4
        fam = random_family(rng, dim)
        psi0 = random_state(rng, dim)
        lam = float(rng.uniform(-0.5, 0.5))
        series = qfi_series(propagate(fam, lam, grid, tol=tol), psi0, fam)
        worst_channel = max(worst_channel,
                            (np.sqrt(np.maximum(series.qfi, 0.0)) - np.sqrt(series.channel_bound)).max())
        worst_rate = max(worst_rate, (np.abs(series.sqrt_qfi_rate) - series.rate_bound).max())
        worst_negative = max(worst_negative, -series.qfi.min(), abs(series.qfi[0]))
    return [
        _result("qfi-channel-bound", "sqrt(F) - integral ||dH/dlam|| <= 0", worst_channel, 1e-8),
        _result("qfi-rate-bound", "|d sqrt(F)/dt| - ||dH/dlam|| <= 0", worst_rate, 1e-6),
        _result("qfi-nonnegative", "F >= 0 and F(0) = 0", worst_negative, 1e-10),
    ]


def check_qfi_oracle(seed: int, n_families: int = 4) -> list[CheckResult]:
    """Generator-variance QFI vs fidelity-curvature oracle.

    Exercised at steps large enough that the 10·d² truncation budget
    dominates the integration noise amplified by the second difference.
    """
    rng = make_rng(seed)
    worst = -np.inf
    for _ in range(n_families):
        dim = 2 if rng.random() < 0.5 else 4
        fam = random_family(rng, dim)
        psi0 = random_state(rng, dim)
        lam = float(rng.uniform(-0.5, 0.5))
        rec = propagate(fam, lam, np.array([0.0, 1.2]), tol=1e-12)
        f_gen = qfi_pure(rec.h[-1], psi0)
        for dlam in (3e-3, 1e-2):
            f_fid = qfi_fidelity_oracle(fam, lam, psi0, 1.2, dlam=dlam)
            worst = max(worst, abs(f_gen - f_fid) - max(1e-6, 10.0 * dlam**2) + 1e-6)
    return [_result("qfi-oracle-agreement",
                    "|qfi_pure - fidelity oracle| <= max(1e-6, 10 d²)", worst, 1e-6)]


# -------------------------------------------------- pseudo-Hermitian sensor

def check_pseudo_hermitian() -> list[CheckResult]:
    """Example-style suite: closed forms vs propagation, noise bound, trends."""
    out = []

    # closed-form vs propagated QFI and rate, channel bound sqrt(F) <= 2t
    worst_qfi = worst_rate_band = worst_chan = -np.inf
    for eps in (0.1, 0.01):
        fam = ph.hamiltonian_family(eps, 1.0)
        psi0 = ph.probe_state(eps)
        tau = ph.PseudoHermitianParams(eps, 1.0).tau
        grid = np.array([0.0, tau / 4, tau / 2, tau, 2 * tau])
        for lam in (-0.2, 0.0, 0.3):
            p = ph.PseudoHermitianParams(eps, 1.0, lam)
            rec = propagate(fam, lam, grid, tol=1e-11)
            for k in range(1, grid.size):
                f_num = qfi_pure(rec.h[k], psi0)
                f_cl = ph.qfi_closed(p, grid[k])
                worst_qfi = max(worst_qfi, abs(f_num - f_cl) / f_cl)
                worst_chan = max(worst_chan, math.sqrt(f_num) - 2.0 * grid[k])
                rate = ph.qfi_rate_closed(p, grid[k])
                worst_rate_band = max(worst_rate_band, abs(rate) - 2.0)
    out.append(_result("ph-qfi-closed-vs-numeric", "relative mismatch", worst_qfi, 1e-8))
    out.append(_result("ph-rate-band", "|d sqrt(F)/dt| - 2 <= 0", worst_rate_band, 1e-12))
    out.append(_result("ph-channel-bound", "sqrt(F) - 2t <= 0", worst_chan, 1e-8))

    # dilation equivalence and closed-form P1 on a coarse grid
    worst_dil = worst_p1 = -np.inf
    fam = ph.hamiltonian_family(0.1, 1.0)
    tau = ph.PseudoHermitianParams(0.1, 1.0).tau
    for lam in np.linspace(-1.0, 1.0, 11):
        p = ph.PseudoHermitianParams(0.1, 1.0, float(lam))
        for t in np.linspace(0.0, 2 * tau, 9):
            worst_dil = max(worst_dil, abs(ph.conditional_population_from_dilation(p, t)
                                           - ph.two_level_population(p, t)))
            psi_t = expm_hermitian(ph.dilated_hamiltonian(p), t) @ ph.probe_state(0.1)
            worst_p1 = max(worst_p1, abs(abs(psi_t[0]) ** 2 - ph.p1_closed(p, t)))
    out.append(_result("ph-dilation-equivalence", "conditional population mismatch", worst_dil, 1e-8))
    out.append(_result("ph-p1-closed-form", "P1 closed form vs propagation", worst_p1, 1e-10))

    # sensitivity never beats the Hermitian bound; susceptibility grows as eps falls.
    # The chi peak sits near lam = -2 eps omega with width ~eps, so the trend is
    # measured on an eps-scaled window that resolves it.
    worst_margin = -np.inf
    chi_peaks = []
    for eps in (0.1, 0.01, 0.001):
        tau = ph.PseudoHermitianParams(eps, 1.0).tau
        bound = ph.hermitian_bound(tau, 1)
        for lam in np.linspace(-0.5, 0.5, 201):
            sens = ph.sensitivity(ph.PseudoHermitianParams(eps, 1.0, float(lam)), tau, 1)
            if math.isfinite(sens):
                worst_margin = max(worst_margin, bound - sens)
        chi_peaks.append(max(abs(ph.susceptibility(ph.PseudoHermitianParams(eps, 1.0, float(lam)), tau))
                             for lam in np.linspace(-4.0 * eps, 0.0, 501)))
    out.append(_result("ph-sensitivity-bound", "hermitian bound - min sensitivity <= 0",
                       worst_margin, 1e-9))
    growth = min(chi_peaks[i + 1] / chi_peaks[i] for i in range(2))
    out.append(_result("ph-susceptibility-divergence",
                       "peak |chi| grows >= 5x per decade of eps", -(growth - 5.0), 0.0))
    return out


# ------------------------------------------------------------- PT/EP sensor

def check_pt_ep(tol: float = 1e-11) -> list[CheckResult]:
    """Example-style suite for the periodically driven EP sensor."""
    from scipy.integrate import quad  # the bound oracle; kept off the default import path

    out = []

    # variance formula == delta-method composition
    worst_var = -np.inf
    rng = make_rng(321)
    for _ in range(100):
        c0 = float(rng.uniform(1.0, 30.0))
        diff = float(rng.uniform(0.05, 0.95))
        pg = float(rng.uniform(0.0, min(c0 - diff, 3.0)))
        pj = pg + diff
        period = float(rng.uniform(0.5, 8.0))
        direct = pt_ep.response_variance(pj, pg, c0, 1, period)
        slope = 1.0 / (2.0 * period * math.sqrt(diff * (1.0 - diff)))
        composed = propagate_error([slope, -slope],
                                   [scaled_binomial_variance(pj, c0, 1),
                                    scaled_binomial_variance(pg, c0, 1)])
        worst_var = max(worst_var, abs(direct - composed) / max(1.0, abs(direct)))
    out.append(_result("ep-variance-composition",
                       "analytic Var[E_res] vs delta method", worst_var, 1e-12))

    # lobe-sum bound == adaptive quadrature split at the kinks of |sin|
    worst_bound = -np.inf
    for wd_t in (0.3, 1.0, 2.0, math.pi, 5.0, 20.0):
        wd = wd_t / (2.0 * math.pi / 4.0)
        p = pt_ep.PtEpParams(J=1.0, Gamma=0.5, omega=4.0, delta=0.05, omega_delta=wd)
        kinks = [k * math.pi / wd for k in range(1, math.ceil(wd_t / math.pi))]
        integral, _ = quad(lambda s: p.delta * s * abs(math.sin(wd * s)), 0.0, p.T,
                           points=kinks or None, epsabs=1e-13, epsrel=1e-10, limit=200)
        worst_bound = max(worst_bound, abs(pt_ep.hermitian_bound_ep(p) - 1.0 / integral) * integral)
    out.append(_result("ep-bound-quadrature-vs-closed",
                       "relative mismatch vs quadrature split at the |sin| kinks", worst_bound, 1e-10))

    # Hermitian-limit sanity: Gamma = 0, delta = 0 gives a unitary propagator
    p0 = pt_ep.PtEpParams(J=1.0, Gamma=0.0, omega=4.0, delta=0.0, omega_delta=1.0)
    u = pt_ep.propagate_period(p0, tol=tol)
    unit_dev = np.abs(u.conj().T @ u - np.eye(2)).max()
    pj, pg = pt_ep.pj_pgamma(u)
    phase = 2.0 * math.pi * p0.J / p0.omega  # integral of J(1+cos) over one period
    two_route = abs((pj - pg) - math.sin(phase) ** 2)
    out.append(_result("ep-hermitian-limit-unitarity", "||U†U - 1||_max", unit_dev, 1e-10))
    out.append(_result("ep-hermitian-limit-response", "P_J - P_Gamma vs sin²(ET)", two_route, 1e-9))

    # scan near the first dip: bound honored, sensitivity plateau
    gamma_ep = pt_ep.find_ep(1.0, 4.0, tol=1e-12)
    base = pt_ep.PtEpParams(J=1.0, Gamma=gamma_ep, omega=4.0, delta=0.05, omega_delta=1.0)
    dip = pt_ep.find_response_dip(base, (0.05, 2.0), tol=1e-12)
    offsets = np.geomspace(1e-4, 3e-2, 8) * dip
    rows = pt_ep.scan(base, dip + offsets, tol=tol)
    valid = [r for r in rows if not r.excluded_reason]
    worst_margin = max((r.hermitian_bound - r.sensitivity) for r in valid)
    sens = np.array([r.sensitivity for r in valid])
    chi = np.array([r.chi_E for r in valid])
    rvar = np.array([math.sqrt(r.var_E) for r in valid])
    band = sens.max() / sens.min()
    div = min(chi.max() / chi.min(), rvar.max() / rvar.min())
    out.append(_result("ep-sensitivity-bound", "hermitian bound - sensitivity <= 0",
                       worst_margin, 1e-9))
    out.append(_result("ep-sensitivity-plateau", "max/min sensitivity on approach <= 1.2",
                       band, 1.2))
    out.append(_result("ep-divergence-cancellation",
                       "chi and sqrt(Var) each grow >= 10x while sensitivity stays flat",
                       -(div - 10.0), 0.0))
    return out


# ------------------------------------------------------------------- noise

def check_noise(seed: int, reps: int = 100_000) -> list[CheckResult]:
    """Monte Carlo consistency of the projection-noise variance formulas."""
    worst = -np.inf
    stream = make_rng(seed)
    for p_true in (0.1, 0.3, 0.5, 0.9):
        for nu in (10, 50, 400):
            sub = int(stream.integers(0, 2**62))
            est = sample_projection_batch(p_true, 1.0, nu, reps, sub)
            analytic = binomial_variance(p_true, nu)
            se = _variance_standard_error(p_true, 1.0, nu, reps)
            worst = max(worst, abs(est.var(ddof=1) - analytic) / se)
    for c0 in (1.0, math.e, 20.0):
        sub = int(stream.integers(0, 2**62))
        p_true, nu = 0.6 * c0, 25
        est = sample_projection_batch(p_true, c0, nu, reps, sub)
        analytic = scaled_binomial_variance(p_true, c0, nu)
        se = _variance_standard_error(p_true, c0, nu, reps)
        worst = max(worst, abs(est.var(ddof=1) - analytic) / se)
    return [_result("noise-monte-carlo", "empirical variance within 5 SE", worst, 5.0)]


def _variance_standard_error(p: float, scale: float, nu: int, reps: int) -> float:
    """Standard error of the empirical variance of the scaled-binomial estimator.

    Uses the exact fourth central moment of the binomial count:
    mu4 = nu q(1-q) [1 + 3(nu-2) q(1-q)].
    """
    q = p / scale
    mu2 = nu * q * (1.0 - q)
    mu4 = nu * q * (1.0 - q) * (1.0 + 3.0 * (nu - 2) * q * (1.0 - q))
    var_of_var = (mu4 - mu2**2 * (reps - 3) / (reps - 1)) / reps
    return (scale / nu) ** 2 * math.sqrt(max(var_of_var, 0.0))


# ------------------------------------------------------------------ report

def build_report(seed: int, n_operator: int = 400, n_families: int = 8,
                 mc_reps: int = 50_000) -> VerificationReport:
    """Run every suite with streams derived from one seed."""
    checks: list[CheckResult] = []
    checks += check_operator_inequalities(seed, n=n_operator)
    checks += check_qfi_bounds(seed + 1, n_families=n_families)
    checks += check_qfi_oracle(seed + 2, n_families=3)
    checks += check_pseudo_hermitian()
    checks += check_pt_ep()
    checks += check_noise(seed + 3, reps=mc_reps)
    return VerificationReport(seed=seed, checks=tuple(checks))

"""Seeded verification suites for every inequality the package claims.

Each check runs a deterministic battery (random instances come from an
explicitly seeded Philox stream) and reports the worst observed violation
against its tolerance.  The suites back the `verify` CLI subcommand; the
test suite also runs the operator suite at a larger instance count.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import pseudo_hermitian as ph
from . import pt_ep
from .evolution import HamiltonianFamily, PropagationRecord, generators, propagators
from .noise import make_rng, propagate_error, sample_projection_counts, scaled_binomial_variance
from .operators import covariance, expm_hermitian, seminorm, variance
from .qfi import _integrals, fidelity_curvature, fidelity_stencil, qfi_pure, qfi_series


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: str
    observed: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _result(name: str, target: str, observed: float, tolerance: float) -> CheckResult:
    return CheckResult(name=name, target=target, observed=float(observed),
                       tolerance=float(tolerance), passed=bool(observed <= tolerance))


# ---------------------------------------------------------------- instances

def _gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _hermitian(_gaussian(rng, dim, dim))


def _hermitian(a: np.ndarray) -> np.ndarray:
    """The Hermitian part (A + A†)/2 of each matrix of a (..., d, d) stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _unitary_from_gaussian(a: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices (..., d, d): Q of a = QR times R's diagonal phases."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = _gaussian(rng, dim)
    return v / np.linalg.norm(v)


def random_terms(rng: np.random.Generator, dim: int) -> tuple:
    """Terms (A, B, C, D, w0, w1) of a smooth random family, drawn as `random_family` draws them."""
    return (*(random_hermitian(rng, dim) for _ in range(4)), *rng.uniform(0.5, 2.0, size=2))


# H and dH/dlam; each term is one family's, or gathered per member with lam's shape
def _random_dlambda(a, b, c, d, w0, w1, lam, t):
    dh = c + np.cos(w1 * t)[..., None, None] * d
    return np.broadcast_to(dh, np.broadcast_shapes(lam.shape, t.shape) + dh.shape[-2:])  # lam may set the shape


def _random_evaluate(a, b, c, d, w0, w1, lam, t):
    dh = _random_dlambda(a, b, c, d, w0, w1, lam, t)
    return a + np.sin(w0 * t)[..., None, None] * b + lam[..., None, None] * dh


def random_family(rng: np.random.Generator, dim: int) -> HamiltonianFamily:
    """Smooth random family H = A + sin(w0 t) B + lam (C + cos(w1 t) D)."""
    terms = random_terms(rng, dim)
    return HamiltonianFamily(dim, partial(_random_evaluate, *terms), partial(_random_dlambda, *terms))


def family_stack(terms, lams) -> HamiltonianFamily:
    """Random families of one dimension as one family whose parameter is a member index.

    Member j is the family of terms[j] at lams[j].  Each call gathers the
    terms once per index of lam, (m, 1) from the core, and broadcasts them
    over the times with the float operations of `random_family`, so a
    member's propagation equals that of its own family bit for bit.
    """
    columns = [np.stack(column) for column in zip(*terms)] + [np.asarray(lams, dtype=float)]

    def gathered(f):
        return lambda index, t: f(*(column[index.astype(np.intp)] for column in columns), t)

    return HamiltonianFamily(columns[0].shape[-1], gathered(_random_evaluate), gathered(_random_dlambda))


def _random_instances(rng: np.random.Generator, n: int) -> dict[int, tuple[list, list, list]]:
    """n seeded instances of dimension 2 or 4, drawn in turn: their terms, probes and lam by dimension."""
    by_dim: dict[int, tuple[list, list, list]] = {}
    for _ in range(n):
        dim = 2 if rng.random() < 0.5 else 4
        terms, probes, lams = by_dim.setdefault(dim, ([], [], []))
        terms.append(random_terms(rng, dim))
        probes.append(random_state(rng, dim))
        lams.append(float(rng.uniform(-0.5, 0.5)))
    return by_dim


# ------------------------------------------------------------- operator suite

def _operator_instances(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    """n seeded instances, drawn as arrays: first every dimension, site count and t, then, for
    each dimension that occurs, in ascending order, one normal draw for the real and imaginary
    parts of its A, B, U's Gaussian and psi, then one for the h1 of each site count that occurs.

    Returns the (A, B, Gaussian of U, psi, t) stacks by dimension and the h1
    stacks by site count, each in ascending order.
    """
    dims, sites, ts = rng.integers(2, 7, n), rng.integers(1, 5, n), rng.uniform(0.0, 3.0, n)
    stacks = {}
    for dim in range(2, 7):
        group = dims == dim
        if k := np.count_nonzero(group):
            z = rng.normal(size=(k, 6 * dim * dim + 2 * dim))
            matrices = z[:, :6 * dim * dim].reshape(-1, 3, 2, dim, dim)
            v = _complex(z[:, 6 * dim * dim:].reshape(-1, 2, dim))
            stacks[dim] = [_hermitian(_complex(matrices[:, 0])), _hermitian(_complex(matrices[:, 1])),
                           _complex(matrices[:, 2]), v / np.linalg.norm(v, axis=-1, keepdims=True), ts[group]]
    return stacks, {n_sites: _hermitian(_complex(rng.normal(size=(k, 8)).reshape(-1, 2, 2, 2)))
                    for n_sites in range(1, 5) if (k := np.count_nonzero(sites == n_sites))}


def _complex(parts: np.ndarray) -> np.ndarray:
    """parts[:, 0] + i parts[:, 1], the complex stack of a (k, 2, ...) stack of real and imaginary parts."""
    return parts[:, 0] + 1j * parts[:, 1]


def _site_sum(h1: np.ndarray, n_sites: int) -> np.ndarray:
    """Sum over sites j of 1⊗…⊗h1⊗…⊗1 (h1 on site j), for each member of a (k, 2, 2) stack.

    Term j is broadcast as eye(2^j) ⊗ h1 ⊗ eye(2^(n_sites-1-j)) on the axes (k, l, s, r, l', s', r').
    """
    k, total = h1.shape[0], 0.0
    for j in range(n_sites):
        left, right = np.eye(2**j), np.eye(2 ** (n_sites - 1 - j))
        term = (left[:, None, None, :, None, None] * h1[:, None, :, None, None, :, None]
                * right[:, None, None, :])
        total = total + term.reshape(k, 2**n_sites, 2**n_sites)
    return total


def check_operator_inequalities(seed: int, n: int = 1000) -> list[CheckResult]:
    """Triangle, unitary invariance, variance and covariance bounds, additivity.

    The instances are drawn as arrays, then evaluated as one stack per
    dimension, and one per site count for additivity.
    """
    by_dim, by_sites = _operator_instances(make_rng(seed), n)
    worst = np.full(6, -np.inf)
    for a, b, gaussian, psi, t in by_dim.values():
        u = _unitary_from_gaussian(gaussian)
        wa, wb, wab, wuau = seminorm(np.stack([a, b, a + b, u.conj().swapaxes(-1, -2) @ a @ u]))
        va, vb = variance(np.stack([a, b]), psi)
        ue = expm_hermitian(a, t)
        worst[:5] = np.maximum(worst[:5], [
            (wab - wa - wb).max(), np.abs(wuau - wa).max(), (va - wa**2 / 4.0).max(),
            (np.abs(covariance(a, b, psi)) - np.sqrt(va * vb)).max(),
            np.abs(ue.conj().swapaxes(-1, -2) @ ue - np.eye(a.shape[-1])).max(),
        ])
    for n_sites, h1 in by_sites.items():
        worst[5] = max(worst[5], np.abs(seminorm(_site_sum(h1, n_sites)) - n_sites * seminorm(h1)).max())

    worst_triangle, worst_invariance, worst_var, worst_cov, worst_unit, worst_add = worst
    return [
        _result("seminorm-triangle", "||A+B|| - ||A|| - ||B|| <= 0", worst_triangle, 1e-10),
        _result("seminorm-unitary-invariance", "| ||U†AU|| - ||A|| | = 0", worst_invariance, 1e-10),
        _result("variance-bound", "Var[A] - ||A||²/4 <= 0", worst_var, 1e-10),
        _result("covariance-inequality", "|Cov[A,B]| - sqrt(Var Var) <= 0", worst_cov, 1e-10),
        _result("expm-unitarity", "||U†U - 1||_max = 0", worst_unit, 1e-10),
        _result("seminorm-additivity", "| ||sum h_j|| - N ||h|| | = 0 (N <= 4)", worst_add, 1e-10),
    ]


# ------------------------------------------------------------------ QFI suite

def check_qfi_bounds(seed: int) -> list[CheckResult]:
    """Channel bound and rate bound on random families, one tangent batch per dimension."""
    grid, tol = np.linspace(0.0, 1.5, 7), 1e-10
    worst_channel = worst_rate = worst_negative = -np.inf
    for terms, probes, lams in _random_instances(make_rng(seed), 8).values():
        stack = family_stack(terms, lams)
        us, hs = generators(stack, np.arange(len(lams)), grid, tol=tol)
        for j, psi0 in enumerate(probes):
            # the stack's parameter is the member index, so member j's record is at lam = j
            series = qfi_series(PropagationRecord(lam=float(j), times=grid, U=us[j], h=hs[j], tol=tol),
                                psi0, stack)
            worst_channel = max(worst_channel,
                                (np.sqrt(np.maximum(series.qfi, 0.0)) - np.sqrt(series.channel_bound)).max())
            worst_rate = max(worst_rate, (np.abs(series.sqrt_qfi_rate) - series.rate_bound).max())
            worst_negative = max(worst_negative, -series.qfi.min(), abs(series.qfi[0]))
    return [
        _result("qfi-channel-bound", "sqrt(F) - integral ||dH/dlam|| <= 0", worst_channel, 1e-8),
        _result("qfi-rate-bound", "|d sqrt(F)/dt| - ||dH/dlam|| <= 0", worst_rate, 1e-6),
        _result("qfi-nonnegative", "F >= 0 and F(0) = 0", worst_negative, 1e-10),
    ]


def check_qfi_oracle(seed: int) -> list[CheckResult]:
    """Generator-variance QFI vs fidelity-curvature oracle.

    Exercised at steps large enough that the 10·d² truncation budget
    dominates the integration noise amplified by the second difference.
    """
    grid, tol, steps = np.linspace(0.0, 1.2, 17), 1e-12, (3e-3, 1e-2)
    worst = -np.inf
    for terms, probes, lams in _random_instances(make_rng(seed), 3).values():
        _, hs = generators(family_stack(terms, lams), np.arange(len(lams)), grid, tol=tol)
        # the steps' stencils share their centre lam, propagated once: lam, then each step's four others
        oracle_lams = [x for lam in lams for x in (lam, *(y for d in steps for y in fidelity_stencil(lam, d)[1:]))]
        per = len(oracle_lams) // len(lams)
        us = propagators(family_stack([f for f in terms for _ in range(per)], oracle_lams),
                         np.arange(len(oracle_lams)), grid, tol=tol)
        for psi0, h, u in zip(probes, hs, us.reshape(len(lams), per, *us.shape[1:])):
            f_gen = qfi_pure(h[-1], psi0)
            for i, dlam in enumerate(steps):
                f_fid = fidelity_curvature(psi0, [u[0], *u[1 + 4 * i:5 + 4 * i]], dlam)
                worst = max(worst, abs(f_gen - f_fid) - max(1e-6, 10.0 * dlam**2) + 1e-6)
    return [_result("qfi-oracle-agreement",
                    "|qfi_pure - fidelity oracle| <= max(1e-6, 10 d²)", worst, 1e-6)]


# -------------------------------------------------- pseudo-Hermitian sensor

def check_pseudo_hermitian() -> list[CheckResult]:
    """Example-style suite: closed forms vs the spectral QFI and the dilation, noise bound,
    trends; each closed form is one call on a lam stack, and no check steps in time."""
    out = []

    # closed-form vs spectral QFI (as sweep-ph takes it) and rate, channel bound sqrt(F) <= 2t
    worst_qfi = worst_rate_band = worst_chan = -np.inf
    for eps in (0.1, 0.01):
        p = ph.PseudoHermitianParams(eps, 1.0, np.array([-0.2, 0.0, 0.3]))
        for t in p.tau * np.array([0.25, 0.5, 1.0, 2.0]):
            f_num, f_cl = ph.qfi_numeric(p, t), ph.qfi_closed(p, t)
            worst_qfi = max(worst_qfi, (np.abs(f_num - f_cl) / f_cl).max())
            worst_chan = max(worst_chan, (np.sqrt(f_num) - 2.0 * t).max())
            worst_rate_band = max(worst_rate_band, (np.abs(ph.qfi_rate_closed(p, t)) - 2.0).max())
    out.append(_result("ph-qfi-closed-vs-numeric", "relative mismatch", worst_qfi, 1e-8))
    out.append(_result("ph-rate-band", "|d sqrt(F)/dt| - 2 <= 0", worst_rate_band, 1e-12))
    out.append(_result("ph-channel-bound", "sqrt(F) - 2t <= 0", worst_chan, 1e-8))

    # dilation equivalence and closed-form P1 on a coarse grid; the evolved probes are one stack
    worst_dil = worst_p1 = -np.inf
    p = ph.PseudoHermitianParams(0.1, 1.0, np.linspace(-1.0, 1.0, 11))
    times = np.linspace(0.0, 2 * p.tau, 9)
    psi = expm_hermitian(ph.dilated_hamiltonian(p)[:, None], times) @ ph.probe_state(0.1)
    conditional = ph.conditional_population(psi)
    for k, t in enumerate(times):
        worst_dil = max(worst_dil, np.abs(conditional[:, k] - ph.two_level_population(p, t)).max())
        worst_p1 = max(worst_p1, np.abs(np.abs(psi[:, k, 0]) ** 2 - ph.p1_closed(p, t)).max())
    out.append(_result("ph-dilation-equivalence", "conditional population mismatch", worst_dil, 1e-8))
    out.append(_result("ph-p1-closed-form", "P1 closed form vs propagation", worst_p1, 1e-10))

    # sensitivity never beats the Hermitian bound; susceptibility grows as eps falls.
    # The chi peak sits near lam = -2 eps omega with width ~eps, so the trend is
    # measured on an eps-scaled window that resolves it.
    worst_margin = -np.inf
    chi_peaks = []
    for eps in (0.1, 0.01, 0.001):
        p = ph.PseudoHermitianParams(eps, 1.0, np.linspace(-0.5, 0.5, 201))
        sens = ph.sensitivity(p, p.tau, 1)
        margin = ph.hermitian_bound(p.tau, 1) - sens[np.isfinite(sens)]
        worst_margin = max(worst_margin, margin.max(initial=-np.inf))
        window = ph.PseudoHermitianParams(eps, 1.0, np.linspace(-4.0 * eps, 0.0, 501))
        chi_peaks.append(np.abs(ph.susceptibility(window, p.tau)).max())
    out.append(_result("ph-sensitivity-bound", "hermitian bound - min sensitivity <= 0",
                       worst_margin, 1e-9))
    growth = min(chi_peaks[i + 1] / chi_peaks[i] for i in range(2))
    out.append(_result("ph-susceptibility-divergence",
                       "peak |chi| grows >= 5x per decade of eps", -(growth - 5.0), 0.0))
    return out


# ------------------------------------------------------------- PT/EP sensor

def check_pt_ep() -> list[CheckResult]:
    """Example-style suite for the periodically driven EP sensor."""
    out, tol = [], 1e-11

    # variance formula == delta-method composition
    worst_var = -np.inf
    rng = make_rng(321)
    c0s, diffs = rng.uniform(1.0, 30.0, 100), rng.uniform(0.05, 0.95, 100)
    pgs, periods = rng.uniform(0.0, np.minimum(c0s - diffs, 3.0)), rng.uniform(0.5, 8.0, 100)
    for c0, diff, pg, period in zip(c0s.tolist(), diffs.tolist(), pgs.tolist(), periods.tolist()):
        pj = pg + diff
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
        edges = [0.0, *(k * math.pi / wd for k in range(1, math.ceil(wd_t / math.pi))), p.T]
        integral = _integrals(lambda s: p.delta * s * np.abs(np.sin(wd * s)), edges).sum()
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

# (p, scale, nu) of each Monte Carlo case, in the order their sub-seeds are drawn
_NOISE_CASES = (*((p, 1.0, nu) for p in (0.1, 0.3, 0.5, 0.9) for nu in (10, 50, 400)),
                *((0.6 * c0, c0, 25) for c0 in (1.0, math.e, 20.0)))


def _noise_z_scores(seed: int) -> np.ndarray:
    """(empirical - analytic variance) / SE of each case of _NOISE_CASES.

    Each case draws the count histogram of 50,000 scaled-binomial estimates
    on its own sub-seed and takes the centred sample variance (ddof = 1)
    over the nu + 1 support values.  That statistic has the distribution of
    the variance of as many individually drawn estimates.
    """
    stream, scores, reps = make_rng(seed), [], 50_000
    for p, scale, nu in _NOISE_CASES:
        counts = sample_projection_counts(p, scale, nu, reps, int(stream.integers(0, 2**62)))
        scores.append((_count_variance(counts, scale) - scaled_binomial_variance(p, scale, nu))
                      / _variance_standard_error(p, scale, nu, reps))
    return np.array(scores)


def _count_variance(counts: np.ndarray, scale: float) -> float:
    """Sample variance (ddof = 1) of estimates scale k/nu held as counts (N_0, ..., N_nu)."""
    support = scale * np.arange(counts.size) / (counts.size - 1)
    reps = counts.sum()
    mean = counts @ support / reps
    return float(counts @ (support - mean) ** 2 / (reps - 1))


def check_noise(seed: int) -> list[CheckResult]:
    """Monte Carlo consistency of the projection-noise variance formulas.

    The worst |z| of the 15 cases of _noise_z_scores, each the variance of
    50,000 estimates drawn as one count histogram, against the 5 SE gate.
    """
    worst = np.abs(_noise_z_scores(seed)).max()
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

def build_report(seed: int) -> VerificationReport:
    """Run every suite with streams derived from one seed."""
    checks: list[CheckResult] = []
    checks += check_operator_inequalities(seed, n=400)
    checks += check_qfi_bounds(seed + 1)
    checks += check_qfi_oracle(seed + 2)
    checks += check_pseudo_hermitian()
    checks += check_pt_ep()
    checks += check_noise(seed + 3)
    return VerificationReport(checks=tuple(checks))

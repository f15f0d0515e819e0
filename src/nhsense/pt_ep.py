"""Periodically driven PT-symmetric sensor operated near an exceptional point.

The non-Hermitian Hamiltonian J(1+cos(w t)) sigma_x + i Gamma sigma_z plus a
weak parameter-encoding drive (delta/2) cos(w_d t)(1 - sigma_z) is propagated
over one modulation period T = 2 pi/w.  The measurable pair (P_J, P_Gamma)
yields a response energy via P_J - P_Gamma = sin²(E T); its shot-noise
variance, susceptibility, and sensitivity are evaluated together with the
sensitivity bound of the Hermitian counterpart that couples to the drive
directly.  The pair and its derivative in omega_delta come from one
tangent-equation solve per point; the root finders propagate U alone.
H is written once over per-member Gamma and omega_delta, so a whole scan
grid, or the Gamma pre-scan of `find_ep`, is one batch of the propagation
core; Brent's serial evaluations are batches of one.

The identity part of the drive only contributes a global phase of unit
modulus; it is kept in the propagator so U matches the defining expression
literally.  The gain convention +i Gamma sigma_z is propagated as written;
the passive realization enters only through the noise scale C0 = e^{2 Gamma T}.
"""

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DomainError
from .evolution import TOL_MIN, check_tol, integrate, richardson
from .operators import ID2, SIGMA_X, SIGMA_Z

DEFAULT_TOL = 1e-10
DIFF_FLOOR = 1e-9  # rows are usable only for P_J - P_Gamma in (DIFF_FLOOR, 1 - DIFF_FLOOR)

SCAN_COLUMNS = ("omega_delta", "PJ", "PGamma", "E_res", "var_E", "chi_E",
                "sensitivity", "hermitian_bound", "excluded_reason")


@dataclass(frozen=True)
class PtEpParams:
    """Coupling J, dissipation Gamma, drive frequency omega, perturbation
    amplitude delta and frequency omega_delta (the estimated parameter)."""

    J: float
    Gamma: float
    omega: float
    delta: float
    omega_delta: float
    nu: int = 1

    def __post_init__(self):
        for name in ("J", "Gamma", "omega", "delta", "omega_delta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.J <= 0:
            raise DomainError("J must be positive")
        if self.Gamma < 0:
            raise DomainError("Gamma must be nonnegative")
        if self.omega <= 0:
            raise DomainError("omega must be positive")
        if self.delta < 0:
            raise DomainError("delta must be nonnegative")
        if self.omega_delta <= 0:
            raise DomainError("omega_delta must be positive")
        if self.nu < 1:
            raise DomainError("nu (trial count) must be >= 1")

    @property
    def T(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def C0(self) -> float:
        return math.exp(2.0 * self.Gamma * self.T)


@dataclass(frozen=True)
class EpScanRow:
    omega_delta: float
    PJ: float
    PGamma: float
    E_res: float
    var_E: float
    chi_E: float
    sensitivity: float
    hermitian_bound: float
    excluded_reason: str = ""


# The real operators of H; the gain term i Gamma sigma_z is its only complex part.
_SIGMA_X = SIGMA_X.real
_PERT_OP = (ID2 - SIGMA_Z).real


def _hamiltonians(ps: list[PtEpParams]):
    """H and dH/d omega_delta of the batch ps, as `evolution.BatchHamiltonian`s.

    The members share J, omega and delta; each has its own Gamma and omega_delta.
    """
    p = ps[0]
    freqs = np.array([(q.omega, q.omega_delta) for q in ps])
    gain = np.array([1j * q.Gamma for q in ps])[:, None, None] * SIGMA_Z
    half_delta = 0.5 * p.delta

    def h(t, idx):
        c = np.cos(t[:, None] * freqs[idx])
        drive, pert = p.J * (1.0 + c[:, 0]), half_delta * c[:, 1]
        return drive[:, None, None] * _SIGMA_X + pert[:, None, None] * _PERT_OP + gain[idx]

    def dh(t, idx):
        return (-half_delta * t * np.sin(t * freqs[idx, 1]))[:, None, None] * _PERT_OP

    return h, dh


def hamiltonian_total(p: PtEpParams, t: float) -> np.ndarray:
    """J(1+cos(w t)) sigma_x + i Gamma sigma_z + (delta/2) cos(w_d t)(1 - sigma_z)."""
    return _hamiltonians([p])[0](np.array([t]), np.zeros(1, dtype=int))[0]


def hamiltonian_domega_delta(p: PtEpParams, t: float) -> np.ndarray:
    """dH/d omega_delta = -(delta/2) t sin(w_d t)(1 - sigma_z)."""
    return _hamiltonians([p])[1](np.array([t]), np.zeros(1, dtype=int))[0]


def _propagate_periods(ps: list[PtEpParams], tol: float,
                       tangent: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """U(T), and with `tangent` W(T) = dU(T)/d omega_delta, of the batch ps: (B, 2, 2) each."""
    h, dh = _hamiltonians(ps)
    u, w = integrate(h, 2, (0.0, ps[0].T), tol, dhamiltonian=dh if tangent else None,
                     batch=len(ps))
    return u[:, -1], (w[:, -1] if tangent else None)


def propagate_period_tangent(p: PtEpParams, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """U(T) together with its parameter derivative W(T) = dU(T)/d omega_delta.

    W comes from the tangent equation integrated in one state with U
    (`evolution.integrate`), so it is accurate to the requested `tol` rather
    than to a difference quotient.
    """
    u, w = _propagate_periods([p], tol, tangent=True)
    return u[0], w[0]


def propagate_period(p: PtEpParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """U(T) over one modulation period.

    No unitarity is expected; |det U| stays 1 because the Hamiltonian trace
    is real (the anti-Hermitian part is traceless).
    """
    return _propagate_periods([p], tol, tangent=False)[0][0]


def _gamma_amplitude(m: np.ndarray) -> np.ndarray:
    """<-x|M|+x> times 2 for each member of a (B, 2, 2) stack."""
    return m[:, 0, 0] + m[:, 0, 1] - m[:, 1, 0] - m[:, 1, 1]


def _pairs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_J and P_Gamma (each (B,)) of a (B, 2, 2) stack of propagators."""
    # |z|² through hypot, as abs() of one complex number computes it
    a, b = u[:, 0, 1], _gamma_amplitude(u)
    return np.hypot(a.real, a.imag) ** 2, np.hypot(b.real, b.imag) ** 2 / 4.0


def pj_pgamma(u) -> tuple[float, float]:
    """Measured pair P_J = |<up|U|down>|², P_Gamma = |<-x|U|+x>|².

    Convention |up> = (1, 0), |down> = (0, 1).  Either value may exceed 1
    under gain.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise DomainError(f"expected a 2x2 propagator, got shape {u.shape}")
    pj, pg = _pairs(u[np.newaxis])
    return float(pj[0]), float(pg[0])


def response_energy(pj: float, pgamma: float, period: float) -> float:
    """E_res = arcsin(sqrt(P_J - P_Gamma))/T, principal branch in [0, pi/(2T)].

    P_J - P_Gamma outside [0, 1] means a complex response energy; that
    region is excluded, and the offending difference is reported.
    """
    diff = pj - pgamma
    if not (0.0 <= diff <= 1.0):
        raise DomainError(f"P_J - P_Gamma = {diff:.6g} outside [0, 1]: complex response energy")
    return math.asin(math.sqrt(diff)) / period


def _diff_at(p: PtEpParams, tol: float) -> float:
    pj, pg = pj_pgamma(propagate_period(p, tol=tol))
    return pj - pg


def _check_root_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"root tolerance must be finite and > 0, got {tol:g}")


def default_ep_bracket(j: float) -> tuple[float, float]:
    """Gamma bracket (0.01 J, 3 J) searched by find_ep when none is given."""
    return 0.01 * j, 3.0 * j


def find_ep(j: float, omega: float, bracket: tuple[float, float] | None = None,
            tol: float = 1e-10, prop_tol: float = 1e-12) -> float:
    """Dissipation rate at the phase boundary: root of P_J - P_Gamma at delta = 0.

    A coarse pre-scan over the bracket, propagated as one batch, locates a
    sign change, then Brent's method narrows it to |dGamma| <= tol.
    """
    _check_root_tol(tol)
    if bracket is None:
        bracket = default_ep_bracket(j)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 <= lo < hi):
        raise DomainError("bracket must satisfy 0 <= lo < hi")

    def at(gamma: float) -> PtEpParams:
        # delta = 0 removes the perturbation; omega_delta is then inert.
        return PtEpParams(J=j, Gamma=gamma, omega=omega, delta=0.0, omega_delta=1.0)

    grid = np.linspace(lo, hi, 25).tolist()
    pj, pg = _pairs(_propagate_periods([at(x) for x in grid], prop_tol, tangent=False)[0])
    vals = (pj - pg).tolist()
    known = dict(zip(grid, vals))  # brentq re-evaluates the bracket ends

    def g(gamma: float) -> float:
        if gamma not in known:
            known[gamma] = _diff_at(at(gamma), prop_tol)
        return known[gamma]

    for k in range(len(grid) - 1):
        if vals[k] == 0.0:
            return float(grid[k])
        if vals[k] * vals[k + 1] < 0:
            return float(brentq(g, grid[k], grid[k + 1], xtol=tol))
    raise DomainError(f"no sign change of P_J - P_Gamma in Gamma bracket ({lo:g}, {hi:g})")


def find_response_dip(p: PtEpParams, bracket: tuple[float, float],
                      tol: float = 1e-10, prop_tol: float = 1e-12) -> float:
    """omega_delta where P_J - P_Gamma crosses zero (the response-energy dip).

    The bracket endpoints must give opposite signs of the difference;
    Brent's method narrows the root to |d omega_delta| <= tol.
    """
    _check_root_tol(tol)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 < lo < hi):
        raise DomainError("bracket must satisfy 0 < lo < hi")

    @cache  # brentq re-evaluates the bracket ends the sign check already has
    def g(wd: float) -> float:
        return _diff_at(replace(p, omega_delta=wd), prop_tol)

    if g(lo) * g(hi) > 0:
        raise DomainError(f"no sign change of P_J - P_Gamma in omega_delta bracket ({lo:g}, {hi:g})")
    return float(brentq(g, lo, hi, xtol=tol))


def response_variance(pj: float, pgamma: float, c0: float, nu: int, period: float) -> float:
    """Shot-noise variance of the response energy.

    (1/(4 nu T²)) [C0(P_J+P_Gamma) - (P_J²+P_Gamma²)] / [(P_J-P_Gamma)(1-P_J+P_Gamma)];
    identical to propagating the two scaled-binomial variances through the
    arcsin extraction to first order.  Diverges (+inf) at the zero of the
    denominator, i.e. at the dip itself.
    """
    if c0 < 1.0:
        raise DomainError(f"C0 must be >= 1, got {c0}")
    if nu < 1:
        raise DomainError("trial count must be >= 1")
    if not (0.0 <= pj <= c0) or not (0.0 <= pgamma <= c0):
        raise DomainError("P values must lie in [0, C0]")
    diff = pj - pgamma
    if not (0.0 <= diff <= 1.0):
        raise DomainError(f"P_J - P_Gamma = {diff:.6g} outside [0, 1]")
    den = diff * (1.0 - diff)
    num = c0 * (pj + pgamma) - (pj**2 + pgamma**2)
    if den < 1e-14:
        return float("inf")
    return num / (4.0 * nu * period**2 * den)


def _response_at(p: PtEpParams, tol: float) -> float:
    pj, pg = pj_pgamma(propagate_period(p, tol=tol))
    return response_energy(pj, pg, p.T)


def _pair_and_slope(ps: list[PtEpParams], tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_J, P_Gamma and dD/d omega_delta for D = P_J - P_Gamma of each of ps, from one tangent batch.

    dP_J = 2 Re(conj(U01) W01) and dP_Gamma = Re(conj(a) da)/2 for
    a = U00 + U01 - U10 - U11 and da the same combination of W.
    """
    # tol/2, floored at TOL_MIN: the solver's RMS error norm spans U and W,
    # which loosens U by about sqrt(2) against a solve of U alone, and D near
    # the dip is a small difference of two values near 4.
    u, w = _propagate_periods(ps, max(check_tol(tol) / 2.0, TOL_MIN), tangent=True)
    pj, pg = _pairs(u)
    d_diff = (2.0 * (u[:, 0, 1].conj() * w[:, 0, 1]).real
              - (_gamma_amplitude(u).conj() * _gamma_amplitude(w)).real / 2.0)
    return pj, pg, d_diff


def _response_slope(diff: float, d_diff: float, period: float) -> float:
    """|dE_res/d omega_delta| = |dD| / (2 T sqrt(D (1 - D))), the arcsin chain rule."""
    if not (0.0 < diff < 1.0):
        raise DomainError(f"P_J - P_Gamma = {diff:.6g} outside (0, 1): no real response slope")
    return abs(d_diff) / (2.0 * period * math.sqrt(diff * (1.0 - diff)))


def ep_susceptibility(p: PtEpParams, tol: float = DEFAULT_TOL, rel_step: float | None = None) -> float:
    """|dE_res/d omega_delta|, by default from one tangent solve.

    Raises DomainError when D = P_J - P_Gamma lies outside (0, 1) at the point.

    An explicit `rel_step` selects the Richardson-extrapolated central
    difference with step rel_step * omega_delta over four separate
    propagations, kept as an independent oracle; it raises DomainError if
    either sampled side leaves the real-response region.
    """
    if rel_step is not None:
        def central(h: float) -> float:
            ep_plus = _response_at(replace(p, omega_delta=p.omega_delta + h), tol)
            ep_minus = _response_at(replace(p, omega_delta=p.omega_delta - h), tol)
            return (ep_plus - ep_minus) / (2.0 * h)

        return abs(richardson(central, rel_step * p.omega_delta))

    pj, pg, d_diff = (v.item() for v in _pair_and_slope([p], tol))
    return _response_slope(pj - pg, d_diff, p.T)


def ep_sensitivity(p: PtEpParams, tol: float = DEFAULT_TOL) -> float:
    """Overall sensitivity sqrt(Var[E_res]) / |dE_res/d omega_delta|, from one tangent solve."""
    pj, pg, d_diff = (v.item() for v in _pair_and_slope([p], tol))
    var = response_variance(pj, pg, p.C0, p.nu, p.T)
    chi = _response_slope(pj - pg, d_diff, p.T)
    return math.sqrt(var) / chi if chi > 0 else float("inf")


def hermitian_bound_ep(p: PtEpParams) -> float:
    """Uncertainty bound of the Hermitian counterpart coupling to the drive.

    The spectral width of the drive derivative is delta * s * |sin(w_d s)|,
    integrated over one period by adaptive quadrature with the kink points
    of |sin| supplied explicitly.  For w_d T <= pi the integral reduces to
    delta [sin(w_d T) - w_d T cos(w_d T)] / w_d².
    """
    if p.delta == 0.0:
        return float("inf")
    wd, period = p.omega_delta, p.T
    kinks = [k * math.pi / wd for k in range(1, int(wd * period / math.pi) + 1)
             if k * math.pi / wd < period]
    integral, _ = quad(lambda s: p.delta * s * abs(math.sin(wd * s)), 0.0, period,
                       points=kinks or None, epsabs=1e-13, epsrel=1e-10, limit=200)
    return 1.0 / (math.sqrt(p.nu) * integral)


def _scan_row(p: PtEpParams, pj: float, pg: float, d_diff: float) -> EpScanRow:
    wd = p.omega_delta
    diff = pj - pg
    bound = hermitian_bound_ep(p)
    if not (DIFF_FLOOR < diff < 1.0 - DIFF_FLOOR):
        return EpScanRow(
            omega_delta=wd, PJ=pj, PGamma=pg, E_res=float("nan"),
            var_E=float("nan"), chi_E=float("nan"), sensitivity=float("nan"),
            hermitian_bound=bound,
            excluded_reason=f"P_J - P_Gamma = {diff:.6g} outside usable range")
    e_res = response_energy(pj, pg, p.T)
    var = response_variance(pj, pg, p.C0, p.nu, p.T)
    chi = _response_slope(diff, d_diff, p.T)
    sens = math.sqrt(var) / chi if chi > 0 else float("inf")
    return EpScanRow(
        omega_delta=wd, PJ=pj, PGamma=pg, E_res=e_res, var_E=var,
        chi_E=chi, sensitivity=sens, hermitian_bound=bound)


def scan(base: PtEpParams, omega_delta_grid, tol: float = DEFAULT_TOL) -> list[EpScanRow]:
    """Evaluate the full measurement chain on a grid of omega_delta values.

    Grid points whose P_J - P_Gamma falls outside (DIFF_FLOOR, 1 - DIFF_FLOOR)
    are flagged with a reason and carry NaN in the derived columns instead of
    being dropped.  Each row takes P_J, P_Gamma and chi_E from its own member
    of one tangent batch over the grid; a row does not depend on the others.
    """
    grid = np.asarray(omega_delta_grid, dtype=float)
    if grid.size == 0:
        raise DomainError("omega_delta grid must be non-empty")
    ps = [replace(base, omega_delta=wd) for wd in grid.tolist()]
    return [_scan_row(*row) for row in zip(ps, *(a.tolist() for a in _pair_and_slope(ps, tol)))]

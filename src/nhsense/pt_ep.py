"""Periodically driven PT-symmetric sensor operated near an exceptional point.

The non-Hermitian Hamiltonian J(1+cos(w t)) sigma_x + i Gamma sigma_z plus a
weak parameter-encoding drive (delta/2) cos(w_d t)(1 - sigma_z) is propagated
over one modulation period T = 2 pi/w.  The measurable pair (P_J, P_Gamma)
yields a response energy via P_J - P_Gamma = sin²(E T); its shot-noise
variance, susceptibility, and sensitivity are evaluated together with the
sensitivity bound of the Hermitian counterpart that couples to the drive
directly.  The pair and its derivative in omega_delta come from one
tangent-equation solve per point; the root finders propagate U alone, and
so does `ep_susceptibility`, a difference-quotient oracle for that derivative.
H is one `HamiltonianFamily` over the member index of a batch, each member
with its own Gamma and omega_delta, so a scan grid is one batch of the core
both sensors share.  A U-only period runs on the grid of S = 16 equal
intervals of (0, T): the core takes each interval from the identity as a
member of one batch and chains U(T) = U(T, t_{S-1}) ... U(t_1, 0), exact for
the linear equation.  The `find_ep` pre-scan is one batch of 25 x 16
intervals, and each of Brent's serial evaluations, which cannot be batched,
one of 16.

The identity part of the drive only contributes a global phase of unit
modulus; it is kept in the propagator so U matches the defining expression
literally.  The gain convention +i Gamma sigma_z is propagated as written;
the passive realization enters only through the noise scale C0 = e^{2 Gamma T}.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .evolution import (DEFAULT_TOL, MAX_PERIOD_PHASE, TOL_MIN, HamiltonianFamily, check_scalar, check_step,
                        check_tol, integrate, richardson)
from .noise import check_trials
from .operators import ID2, SIGMA_X, SIGMA_Z

DIFF_FLOOR = 1e-9  # rows are usable only for P_J - P_Gamma in (DIFF_FLOOR, 1 - DIFF_FLOOR)
_MAX_EXPONENT = math.log(float(np.finfo(float).max))  # e^x is a finite float up to here

SCAN_COLUMNS = ("omega_delta", "PJ", "PGamma", "E_res", "var_E", "chi_E",
                "sensitivity", "hermitian_bound", "excluded_reason")


@dataclass(frozen=True)
class PtEpParams:
    """Coupling J, dissipation Gamma, drive frequency omega, perturbation
    amplitude delta and frequency omega_delta (the estimated parameter).  Over one period
    T = 2 pi/omega, J T and omega_delta T are at most MAX_PERIOD_PHASE and C0 = e^{2 Gamma T} is finite."""

    J: float
    Gamma: float
    omega: float
    delta: float
    omega_delta: float
    nu: int = 1

    def __post_init__(self):
        for name in ("J", "Gamma", "omega", "delta", "omega_delta"):
            check_scalar(name, getattr(self, name))
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
        check_trials(self.nu)
        for name in ("J", "omega_delta"):
            phase = getattr(self, name) * self.T
            if not phase <= MAX_PERIOD_PHASE:
                raise DomainError(f"{name} T = {phase:.3g} with T = 2 pi/omega exceeds "
                                  f"{MAX_PERIOD_PHASE:g}, the most one period may hold")
        if not 2.0 * self.Gamma * self.T <= _MAX_EXPONENT:
            raise DomainError(f"2 Gamma T = {2.0 * self.Gamma * self.T:.4g} with T = 2 pi/omega exceeds "
                              f"{_MAX_EXPONENT:.4f}: the noise scale C0 = e^(2 Gamma T) overflows")

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


def _family(ps: list[PtEpParams]) -> HamiltonianFamily:
    """H and dH/d omega_delta of the batch ps, as a family whose parameter is the member index into ps.

    The members share J, omega and delta; each has its own Gamma and omega_delta.
    dH/d omega_delta = -(delta/2) t sin(omega_delta t)(1 - sigma_z).
    """
    p = ps[0]
    freqs = np.array([(q.omega, q.omega_delta) for q in ps])
    gain = np.array([1j * q.Gamma for q in ps])[:, None, None] * SIGMA_Z
    half_delta = 0.5 * p.delta

    def h(lam, t):
        idx = lam.astype(np.intp)
        c = np.cos(t[..., None] * freqs[idx])
        drive, pert = p.J * (1.0 + c[..., 0]), half_delta * c[..., 1]
        return drive[..., None, None] * _SIGMA_X + pert[..., None, None] * _PERT_OP + gain[idx]

    def dh(lam, t):
        return (-half_delta * t * np.sin(t * freqs[lam.astype(np.intp), 1]))[..., None, None] * _PERT_OP

    return HamiltonianFamily(2, h, dh)


_PIECES = 16  # equal intervals of a U-only period's grid, members of one batch


def _propagate_periods(ps: list[PtEpParams], tol: float,
                       tangent: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """U(T), and with `tangent` W(T) = dU(T)/d omega_delta, of the batch ps: (B, 2, 2) each.

    A tangent period is one member, on the grid (0, T).  A U-only period runs
    on _PIECES equal intervals of (0, T), each a member of the batch.
    """
    grid = (0.0, ps[0].T) if tangent else np.linspace(0.0, ps[0].T, _PIECES + 1)
    u, w = integrate(_family(ps), np.arange(len(ps)), grid, tol, tangent)
    return u[:, -1], (w[:, -1] if tangent else None)


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


def default_ep_bracket(j: float) -> tuple[float, float]:
    """Gamma bracket (0.01 J, 3 J) searched by find_ep when none is given."""
    return 0.01 * j, 3.0 * j


_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)  # scipy's brentq default


def _brent(f, a: float, fa: float, b: float, fb: float, xtol: float, maxiter: int = 100) -> float:
    """Zero of f between a and b, where fa = f(a) and fb = f(b) differ in sign, to xtol + 4 eps |x|.

    Brent's method (Brent 1973, Algorithms for Minimization without
    Derivatives, ch. 4) with the step rules and iteration budget of scipy's
    `brentq`, so for a float-valued f both return the same float: inverse
    quadratic or secant steps while they shrink fast enough, bisection
    otherwise.  An end where f is exactly 0 is
    returned as is; equal signs at the ends and an exhausted `maxiter` raise
    DomainError.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError(f"f has the same sign at both ends of ({a:g}, {b:g})")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # make xcur the end with the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # slopes underflowed at tiny f: bisect, as brentq does
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise DomainError(f"Brent's method did not converge in {maxiter} iterations on ({a:g}, {b:g})")


def check_root_tol(tol: float) -> float:
    """`tol` itself once it is a valid root tolerance, finite and > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"root tolerance must be finite and > 0, got {tol:g}")
    return tol


def _diff_root(at, xs: list[float], tol: float, prop_tol: float, name: str) -> float:
    """Root in x of D = P_J - P_Gamma at at(x), in the first sign change (or zero) of D along xs.

    xs is propagated as one batch; `_brent`, the in-package Brent zero, then narrows the root
    from the values at its bracket ends to |dx| <= tol.  Its points come one at a time, but
    each is a batch of the intervals of its period (`_propagate_periods`).
    """
    check_root_tol(tol)
    pj, pg = _pairs(_propagate_periods([at(x) for x in xs], prop_tol, tangent=False)[0])
    vals = (pj - pg).tolist()

    def g(x: float) -> float:
        pj, pg = pj_pgamma(propagate_period(at(x), tol=prop_tol))
        return pj - pg

    for k, (x, v) in enumerate(zip(xs, vals)):
        if v == 0.0:
            return float(x)
        if k + 1 < len(xs) and v * vals[k + 1] < 0:
            return _brent(g, x, v, xs[k + 1], vals[k + 1], tol)
    raise DomainError(f"no sign change of P_J - P_Gamma in {name} bracket ({xs[0]:g}, {xs[-1]:g})")


def _finite_bracket(bracket: tuple[float, float], name: str) -> tuple[float, float]:
    """The bracket ends as floats; DomainError naming the bracket if one is not finite."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{name} bracket ({lo:g}, {hi:g}) must have finite ends")
    return lo, hi


def find_ep(j: float, omega: float, bracket: tuple[float, float] | None = None,
            tol: float = 1e-10, prop_tol: float = 1e-12) -> float:
    """Dissipation rate at the phase boundary: root of P_J - P_Gamma at delta = 0.

    A coarse pre-scan over the bracket, propagated as one batch, locates a
    sign change, then Brent's method narrows it to |dGamma| <= tol; each of
    its serial evaluations is one batch of the pieces of a period.
    """
    lo, hi = _finite_bracket(default_ep_bracket(j) if bracket is None else bracket, "Gamma")
    if not (0 <= lo < hi):
        raise DomainError("bracket must satisfy 0 <= lo < hi")

    def at(gamma: float) -> PtEpParams:
        # delta = 0 removes the perturbation; omega_delta = omega is then inert, and in bounds
        return PtEpParams(J=j, Gamma=gamma, omega=omega, delta=0.0, omega_delta=omega)

    return _diff_root(at, np.linspace(lo, hi, 25).tolist(), tol, prop_tol, "Gamma")


def find_response_dip(p: PtEpParams, bracket: tuple[float, float],
                      tol: float = 1e-10, prop_tol: float = 1e-12) -> float:
    """omega_delta where P_J - P_Gamma crosses zero (the response-energy dip).

    The bracket endpoints must give opposite signs of the difference;
    Brent's method narrows the root to |d omega_delta| <= tol.
    """
    lo, hi = _finite_bracket(bracket, "omega_delta")
    if not (0 < lo < hi):
        raise DomainError("bracket must satisfy 0 < lo < hi")
    return _diff_root(lambda wd: replace(p, omega_delta=wd), [lo, hi], tol, prop_tol, "omega_delta")


def response_variance(pj: float, pgamma: float, c0: float, nu: int, period: float) -> float:
    """Shot-noise variance of the response energy.

    (1/(4 nu T²)) [C0(P_J+P_Gamma) - (P_J²+P_Gamma²)] / [(P_J-P_Gamma)(1-P_J+P_Gamma)];
    identical to propagating the two scaled-binomial variances through the
    arcsin extraction to first order.  Diverges (+inf) at the zero of the
    denominator, i.e. at the dip itself.
    """
    if c0 < 1.0:
        raise DomainError(f"C0 must be >= 1, got {c0}")
    check_trials(nu)
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


def ep_susceptibility(p: PtEpParams, tol: float = DEFAULT_TOL, *, rel_step: float) -> float:
    """|dE_res/d omega_delta| by a Richardson-extrapolated central difference: an oracle for
    `scan`'s chi_E, which comes from the tangent solve.

    The step is rel_step * omega_delta, over four separate propagations.  Raises DomainError
    unless rel_step is finite and positive, and if either sampled side leaves the real-response
    region.
    """
    check_step(rel_step, "rel_step")

    def response(wd: float) -> float:
        return response_energy(*pj_pgamma(propagate_period(replace(p, omega_delta=wd), tol)), p.T)

    def central(h: float) -> float:
        return (response(p.omega_delta + h) - response(p.omega_delta - h)) / (2.0 * h)

    return abs(richardson(central, rel_step * p.omega_delta))


def _sin_minus_x_cos(x: float) -> float:
    """G(x) = sin x - x cos x for x >= 0, without cancellation at small x.

    Below x = 1 it sums the series sum_{n>=1} (-1)^{n+1} 2n x^{2n+1} / (2n+1)!,
    which starts at x³/3, until the terms no longer change the sum.
    """
    if x >= 1.0:
        return math.sin(x) - x * math.cos(x)
    x2 = x * x
    term = total = x * x2 / 3.0
    n = 1
    while True:
        term *= -x2 / (2 * n * (2 * n + 3))
        if total + term == total:
            return total
        total += term
        n += 1


def hermitian_bound_ep(p: PtEpParams) -> float:
    """Uncertainty bound of the Hermitian counterpart coupling to the drive.

    The spectral width of the drive derivative is delta * s * |sin(w_d s)|;
    its integral over one period is delta/w_d² times that of u |sin u| up to
    x = w_d T.  The latter is summed exactly over the lobes of |sin| with
    G(u) = sin u - u cos u (`_sin_minus_x_cos`, from its Taylor series below
    u = 1, where the plain form cancels), the antiderivative of u sin u:
    lobe k adds (2k+1) pi, so the m full lobes below x add m² pi and the
    partial last one (-1)^m G(x) + m pi.  omega_delta² and the lobe sum are
    both divided by s², s the power of two that brings omega_delta below
    2^500 (s = 1 below it), which is exact and keeps both squares finite.
    The bound is +inf, its limit, where delta = 0 or the integral underflows
    to 0 (below x ~ 1e-103).
    """
    if p.delta == 0.0:
        return float("inf")
    x = p.omega_delta * p.T
    m = math.ceil(x / math.pi) - 1.0  # lobe edges k pi below x
    s = math.ldexp(1.0, max(math.frexp(p.omega_delta)[1], 500) - 500)
    lobes = (m / s) * ((m + 1) / s) * math.pi + (-1) ** m * (_sin_minus_x_cos(x) / s / s)
    denominator = math.sqrt(p.nu) * p.delta * lobes
    return (p.omega_delta / s) ** 2 / denominator if denominator else float("inf")


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
    var = response_variance(pj, pg, p.C0, p.nu, p.T)
    chi = abs(d_diff) / (2.0 * p.T * math.sqrt(diff * (1.0 - diff)))  # the arcsin chain rule
    return EpScanRow(
        omega_delta=wd, PJ=pj, PGamma=pg, E_res=response_energy(pj, pg, p.T), var_E=var,
        chi_E=chi, sensitivity=math.sqrt(var) / chi if chi > 0 else float("inf"), hermitian_bound=bound)


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

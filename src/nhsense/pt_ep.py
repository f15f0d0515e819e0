"""Periodically driven PT-symmetric sensor operated near an exceptional point.

The non-Hermitian Hamiltonian J(1+cos(w t)) sigma_x + i Gamma sigma_z plus a
weak parameter-encoding drive (delta/2) cos(w_d t)(1 - sigma_z) is propagated
over one modulation period T = 2 pi/w.  The measurable pair (P_J, P_Gamma)
yields a response energy via P_J - P_Gamma = sin²(E T); its shot-noise
variance, susceptibility, and sensitivity are evaluated together with the
sensitivity bound of the Hermitian counterpart that couples to the drive
directly.  H is one `HamiltonianFamily` over the member index of a batch,
each member with its own Gamma and omega_delta.  Each job has one route.
`scan` takes the pair and its derivative in omega_delta from one tangent
batch over the grid on `evolution.integrate`, the DOP853 core, with each
period cut into `_PIECES` = 4 equal intervals, each a batch
member of its own that the core chains exactly: the default 80 rows are 320
members that take 9 serial step attempts, against 29 with each period one
member.  Every U-only period (the root finders,
`propagate_period` and so `ep_susceptibility`, a difference-quotient oracle
for that derivative) is a member of `_propagate_periods`, the sixth-order
Magnus route (`evolution.magnus_propagators`): its steps depend on H alone,
not on the state, so a whole period is one vectorized computation and a
product tree, and each member's step count n comes from its own error
check.  The `find_ep` pre-scan of 25 points is a batch of 13 periods, then
one of the other 12 unless the first 13 hold a sign change; each of Brent's
serial evaluations, which cannot be batched, is one period at the larger n
of its bracket's two ends, unchecked.

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
                        check_tol, integrate, magnus_propagators, richardson)
from .noise import check_projection, check_trials
from .operators import ID2, SIGMA_Z

DIFF_FLOOR = 1e-9  # rows are usable only for P_J - P_Gamma in (DIFF_FLOOR, 1 - DIFF_FLOOR)
_MAX_EXPONENT = math.log(float(np.finfo(float).max))  # e^x is a finite float up to here
_PIECES = 4  # equal intervals of each tangent period, each a member of the batch of its own


@dataclass(frozen=True)
class PtEpParams:
    """Coupling J, dissipation Gamma, drive frequency omega, perturbation
    amplitude delta and frequency omega_delta (the estimated parameter).  Over one period
    T = 2 pi/omega, J T, delta T and omega_delta T are at most MAX_PERIOD_PHASE and C0 = e^{2 Gamma T}
    is finite."""

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
        for name in ("J", "delta", "omega_delta"):
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


_PERT_OP = (ID2 - SIGMA_Z).real  # 1 - sigma_z, the operator of the omega_delta drive


def _family(ps: list[PtEpParams]) -> HamiltonianFamily:
    """H and dH/d omega_delta of the batch ps, as a family whose parameter is the member index into ps.

    The members share J, omega and delta; each has its own Gamma and omega_delta.
    H = drive sigma_x + pert (1 - sigma_z) + i Gamma sigma_z with drive = J(1 + cos(omega t))
    and pert = (delta/2) cos(omega_delta t), filled entry by entry into one complex stack.
    The shared drive is taken at t's own shape, once per time, and broadcast over the members.
    dH/d omega_delta = -(delta/2) t sin(omega_delta t)(1 - sigma_z).
    """
    p = ps[0]
    omega_delta = np.array([q.omega_delta for q in ps])
    gamma = np.array([q.Gamma for q in ps])
    neg_gamma = 0.0 - gamma  # -Gamma, +0.0 at Gamma = 0: the signed zeros the sum gives
    half_delta = 0.5 * p.delta

    def h(lam, t):
        idx = lam.astype(np.intp)
        drive = p.J * (1.0 + np.cos(t * p.omega))
        pert = half_delta * np.cos(t * omega_delta[idx])
        m = np.zeros(pert.shape + (2, 2), dtype=complex)
        m[..., 0, 0].imag = gamma[idx]
        m[..., 0, 1].real = m[..., 1, 0].real = drive
        m[..., 1, 1].real = 2.0 * pert + 0.0  # + 0.0: +0.0 where pert is -0.0, as in the sum
        m[..., 1, 1].imag = neg_gamma[idx]
        return m

    def dh(lam, t):
        return (-half_delta * t * np.sin(t * omega_delta[lam.astype(np.intp)]))[..., None, None] * _PERT_OP

    return HamiltonianFamily(2, h, dh)


def _propagate_periods(ps: list[PtEpParams], tol: float, steps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """U(T) of the batch ps, (B, 2, 2), and each member's Magnus step count (B,), from
    `magnus_propagators`, whose error check sets the counts unless `steps` is given."""
    return magnus_propagators(_family(ps), np.arange(len(ps)), ps[0].T, tol, steps)


def propagate_period(p: PtEpParams, tol: float = DEFAULT_TOL) -> np.ndarray:
    """U(T) over one modulation period, by Magnus steps whose count checks itself against tol.

    No unitarity is expected; |det U| stays 1 because the Hamiltonian trace
    is real (the anti-Hermitian part is traceless).
    """
    return _propagate_periods([p], tol)[0][0]


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
    region is excluded, and the offending difference is reported.  Raises DomainError unless
    the period is finite and positive.
    """
    check_step(period, "period")
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


def _first_change(vals: list[float]) -> int | None:
    """Index k of the first zero of vals, or of the first pair (k, k + 1) of opposite signs; None if none."""
    for k, v in enumerate(vals):
        if v == 0.0 or (k + 1 < len(vals) and v * vals[k + 1] < 0):
            return k
    return None


def _diff_root(at, xs: list[float], tol: float, prop_tol: float, name: str) -> float:
    """Root in x of D = P_J - P_Gamma at at(x), in the first sign change (or zero) of D along xs.

    xs is propagated in order, in two batches: the first ceil(n/2) points, never fewer than
    two, then the rest, skipped once the values so far hold a zero or a sign change.  Each
    member's Magnus step count comes from its own error check at prop_tol, and its floats do
    not depend on its batch, so the root is that of one batch of all xs.  `_brent`, the
    in-package Brent zero, then narrows the root from the values at its bracket ends to
    |dx| <= tol.  Its points come one at a time, each one period at the larger step count of
    the two bracket ends, without a check of its own.
    """
    check_step(tol, "root tolerance")
    at(xs[0]), at(xs[-1])  # DomainError at an end out of the domain, before any batch runs
    head = max(2, (len(xs) + 1) // 2)
    vals: list[float] = []
    counts: list[int] = []
    for batch in (xs[:head], xs[head:]):
        if batch and _first_change(vals) is None:
            u, n = _propagate_periods([at(x) for x in batch], prop_tol)
            pj, pg = _pairs(u)
            vals += (pj - pg).tolist()
            counts += n.tolist()
    k = _first_change(vals)
    if k is None:
        raise DomainError(f"no sign change of P_J - P_Gamma in {name} bracket ({xs[0]:g}, {xs[-1]:g})")
    if vals[k] == 0.0:
        return float(xs[k])
    steps = max(counts[k], counts[k + 1])

    def g(x: float) -> float:
        pj, pg = _pairs(_propagate_periods([at(x)], prop_tol, steps)[0])
        return float(pj[0] - pg[0])

    return _brent(g, xs[k], vals[k], xs[k + 1], vals[k + 1], tol)


def _finite_bracket(bracket: tuple[float, float], name: str) -> tuple[float, float]:
    """The bracket ends as floats; DomainError naming the bracket if one is not finite."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{name} bracket ({lo:g}, {hi:g}) must have finite ends")
    return lo, hi


def find_ep(j: float, omega: float, bracket: tuple[float, float] | None = None,
            tol: float = 1e-10, prop_tol: float = 1e-12) -> float:
    """Dissipation rate at the phase boundary: root of P_J - P_Gamma at delta = 0.

    A coarse pre-scan of 25 points over the bracket locates the first sign
    change: its first 13 points are one batch, the other 12 a second batch,
    propagated only if the first holds no change, each period's Magnus step
    count checked at prop_tol.  Brent's method then narrows the root to
    |dGamma| <= tol; each of its serial evaluations is one period at the
    larger step count of its bracket's two ends.  Near the phase bound the
    double-precision root has a roundoff floor of about 2e-12: at J T ~ 9,426
    the roots at 2^15, 2^16 and 2^17 steps are 11.17882819957013,
    11.178828199568155 and 11.17882819956808, so a tol below about 1e-11 is
    not delivered there.
    """
    lo, hi = _finite_bracket(default_ep_bracket(j) if bracket is None else bracket, "Gamma")
    if not (0 <= lo < hi):
        raise DomainError("bracket must satisfy 0 <= lo < hi")

    def at(gamma: float) -> PtEpParams:
        # delta = 0 removes the perturbation; omega_delta = omega is then inert, and in bounds
        return PtEpParams(J=j, Gamma=gamma, omega=omega, delta=0.0, omega_delta=omega)

    return _diff_root(at, np.linspace(lo, hi, 25).tolist(), tol, prop_tol, "Gamma")


def find_response_dip(p: PtEpParams, bracket: tuple[float, float], tol: float = 1e-10) -> float:
    """omega_delta where P_J - P_Gamma crosses zero (the response-energy dip).

    The bracket endpoints must give opposite signs of the difference;
    Brent's method narrows the root to |d omega_delta| <= tol, each period propagated at tol 1e-12.
    """
    lo, hi = _finite_bracket(bracket, "omega_delta")
    if not (0 < lo < hi):
        raise DomainError("bracket must satisfy 0 < lo < hi")
    return _diff_root(lambda wd: replace(p, omega_delta=wd), [lo, hi], tol, 1e-12, "omega_delta")


def response_variance(pj: float, pgamma: float, c0: float, nu: int, period: float) -> float:
    """Shot-noise variance of the response energy.

    (1/(4 nu T²)) [C0(P_J+P_Gamma) - (P_J²+P_Gamma²)] / [(P_J-P_Gamma)(1-P_J+P_Gamma)];
    identical to propagating the two scaled-binomial variances through the
    arcsin extraction to first order.  Diverges (+inf) at the zero of the
    denominator, i.e. at the dip itself.  Raises DomainError unless the period is finite and
    positive.
    """
    check_step(period, "period")
    check_projection(pj, c0, nu)
    check_projection(pgamma, c0, nu)
    diff = pj - pgamma
    if not (0.0 <= diff <= 1.0):
        raise DomainError(f"P_J - P_Gamma = {diff:.6g} outside [0, 1]")
    den = diff * (1.0 - diff)
    num = c0 * (pj + pgamma) - (pj**2 + pgamma**2)
    if den < 1e-14:
        return float("inf")
    return num / (4.0 * nu * period**2 * den)


def _pair_and_slope(ps: list[PtEpParams], tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_J, P_Gamma and dD/d omega_delta for D = P_J - P_Gamma of each of ps, from one tangent batch
    of the DOP853 core on the grid of _PIECES equal intervals of (0, T), each interval of each
    row a member of its own; U and W are read at T, where the core has chained the pieces.

    dP_J = 2 Re(conj(U01) W01) and dP_Gamma = Re(conj(a) da)/2 for
    a = U00 + U01 - U10 - U11 and da the same combination of W.
    """
    # tol/2, floored at TOL_MIN: the solver's RMS error norm spans U and W,
    # which loosens U by about sqrt(2) against a solve of U alone, and D near
    # the dip is a small difference of two values near 4.
    tol = max(check_tol(tol) / 2.0, TOL_MIN)
    grid = np.linspace(0.0, ps[0].T, _PIECES + 1)
    u, w = (a[:, -1] for a in integrate(_family(ps), np.arange(len(ps)), grid, tol, tangent=True))
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
    """Evaluate the full measurement chain on a grid of omega_delta values (a lone value is a grid of one).

    Grid points whose P_J - P_Gamma falls outside (DIFF_FLOOR, 1 - DIFF_FLOOR)
    are flagged with a reason and carry NaN in the derived columns instead of
    being dropped.  Each row takes P_J, P_Gamma and chi_E from its own member
    of one tangent batch over the grid; a row does not depend on the others.
    """
    grid = np.atleast_1d(np.asarray(omega_delta_grid, dtype=float))
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError(f"omega_delta grid must be one value or a non-empty 1-d stack, got shape {grid.shape}")
    ps = [replace(base, omega_delta=wd) for wd in grid.tolist()]
    return [_scan_row(*row) for row in zip(ps, *(a.tolist() for a in _pair_and_slope(ps, tol)))]

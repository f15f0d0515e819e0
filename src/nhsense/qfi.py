"""Quantum Fisher information for pure probes under unitary encoding.

The QFI is F(t) = 4 Var[h(t)] over the probe, with h the transformed local
generator.  Alongside F itself this module evaluates the two inequalities
it must satisfy: sqrt(F(t)) bounded by the time integral of the spectral
width of dH/dlam, and |d sqrt(F)/dt| bounded pointwise by that width.
Its time integrals come from `_integrals`, an adaptive Gauss-Kronrod rule.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .evolution import (
    HamiltonianFamily, PropagationRecord, check_step, evaluate_stack, propagators, richardson,
)
from .noise import check_trials
from .operators import HERMITICITY_ATOL, covariance, require_state, seminorm, variance

RATE_QFI_FLOOR = 1e-12  # below this the covariance quotient for d sqrt(F)/dt is meaningless

_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200  # bisection rounds, and open subintervals per piece, as quad's subinterval limit
# QUADPACK qk15 (Piessens et al. 1983): Kronrod node x >= 0, its weight, its G7 weight (0 off Gauss nodes)
_QK15 = np.array([
    [0.9914553711208126, 0.022935322010529224, 0.0],
    [0.9491079123427585, 0.06309209262997856, 0.1294849661688697],
    [0.8648644233597691, 0.10479001032225019, 0.0],
    [0.7415311855993945, 0.14065325971552592, 0.27970539148927664],
    [0.5860872354676911, 0.1690047266392679, 0.0],
    [0.4058451513773972, 0.19035057806478542, 0.3818300505051189],
    [0.20778495500789848, 0.20443294007529889, 0.0],
    [0.0, 0.20948214108472782, 0.4179591836734694],
])
_QK15 = np.concatenate([_QK15 * [-1.0, 1.0, 1.0], _QK15[-2::-1]])


@dataclass(frozen=True)
class QfiSeries:
    """QFI, its rate, and both bounds sampled along a propagation grid.

    channel_bound[k] is the squared integral of the spectral width of
    dH/dlam up to times[k]; rate_bound[k] the width at times[k] itself.
    Where qfi is at most RATE_QFI_FLOOR the rate is the forward difference
    of sqrt(F) (backward at the last time) instead of the covariance formula.
    """

    times: np.ndarray
    qfi: np.ndarray
    sqrt_qfi_rate: np.ndarray
    channel_bound: np.ndarray
    rate_bound: np.ndarray


def qfi_pure(h, psi0, atol: float = HERMITICITY_ATOL):
    """QFI of a pure probe: 4 Var[h] with h the local generator, or a stack of them."""
    return 4.0 * variance(h, psi0, atol=atol)


def _integrals(f, edges) -> np.ndarray:
    """The integral of f over each [edges[i], edges[i+1]], by adaptive G7-K15 bisection.

    f maps an array of nodes to their values; each round evaluates every open
    subinterval in one call.  A subinterval is kept once |K15 - G7| is within its
    length share of max(_QUAD_EPSABS, _QUAD_EPSREL |I|) for its piece, and bisected
    otherwise.  DomainError for a non-finite value or a rule that does not converge.
    """
    edges = np.asarray(edges, dtype=float)
    sums, span = np.zeros(edges.size - 1), np.abs(np.diff(edges))
    piece, a, b = np.arange(sums.size), edges[:-1], edges[1:]
    for _ in range(_QUAD_LIMIT):
        if not piece.size or piece.size > _QUAD_LIMIT * sums.size:
            break
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        fx = np.asarray(f((mid[:, None] + half[:, None] * _QK15[:, 0]).ravel()), dtype=float)
        if not np.isfinite(fx).all():
            raise DomainError("quadrature integrand is not finite")
        k15, g7 = half * (fx.reshape(a.size, -1) @ _QK15[:, 1:]).T
        tol = np.maximum(_QUAD_EPSABS, _QUAD_EPSREL * np.abs(sums + np.bincount(piece, k15, sums.size)))
        kept = np.abs(k15 - g7) * span[piece] <= tol[piece] * np.abs(b - a)
        sums += np.bincount(piece[kept], k15[kept], sums.size)
        split = np.column_stack([a, mid, b])[~kept]
        piece, a, b = np.repeat(piece[~kept], 2), split[:, :2].ravel(), split[:, 1:].ravel()
    if piece.size:
        raise DomainError(f"quadrature did not converge: {piece.size} subintervals still open")
    return sums


def _widths(family: HamiltonianFamily, lam: float, s: np.ndarray) -> np.ndarray:
    """The spectral width of dH/dlam at lam and each time in s, every evaluation checked."""
    return seminorm(evaluate_stack(family.evaluate_dlambda, family.dim, np.full(s.size, lam), s))


def qfi_series(record: PropagationRecord, psi0, family: HamiltonianFamily) -> QfiSeries:
    """Evaluate F, d sqrt(F)/dt, and the two bounds along a propagation record."""
    psi0 = require_state(psi0)
    if psi0.shape[0] != family.dim:
        raise DomainError("probe dimension does not match the family")
    herm_atol = max(HERMITICITY_ATOL, 10.0 * record.tol)

    times, lam = record.times, record.lam
    m = times.size
    dh = evaluate_stack(family.evaluate_dlambda, family.dim, np.full(m, lam), times)
    qfi = qfi_pure(record.h, psi0, atol=herm_atol)
    rate_bound = seminorm(dh)
    channel = np.concatenate([[0.0], np.cumsum(_integrals(partial(_widths, family, lam), times))**2])

    sqrt_f = np.sqrt(np.maximum(qfi, 0.0))
    rate = np.zeros(m)
    if m > 1:  # forward difference, backward at the last point
        j = np.minimum(np.arange(m), m - 2)
        rate = (sqrt_f[j + 1] - sqrt_f[j]) / (times[j + 1] - times[j])
    cov = qfi > RATE_QFI_FLOOR
    u = record.U[cov]
    dh_dt = u.conj().swapaxes(-1, -2) @ dh[cov] @ u
    rate[cov] = 8.0 * covariance(dh_dt, record.h[cov], psi0, atol=herm_atol) / (2.0 * sqrt_f[cov])

    return QfiSeries(times=times, qfi=qfi, sqrt_qfi_rate=rate, channel_bound=channel, rate_bound=rate_bound)


def qfi_fidelity_oracle(family: HamiltonianFamily, lam: float, psi0, t: float, dlam: float = 1e-3) -> float:
    """QFI from the curvature of the pure-state overlap in the parameter.

    The `fidelity_curvature` of one batch of five propagators at the
    `fidelity_stencil`.  Independent of the generator route, so it serves as an
    oracle for qfi_pure.  It propagates at tol 1e-12, tight because the second
    difference divides the propagation error by d².
    """
    check_step(dlam)
    psi0 = require_state(psi0)
    return fidelity_curvature(psi0, propagators(family, fidelity_stencil(lam, dlam), t, tol=1e-12), dlam)


def fidelity_stencil(lam: float, dlam: float) -> list[float]:
    """lam, lam ± d/2 (richardson's half step) and lam ± d for d = dlam, in `fidelity_curvature`'s order."""
    return [lam, lam + dlam / 2.0, lam - dlam / 2.0, lam + dlam, lam - dlam]


def fidelity_curvature(psi0, u, dlam: float) -> float:
    """QFI from the propagators u at the `fidelity_stencil` of lam and dlam > 0, in its order.

    The second difference of the overlap |<psi_lam|psi_lam+d>| of the evolved
    probe psi0, with one Richardson halving to cancel its O(d²) truncation.
    """
    psi_c, *psi = (uk @ psi0 for uk in u)

    def overlap(psi_a, psi_b) -> float:
        # fidelity of pure states; normalizing strips integrator norm drift,
        # which the second difference would otherwise amplify by 1/d^2
        return abs(np.vdot(psi_a, psi_b)) / (np.linalg.norm(psi_a) * np.linalg.norm(psi_b))

    def second_difference(d: float, psi_p, psi_m) -> float:
        return -4.0 * (overlap(psi_c, psi_p) - 2.0 + overlap(psi_c, psi_m)) / d**2

    # the inner pair serves any step below dlam (richardson's half step), the outer pair dlam
    return richardson(lambda d: second_difference(d, *(psi[:2] if d < dlam else psi[2:])), dlam)


def cramer_rao(qfi_value: float, nu: int) -> float:
    """Estimation uncertainty floor 1/sqrt(nu * F); +inf when F = 0."""
    if not (np.isfinite(qfi_value) and qfi_value >= 0):
        raise DomainError(f"QFI must be finite and nonnegative, got {qfi_value}")
    check_trials(nu)
    if qfi_value == 0.0:
        return float("inf")
    return 1.0 / np.sqrt(nu * qfi_value)

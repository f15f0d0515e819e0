"""Quantum Fisher information for pure probes under unitary encoding.

The QFI is F(t) = 4 Var[h(t)] over the probe, with h the transformed local
generator.  Alongside F itself this module evaluates the two inequalities
it must satisfy: sqrt(F(t)) bounded by the time integral of the spectral
width of dH/dlam, and |d sqrt(F)/dt| bounded pointwise by that width.
"""

from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .errors import DomainError
from .evolution import (
    HamiltonianFamily, PropagationRecord, check_finite, check_step, check_time, evaluate_stack,
    propagators, richardson,
)
from .noise import check_trials
from .operators import HERMITICITY_ATOL, covariance, require_state, seminorm, variance

RATE_QFI_FLOOR = 1e-12  # below this the covariance quotient for d sqrt(F)/dt is meaningless

_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200


@dataclass(frozen=True)
class QfiSeries:
    """QFI, its rate, and both bounds sampled along a propagation grid.

    channel_bound[k] is the squared integral of the spectral width of
    dH/dlam up to times[k]; rate_bound[k] the width at times[k] itself.
    Where qfi was below RATE_QFI_FLOOR the rate comes from a one-sided
    difference of sqrt(F) instead of the covariance formula, marked in
    rate_by_difference.
    """

    times: np.ndarray
    qfi: np.ndarray
    sqrt_qfi_rate: np.ndarray
    channel_bound: np.ndarray
    rate_bound: np.ndarray
    rate_by_difference: np.ndarray


def qfi_pure(h, psi0, atol: float = HERMITICITY_ATOL) -> float:
    """QFI of a pure probe: 4 Var[h] with h the local generator."""
    return 4.0 * variance(h, psi0, atol=atol)


def _quad_checked(f, a: float, b: float):
    from scipy.integrate import quad  # kept off the default import path

    out = quad(f, a, b, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT,
               full_output=1)
    if len(out) > 3:
        raise DomainError(f"quadrature did not converge on [{a:g}, {b:g}]: {out[3]}")
    return out[0]


def _width_integral(family: HamiltonianFamily, lam: float, a: float, b: float) -> float:
    dh = partial(evaluate_stack, family.evaluate_dlambda, family.dim, np.array([lam]))
    return _quad_checked(lambda s: seminorm(dh(np.array([s]))[0]), a, b)


def qfi_series(record: PropagationRecord, psi0, family: HamiltonianFamily) -> QfiSeries:
    """Evaluate F, d sqrt(F)/dt, and the two bounds along a propagation record."""
    psi0 = require_state(psi0)
    if psi0.shape[0] != family.dim:
        raise DomainError("probe dimension does not match the family")
    herm_atol = max(HERMITICITY_ATOL, 10.0 * record.tol)

    times, lam = record.times, record.lam
    m = times.size
    dh = evaluate_stack(family.evaluate_dlambda, family.dim, np.full(m, lam), times)
    qfi = np.array([qfi_pure(h, psi0, atol=herm_atol) for h in record.h])
    rate_bound = np.array([seminorm(d) for d in dh])
    widths = [_width_integral(family, lam, a, b) for a, b in zip(times[:-1], times[1:])]
    channel = np.array([0.0] + [acc**2 for acc in accumulate(widths)])

    sqrt_f = np.sqrt(np.maximum(qfi, 0.0))
    by_diff = ~(qfi > RATE_QFI_FLOOR)
    rate = np.empty(m)
    for k in range(m):
        if not by_diff[k]:
            dh_dt = record.U[k].conj().T @ dh[k] @ record.U[k]
            rate[k] = 8.0 * covariance(dh_dt, record.h[k], psi0, atol=herm_atol) / (2.0 * sqrt_f[k])
        else:  # forward difference, backward at the last point
            j = min(k, m - 2)
            rate[k] = 0.0 if m == 1 else (sqrt_f[j + 1] - sqrt_f[j]) / (times[j + 1] - times[j])

    return QfiSeries(times=times, qfi=qfi, sqrt_qfi_rate=rate, channel_bound=channel,
                     rate_bound=rate_bound, rate_by_difference=by_diff)


def qfi_fidelity_oracle(family: HamiltonianFamily, lam: float, psi0, t: float,
                        dlam: float = 1e-3, tol: float = 1e-12) -> float:
    """QFI from the curvature of the pure-state overlap in the parameter.

    Evolves the probe at lam, lam ± d/2 and lam ± d, one batch of five
    propagators, takes the second difference of the overlap magnitude
    |<psi_lam|psi_lam+d>|, and applies one Richardson halving to cancel the
    leading O(d²) truncation.  Independent of the generator route, so it
    serves as an oracle for qfi_pure.  The default integration tolerance is
    tight because the second difference divides the propagation error by d².
    """
    check_step(dlam)
    psi0 = require_state(psi0)
    half = dlam / 2.0  # the step richardson halves to
    u = propagators(family, [lam, lam + half, lam - half, lam + dlam, lam - dlam], t, tol=tol)
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


def channel_bound_uncertainty(family: HamiltonianFamily, lam: float, t_final: float, nu: int) -> float:
    """Uncertainty lower bound 1/(sqrt(nu) * integral of the width of dH/dlam)."""
    if check_time(t_final) == 0:
        raise DomainError("t_final must be positive")
    check_trials(nu)
    check_finite("lam", lam)
    integral = _width_integral(family, lam, 0.0, float(t_final))
    if integral == 0.0:
        return float("inf")
    return 1.0 / (np.sqrt(nu) * integral)

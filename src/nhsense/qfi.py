"""Quantum Fisher information for pure probes under unitary encoding.

The QFI is F(t) = 4 Var[h(t)] over the probe, with h the transformed local
generator.  Alongside F itself this module evaluates the two inequalities
it must satisfy: sqrt(F(t)) bounded by the time integral of the spectral
width of dH/dlam, and |d sqrt(F)/dt| bounded pointwise by that width.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .evolution import HamiltonianFamily, PropagationRecord, check_time, propagator_at, richardson
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
    return _quad_checked(lambda s: seminorm(family.evaluate_dlambda(lam, s)), a, b)


def qfi_series(record: PropagationRecord, psi0, family: HamiltonianFamily) -> QfiSeries:
    """Evaluate F, d sqrt(F)/dt, and the two bounds along a propagation record."""
    psi0 = require_state(psi0)
    if psi0.shape[0] != family.dim:
        raise DomainError("probe dimension does not match the family")
    herm_atol = max(HERMITICITY_ATOL, 10.0 * record.tol)

    times = record.times
    m = times.size
    qfi = np.empty(m)
    rate = np.empty(m)
    by_diff = np.zeros(m, dtype=bool)
    rate_bound = np.empty(m)
    channel = np.empty(m)

    for k in range(m):
        qfi[k] = qfi_pure(record.h[k], psi0, atol=herm_atol)
        rate_bound[k] = seminorm(family.evaluate_dlambda(record.lam, times[k]))

    acc = 0.0
    channel[0] = 0.0
    for k in range(1, m):
        acc += _width_integral(family, record.lam, times[k - 1], times[k])
        channel[k] = acc**2

    sqrt_f = np.sqrt(np.maximum(qfi, 0.0))
    for k in range(m):
        if qfi[k] > RATE_QFI_FLOOR:
            dh_dt = record.U[k].conj().T @ np.asarray(
                family.evaluate_dlambda(record.lam, times[k]), dtype=complex) @ record.U[k]
            cov = covariance(dh_dt, record.h[k], psi0, atol=herm_atol)
            rate[k] = 8.0 * cov / (2.0 * sqrt_f[k])
        else:
            by_diff[k] = True
            if m == 1:
                rate[k] = 0.0
            elif k + 1 < m:
                rate[k] = (sqrt_f[k + 1] - sqrt_f[k]) / (times[k + 1] - times[k])
            else:
                rate[k] = (sqrt_f[k] - sqrt_f[k - 1]) / (times[k] - times[k - 1])

    return QfiSeries(times=times, qfi=qfi, sqrt_qfi_rate=rate, channel_bound=channel,
                     rate_bound=rate_bound, rate_by_difference=by_diff)


def qfi_fidelity_oracle(family: HamiltonianFamily, lam: float, psi0, t: float,
                        dlam: float = 1e-3, tol: float = 1e-12) -> float:
    """QFI from the curvature of the pure-state overlap in the parameter.

    Evolves the probe at lam and lam ± d, takes the second difference of
    the overlap magnitude |<psi_lam|psi_lam+d>|, and applies one Richardson
    halving to cancel the leading O(d²) truncation.  Independent of the
    generator route, so it serves as an oracle for qfi_pure.  The default
    integration tolerance is tight because the second difference divides
    the propagation error by d².
    """
    if dlam <= 0:
        raise DomainError("dlam must be positive")
    psi0 = require_state(psi0)
    psi_c = propagator_at(family, lam, t, tol=tol) @ psi0

    def overlap(psi_a, psi_b) -> float:
        # fidelity of pure states; normalizing strips integrator norm drift,
        # which the second difference would otherwise amplify by 1/d^2
        return abs(np.vdot(psi_a, psi_b)) / (np.linalg.norm(psi_a) * np.linalg.norm(psi_b))

    def second_difference(d: float) -> float:
        psi_p = propagator_at(family, lam + d, t, tol=tol) @ psi0
        psi_m = propagator_at(family, lam - d, t, tol=tol) @ psi0
        return -4.0 * (overlap(psi_c, psi_p) - 2.0 + overlap(psi_c, psi_m)) / d**2

    return richardson(second_difference, dlam)


def cramer_rao(qfi_value: float, nu: int) -> float:
    """Estimation uncertainty floor 1/sqrt(nu * F); +inf when F = 0."""
    if not (np.isfinite(qfi_value) and qfi_value >= 0):
        raise DomainError(f"QFI must be finite and nonnegative, got {qfi_value}")
    if nu < 1:
        raise DomainError("trial count must be >= 1")
    if qfi_value == 0.0:
        return float("inf")
    return 1.0 / np.sqrt(nu * qfi_value)


def channel_bound_uncertainty(family: HamiltonianFamily, lam: float, t_final: float, nu: int) -> float:
    """Uncertainty lower bound 1/(sqrt(nu) * integral of the width of dH/dlam)."""
    if check_time(t_final) == 0:
        raise DomainError("t_final must be positive")
    if nu < 1:
        raise DomainError("trial count must be >= 1")
    integral = _width_integral(family, lam, 0.0, float(t_final))
    if integral == 0.0:
        return float("inf")
    return 1.0 / (np.sqrt(nu) * integral)

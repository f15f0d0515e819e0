"""Time-ordered propagation with simultaneous integration of the parameter tangent.

The coupled system

    dU/dt = -i H(lam, t) U,                          U(0) = 1
    dW/dt = -i H(lam, t) W - i (dH/dlam)(lam, t) U,   W(0) = 0

is integrated as one complex state with an adaptive Runge-Kutta 5(4) pair,
so the propagator and its tangent W = dU/dlam see identical time
discretization.  `integrate` is the one propagation core of the package and
holds for any H, Hermitian or not; the PT-symmetric sensor calls it
directly.  For a Hermitian family, `propagate` records the local generator
h = i U† dU/dlam as the Hermitian part of i U† W.  No unitarity
re-projection is applied; integration error is tracked, not hidden.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, PropagationError

TOL_MIN = 1e-13
TOL_MAX = 1e-6
DEFAULT_TOL = 1e-10

# The requested tolerance is a bound on acceptable error in the recorded
# matrices, so the integrator itself runs tighter than that.
_INTERNAL_TOL_FACTOR = 50.0
_RTOL_FLOOR = 3e-14


@dataclass(frozen=True)
class HamiltonianFamily:
    """A parametrized Hamiltonian H(lam, t) together with dH/dlam.

    `evaluate` and `evaluate_dlambda` must return Hermitian (dim, dim)
    arrays for every queried (lam, t).
    """

    dim: int
    evaluate: Callable[[float, float], np.ndarray]
    evaluate_dlambda: Callable[[float, float], np.ndarray]


@dataclass(frozen=True)
class PropagationRecord:
    """Propagators and local generators sampled along a time grid.

    U[k] is the propagator from 0 to times[k]; h[k] the generator at the
    same instant.  tol is the error target the integration was run at:
    each U is unitary, and each h Hermitian, to within 10*tol.
    """

    lam: float
    times: np.ndarray
    U: np.ndarray  # shape (n_times, dim, dim)
    h: np.ndarray  # shape (n_times, dim, dim)
    tol: float


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise DomainError("times must be a non-empty 1-d grid")
    if times[0] != 0.0:
        raise DomainError("times must start at 0")
    if not np.all(np.isfinite(times)):
        raise DomainError("times must be finite")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise DomainError("times must be strictly ascending")
    return times


def check_tol(tol: float) -> float:
    """`tol` itself once it is a valid error target, in [TOL_MIN, TOL_MAX]."""
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"tol {tol:g} outside [{TOL_MIN:g}, {TOL_MAX:g}]")
    return tol


def grid_to(t: float) -> np.ndarray:
    """The time grid (0, t), or (0,) at t = 0; DomainError unless t is finite and >= 0."""
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return np.array([0.0, float(t)]) if t > 0 else np.array([0.0])


def integrate(hamiltonian: Callable[[float], np.ndarray], dim: int, times, tol: float,
              dhamiltonian: Callable[[float], np.ndarray] | None = None
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """U and, given `dhamiltonian`, its tangent W on `times`, each (len(times), dim, dim).

    H need not be Hermitian; W is None without `dhamiltonian`.  A two-point
    grid (0, t) is read off the last step itself, not its interpolant.
    """
    times = _check_times(times)
    inner = max(check_tol(tol) / _INTERNAL_TOL_FACTOR, _RTOL_FLOOR)  # solver rtol = atol
    width = dim if dhamiltonian is None else 2 * dim  # state columns: U, or U | W

    def rhs(t, y):
        uw = y.reshape(dim, width)
        d = (-1j * hamiltonian(t)) @ uw
        if dhamiltonian is not None:
            d[:, dim:] -= 1j * (dhamiltonian(t) @ uw[:, :dim])
        return d.ravel()

    y0 = np.zeros((dim, width), dtype=complex)
    y0[:, :dim] = np.eye(dim)
    if times[-1] == 0.0:
        y = y0[np.newaxis]
    else:
        t_eval = times if times.size > 2 else None
        sol = solve_ivp(rhs, (0.0, float(times[-1])), y0.ravel(), method="RK45",
                        t_eval=t_eval, rtol=inner, atol=inner)
        if not sol.success:
            raise PropagationError(f"integration failed: {sol.message}")
        y = (sol.y if t_eval is not None else sol.y[:, [0, -1]]).T.reshape(-1, dim, width)
    return y[:, :, :dim], (y[:, :, dim:] if dhamiltonian is not None else None)


def _checked(evaluate: Callable[[float, float], np.ndarray], lam: float) -> Callable[[float], np.ndarray]:
    """t -> evaluate(lam, t) as a complex array, rejecting a non-finite evaluation."""
    def at(t: float) -> np.ndarray:
        m = np.asarray(evaluate(lam, t), dtype=complex)
        if not np.all(np.isfinite(m)):
            raise PropagationError(f"non-finite Hamiltonian evaluation at t={t:g}")
        return m
    return at


def propagate(family: HamiltonianFamily, lam: float, times, tol: float = DEFAULT_TOL) -> PropagationRecord:
    """U and h, the Hermitian part of i U† W, for one parameter value over a time grid."""
    u, w = integrate(_checked(family.evaluate, lam), family.dim, times, tol,
                     dhamiltonian=_checked(family.evaluate_dlambda, lam))
    h = 1j * np.swapaxes(u.conj(), 1, 2) @ w
    h = (h + np.swapaxes(h.conj(), 1, 2)) / 2.0
    return PropagationRecord(lam=float(lam), times=np.asarray(times, dtype=float), U=u, h=h,
                             tol=float(tol))


def propagator_at(family: HamiltonianFamily, lam: float, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Convenience: U(0->t) only."""
    return integrate(_checked(family.evaluate, lam), family.dim, grid_to(t), tol)[0][-1]


def generator_finite_difference(family: HamiltonianFamily, lam: float, t: float,
                                dlam: float = 1e-4, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Local generator via i U(lam)† [U(lam+d) - U(lam-d)] / (2d).

    A direct discretization of h = i U† dU/dlam, independent of the
    augmented-ODE route; agrees with it to O(dlam²) + O(tol).  The result
    is symmetrized by (A + A†)/2.
    """
    if dlam <= 0:
        raise DomainError("dlam must be positive")
    u0 = propagator_at(family, lam, t, tol=tol)
    up = propagator_at(family, lam + dlam, t, tol=tol)
    um = propagator_at(family, lam - dlam, t, tol=tol)
    h = 1j * u0.conj().T @ (up - um) / (2.0 * dlam)
    return (h + h.conj().T) / 2.0


def richardson(quotient: Callable[[float], float], h: float) -> float:
    """One Richardson step (4 q(h/2) - q(h))/3 on a difference quotient q(h).

    Cancels the O(h²) truncation term of a central or second difference;
    q(h/2) is evaluated first.
    """
    return (4.0 * quotient(h / 2.0) - quotient(h)) / 3.0

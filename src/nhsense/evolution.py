"""Time-ordered propagation with simultaneous integration of the parameter tangent.

The coupled system

    dU/dt = -i H(lam, t) U,                          U(0) = 1
    dW/dt = -i H(lam, t) W - i (dH/dlam)(lam, t) U,   W(0) = 0

is integrated as one complex state with the Dormand-Prince 5(4) pair, so
the propagator and its tangent W = dU/dlam see identical time
discretization.  `integrate`, the one propagation core of both sensors,
takes a `HamiltonianFamily` and advances a batch of such systems at once,
one per lam and interval (t_k, t_k+1) of the time grid, each run from the
identity with H at t_k + s, and chains the record U_k+1 = P_k U_k, W_k+1 =
P_k W_k + W_piece,k U_k, exact for the linear equation; the family evaluates
the whole batch in one call, each stack checked by `evaluate_stack`.  Each
member keeps its own time, step and accept/reject decision, so its result
does not depend on the rest of the batch.  The step control is scipy's
RK45, after Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4: the same
steps, and propagators that agree with `solve_ivp(method="RK45")` over each
interval to 1e-13.  A 2-dim family's stage and chain products are batch-wide
multiply-adds (`_product`), larger ones a stacked matmul.  For a Hermitian
family, `propagate` records the local generator h = i U† dU/dlam as the
Hermitian part of i U† W.  No unitarity re-projection is applied;
integration error is tracked, not hidden.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, PropagationError

TOL_MIN = 1e-13
TOL_MAX = 1e-6
DEFAULT_TOL = 1e-10

# A rate times the span of one propagation (J T, omega_delta T, Omega tau) above this, about
# 1,600 turns, is out of the domain: the RK steps grow with it, and unbounded they never end.
MAX_PERIOD_PHASE = 1e4

# The requested tolerance is a bound on acceptable error in the recorded
# matrices, so the integrator itself runs tighter than that.
_INTERNAL_TOL_FACTOR = 50.0
_RTOL_FLOOR = 3e-14

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980).
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0  # step-size controller

@dataclass(frozen=True)
class HamiltonianFamily:
    """A parametrized Hamiltonian H(lam, t) together with dH/dlam.

    `evaluate` and `evaluate_dlambda` take equally long 1-d arrays lam and t
    and return the (k, dim, dim) stack whose entry j is the matrix at
    (lam[j], t[j]), Hermitian but for the EP sensor's H.  A family over member
    indices (`pt_ep`, `verification.family_stack`) casts lam to np.intp.
    """

    dim: int
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    evaluate_dlambda: Callable[[np.ndarray, np.ndarray], np.ndarray]


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
    check_finite("times", times)
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise DomainError("times must be strictly ascending")
    return times


def check_tol(tol: float) -> float:
    """`tol` itself once it is a valid error target, in [TOL_MIN, TOL_MAX]."""
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise DomainError(f"tol {tol:g} outside [{TOL_MIN:g}, {TOL_MAX:g}]")
    return tol


def check_time(t: float) -> float:
    """`t` itself once it is a valid end time, finite and >= 0; DomainError naming t otherwise."""
    if not (np.isfinite(t) and t >= 0):
        raise DomainError(f"t must be finite and >= 0, got {t}")
    return t


def grid_to(t: float) -> np.ndarray:
    """The time grid (0, t), or (0,) at t = 0; DomainError unless t is finite and >= 0."""
    return np.array([0.0, float(t)]) if check_time(t) > 0 else np.array([0.0])


def _rms(x: np.ndarray) -> np.ndarray:
    """RMS norm of each row, each summed as np.linalg.norm sums a single vector."""
    re, im = x.real, x.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)) / x.shape[1] ** 0.5


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e by the C library's pow, which numpy's vectorized power may miss by an ulp; 0 ** -e = inf."""
    return np.array([v ** e if v or e > 0 else math.inf for v in x.tolist()])


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # _dopri rejects a non-finite step
def _initial_step(linear, members, y0, f0, t_end: np.ndarray, tol: float) -> np.ndarray:
    """Hairer-Norsett-Wanner II.4 first step of each member, for rtol = atol = tol."""
    scale = tol + np.abs(y0) * tol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.minimum(np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1)), t_end)
    f1 = linear(h0[:, None], members)(0, y0 + h0[:, None] * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  _pow(0.01 / np.where(flat, 1.0, np.maximum(d1, d2)), 1 / 5))
    return np.minimum(np.minimum(100 * h0, h1), t_end)


def _dopri(linear, y0: np.ndarray, t_end: np.ndarray, tol: float) -> np.ndarray:
    """End states (B, n) of dy/dt = M(t) y, member j run from y0[j] at 0 to t_end[j] > 0, rtol = atol = tol.

    `linear(t, members)` gets times (m, k) of the m running members and
    returns apply(j, y): the derivatives (m, n) of their states y (m, n) at
    times t[:, j].  It is called once per step attempt, at the five stage
    times; the last, t + h, is also where the step ends.
    """
    batch, n = y0.shape
    out = np.empty((batch, n), dtype=complex)
    members, t, y = np.arange(batch), np.zeros(batch), y0.copy()
    f = linear(t[:, None], members)(0, y)
    h_abs = _initial_step(linear, members, y, f, t_end, tol)
    if not np.isfinite(h_abs).all():
        raise PropagationError("integration failed: the initial step size is not finite")
    rejected = np.zeros(batch, dtype=bool)  # the last attempt at this step was rejected
    stages = np.empty((batch, 7, n), dtype=complex)
    while members.size:
        k = stages[:members.size]
        min_step = 10 * np.spacing(t)  # 10 ulp of t
        too_small = h_abs < min_step
        if np.count_nonzero(too_small):
            if np.count_nonzero(too_small & rejected):
                raise PropagationError("integration failed: step size fell below 10 ulp of t")
            h_abs = np.maximum(h_abs, min_step)
        t_new = np.minimum(t + h_abs, t_end)
        h = t_new - t
        hc = h[:, None]
        apply = linear(t[:, None] + hc * _C[1:], members)
        k[:, 0] = f
        for s in range(1, 6):
            k[:, s] = apply(s - 1, y + (_A[s, :s] @ k[:, :s]) * hc)
        y_new = y + hc * (_B @ k[:, :6])
        f_new = k[:, 6] = apply(4, y_new)  # a new array, not a view of k
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        err = _rms((_E @ k) * hc / scale)
        grow = _SAFETY * _pow(err, -1 / 5)
        ok = err < 1
        if np.count_nonzero(ok) == ok.size and not np.count_nonzero(rejected):
            h_abs, t, y, f = h * np.minimum(_MAX_FACTOR, grow), t_new, y_new, f_new
        else:
            factor = np.where(ok, np.minimum(_MAX_FACTOR, grow),
                              np.where(grow > _MIN_FACTOR, grow, _MIN_FACTOR))
            h_abs = h * np.where(ok & rejected, np.minimum(1.0, factor), factor)
            t, rejected = np.where(ok, t_new, t), ~ok
            y[ok], f[ok] = y_new[ok], f_new[ok]
        done = t == t_end
        if np.count_nonzero(done):
            out[members[done]] = y[done]
            keep = ~done
            members, t, t_end, y, f, h_abs, rejected = (
                a[keep] for a in (members, t, t_end, y, f, h_abs, rejected))
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stacked product a @ b of (m, n, n) and (m, n, w), for n = 2 as a sum over the inner index.

    numpy's stacked matmul costs about 0.4 us per member per call; on a
    2-core x86 machine (400,2,2) @ (400,2,2) takes 154-170 us, the two
    batch-wide multiply-adds 39-42 us.  For n >= 3 at the 1-36 members of
    verify's batches the sum is 1.5-3x slower, (12,4,4) @ (12,4,8) 14-24 us
    against 7.7-9.8 us, so `@` stays there.  Either way each member's result
    depends on its own entries alone, not on m.
    """
    if a.shape[-1] != 2:
        return a @ b
    out = a[:, :, :1] * b[:, None, 0]
    out += a[:, :, 1:] * b[:, None, 1]
    return out


def integrate(family: HamiltonianFamily, lams, times, tol: float,
              tangent: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """U and, with `tangent`, W = dU/dlam on `times` under `family`, for each of `lams`.

    Each is (len(lams), len(times), dim, dim); W is None without `tangent`.  H need not be
    Hermitian; every stack of H and dH/dlam passes `evaluate_stack`.  Each grid interval
    (t_k, t_k+1) of each lam is one batch member, run from U = 1, W = 0 with H at t_k + s;
    U and W at t_k+1 are chained from the members in order.
    """
    lams = check_finite("lam", lams)
    times = _check_times(times)
    inner = max(check_tol(tol) / _INTERNAL_TOL_FACTOR, _RTOL_FLOOR)  # solver rtol = atol
    dim = family.dim
    width = 2 * dim if tangent else dim  # state columns: U | W, or U
    steps = times.size - 1  # grid intervals, one member each per lam
    ends = np.tile(np.diff(times), lams.size)

    def linear(t, members):
        m, k = t.shape
        at = (lams[np.repeat(members // steps, k)], (t + times[members % steps, None]).ravel())
        gen = (-1j * evaluate_stack(family.evaluate, dim, *at)).reshape(m, k, dim, dim)
        dh = evaluate_stack(family.evaluate_dlambda, dim, *at).reshape(m, k, dim, dim) if tangent else None

        def apply(j, y):
            uw = y.reshape(m, dim, width)
            d = _product(gen[:, j], uw)
            if tangent:
                d[:, :, dim:] -= 1j * _product(dh[:, j], uw[:, :, :dim])
            return d.reshape(m, -1)
        return apply

    y = np.tile(np.eye(dim, width, dtype=complex), (lams.size, times.size, 1, 1))  # U = 1, W = 0
    if ends.size:
        y[:, 1:] = _dopri(linear, y[:, 1:].reshape(ends.size, -1), ends, inner).reshape(y[:, 1:].shape)
    for k in range(2, times.size):  # chain interval k-1's [P | W_piece] onto [U | W] at t_{k-1}
        piece, prev = y[:, k], y[:, k - 1]
        chained = _product(piece[..., :dim], prev)  # [P U | P W]
        if tangent:
            chained[..., dim:] += _product(piece[..., dim:], prev[..., :dim])  # + W_piece U
        y[:, k] = chained
    return y[..., :dim], (y[..., dim:] if tangent else None)


def check_finite(name: str, values) -> np.ndarray:
    """`values` as a 1-d float array once it is non-empty and finite; DomainError naming `name` otherwise."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.size == 0:
        raise DomainError(f"{name} must be non-empty")
    bad = ~np.isfinite(values)
    if bad.any():
        raise DomainError(f"{name} must be finite, got {values[bad][0]}")
    return values


def evaluate_stack(evaluate: Callable, dim: int, lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """evaluate(lam, t) as a complex (t.size, dim, dim) stack; DomainError for another shape,
    PropagationError naming the first time of a non-finite member."""
    m = np.asarray(evaluate(lam, t), dtype=complex)
    if m.shape != (t.size, dim, dim):
        raise DomainError(f"a family callable must return a {(t.size, dim, dim)} stack, got {m.shape}")
    if not np.isfinite(m).all():
        bad = ~np.isfinite(m).all(axis=(1, 2))
        raise PropagationError(f"non-finite Hamiltonian evaluation at t={t[bad][0]:g}")
    return m


def generators(family: HamiltonianFamily, lams, times, tol: float = DEFAULT_TOL
               ) -> tuple[np.ndarray, np.ndarray]:
    """U and h, the Hermitian part of i U† W, (len(lams), len(times), dim, dim) each, as one batch."""
    u, w = integrate(family, lams, times, tol, tangent=True)
    h = 1j * np.swapaxes(u.conj(), -1, -2) @ w
    return u, (h + np.swapaxes(h.conj(), -1, -2)) / 2.0


def propagate(family: HamiltonianFamily, lam: float, times, tol: float = DEFAULT_TOL) -> PropagationRecord:
    """U and h, the Hermitian part of i U† W, for one parameter value over a time grid."""
    [u], [h] = generators(family, [lam], times, tol)
    return PropagationRecord(lam=float(lam), times=np.asarray(times, dtype=float), U=u, h=h, tol=float(tol))


def propagators(family: HamiltonianFamily, lams, t, tol: float = DEFAULT_TOL) -> np.ndarray:
    """U(0->t) alone for each lam, as one batch: (len(lams), dim, dim); t is an end time or a grid to it."""
    times = grid_to(t) if np.ndim(t) == 0 else t
    return integrate(family, lams, times, tol)[0][:, -1]


def check_step(dlam: float) -> float:
    """`dlam` itself once it is a finite and positive difference step; DomainError naming dlam otherwise."""
    if not (math.isfinite(dlam) and dlam > 0):
        raise DomainError(f"dlam must be finite and positive, got {dlam}")
    return dlam


def richardson(quotient: Callable[[float], float], h: float) -> float:
    """One Richardson step (4 q(h/2) - q(h))/3 on a difference quotient q(h).

    Cancels the O(h²) truncation term of a central or second difference;
    q(h/2) is evaluated first.
    """
    return (4.0 * quotient(h / 2.0) - quotient(h)) / 3.0

"""Time-ordered propagation with simultaneous integration of the parameter tangent.

The coupled system

    dU/dt = -i H(lam, t) U,                          U(0) = 1
    dW/dt = -i H(lam, t) W - i (dH/dlam)(lam, t) U,   W(0) = 0

is integrated as one complex state with the Dormand-Prince 8(5,3) method,
so the propagator and its tangent W = dU/dlam see identical time
discretization.  `integrate`, the one propagation core of both sensors,
takes a `HamiltonianFamily` and advances a batch of such systems at once,
one per lam and interval (t_k, t_k+1) of the time grid, each run from the
identity with H at t_k + s, and chains the record U_k+1 = P_k U_k, W_k+1 =
P_k W_k + W_piece,k U_k, exact for the linear equation; the family evaluates
the whole batch in one call, each stack checked by `evaluate_stack`.  Each
member keeps its own time, step and accept/reject decision, so its result
does not depend on the rest of the batch.  The method and step control are
scipy's DOP853, after Hairer, Norsett & Wanner, Solving ODEs I, secs. II.4
and II.10: the same steps, and propagators that agree with
`solve_ivp(method="DOP853")` over each interval to 1e-13.  A member whose
span s is 2 or more carries its tangent in units of u = 2^floor(log2 s),
W / u, which keeps it of the size of U; the scalings by u are exact.  Every
stage, solution and error sum is an elementwise sum over the stage axis, and
a 2-dim family's stage and chain products are batch-wide multiply-adds
(`_product`), larger ones a stacked matmul; so the EP sensor's floats depend
on no BLAS kernel.  For a Hermitian
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

# A rate times the span of one propagation (J T, omega_delta T) above this, about
# 1,600 turns, is out of the domain: the RK steps grow with it, and unbounded they never end.
MAX_PERIOD_PHASE = 1e4

# The requested tolerance is a bound on acceptable error in the recorded
# matrices, so the integrator itself runs tighter than that.
_INTERNAL_TOL_FACTOR = 50.0
_RTOL_FLOOR = 3e-14

# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10), with the
# coefficients of Hairer's DOP853: stage times _C, the weights _A[s] of stages 0..s-1 in
# stage s, the solution weights _B, and the fifth- and third-order error weights _E5, _E3.
_C = np.array([
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0])
_A = [np.array(row)[:, None, None] for row in (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1))]
_B = np.array([
    5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])[:, None, None]
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1])[:, None, None]
_E3 = _B - np.array([
    0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0, 0.733846688281611857341361741547, 0, 0,
    0.220588235294117647058823529412e-1])[:, None, None]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0  # step-size controller

@dataclass(frozen=True)
class HamiltonianFamily:
    """A parametrized Hamiltonian H(lam, t) together with dH/dlam.

    `evaluate` and `evaluate_dlambda` take arrays lam and t that broadcast
    together and return the matrices at their broadcast pairs: a stack of shape
    np.broadcast_shapes(lam.shape, t.shape) + (dim, dim), which may be a
    read-only view, Hermitian but for the EP sensor's H.  `integrate` passes
    one lam per member, (m, 1), against its stage times, (m, k).  A family over
    member indices (`pt_ep`, `verification.family_stack`) casts lam to np.intp.
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


def _sumsq(x: np.ndarray) -> np.ndarray:
    """Sum of |x|² over each row of a contiguous complex (m, n) array, by numpy's own sum, not BLAS."""
    r = x.view(float)
    return (r * r).sum(1)


def _rms(x: np.ndarray) -> np.ndarray:
    """RMS norm of each row."""
    return np.sqrt(_sumsq(x)) / x.shape[1] ** 0.5


def _weighted(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The stage sum sum_s w[s] k[s] of real stages k (s, m, 2n), as complex (m, n).

    An elementwise product and a sum over the stage axis: each entry's floats
    depend on its own stages alone, on no BLAS kernel and no batch size.
    """
    return (w * k).sum(0).view(complex)


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e by the C library's pow, which numpy's vectorized power may miss by an ulp; 0 ** -e = inf."""
    return np.array([v ** e if v or e > 0 else math.inf for v in x.tolist()])


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # _dopri rejects a non-finite step
def _initial_step(linear, members, y0, f0, t_end: np.ndarray, tol: float) -> np.ndarray:
    """Hairer-Norsett-Wanner II.4 first step of each member for an eighth-order method, rtol = atol = tol."""
    scale = tol + np.abs(y0) * tol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.minimum(np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1)), t_end)
    f1 = linear(h0[:, None], members)(0, y0 + h0[:, None] * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  _pow(0.01 / np.where(flat, 1.0, np.maximum(d1, d2)), 1 / 8))
    return np.minimum(np.minimum(100 * h0, h1), t_end)


def _dopri(linear, y0: np.ndarray, t_end: np.ndarray, tol: float) -> np.ndarray:
    """End states (B, n) of dy/dt = M(t) y, member j run from y0[j] at 0 to t_end[j] > 0, rtol = atol = tol.

    `linear(t, members)` gets times (m, k) of the m running members and
    returns apply(j, y): the derivatives (m, n) of their states y (m, n) at
    times t[:, j].  It is called once per step attempt, at the eleven stage
    times; the last, t + h, is also where the step ends.  The error norm is
    DOP853's: |h| |e5|² / sqrt(n (|e5|² + 0.01 |e3|²)) from the fifth- and
    third-order estimates e5, e3, each scaled by tol (1 + |y|).
    """
    batch, n = y0.shape
    out = np.empty((batch, n), dtype=complex)
    members, t, y = np.arange(batch), np.zeros(batch), y0.copy()
    f = linear(t[:, None], members)(0, y)
    h_abs = _initial_step(linear, members, y, f, t_end, tol)
    if not np.isfinite(h_abs).all():
        raise PropagationError("integration failed: the initial step size is not finite")
    rejected = np.zeros(batch, dtype=bool)  # the last attempt at this step was rejected
    stages = np.empty((_B.size, batch, 2 * n))  # real views of the complex stages
    while members.size:
        k = stages[:, :members.size]
        min_step = 10 * np.spacing(t)  # 10 ulp of t
        too_small = h_abs < min_step
        if np.count_nonzero(too_small):
            if np.count_nonzero(too_small & rejected):
                raise PropagationError("integration failed: step size fell below 10 ulp of t")
            h_abs = np.maximum(h_abs, min_step)
        t_new = np.minimum(t + h_abs, t_end)
        h = t_new - t
        hc = h[:, None]
        apply = linear(t[:, None] + hc * _C, members)
        k[0] = f.view(float)
        for s in range(1, _B.size):
            k[s] = apply(s - 1, y + _weighted(_A[s], k[:s]) * hc).view(float)
        y_new = y + hc * _weighted(_B, k)
        f_new = apply(_C.size - 1, y_new)
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        e5, e3 = (_sumsq(_weighted(e, k) / scale) for e in (_E5, _E3))
        denom = e5 + 0.01 * e3  # 0 only where both estimates vanish, and then the error is 0
        err = h * e5 / np.sqrt(np.where(denom > 0, denom, 1.0) * n)
        grow = _SAFETY * _pow(err, -1 / 8)
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
    U and W at t_k+1 are chained from the members in order.  A member of span s >= 2 integrates
    its tangent in units of u = 2^floor(log2 s), with dH/dlam / u, and W = u times the result:
    both scalings are exact, and W / u stays of the size of U.
    """
    lams = check_finite("lam", lams)
    times = _check_times(times)
    inner = max(check_tol(tol) / _INTERNAL_TOL_FACTOR, _RTOL_FLOOR)  # solver rtol = atol
    dim = family.dim
    width = 2 * dim if tangent else dim  # state columns: U | W, or U
    steps = times.size - 1  # grid intervals, one member each per lam
    ends = np.tile(np.diff(times), lams.size)
    units = np.ldexp(1.0, np.maximum(np.frexp(ends)[1] - 1, 0))  # max(1, 2^floor(log2 span))

    def linear(t, members):
        m = t.shape[0]
        at = (lams[members // steps, None], t + times[members % steps, None])  # (m, 1), (m, k)
        gen = -1j * evaluate_stack(family.evaluate, dim, *at)
        if tangent:
            # a new array: the family's stack may be read-only
            dh = evaluate_stack(family.evaluate_dlambda, dim, *at) / units[members, None, None, None]

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
        y[:, 1:, :, dim:] *= units.reshape(lams.size, steps, 1, 1)
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


def check_scalar(name: str, value: float) -> float:
    """`value` itself once it is a finite real number; DomainError naming `name` otherwise."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def evaluate_stack(evaluate: Callable, dim: int, lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """evaluate(lam, t) as a complex stack of shape np.broadcast_shapes(lam.shape, t.shape) +
    (dim, dim); DomainError for another shape, PropagationError naming the time of the first
    non-finite matrix in row-major order, member-major for the core's (m, k) times."""
    shape = np.broadcast_shapes(lam.shape, t.shape)
    m = np.asarray(evaluate(lam, t), dtype=complex)
    if m.shape != shape + (dim, dim):
        raise DomainError(f"a family callable must return a {shape + (dim, dim)} stack, got {m.shape}")
    bad = ~np.isfinite(m).all(axis=(-2, -1))
    if bad.any():
        raise PropagationError(f"non-finite Hamiltonian evaluation at t={np.broadcast_to(t, shape)[bad][0]:g}")
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


def check_step(step: float, name: str = "dlam") -> float:
    """`step` itself once it is a finite and positive difference step; DomainError naming `name` otherwise."""
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"{name} must be finite and positive, got {step}")
    return step


def richardson(quotient: Callable[[float], float], h: float) -> float:
    """One Richardson step (4 q(h/2) - q(h))/3 on a difference quotient q(h).

    Cancels the O(h²) truncation term of a central or second difference;
    q(h/2) is evaluated first.
    """
    return (4.0 * quotient(h / 2.0) - quotient(h)) / 3.0

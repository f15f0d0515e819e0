"""Time-ordered propagation with simultaneous integration of the parameter tangent.

The coupled system

    dU/dt = -i H(lam, t) U,                          U(0) = 1
    dW/dt = -i H(lam, t) W - i (dH/dlam)(lam, t) U,   W(0) = 0

is integrated as one complex state with the Dormand-Prince 8(5,3) method,
so the propagator and its tangent W = dU/dlam see identical time
discretization.  `integrate`, the time-stepping core of the EP sensor's
tangent periods and the QFI toolbox's time-dependent families (the dilated
sensor's H is constant, so it takes `operators.spectral_generator` instead),
takes a `HamiltonianFamily` and advances a batch of such systems at once,
one per lam and interval (t_k, t_k+1) of the time grid, each run from the
identity with H at t_k + s, and chains the record U_k+1 = P_k U_k, W_k+1 =
P_k W_k + W_piece,k U_k, exact for the linear equation; the family evaluates
the whole batch in one call, each stack checked by `evaluate_stack`.  Each
member keeps its own time, step and accept/reject decision, so its result
does not depend on the rest of the batch.  A batch costs mostly what its
serial step attempts cost, each about 150 numpy calls over the whole batch,
whose time grows slowly with the members; so cutting a span into intervals
trades attempts for members: each EP tangent period is cut into four
(`pt_ep._PIECES`), so `verify`'s 8 periods are 32 members that take 11
attempts, and the default scan's 80, 320 members, take 9.  The method and
step control are scipy's DOP853, after Hairer, Norsett & Wanner, Solving
ODEs I, secs. II.4 and II.10: the same steps, and propagators that agree
with `solve_ivp(method="DOP853")` over each interval to 1e-13.  A member
whose span s is 2 or more carries its tangent in units of u =
2^floor(log2 s), W / u, which keeps it of the size of U; the scalings by u
are exact.  The batch is held entries-first: states, stages and products
are (d, w, m), the member axis last and contiguous, so each numpy call runs
one inner loop over the whole batch.  Every stage, solution and error sum
is one `einsum` over the stage axis, entry by entry, and every stage,
chain and Magnus product is one broadcast multiply and one sum over the
inner index (`_product`), for any dim; so no family's propagation depends
on a BLAS kernel.  For a Hermitian family, `propagate` records the local
generator h = i U† dU/dlam as the Hermitian part of i U† W.  No unitarity
re-projection is applied; integration error is tracked, not hidden.

`magnus_propagators` is a second route, for U alone of a 2-dim family; the
EP sensor's U-only periods (`pt_ep`'s root searches and `propagate_period`)
take it.  Its sixth-order Magnus steps (Blanes, Casas & Ros, BIT 40, 434
(2000)) depend on H at their own three Gauss-Legendre nodes, not on the
state, so a chunk of steps of every member is one `evaluate_stack` call,
one vectorized computation with the closed-form 2x2 exponential and a
pairwise tree of `_product`s: one period at 256 steps took about 0.3 ms on
a 2-core x86 machine, against 1.3 ms for this core on 16 chained pieces of
it.  A member's step count n is a power of two: from 128, n doubles until
|U_n - U_n/2| / 63 <= max(tol/50, 3e-14) max(1, |U_n|), and a caller may
pass on a count it has checked.  A chunk holds at most 2,048 member-steps,
so memory stays flat up to MAX_PERIOD_PHASE, and chunking moves no float.
The exponent of -iH has an imaginary trace where tr H is real, so there
|det U| = 1 up to rounding.  The tangent solves stay on the DOP853 core,
where a Magnus route was measured break-even or slower at equal accuracy
(the 80-row EP scan batch: 30.1 ms at 256 steps against 21.7 ms for this
core with each period one member, and about 16 ms with each period four).
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
    """Sum of |x|² over each member of an entries-first complex (..., n, m) array: (..., m).

    The rows are made member-major first, so numpy's own pairwise sum, not BLAS, runs over
    each member's n entries in their order, whatever the batch.
    """
    r = np.ascontiguousarray(np.swapaxes(x, -1, -2)).view(float)
    return (r * r).sum(-1)


def _rms(x: np.ndarray) -> np.ndarray:
    """RMS norm of each member of an entries-first (n, m) array."""
    return np.sqrt(_sumsq(x)) / x.shape[-2] ** 0.5


def _weighted(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum_s w[s] k[s] of a weight row w (s, 1, 1) and real stage views k (s, n, 2m), as complex (n, m).

    One `einsum` contraction over the stage axis in numpy's own C loop (never `optimize`,
    which routes through `tensordot` and BLAS): each entry's floats depend on its own stages
    alone, on no BLAS kernel and no batch size.
    """
    return np.einsum("s,s...->...", w.reshape(-1), k).view(complex)


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
    f1 = linear(h0[:, None], members)(0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  _pow(0.01 / np.where(flat, 1.0, np.maximum(d1, d2)), 1 / 8))
    return np.minimum(np.minimum(100 * h0, h1), t_end)


def _dopri(linear, y0: np.ndarray, t_end: np.ndarray, tol: float) -> np.ndarray:
    """End states (n, B) of dy/dt = M(t) y, member j run from y0[:, j] at 0 to t_end[j] > 0, rtol = atol = tol.

    States are entries-first, (n, m) with the member axis last.  `linear(t, members)` gets
    times (m, k) of the m running members and returns apply(j, y, out=None): the derivatives
    (n, m) of their states y (n, m) at times t[:, j], written into `out` if given.  It is
    called once per step attempt, at the eleven stage times; the last, t + h, is also where
    the step ends.  Each stage is written in place in one contiguous stage buffer.  The
    error norm is DOP853's: |h| |e5|² / sqrt(n (|e5|² + 0.01 |e3|²)) from the fifth- and
    third-order estimates e5, e3, each scaled by tol (1 + |y|).
    """
    n, batch = y0.shape
    out = np.empty((n, batch), dtype=complex)
    members, t, y = np.arange(batch), np.zeros(batch), y0.copy()
    f = linear(t[:, None], members)(0, y)
    h_abs = _initial_step(linear, members, y, f, t_end, tol)
    if not np.isfinite(h_abs).all():
        raise PropagationError("integration failed: the initial step size is not finite")
    rejected = np.zeros(batch, dtype=bool)  # the last attempt at this step was rejected
    buffer = np.empty(_B.size * n * batch, dtype=complex)  # the stages of the running members
    while members.size:
        k = buffer[:_B.size * n * members.size].reshape(_B.size, n, members.size)
        kr = k.view(float)
        min_step = 10 * np.spacing(t)  # 10 ulp of t
        too_small = h_abs < min_step
        if np.count_nonzero(too_small):
            if np.count_nonzero(too_small & rejected):
                raise PropagationError("integration failed: step size fell below 10 ulp of t")
            h_abs = np.maximum(h_abs, min_step)
        t_new = np.minimum(t + h_abs, t_end)
        h = t_new - t
        apply = linear(t[:, None] + h[:, None] * _C, members)
        k[0] = f
        for s in range(1, _B.size):
            apply(s - 1, y + _weighted(_A[s], kr[:s]) * h, k[s])
        y_new = y + h * _weighted(_B, kr)
        f_new = apply(_C.size - 1, y_new)
        del apply  # its H and dH/dlam stacks, before `linear` builds the next attempt's
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        e5, e3 = (_sumsq(_weighted(e, kr) / scale) for e in (_E5, _E3))  # the two error estimates
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
            np.copyto(y, y_new, where=ok)
            np.copyto(f, f_new, where=ok)
        done = t == t_end
        if np.count_nonzero(done):
            out[:, members[done]] = y[:, done]
            keep = ~done
            members, t, t_end, h_abs, rejected = (a[keep] for a in (members, t, t_end, h_abs, rejected))
            y, f = y[:, keep], f[:, keep]
    return out


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j a[i, j] b[j, k] of entries-first stacks a (d, d, ...) and b (d, w, ...): (d, w, ...).

    One broadcast multiply and one sum over j, whose axis is never the innermost, so numpy
    adds in the order j = 0 ... d-1 for every member; no BLAS kernel, and each member's
    result depends on its own entries alone, not on the batch.  The inner loops run over the
    trailing (member) axis.  On a 2-core x86 machine 400 members of 2x2 by 2x2 take 10-12 us,
    against 111-153 us for a stacked matmul and 24-29 us for the member-first multiply-adds
    this replaced; 80 of 2x2 by 2x4 6.0-6.5 us against 23-25 and 9.1-9.4 us.  At 4x4 by 4x8
    it is level with the matmul from about 36 members (12 members 7.7-11 us against
    6.0-8.4 us, 144 members 45-49 us against 49-55 us).
    """
    return np.add.reduce(a[:, :, None] * b[None], 1, out=out)


def integrate(family: HamiltonianFamily, lams, times, tol: float,
              tangent: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """U and, with `tangent`, W = dU/dlam on `times` under `family`, for each of `lams`.

    Each is (len(lams), len(times), dim, dim); W is None without `tangent`.  H need not be
    Hermitian; every stack of H and dH/dlam passes `evaluate_stack`.  Each grid interval
    (t_k, t_k+1) of each lam is one batch member, run from U = 1, W = 0 with H at t_k + s;
    U and W at t_k+1 are chained from the members in order.  A member of span s >= 2 integrates
    its tangent in units of u = 2^floor(log2 s), with dH/dlam / u, and W = u times the result:
    both scalings are exact, and W / u stays of the size of U.  The batch is held
    entries-first, the family's member-first stacks transposed once per evaluation.
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
        shape = (t.shape[1], dim, dim, m)
        gen = np.multiply(-1j, evaluate_stack(family.evaluate, dim, *at).transpose(1, 2, 3, 0),
                          out=np.empty(shape, dtype=complex))
        if tangent:
            dh = np.divide(evaluate_stack(family.evaluate_dlambda, dim, *at).transpose(1, 2, 3, 0),
                           units[members], out=np.empty(shape, dtype=complex))

        def apply(j, y, out=None):
            uw = y.reshape(dim, width, m)
            d = _product(gen[j], uw, None if out is None else out.reshape(dim, width, m))
            if tangent:
                d[:, dim:] -= 1j * _product(dh[j], uw[:, :dim])
            return d.reshape(-1, m)
        return apply

    eye = np.eye(dim, width, dtype=complex)  # U = 1, W = 0
    y = np.empty((dim, width, times.size, lams.size), dtype=complex)  # entries, then grid point, then lam
    y[:, :, 0] = eye[..., None]
    if ends.size:
        pieces = _dopri(linear, np.repeat(eye.reshape(-1, 1), ends.size, 1), ends, inner)
        y[:, :, 1:] = pieces.reshape(dim, width, lams.size, steps).swapaxes(2, 3)
        y[:, dim:, 1:] *= units.reshape(lams.size, steps).T
    for k in range(2, times.size):  # chain interval k-1's [P | W_piece] onto [U | W] at t_{k-1}
        piece, prev = y[:, :, k], y[:, :, k - 1]
        chained = _product(piece[:, :dim], prev)  # [P U | P W]
        if tangent:
            chained[:, dim:] += _product(piece[:, dim:], prev[:, :dim])  # + W_piece U
        y[:, :, k] = chained
    y = np.ascontiguousarray(y.transpose(3, 2, 0, 1))
    return y[..., :dim], (y[..., dim:] if tangent else None)


# Sixth-order Magnus steps on the Gauss-Legendre nodes 1/2 -+ sqrt(15)/10 and 1/2 of each step
# (Blanes, Casas & Ros, BIT 40, 434 (2000)).  A member starts at _MAGNUS_N0 steps and doubles
# them until its sixth-order error estimate meets the inner tolerance, up to _MAGNUS_N_MAX.
_GAUSS_NODES = 0.5 + np.array([-0.1, 0.0, 0.1]) * 15.0 ** 0.5
_MAGNUS_N0 = 128
_MAGNUS_N_MAX = 2 ** 18
_MAGNUS_BUDGET = 2048  # member-steps evaluated at once: the memory of a chunk stays flat in n
# cosh q and sinh(q)/q as polynomials in s = q² where |s| <= 1/64, highest power first: the
# first term left out is < 3e-20
_SERIES_MAX = 1.0 / 64.0
_COSH = [1.0 / math.factorial(2 * k) for k in range(5, -1, -1)]
_SINHC = [1.0 / math.factorial(2 * k + 1) for k in range(5, -1, -1)]


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The cross product of (3, ...) stacks over their first axis, without conjugation."""
    return np.stack([x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]])


def _magnus_exponentials(hs: np.ndarray, h: float) -> np.ndarray:
    """exp(Omega6) of each step of length h, from the entries of H at its three nodes, hs (2, 2, 3, ...):
    its entries, (2, 2, ...).

    In Pauli components x = x0 1 + x.sigma, [x.sigma, y.sigma] = 2i (x cross y).sigma, so the
    commutators of BCR 2000's Omega6 = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240, with
    C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1]/60, act on the vector parts alone.  Its
    exponential is e^w0 (cosh q 1 + sinh(q)/q w.sigma) with q² = w.w (Cayley-Hamilton).
    """
    a, b, c, d = hs[0, 0], hs[0, 1], hs[1, 0], hs[1, 1]
    x = np.stack([a + d, b + c, 1j * (b - c), a - d]) * (-0.5j * h)  # -i h H by components
    a1 = x[:, 1]
    a2 = (x[:, 2] - x[:, 0]) * (15.0 ** 0.5 / 3.0)
    a3 = (x[:, 2] - 2.0 * x[:, 1] + x[:, 0]) * (10.0 / 3.0)
    v1, v2, v3 = a1[1:], a2[1:], a3[1:]
    c1 = 2j * _cross(v1, v2)
    c2 = (-2j / 60.0) * _cross(v1, 2.0 * v3 + c1)
    w = v1 + v3 / 12.0 + (2j / 240.0) * _cross(-20.0 * v1 - v3 + c1, v2 + c2)
    s = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
    cosh, sinhc = np.polyval(_COSH, s), np.polyval(_SINHC, s)
    big = np.abs(s) > _SERIES_MAX
    if big.any():
        q = np.sqrt(s[big])
        cosh[big], sinhc[big] = np.cosh(q), np.sinh(q) / q
    phase = np.exp(a1[0] + a3[0] / 12.0)
    cosh *= phase
    sinhc *= phase
    out = np.empty((2, 2) + s.shape, dtype=complex)
    out[0, 0] = cosh + sinhc * w[2]
    out[1, 1] = cosh - sinhc * w[2]
    out[0, 1] = sinhc * (w[0] - 1j * w[1])
    out[1, 0] = sinhc * (w[0] + 1j * w[1])
    return out


def _ordered_product(e: np.ndarray) -> np.ndarray:
    """e[:, :, n-1] ... e[:, :, 1] e[:, :, 0] of an entries-first (2, 2, n, m) stack, n a power of two,
    as a pairwise tree along the step axis: (2, 2, m)."""
    while e.shape[2] > 1:
        pairs = e.reshape(2, 2, -1, 2, e.shape[3])
        e = _product(pairs[:, :, :, 1], pairs[:, :, :, 0])
    return e[:, :, 0]


@np.errstate(over="ignore", invalid="ignore")  # too coarse a step may overflow; the caller checks U
def _magnus(family: HamiltonianFamily, lams: np.ndarray, t: float, n: int) -> np.ndarray:
    """U(0->t) of each of lams by n sixth-order Magnus steps: (len(lams), 2, 2).

    The steps run in chunks of a power of two, at most _MAGNUS_BUDGET member-steps each (one
    step at least); each chunk takes H from one `evaluate_stack` call, transposed once to
    (2, 2, node, step, member), and multiplies its steps by a pairwise tree, and the chunks'
    products enter the same tree, so the floats are those of one chunk of all n steps.
    """
    m = lams.size
    h = t / n
    chunk = min(n, 1 << (max(_MAGNUS_BUDGET // m, 1).bit_length() - 1))  # a power of two
    lam = lams[:, None]
    products = np.empty((2, 2, n // chunk, m), dtype=complex)
    for j in range(n // chunk):
        k = np.arange(j * chunk, (j + 1) * chunk)
        times = ((k[:, None] + _GAUSS_NODES) * h).reshape(1, -1)
        hs = evaluate_stack(family.evaluate, 2, lam, times).reshape(m, chunk, 3, 2, 2)
        hs = np.ascontiguousarray(hs.transpose(3, 4, 2, 1, 0))
        products[:, :, j] = _ordered_product(_magnus_exponentials(hs, h))
    return np.ascontiguousarray(np.moveaxis(_ordered_product(products), -1, 0))


def magnus_propagators(family: HamiltonianFamily, lams, t: float, tol: float,
                       steps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """U(0->t) of a 2-dim family for each of lams, (len(lams), 2, 2), and each member's step count.

    Sixth-order Magnus steps (`_magnus`).  Each member doubles its count n from _MAGNUS_N0
    until |U_n - U_n/2| / 63, the error estimate of U_n, is at most max(tol/50, 3e-14)
    max(1, |U_n|) in the largest entry, and returns U_n; a member's n and floats do not
    depend on the rest of the batch.  Given `steps`, every member takes that many, unchecked.
    `steps` must be a power of two.  A non-finite H raises PropagationError naming its time,
    as does a member that would need more than _MAGNUS_N_MAX steps, or a non-finite U at the
    given `steps`.  A U_n that is not finite fails the check, as a step too coarse for the
    exponent's size can overflow.
    """
    lams = check_finite("lam", lams)
    inner = max(check_tol(tol) / _INTERNAL_TOL_FACTOR, _RTOL_FLOOR)
    check_time(t)
    if family.dim != 2:
        raise DomainError(f"the Magnus route takes a 2-dim family, got dim {family.dim}")
    if steps is not None:
        if not (steps >= 1 and steps & (steps - 1) == 0):
            raise DomainError(f"steps must be a power of two, got {steps}")
        u = _magnus(family, lams, t, steps)
        if not np.isfinite(u).all():
            raise PropagationError(f"integration failed: the propagator at {steps} Magnus steps is not finite")
        return u, np.full(lams.size, steps)
    u, counts = np.empty((lams.size, 2, 2), dtype=complex), np.empty(lams.size, dtype=int)
    running, n = np.arange(lams.size), _MAGNUS_N0
    coarse = _magnus(family, lams, t, n // 2)
    while running.size:
        if n > _MAGNUS_N_MAX:
            raise PropagationError(f"integration failed: the Magnus error check still fails at "
                                   f"{_MAGNUS_N_MAX} steps")
        fine = _magnus(family, lams[running], t, n)
        with np.errstate(invalid="ignore"):  # inf - inf where both are not finite: not done
            err = np.abs(fine - coarse).max(axis=(1, 2)) / 63.0
        done = err <= inner * np.maximum(1.0, np.abs(fine).max(axis=(1, 2)))
        u[running[done]], counts[running[done]] = fine[done], n
        running, coarse, n = running[~done], fine[~done], 2 * n
    return u, counts


def check_finite(name: str, values) -> np.ndarray:
    """`values` as a 1-d float array once it is non-empty and finite; DomainError naming `name` otherwise."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.ndim != 1:
        raise DomainError(f"{name} must be one value or a 1-d stack, got shape {values.shape}")
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
    if not np.isfinite(m).all():
        bad = ~np.isfinite(m).all(axis=(-2, -1))
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
    """`step` itself once it is finite and positive, as a difference step, a root tolerance or a
    period must be; DomainError naming `name` otherwise."""
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"{name} must be finite and positive, got {step}")
    return step


def richardson(quotient: Callable[[float], float], h: float) -> float:
    """One Richardson step (4 q(h/2) - q(h))/3 on a difference quotient q(h).

    Cancels the O(h²) truncation term of a central or second difference;
    q(h/2) is evaluated first.
    """
    return (4.0 * quotient(h / 2.0) - quotient(h)) / 3.0

"""Single-qubit pseudo-Hermitian sensor realized by a dilated two-qubit system.

The non-Hermitian two-level dynamics is simulated exactly by unitary
evolution of an ancilla+system pair with a specific probe state, conditioned
on the ancilla staying in |0>.  This module carries both descriptions (the
effective two-level closed forms and the 4-dim dilation), the projection
noise sensitivity of the population measurement, the closed-form QFI and its
rate, and the sensitivity bound of the Hermitian counterpart.  Both slopes in
lam, of the population S and of P1, are exact closed forms.

`PseudoHermitianParams.lam` is one value or a 1-d stack of them.  Every
closed form of lam then returns one value per member, each with its own
guard (S = 1 and chi = 0 where the denominator underflows, a NaN or +inf
sensitivity at the slope floor).  A lone lam is evaluated as a stack of one
and returned as a Python float, equal to its member of any stack bit for bit.

Basis ordering for the two-qubit space is kron(ancilla, system):
index 0 = |0_a 0_s>, 1 = |0_a 1_s>, 2 = |1_a 0_s>, 3 = |1_a 1_s>.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .evolution import check_finite, check_scalar, check_time
from .noise import check_trials, scaled_binomial_variance
from .operators import ID2, SIGMA_X, SIGMA_Y, expm_hermitian, spectral_generator, tensor
from .qfi import qfi_pure

# Constant two-qubit operators: the two terms of the dilated Hamiltonian
# (I⊗sigma_x is also dH/dlam).
_IX = tensor(ID2, SIGMA_X)
_YY = tensor(SIGMA_Y, SIGMA_Y)
_OMEGA_MAX = float(np.finfo(float).max) ** 0.25  # Omega⁴ is a finite float below it
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
GRADIENT_FLOOR = 1e-12  # `sensitivity` is undefined at |dP1/dlam| below it; `pt_ep._scan_row` tests chi > 0


def _check_epsilon(epsilon: float) -> float:
    """1 + 2 epsilon once epsilon is finite and positive and that sum is a finite float;
    DomainError naming epsilon otherwise."""
    check_scalar("epsilon", epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive (epsilon = 0 coalesces the probe)")
    den = 1.0 + 2.0 * epsilon
    if math.isinf(den):
        raise DomainError(f"epsilon {epsilon:g} too large: 1 + 2 epsilon overflows")
    return den


def _couplings(epsilon: float, omega: float) -> tuple[float, float]:
    """b and c of the dilated Hamiltonian; DomainError unless epsilon is in `_check_epsilon`'s domain,
    omega is finite and positive, b and c are finite and c⁴ is a finite normal float: Omega >= c at
    every lam, so Omega⁴ is a normal float only if c⁴ is."""
    den = _check_epsilon(epsilon)
    check_scalar("omega", omega)
    if omega <= 0:
        raise DomainError("omega must be positive")
    e = epsilon
    b, c = 4.0 * omega * e * (1.0 + e) / den, 2.0 * omega * math.sqrt(e * (1.0 + e)) / den
    # before c**4, which raises OverflowError past _OMEGA_MAX; where e (1 + e) itself overflows,
    # b and c are inf, and epsilon is named below
    if not c < _OMEGA_MAX and math.isfinite(e * (1.0 + e)):
        raise DomainError(f"omega {omega:g} too large at epsilon {epsilon:g}: c = {c:.3g}, "
                          f"whose 4th power overflows")
    if not (math.isfinite(b) and math.isfinite(c)):
        raise DomainError(f"epsilon {epsilon:g} too large at omega {omega:g}: b = {b:.3g} and c = {c:.3g} "
                          f"must be finite")
    if not c**4 >= _TINY:
        raise DomainError(f"omega {omega:g} too small at epsilon {epsilon:g}: c = {c:.3g}, "
                          f"whose 4th power is below the smallest normal float")
    return b, c


@dataclass(frozen=True)
class PseudoHermitianParams:
    """Dilation parameter epsilon, qubit frequency omega, encoded parameter lam: one value or a
    1-d stack of them (kept as a tuple), checked once.  Omega⁴, which `qfi_closed` divides by, must
    be a finite normal float at every member; Omega is largest at the smallest or the largest lam.
    b and c follow from (epsilon, omega); `lams` is lam as a read-only 1-d array."""

    epsilon: float
    omega: float
    lam: float | tuple[float, ...] = 0.0
    b: float = field(init=False, repr=False, compare=False)
    c: float = field(init=False, repr=False, compare=False)
    lams: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in zip("bc", _couplings(self.epsilon, self.omega)):
            object.__setattr__(self, name, value)  # the class is frozen
        lams = np.array(check_finite("lam", self.lam))
        if np.ndim(self.lam) == 1:
            object.__setattr__(self, "lam", tuple(lams.tolist()))  # immutable, so p compares and hashes
        lams.flags.writeable = False
        object.__setattr__(self, "lams", lams)
        ends = lams[[lams.argmin(), lams.argmax()]]
        omegas = np.hypot(ends + self.b, self.c)
        if not (omegas < _OMEGA_MAX).all():
            j = int(np.argmin(omegas < _OMEGA_MAX))
            raise DomainError(f"epsilon {self.epsilon:g} too large at omega {self.omega:g}, lam {ends[j]:g}: "
                              f"Omega = hypot(lam + b, c) = {omegas[j]:.3g}, whose 4th power overflows")

    def given(self, values: np.ndarray):
        """Per-member values as lam was given: the array for a stack, its one member for a lone
        lam (a Python float if the members are numbers)."""
        if isinstance(self.lam, tuple):
            return values
        return float(values[0]) if values.ndim == 1 else values[0]

    @property
    def tau(self) -> float:
        """Protocol time pi/(4 omega sqrt(eps(1+eps))), a quarter period at lam=0."""
        return math.pi / (4.0 * self.omega * math.sqrt(self.epsilon * (1.0 + self.epsilon)))


def _splitting(p: PseudoHermitianParams) -> tuple[np.ndarray, np.ndarray]:
    """lam + b and the level splitting Omega = hypot(lam + b, c) of each decoupled block, per member
    of p.lams."""
    lb = p.lams + p.b
    return lb, np.hypot(lb, p.c)


def _asymmetry(p: PseudoHermitianParams, om: np.ndarray) -> np.ndarray:
    """delta_lam = (lam + 2 eps omega)/Omega of the effective two-level model, per member, given Omega."""
    return (p.lams + 2.0 * p.epsilon * p.omega) / om


@dataclass(frozen=True)
class SweepRow:
    lam: float
    S: float
    chi: float
    P1: float
    dP1_dlam: float
    sensitivity: float
    qfi_closed: float
    qfi_numeric: float
    rate_closed: float
    hermitian_bound: float


def _hamiltonians(p: PseudoHermitianParams) -> np.ndarray:
    return (p.b + p.lams)[:, None, None] * _IX - p.c * _YY


def dilated_hamiltonian(p: PseudoHermitianParams) -> np.ndarray:
    """The dilated two-qubit Hamiltonian (b + lam) I⊗sigma_x - c sigma_y⊗sigma_y at p.lam, a stack for
    a stack."""
    return p.given(_hamiltonians(p))


def probe_state(epsilon: float) -> np.ndarray:
    """Probe (sqrt((1+e)/(1+2e))|0>_a + sqrt(e/(1+2e))|1>_a) ⊗ |0>_s; epsilon has the domain of
    `PseudoHermitianParams` (DomainError naming it otherwise)."""
    den = _check_epsilon(epsilon)
    a0 = math.sqrt((1.0 + epsilon) / den)
    a1 = math.sqrt(epsilon / den)
    return np.array([a0, 0.0, a1, 0.0], dtype=complex)


def two_level_population(p: PseudoHermitianParams, t: float):
    """Normalized population S = 1/[1 + delta_lam² tan²(Omega t)] in |0>_s.

    Evaluated as cos²/(cos² + delta² sin²), which extends continuously
    through the tan poles (S -> 0 there for delta_lam != 0, S = 1 when the
    asymmetry vanishes and the state never leaves |0>_s).
    """
    check_time(t)
    _, om = _splitting(p)
    cs, sn = np.cos(om * t), np.sin(om * t)
    num = cs * cs
    den = num + (_asymmetry(p, om) * sn) ** 2
    # below 1e-300, delta_lam == 0 and cos == 0: the population never left |0>_s
    return p.given(np.divide(num, den, out=np.ones_like(den), where=den >= 1e-300))


def _evolved_probe(p: PseudoHermitianParams, t: float) -> np.ndarray:
    """The probe evolved for t under the dilated Hamiltonian, (len(p.lams), 4)."""
    return expm_hermitian(_hamiltonians(p), t) @ probe_state(p.epsilon)


def postselection_success(p: PseudoHermitianParams, t: float):
    """Probability of finding the ancilla in |0>_a after evolving for t."""
    psi = _evolved_probe(p, t)
    return p.given(np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2)


def conditional_population(psi) -> np.ndarray:
    """P(|0_s>) conditioned on the ancilla in |0_a>, for each evolved probe of a (..., 4) stack.

    NaN where the conditioning probability is below 1e-14 (undefined).
    """
    p00, p01 = np.abs(psi[..., 0]) ** 2, np.abs(psi[..., 1]) ** 2
    success = p00 + p01
    return np.divide(p00, success, out=np.full_like(success, np.nan), where=success >= 1e-14)


def conditional_population_from_dilation(p: PseudoHermitianParams, t: float):
    """`conditional_population` of the probe evolved for t by the 4-dim dilation.

    Equals two_level_population up to numerical error (dilation correctness).
    """
    check_time(t)
    return p.given(conditional_population(_evolved_probe(p, t)))


def p1_closed(p: PseudoHermitianParams, t: float):
    """Closed-form probability of |0_a 0_s>: (1+e)/(1+2e) cos²(Omega t)."""
    check_time(t)
    e = p.epsilon
    return p.given((1.0 + e) / (1.0 + 2.0 * e) * np.cos(t * _splitting(p)[1]) ** 2)


def susceptibility(p: PseudoHermitianParams, t: float):
    """chi_s = dS/dlam in closed form, the quotient rule on cos²/(cos² + delta² sin²).

    With x = Omega t, dOmega/dlam = (lam+b)/Omega and
    d delta/dlam = (1 - delta dOmega/dlam)/Omega, it reduces to
    -2 cos sin delta (t delta dOmega/dlam + cos sin d delta/dlam)/den².
    Returns 0 where den underflows; two_level_population holds S = 1 there.
    """
    check_time(t)
    lb, om = _splitting(p)
    d = _asymmetry(p, om)
    cs, sn = np.cos(om * t), np.sin(om * t)
    den = cs * cs + (d * sn) ** 2
    d_om = lb / om
    d_delta = (1.0 - d * d_om) / om
    num = -2.0 * cs * sn * d * (t * d * d_om + cs * sn * d_delta)
    return p.given(np.divide(num, den**2, out=np.zeros_like(den), where=den >= 1e-300))


def p1_slope(p: PseudoHermitianParams, t: float):
    """dP1/dlam = -(1+e)/(1+2e) sin(2 Omega t) t dOmega/dlam, dOmega/dlam = (lam+b)/Omega."""
    check_time(t)
    e, (lb, om) = p.epsilon, _splitting(p)
    return p.given(-(1.0 + e) / (1.0 + 2.0 * e) * np.sin(2.0 * t * om) * t * lb / om)


def sensitivity(p: PseudoHermitianParams, t: float, nu: int):
    """Projection-noise sensitivity sqrt(Var[P1])/|dP1/dlam| of the P1 measurement.

    Var[P1] = P1(1 - P1)/nu, the noise law at c0 = 1.  Returns +inf when the
    slope vanishes but the variance does not, and NaN at exact dip points
    where both vanish (0/0, excluded from minima).
    """
    p1 = np.atleast_1d(p1_closed(p, t))  # one value per member, a lone lam too
    var = scaled_binomial_variance(p1, 1.0, nu)
    slope = np.abs(np.atleast_1d(p1_slope(p, t)))
    flat = np.where(var < GRADIENT_FLOOR**2, np.nan, np.inf)
    return p.given(np.divide(np.sqrt(var), slope, out=flat, where=slope >= GRADIENT_FLOOR))


def qfi_closed(p: PseudoHermitianParams, t: float):
    """Closed-form QFI 4(b+lam)² t²/Omega² + 4 c² sin²(Omega t)/Omega⁴."""
    check_time(t)
    lb, om = _splitting(p)
    return p.given(4.0 * lb**2 * t**2 / om**2 + 4.0 * p.c**2 * np.sin(om * t) ** 2 / om**4)


def qfi_rate_closed(p: PseudoHermitianParams, t: float):
    """Closed-form d sqrt(F)/dt; lies in [-2, 2] and tends to 2 as t -> 0."""
    check_time(t)
    lb, om = _splitting(p)
    cos2 = (lb / om) ** 2
    sin2 = (p.c / om) ** 2
    x = om * t
    num = cos2 + sin2 * np.sinc(2.0 * x / math.pi)
    den = np.sqrt(cos2 + sin2 * np.sinc(x / math.pi) ** 2)
    return p.given(2.0 * num / den)


def qfi_numeric(p: PseudoHermitianParams, t: float):
    """QFI from the spectral generator of the dilated Hamiltonian (`spectral_generator`,
    independent of the closed forms)."""
    _, h = spectral_generator(_hamiltonians(p), _IX, t)
    return p.given(qfi_pure(h, probe_state(p.epsilon)))


def hermitian_bound(t: float, nu: int) -> float:
    """Sensitivity bound 1/(2 sqrt(nu) t) of the Hermitian counterpart."""
    if check_time(t) == 0:
        raise DomainError("t must be positive, got 0")
    check_trials(nu)
    return 1.0 / (2.0 * math.sqrt(nu) * t)


def sweep(epsilon: float, omega: float, lam_grid, nu: int = 1) -> list[SweepRow]:
    """One row per lam at the protocol time t = tau(epsilon, omega).

    tau is always recomputed from (epsilon, omega); rows with an undefined
    sensitivity carry NaN rather than being dropped.  The grid is one lam stack and each
    column is one call on it, each member equal to its lone call.
    """
    check_trials(nu)
    p = PseudoHermitianParams(epsilon, omega, np.atleast_1d(np.asarray(lam_grid, dtype=float)))
    t = p.tau
    columns = (p.lams, two_level_population(p, t), susceptibility(p, t), p1_closed(p, t), p1_slope(p, t),
               sensitivity(p, t, nu), qfi_closed(p, t), qfi_numeric(p, t),
               qfi_rate_closed(p, t), np.full(p.lams.size, hermitian_bound(t, nu)))
    return [SweepRow(*row) for row in zip(*(column.tolist() for column in columns))]

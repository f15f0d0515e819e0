"""Single-qubit pseudo-Hermitian sensor realized by a dilated two-qubit system.

The non-Hermitian two-level dynamics is simulated exactly by unitary
evolution of an ancilla+system pair with a specific probe state, conditioned
on the ancilla staying in |0>.  This module carries both descriptions (the
effective two-level closed forms and the 4-dim dilation), the projection
noise sensitivity of the population measurement, the closed-form QFI and its
rate, and the sensitivity bound of the Hermitian counterpart.  Both slopes in
lam, of the population S and of P1, are exact closed forms.

Basis ordering for the two-qubit space is kron(ancilla, system):
index 0 = |0_a 0_s>, 1 = |0_a 1_s>, 2 = |1_a 0_s>, 3 = |1_a 1_s>.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .evolution import (DEFAULT_TOL, MAX_PERIOD_PHASE, HamiltonianFamily, check_finite, check_time,
                        generators, grid_to, propagate)
from .noise import GRADIENT_FLOOR, binomial_variance, check_trials
from .operators import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, expm_hermitian, tensor
from .qfi import qfi_pure

SWEEP_COLUMNS = ("lam", "S", "chi", "P1", "dP1_dlam", "sensitivity",
                 "qfi_closed", "qfi_numeric", "rate_closed", "hermitian_bound")

# Constant two-qubit operators: the two terms of the dilated Hamiltonian
# (I⊗sigma_x is also dH/dlam) and the ancilla sigma_y eigenprojectors.
_IX = tensor(ID2, SIGMA_X)
_YY = tensor(SIGMA_Y, SIGMA_Y)
_PROJ_UP_Y = 0.5 * (ID2 + SIGMA_Y)
_PROJ_DN_Y = 0.5 * (ID2 - SIGMA_Y)
_OMEGA_MAX = float(np.finfo(float).max) ** 0.25  # Omega⁴ is a finite float below it


def _couplings(epsilon: float, omega: float) -> tuple[float, float]:
    """b and c of the dilated Hamiltonian; DomainError unless epsilon and omega are finite and positive."""
    check_finite("epsilon", epsilon)
    check_finite("omega", omega)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive (epsilon = 0 coalesces the probe)")
    if omega <= 0:
        raise DomainError("omega must be positive")
    e, den = epsilon, 1.0 + 2.0 * epsilon
    return 4.0 * omega * e * (1.0 + e) / den, 2.0 * omega * math.sqrt(e * (1.0 + e)) / den


@dataclass(frozen=True)
class PseudoHermitianParams:
    """Dilation parameter epsilon, qubit frequency omega, encoded parameter lam; Omega⁴,
    which `qfi_closed` divides by, must be a finite float.  b and c follow from (epsilon, omega)."""

    epsilon: float
    omega: float
    lam: float = 0.0
    b: float = field(init=False, repr=False, compare=False)
    c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in zip("bc", _couplings(self.epsilon, self.omega)):
            object.__setattr__(self, name, value)  # the class is frozen
        check_finite("lam", self.lam)
        if not self.Omega < _OMEGA_MAX:
            raise DomainError(f"epsilon {self.epsilon:g} too large at omega {self.omega:g}, lam {self.lam:g}: "
                              f"Omega = hypot(lam + b, c) = {self.Omega:.3g}, whose 4th power overflows")

    @property
    def Omega(self) -> float:
        """Level splitting sqrt((lam+b)² + c²) of each decoupled block."""
        return math.hypot(self.lam + self.b, self.c)

    @property
    def delta_lam(self) -> float:
        """Asymmetry (lam + 2 eps omega)/Omega of the effective two-level model."""
        return (self.lam + 2.0 * self.epsilon * self.omega) / self.Omega

    @property
    def tau(self) -> float:
        """Protocol time pi/(4 omega sqrt(eps(1+eps))), a quarter period at lam=0."""
        return math.pi / (4.0 * self.omega * math.sqrt(self.epsilon * (1.0 + self.epsilon)))


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


def hamiltonian_family(epsilon: float, omega: float) -> HamiltonianFamily:
    """(b + lam) I⊗sigma_x - c sigma_y⊗sigma_y, the dilated two-qubit Hamiltonian, as a family over
    the encoded parameter, a stack per call; b and c depend on (epsilon, omega) alone."""
    b, c = _couplings(epsilon, omega)
    return HamiltonianFamily(dim=4, evaluate=lambda lam, t: (b + lam)[:, None, None] * _IX - c * _YY,
                             evaluate_dlambda=lambda lam, t: np.broadcast_to(_IX, (t.size, 4, 4)))


def dilated_hamiltonian(p: PseudoHermitianParams) -> np.ndarray:
    """The dilated two-qubit Hamiltonian at p: `hamiltonian_family` evaluated at p.lam."""
    return hamiltonian_family(p.epsilon, p.omega).evaluate(np.array([p.lam]), np.zeros(1))[0]


def probe_state(epsilon: float) -> np.ndarray:
    """Probe (sqrt((1+e)/(1+2e))|0>_a + sqrt(e/(1+2e))|1>_a) ⊗ |0>_s."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    a0 = math.sqrt((1.0 + epsilon) / (1.0 + 2.0 * epsilon))
    a1 = math.sqrt(epsilon / (1.0 + 2.0 * epsilon))
    return np.array([a0, 0.0, a1, 0.0], dtype=complex)


def two_level_population(p: PseudoHermitianParams, t: float) -> float:
    """Normalized population S = 1/[1 + delta_lam² tan²(Omega t)] in |0>_s.

    Evaluated as cos²/(cos² + delta² sin²), which extends continuously
    through the tan poles (S -> 0 there for delta_lam != 0, S = 1 when the
    asymmetry vanishes and the state never leaves |0>_s).
    """
    check_time(t)
    cs = math.cos(p.Omega * t)
    sn = math.sin(p.Omega * t)
    num = cs * cs
    den = num + (p.delta_lam * sn) ** 2
    if den < 1e-300:
        return 1.0  # delta_lam == 0 and cos == 0: population never left |0>_s
    return num / den


def _evolved_probe(p: PseudoHermitianParams, t: float) -> np.ndarray:
    return expm_hermitian(dilated_hamiltonian(p), t) @ probe_state(p.epsilon)


def postselection_success(p: PseudoHermitianParams, t: float) -> float:
    """Probability of finding the ancilla in |0>_a after evolving for t."""
    psi = _evolved_probe(p, t)
    return float(abs(psi[0]) ** 2 + abs(psi[1]) ** 2)


def conditional_population_from_dilation(p: PseudoHermitianParams, t: float) -> float:
    """P(|0_s>) conditioned on the ancilla in |0_a>, from the 4-dim evolution.

    Equals two_level_population up to numerical error (dilation correctness).
    Returns NaN when the conditioning probability is below 1e-14 (undefined).
    """
    check_time(t)
    psi = _evolved_probe(p, t)
    p00 = abs(psi[0]) ** 2
    p01 = abs(psi[1]) ** 2
    if p00 + p01 < 1e-14:
        return float("nan")
    return p00 / (p00 + p01)


def p1_closed(p: PseudoHermitianParams, t: float) -> float:
    """Closed-form probability of |0_a 0_s>: (1+e)/(1+2e) cos²(Omega t)."""
    check_time(t)
    e = p.epsilon
    return (1.0 + e) / (1.0 + 2.0 * e) * math.cos(t * p.Omega) ** 2


def susceptibility(p: PseudoHermitianParams, t: float) -> float:
    """chi_s = dS/dlam in closed form, the quotient rule on cos²/(cos² + delta² sin²).

    With x = Omega t, dOmega/dlam = (lam+b)/Omega and
    d delta/dlam = (1 - delta dOmega/dlam)/Omega, it reduces to
    -2 cos sin delta (t delta dOmega/dlam + cos sin d delta/dlam)/den².
    Returns 0 where den underflows; two_level_population holds S = 1 there.
    """
    check_time(t)
    om, d = p.Omega, p.delta_lam
    cs = math.cos(om * t)
    sn = math.sin(om * t)
    den = cs * cs + (d * sn) ** 2
    if den < 1e-300:
        return 0.0
    d_om = (p.lam + p.b) / om
    d_delta = (1.0 - d * d_om) / om
    return -2.0 * cs * sn * d * (t * d * d_om + cs * sn * d_delta) / den**2


def p1_slope(p: PseudoHermitianParams, t: float) -> float:
    """dP1/dlam = -(1+e)/(1+2e) sin(2 Omega t) t dOmega/dlam, dOmega/dlam = (lam+b)/Omega."""
    check_time(t)
    e, om = p.epsilon, p.Omega
    return -(1.0 + e) / (1.0 + 2.0 * e) * math.sin(2.0 * t * om) * t * (p.lam + p.b) / om


def sensitivity(p: PseudoHermitianParams, t: float, nu: int) -> float:
    """Projection-noise sensitivity sqrt(Var[P1])/|dP1/dlam| of the P1 measurement.

    Returns +inf when the slope vanishes but the variance does not, and NaN
    at exact dip points where both vanish (0/0, excluded from minima).
    """
    p1 = p1_closed(p, t)
    var = binomial_variance(p1, nu)
    slope = p1_slope(p, t)
    if abs(slope) < GRADIENT_FLOOR:
        if var < GRADIENT_FLOOR**2:
            return float("nan")
        return float("inf")
    return math.sqrt(var) / abs(slope)


def generator_closed(p: PseudoHermitianParams, t: float) -> np.ndarray:
    """Closed-form transformed local generator of the dilated system.

    Block form P(up_y)⊗h1 + P(down_y)⊗h2 over the ancilla sigma_y
    eigenprojectors, with h1 = hx sx + hy sy + hz sz and h2 = hx sx - hy sy
    - hz sz.
    """
    om = p.Omega
    lb = p.lam + p.b
    hx = t * lb**2 / om**2 + p.c**2 * math.sin(2.0 * om * t) / (2.0 * om**3)
    hy = p.c * lb / om**2 * (math.sin(2.0 * om * t) / (2.0 * om) - t)
    hz = -p.c * math.sin(om * t) ** 2 / om**2
    h1 = hx * SIGMA_X + hy * SIGMA_Y + hz * SIGMA_Z
    h2 = hx * SIGMA_X - hy * SIGMA_Y - hz * SIGMA_Z
    return tensor(_PROJ_UP_Y, h1) + tensor(_PROJ_DN_Y, h2)


def qfi_closed(p: PseudoHermitianParams, t: float) -> float:
    """Closed-form QFI 4(b+lam)² t²/Omega² + 4 c² sin²(Omega t)/Omega⁴."""
    check_time(t)
    om = p.Omega
    lb = p.lam + p.b
    return 4.0 * lb**2 * t**2 / om**2 + 4.0 * p.c**2 * math.sin(om * t) ** 2 / om**4


def qfi_rate_closed(p: PseudoHermitianParams, t: float) -> float:
    """Closed-form d sqrt(F)/dt; lies in [-2, 2] and tends to 2 as t -> 0."""
    check_time(t)
    om = p.Omega
    cos2 = ((p.lam + p.b) / om) ** 2
    sin2 = (p.c / om) ** 2
    x = om * t
    num = cos2 + sin2 * np.sinc(2.0 * x / math.pi)
    den = math.sqrt(cos2 + sin2 * np.sinc(x / math.pi) ** 2)
    return float(2.0 * num / den)


def qfi_numeric(p: PseudoHermitianParams, t: float, tol: float = DEFAULT_TOL) -> float:
    """QFI from the numerically propagated generator (independent of closed forms)."""
    rec = propagate(hamiltonian_family(p.epsilon, p.omega), p.lam, grid_to(t), tol=tol)
    return qfi_pure(rec.h[-1], probe_state(p.epsilon))


def hermitian_bound(t: float, nu: int) -> float:
    """Sensitivity bound 1/(2 sqrt(nu) t) of the Hermitian counterpart."""
    if check_time(t) == 0:
        raise DomainError("t must be positive, got 0")
    check_trials(nu)
    return 1.0 / (2.0 * math.sqrt(nu) * t)


def check_sweep_phase(p: PseudoHermitianParams) -> PseudoHermitianParams:
    """p itself once the phase Omega tau that `sweep` propagates at p is at most MAX_PERIOD_PHASE;
    DomainError naming lam otherwise.  Over a lam grid, Omega = hypot(lam + b, c) is largest at an end."""
    phase = p.Omega * p.tau
    if not phase <= MAX_PERIOD_PHASE:
        raise DomainError(f"lam {p.lam:g} gives Omega tau = {phase:.3g} at epsilon {p.epsilon:g}, omega "
                          f"{p.omega:g}, above {MAX_PERIOD_PHASE:g}, the most one sweep may propagate")
    return p


def sweep(epsilon: float, omega: float, lam_grid, nu: int = 1,
          tol: float = DEFAULT_TOL) -> list[SweepRow]:
    """One row per lam at the protocol time t = tau(epsilon, omega).

    tau is always recomputed from (epsilon, omega); rows with an undefined
    sensitivity carry NaN rather than being dropped.  Every lam passes `check_sweep_phase` before
    anything is propagated; each qfi_numeric is its member of one tangent batch over the grid.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.size == 0:
        raise DomainError("lam grid must be non-empty")
    check_trials(nu)
    ps = [check_sweep_phase(PseudoHermitianParams(epsilon, omega, lam)) for lam in lam_grid.tolist()]
    t = ps[0].tau
    _, h = generators(hamiltonian_family(epsilon, omega), lam_grid, grid_to(t), tol=tol)
    return [SweepRow(
        lam=p.lam, S=two_level_population(p, t), chi=susceptibility(p, t), P1=p1_closed(p, t),
        dP1_dlam=p1_slope(p, t), sensitivity=sensitivity(p, t, nu), qfi_closed=qfi_closed(p, t),
        qfi_numeric=qfi_pure(h_lam[-1], probe_state(epsilon)), rate_closed=qfi_rate_closed(p, t),
        hermitian_bound=hermitian_bound(t, nu)) for p, h_lam in zip(ps, h)]

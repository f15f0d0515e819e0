"""Reference routes kept out of the package: independent checks of its results."""

import math

import mpmath
import numpy as np

from nhsense.evolution import DEFAULT_TOL, HamiltonianFamily, check_step, check_time, propagators
from nhsense.noise import make_rng
from nhsense.operators import (
    ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, covariance, eig_hermitian, expm_hermitian, seminorm, tensor, variance,
)
from nhsense.pseudo_hermitian import (
    _IX, _YY, GRADIENT_FLOOR, PseudoHermitianParams, _splitting, dilated_hamiltonian,
)
from nhsense.pt_ep import PtEpParams
from nhsense.verification import CheckResult, _operator_instances, _result, _unitary_from_gaussian


def seminorm_eigh(h) -> np.ndarray:
    """The spectral width from the full eigendecomposition: `seminorm`'s route before it took
    eigenvalues alone."""
    w, _ = eig_hermitian(h)
    return w[..., -1] - w[..., 0]


_YZ = tensor(SIGMA_Y, SIGMA_Z)  # the third term of the dilated sensor's local generator


def generator_closed(p: PseudoHermitianParams, t: float) -> np.ndarray:
    """Closed-form transformed local generator of the dilated system, 4×4 per member.

    Block form P(up_y)⊗h1 + P(down_y)⊗h2 over the ancilla sigma_y
    eigenprojectors, with h1 = hx sx + hy sy + hz sz and h2 = hx sx - hy sy
    - hz sz; that is hx I⊗sx + hy sy⊗sy + hz sy⊗sz.
    """
    check_time(t)
    lb, om = _splitting(p)
    c, s2 = p.c, np.sin(2.0 * om * t)
    hx = t * lb**2 / om**2 + c**2 * s2 / (2.0 * om**3)
    hy = c * lb / om**2 * (s2 / (2.0 * om) - t)
    hz = -c * np.sin(om * t) ** 2 / om**2
    return p.given(hx[:, None, None] * _IX + hy[:, None, None] * _YY + hz[:, None, None] * _YZ)


def dilated_family(epsilon: float, omega: float) -> HamiltonianFamily:
    """The dilated sensor's constant Hamiltonian as a family over lam, for the tests that step it in
    time: `dilated_hamiltonian` at each broadcast (lam, t) pair, and dH/dlam = I⊗sigma_x."""
    PseudoHermitianParams(epsilon, omega)  # DomainError here, outside (epsilon, omega)'s domain

    def h(lam, t):
        shape = np.broadcast_shapes(lam.shape, t.shape)
        lams = tuple(np.broadcast_to(lam, shape).ravel().tolist())
        return dilated_hamiltonian(PseudoHermitianParams(epsilon, omega, lams)).reshape(shape + (4, 4))

    def dh(lam, t):  # constant: a read-only view of I⊗sigma_x
        return np.broadcast_to(_IX, np.broadcast_shapes(lam.shape, t.shape) + (4, 4))

    return HamiltonianFamily(dim=4, evaluate=h, evaluate_dlambda=dh)


def sweep_row_reference(epsilon: float, omega: float, lam: float, t: float, nu: int = 1) -> dict[str, float]:
    """The `sweep` row of the dilated sensor at (lam, t) from its closed forms in 40-digit mpmath, each
    column rounded once to a float.  The two lam slopes and the QFI rate are mpmath derivatives of S,
    P1 and sqrt(F), not the package's formulas for them, and qfi_numeric's reference is the
    closed-form QFI.  sensitivity follows the package's convention below GRADIENT_FLOOR: NaN where
    the variance is below its square too, +inf otherwise."""
    with mpmath.workdps(40):
        e, w, t = mpmath.mpf(epsilon), mpmath.mpf(omega), mpmath.mpf(t)
        b, c = 4 * w * e * (1 + e) / (1 + 2 * e), 2 * w * mpmath.sqrt(e * (1 + e)) / (1 + 2 * e)

        def splitting(x):
            return mpmath.sqrt((x + b) ** 2 + c**2)

        def population(x):
            delta = (x + 2 * e * w) / splitting(x)
            return 1 / (1 + delta**2 * mpmath.tan(splitting(x) * t) ** 2)

        def p1(x):
            return (1 + e) / (1 + 2 * e) * mpmath.cos(splitting(x) * t) ** 2

        def qfi(x, s):
            om = splitting(x)
            return 4 * (x + b) ** 2 * s**2 / om**2 + 4 * c**2 * mpmath.sin(om * s) ** 2 / om**4

        x = mpmath.mpf(lam)
        prob, slope = p1(x), mpmath.diff(p1, x)
        var = prob * (1 - prob) / nu
        if abs(slope) >= GRADIENT_FLOOR:
            sensitivity = mpmath.sqrt(var) / abs(slope)
        else:
            sensitivity = mpmath.nan if var < GRADIENT_FLOOR**2 else mpmath.inf
        row = {"lam": x, "S": population(x), "chi": mpmath.diff(population, x), "P1": prob,
               "dP1_dlam": slope, "sensitivity": sensitivity, "qfi_closed": qfi(x, t),
               "qfi_numeric": qfi(x, t), "rate_closed": mpmath.diff(lambda s: mpmath.sqrt(qfi(x, s)), t),
               "hermitian_bound": 1 / (2 * mpmath.sqrt(nu) * t)}
        return {name: float(value) for name, value in row.items()}


def pt_ep_hamiltonian_sum(ps: list[PtEpParams], lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`pt_ep._family(ps).evaluate(lam, t)` as drive sigma_x + pert (1 - sigma_z), a sum of real
    broadcasts, plus the gathered complex gain i Gamma sigma_z of each member: the family's route
    before it filled one complex stack."""
    p = ps[0]
    freqs = np.array([(q.omega, q.omega_delta) for q in ps])
    gain = np.array([1j * q.Gamma for q in ps])[:, None, None] * SIGMA_Z
    idx = lam.astype(np.intp)
    c = np.cos(t[..., None] * freqs[idx])
    drive, pert = p.J * (1.0 + c[..., 0]), 0.5 * p.delta * c[..., 1]
    return drive[..., None, None] * SIGMA_X.real + pert[..., None, None] * (ID2 - SIGMA_Z).real + gain[idx]


def generator_finite_difference(family: HamiltonianFamily, lam: float, t: float,
                                dlam: float = 1e-4, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Local generator via i U(lam)† [U(lam+d) - U(lam-d)] / (2d).

    A direct discretization of h = i U† dU/dlam, independent of the
    augmented-ODE route; agrees with it to O(dlam²) + O(tol).  The three
    propagators are one batch.  The result is symmetrized by (A + A†)/2.
    """
    check_step(dlam)
    u0, up, um = propagators(family, [lam, lam + dlam, lam - dlam], t, tol=tol)
    h = 1j * u0.conj().T @ (up - um) / (2.0 * dlam)
    return (h + h.conj().T) / 2.0


def operator_inequalities_per_instance(seed: int, n: int = 1000) -> list[CheckResult]:
    """`check_operator_inequalities` on the same instances, evaluated one at a time by lone 2-D calls."""
    by_dim, by_sites = _operator_instances(make_rng(seed), n)
    worst_triangle = worst_invariance = worst_var = worst_cov = worst_add = worst_unit = -np.inf
    for dim, stacks in by_dim.items():
        for a, b, gaussian, psi, t in zip(*stacks):
            u = _unitary_from_gaussian(gaussian)
            worst_triangle = max(worst_triangle, seminorm(a + b) - seminorm(a) - seminorm(b))
            worst_invariance = max(worst_invariance, abs(seminorm(u.conj().T @ a @ u) - seminorm(a)))
            worst_var = max(worst_var, variance(a, psi) - seminorm(a) ** 2 / 4.0)
            worst_cov = max(worst_cov, abs(covariance(a, b, psi))
                            - math.sqrt(variance(a, psi) * variance(b, psi)))
            ue = expm_hermitian(a, float(t))
            worst_unit = max(worst_unit, np.abs(ue.conj().T @ ue - np.eye(dim)).max())

    for n_sites, h1s in by_sites.items():
        for h1 in h1s:
            total = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
            for j in range(n_sites):
                term = np.eye(1, dtype=complex)
                for k in range(n_sites):
                    term = np.kron(term, h1 if k == j else np.eye(2, dtype=complex))
                total += term
            worst_add = max(worst_add, abs(seminorm(total) - n_sites * seminorm(h1)))

    return [
        _result("seminorm-triangle", "||A+B|| - ||A|| - ||B|| <= 0", worst_triangle, 1e-10),
        _result("seminorm-unitary-invariance", "| ||U†AU|| - ||A|| | = 0", worst_invariance, 1e-10),
        _result("variance-bound", "Var[A] - ||A||²/4 <= 0", worst_var, 1e-10),
        _result("covariance-inequality", "|Cov[A,B]| - sqrt(Var Var) <= 0", worst_cov, 1e-10),
        _result("expm-unitarity", "||U†U - 1||_max = 0", worst_unit, 1e-10),
        _result("seminorm-additivity", "| ||sum h_j|| - N ||h|| | = 0 (N <= 4)", worst_add, 1e-10),
    ]

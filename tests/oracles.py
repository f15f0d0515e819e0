"""Reference routes kept out of the package: independent checks of its results."""

import math

import numpy as np

from nhsense.evolution import DEFAULT_TOL, HamiltonianFamily, check_step, check_time, propagators
from nhsense.noise import make_rng
from nhsense.operators import (
    ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, covariance, eig_hermitian, expm_hermitian, seminorm, tensor, variance,
)
from nhsense.pseudo_hermitian import _IX, _YY, PseudoHermitianParams, _splitting
from nhsense.pt_ep import PtEpParams
from nhsense.verification import (
    CheckResult, _gaussian, _result, _unitary_from_gaussian, random_hermitian, random_state,
)


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
    """`check_operator_inequalities` as one instance at a time, with the same draws in the same order."""
    rng = make_rng(seed)
    worst_triangle = worst_invariance = worst_var = worst_cov = worst_add = worst_unit = -np.inf
    for _ in range(n):
        dim = int(rng.integers(2, 7))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        u = _unitary_from_gaussian(_gaussian(rng, dim, dim))
        psi = random_state(rng, dim)

        worst_triangle = max(worst_triangle, seminorm(a + b) - seminorm(a) - seminorm(b))
        worst_invariance = max(worst_invariance, abs(seminorm(u.conj().T @ a @ u) - seminorm(a)))
        worst_var = max(worst_var, variance(a, psi) - seminorm(a) ** 2 / 4.0)
        worst_cov = max(worst_cov, abs(covariance(a, b, psi))
                        - math.sqrt(variance(a, psi) * variance(b, psi)))
        ue = expm_hermitian(a, float(rng.uniform(0.0, 3.0)))
        worst_unit = max(worst_unit, np.abs(ue.conj().T @ ue - np.eye(dim)).max())

        n_sites = int(rng.integers(1, 5))
        h1 = random_hermitian(rng, 2)
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


def operator_instances_per_draw(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    """`verification._operator_instances` as a loop of one generator call per real or imaginary part."""
    by_dim: dict[int, list] = {}
    by_sites: dict[int, list] = {}
    for _ in range(n):
        dim = int(rng.integers(2, 7))
        by_dim.setdefault(dim, []).append((random_hermitian(rng, dim), random_hermitian(rng, dim),
                                           _gaussian(rng, dim, dim), random_state(rng, dim),
                                           rng.uniform(0.0, 3.0)))
        by_sites.setdefault(int(rng.integers(1, 5)), []).append(random_hermitian(rng, 2))
    return ({dim: [np.stack(column) for column in zip(*rows)] for dim, rows in by_dim.items()},
            {n_sites: np.stack(h1) for n_sites, h1 in by_sites.items()})

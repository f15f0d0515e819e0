"""Reference routes kept out of the package: independent checks of its results."""

import math

import numpy as np

from nhsense.evolution import DEFAULT_TOL, HamiltonianFamily, check_step, propagators
from nhsense.noise import make_rng
from nhsense.operators import covariance, eig_hermitian, expm_hermitian, seminorm, variance
from nhsense.verification import (
    CheckResult, _gaussian, _result, random_hermitian, random_state, random_unitary,
)


def seminorm_eigh(h) -> np.ndarray:
    """The spectral width from the full eigendecomposition: `seminorm`'s route before it took
    eigenvalues alone."""
    w, _ = eig_hermitian(h)
    return w[..., -1] - w[..., 0]


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
        u = random_unitary(rng, dim)
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

"""Reference routes kept out of the package: independent checks of its results."""

import numpy as np

from nhsense.evolution import DEFAULT_TOL, HamiltonianFamily, check_step, propagators


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


"""Quantum projection noise: binomial/multinomial shot statistics and the
first-order (delta-method) error propagation the sensitivity formulas rest on.

All sampling goes through an explicitly seeded counter-based generator
(numpy Philox); there is no global random state anywhere in the package.
"""

import numpy as np

from .errors import DomainError

GRADIENT_FLOOR = 1e-12  # callers treat |gradient| below this as "sensitivity undefined"


def make_rng(seed: int) -> np.random.Generator:
    """The package's one seeded generator: numpy Philox keyed by `seed`."""
    return np.random.Generator(np.random.Philox(seed))


def check_trials(nu: int) -> int:
    """`nu` itself once it is a valid trial count, >= 1; DomainError naming nu otherwise."""
    if nu < 1:
        raise DomainError(f"nu (trial count) must be >= 1, got {nu}")
    return nu


def binomial_variance(p: float, nu: int) -> float:
    """Shot-noise variance p(1-p)/nu of an estimated probability.

    Also the marginal variance of one outcome of a nu-shot multinomial.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability {p} outside [0, 1]")
    check_trials(nu)
    return p * (1.0 - p) / nu


def scaled_binomial_variance(p: float, c0: float, nu: int) -> float:
    """Variance p(c0 - p)/nu of a probability renormalized by c0 >= 1."""
    if c0 < 1.0:
        raise DomainError(f"scale must be >= 1, got {c0}")
    if not (0.0 <= p <= c0):
        raise DomainError(f"probability {p} outside [0, {c0}]")
    check_trials(nu)
    return p * (c0 - p) / nu


def propagate_error(gradient, variances) -> float:
    """Variance of a first-order-propagated scalar: sum g_i² v_i.

    Assumes independent inputs.  The caller takes the square root and
    divides by the signal slope to get a sensitivity.
    """
    gradient = np.asarray(gradient, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if gradient.shape != variances.shape or gradient.ndim != 1:
        raise DomainError("gradient and variances must be 1-d and equally long")
    if np.any(variances < 0):
        raise DomainError("variances must be nonnegative")
    return float(np.sum(gradient**2 * variances))


def sample_projection(p: float, scale: float, nu: int, seed: int) -> float:
    """One simulated estimate of p from nu projective shots.

    Draws nu Bernoulli(p/scale) outcomes from a Philox stream seeded with
    `seed` and returns scale * successes/nu; bit-reproducible for a fixed
    seed.
    """
    if scale <= 0:
        raise DomainError("scale must be positive")
    if not (0.0 <= p <= scale):
        raise DomainError(f"probability {p} outside [0, {scale}]")
    check_trials(nu)
    q = p / scale
    successes = int(np.count_nonzero(make_rng(seed).random(nu) < q))
    return scale * successes / nu


def sample_projection_batch(p: float, scale: float, nu: int, reps: int, seed: int) -> np.ndarray:
    """`reps` independent estimates of p, for Monte Carlo verification.

    Uses the vectorized binomial sampler on one Philox stream; statistically
    identical to repeated sample_projection but fast enough for 1e5+ reps.
    """
    if scale <= 0:
        raise DomainError("scale must be positive")
    if not (0.0 <= p <= scale):
        raise DomainError(f"probability {p} outside [0, {scale}]")
    check_trials(nu)
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    counts = make_rng(seed).binomial(nu, p / scale, size=reps)
    return scale * counts / nu

"""Quantum projection noise: one shot-noise model (the scaled-binomial law, its
input rule and two seeded samplers) and the first-order (delta-method) error
propagation the sensitivity formulas rest on.

All sampling goes through an explicitly seeded counter-based generator
(numpy Philox); there is no global random state anywhere in the package.
"""

import math

import numpy as np

from .errors import DomainError


def make_rng(seed: int) -> np.random.Generator:
    """The package's one seeded generator: numpy Philox keyed by `seed`."""
    return np.random.Generator(np.random.Philox(seed))


def check_trials(n: int, name: str = "nu (trial count)") -> int:
    """`n` itself once it is an integer >= 1; DomainError naming it otherwise."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")
    return n


def check_projection(p, scale: float, nu: int, reps: int = 1) -> None:
    """The one input rule of the projection-noise model; DomainError naming the first bad input.

    The scale must be finite and >= 1, every p (a float or a 1-d stack) in
    [0, scale], and nu and reps integers >= 1.  A float p is checked with
    plain comparisons.
    """
    if not 1.0 <= scale < math.inf:
        raise DomainError(f"scale (C0) must be finite and >= 1, got {scale}")
    inside = bool(((0.0 <= p) & (p <= scale)).all()) if isinstance(p, np.ndarray) else 0.0 <= p <= scale
    if not inside:
        raise DomainError(f"probability p = {p} outside [0, {scale}]")
    check_trials(nu)
    check_trials(reps, "reps")


def scaled_binomial_variance(p, c0: float, nu: int):
    """Shot-noise variance p(c0 - p)/nu of a probability renormalized by c0 >= 1.

    c0 = 1 gives the plain binomial p(1 - p)/nu, also the marginal variance of
    one outcome of a nu-shot multinomial.  p may be a 1-d stack.
    """
    check_projection(p, c0, nu)
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


def sample_projection_batch(p: float, scale: float, nu: int, reps: int, seed: int) -> np.ndarray:
    """`reps` independent estimates scale * B/nu of p, B ~ Binomial(nu, p/scale).

    Drawn by the vectorized binomial sampler on one Philox stream seeded
    with `seed`; bit-reproducible for a fixed seed.
    """
    check_projection(p, scale, nu, reps)
    return scale * make_rng(seed).binomial(nu, p / scale, size=reps) / nu


def _binomial_pmf(q: float, nu: int) -> np.ndarray:
    """Binomial(nu, q) probabilities of 0..nu successes, from log-gamma terms normalised by their sum.

    At q = 0 and q = 1 the one certain count has probability 1 and every other count 0.
    """
    if q == 0.0 or q == 1.0:
        pmf = np.zeros(nu + 1)
        pmf[round(q * nu)] = 1.0
        return pmf
    log_n, log_q, log_1mq = math.lgamma(nu + 1), math.log(q), math.log1p(-q)
    pmf = np.array([math.exp(log_n - math.lgamma(k + 1) - math.lgamma(nu - k + 1)
                             + k * log_q + (nu - k) * log_1mq) for k in range(nu + 1)])
    return pmf / pmf.sum()


def sample_projection_counts(p: float, scale: float, nu: int, reps: int, seed: int) -> np.ndarray:
    """How many of `reps` independent estimates of p fall on each support value scale k/nu, k = 0..nu.

    The estimates are those of sample_projection_batch, but only their count
    histogram is drawn: for iid draws from a discrete law it is
    Multinomial(reps, pmf), one call of nu + 1 categories on one Philox
    stream (Devroye, Non-Uniform Random Variate Generation, 1986, ch. XI).
    Its cost grows with nu rather than reps.
    """
    check_projection(p, scale, nu, reps)
    return make_rng(seed).multinomial(reps, _binomial_pmf(p / scale, nu))

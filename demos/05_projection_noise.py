#!/usr/bin/env python3
"""Projection noise from first principles: simulate it, then trust the formula.

Estimating a population from nu projective shots gives a binomial estimator
with variance p(1-p)/nu; renormalized (passive non-Hermitian) evolution
stretches this to p(C0-p)/nu.  The sensitivity formulas divide the square
root of this variance by a signal slope, which is all the error-propagation
module does.
"""

import math

from nhsense.noise import propagate_error, sample_projection_batch, scaled_binomial_variance

print("== one simulated experiment (nu = 50 shots, p = 0.3)")
for seed in range(5):
    print(f"  seed {seed}: estimated p = {sample_projection_batch(0.3, 1.0, 50, 1, seed)[0]:.2f}")

print("\n== empirical vs analytic variance, 200k repetitions")
print("      p    nu     empirical      analytic")
for k, (p, nu) in enumerate([(0.1, 10), (0.3, 50), (0.5, 100), (0.9, 400)]):
    est = sample_projection_batch(p, 1.0, nu, 200_000, seed=1000 + k)
    print(f"  {p:5.2f}  {nu:4d}   {est.var(ddof=1):.6e}  {scaled_binomial_variance(p, 1.0, nu):.6e}")

print("\n== renormalized shots (C0 = e, the gain of half a dissipation period)")
c0 = math.e
for p in (0.5, 1.0, 2.0):
    est = sample_projection_batch(p, c0, 25, 200_000, seed=int(p * 100))
    print(f"  P = {p:3.1f}:  empirical {est.var(ddof=1):.6e}   "
          f"analytic {scaled_binomial_variance(p, c0, 25):.6e}")

print("\n== first-order error propagation")
grad = [0.8, -0.8]
variances = [2.5e-4, 1.6e-4]
total = propagate_error(grad, variances)
print(f"  gradients {grad}, variances {variances}")
print(f"  propagated variance = {total:.3e}; with slope 0.05 the uncertainty is "
      f"{math.sqrt(total) / 0.05:.4f}")

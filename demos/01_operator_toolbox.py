#!/usr/bin/env python3
"""Tour of the dense-operator toolbox: spectral width, moments, inequalities.

The spectral width ||A|| = max eig - min eig controls everything downstream:
the variance of any measurement of A is at most ||A||^2/4, covariances obey
the Cauchy-Schwarz bound, and a sum of identical one-body terms over N sites
has width N ||h|| (which is where Heisenberg scaling comes from).
"""

import numpy as np

from nhsense.operators import (
    SIGMA_X, SIGMA_Y, SIGMA_Z, covariance, expm_hermitian, seminorm, tensor, variance,
)
from nhsense.verification import check_operator_inequalities

print("== spectral widths")
print(f"  ||sigma_x||      = {seminorm(SIGMA_X):.1f}")
print(f"  ||1 - sigma_z||  = {seminorm(np.eye(2) - SIGMA_Z):.1f}   (the EP-sensor drive operator)")
print(f"  ||sigma_x (x) 1 + 1 (x) sigma_x|| = {seminorm(tensor(SIGMA_X, np.eye(2)) + tensor(np.eye(2), SIGMA_X)):.1f}"
      "   (two sites: twice the one-body width)")

print("\n== moments over a pure state")
plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
print(f"  Var[sigma_z] on |+>        = {variance(SIGMA_Z, plus):.3f} (maximal: ||sigma_z||^2/4 = 1)")
print(f"  Cov[sigma_x, sigma_y] |0>  = {covariance(SIGMA_X, SIGMA_Y, np.array([1, 0], dtype=complex)):.3f}")

print("\n== inequality checks on 2000 random instances, evaluated as one stack per dimension")
for check in check_operator_inequalities(7, n=2000):
    print(f"  {check.target:<40} worst: {check.observed:+.2e}")

print("\n== matrix exponential")
u = expm_hermitian(SIGMA_Z, np.pi)
print(f"  exp(-i sigma_z pi) = -1:  max deviation {np.abs(u + np.eye(2)).max():.2e}")

#!/usr/bin/env python3
"""The driven PT-symmetric sensor near its exceptional point.

Protocol: locate the phase boundary (where P_J - P_Gamma changes sign with
the perturbation off), park the dissipation there, then scan the
perturbation frequency toward the response-energy dip.  Susceptibility and
measurement variance both diverge on the approach; their ratio, the actual
sensitivity, plateaus and stays above the Hermitian-counterpart bound.
"""

import math

import numpy as np

from nhsense.pt_ep import (
    PtEpParams, find_ep, find_response_dip, hermitian_bound_ep, scan,
)

J, OMEGA, DELTA = 1.0, 4.0, 0.05

gamma_ep = find_ep(J, OMEGA, tol=1e-12)
print(f"phase boundary at Gamma_EP = {gamma_ep:.10f}  (J = {J}, omega = {OMEGA})")

base = PtEpParams(J=J, Gamma=gamma_ep, omega=OMEGA, delta=DELTA, omega_delta=1.0)
print(f"one period T = {base.T:.4f}, noise scale C0 = e^(2 Gamma T) = {base.C0:.2f}")

dip = find_response_dip(base, (0.05, 2.0), tol=1e-12)
print(f"response-energy dip at omega_delta = {dip:.10f}\n")

offsets = np.geomspace(1e-4, 3e-2, 10) * dip
rows = scan(base, dip + offsets, tol=1e-10)

print("  offset/dip     E_res    sqrt(Var)   |dE/dw|    sensitivity   bound")
for off, row in zip(offsets, rows):
    print(f"  {off / dip:10.2e}  {row.E_res:8.5f}  {math.sqrt(row.var_E):9.2f}"
          f"  {row.chi_E:9.4f}  {row.sensitivity:12.2f}  {row.hermitian_bound:7.2f}")

sens = [r.sensitivity for r in rows]
print(f"\nsusceptibility grows {rows[0].chi_E / rows[-1].chi_E:.1f}x over the approach,")
print(f"yet the sensitivity band is only {max(sens) / min(sens):.3f}x wide,")
print(f"and every point sits above the Hermitian bound.")
print(f"\nHermitian bound at omega_delta = {base.omega_delta}: {hermitian_bound_ep(base):.4f}")

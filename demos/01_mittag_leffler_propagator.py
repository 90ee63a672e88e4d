#!/usr/bin/env python3
"""Tour of the Mittag-Leffler propagator multipliers.

The linear evolution of the memory model multiplies each Fourier mode by
E_beta(i^{-beta} t^beta mu), with mu >= 0 the dispersion multiplier.  All
arguments therefore live on the ray arg z = -beta*pi/2, where E_beta stays
uniformly bounded -- that is the whole reason the mass estimate is uniform
in the mesh.  This script walks the ray, checks the double-precision
evaluator against the arbitrary-precision series oracle, and shows the
exponential degeneration at beta = 1.  Along the ray the evaluator moves
from the power series (small |z|) through a contour integral to the
sector asymptotics (large |z|); the radii below visit all three routes.
"""

import cmath
import math

import numpy as np

from fraclat import ml_e, ml_ee, ml_oracle

print("=== boundedness along the propagator ray ===")
for beta in (0.6, 0.75, 0.85, 0.95):
    radii = np.linspace(0.0, 60.0, 121)
    sup = max(abs(ml_e(beta, r * cmath.exp(-1j * beta * math.pi / 2))) for r in radii)
    print(f"beta = {beta:4.2f}:  sup |E_beta| on the ray (|z| <= 60) = {sup:.4f}")

print()
print("=== ml_e (tolerance 1e-12) vs 60-digit series oracle ===")
beta = 0.8
for r in (0.5, 5.0, 12.0, 30.0, 50.0):
    z = r * cmath.exp(-1j * beta * math.pi / 2)
    fast = ml_e(beta, z)
    ref = ml_oracle(beta, z, 1.0, digits=60)
    print(f"|z| = {r:5.1f}:  E_0.8(z) = {fast:+.12f}   rel err = {abs(fast-ref)/abs(ref):.2e}")

print()
print("=== generalized kernel multiplier E_{beta,beta} ===")
for r in (0.0, 10.0, 40.0):
    z = r * cmath.exp(-1j * beta * math.pi / 2)
    print(f"|z| = {r:5.1f}:  E_{{0.8,0.8}}(z) = {ml_ee(beta, z):+.10f}")

print()
print("=== beta = 1 collapses to the exponential ===")
for z in (-2.0 + 1.0j, -10.0j, -25.0 + 3.0j):
    diff = abs(ml_e(1.0, z) - cmath.exp(z)) / abs(cmath.exp(z))
    print(f"z = {z}:  |E_1(z) - e^z| / |e^z| = {diff:.2e}")

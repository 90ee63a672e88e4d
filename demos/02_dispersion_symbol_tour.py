#!/usr/bin/env python3
"""The lattice dispersion symbol and its critical points.

w(xi) = 2 sum (1 - cos n xi)/n^{1+alpha} replaces |xi|^alpha on the lattice.
Near zero the two agree (after normalization), but w has structure that
|xi|^alpha lacks: w' vanishes at the edge xi = pi, w'' changes sign at
xi_0 < pi/2, and the memory phase h^{-sigma} w^{1/beta} has its own
inflection point xi_1 > xi_0.  Those points are exactly where unfiltered
lattice waves resonate.
"""

import math

import numpy as np

from fraclat import (
    find_xi0,
    find_xi1,
    normalization_constant,
    phi_eval,
    w_eval,
    w_prime,
    w_second,
)

alpha, beta = 1.5, 0.85

print(f"=== normalization (alpha = {alpha}) ===")
print("w(xi) = c |xi|^a - 2 sum_j (-1)^j zeta(1+a-2j) xi^(2j)/(2j)!  for |xi| < 2 pi")
print(f"c = pi/(Gamma(1+a) sin(a pi/2)) = {normalization_constant(alpha):.10f}")

print()
print("=== small-xi agreement with |xi|^alpha (normalized) ===")
for xi in (0.001, 0.01, 0.1, 0.5):
    w = w_eval(alpha, xi)
    print(f"xi = {xi:6.3f}:  w = {w:.8e}   |xi|^a = {xi**alpha:.8e}   ratio = {w/xi**alpha:.6f}")

print()
print("=== critical points ===")
xi0 = find_xi0(alpha)
xi1 = find_xi1(alpha, beta)
print(f"xi_0 (zero of w'')                  = {xi0:.10f}   (inside (0, pi/2))")
print(f"xi_1 (zero of phi'' at beta={beta}) = {xi1:.10f}   (inside (xi_0, pi))")
print(f"xi_2 (zero of w' at the edge)       = {math.pi:.10f}")
print(f"beta = 1 collapse: xi_1 -> xi_0: {find_xi1(alpha, 1.0):.10f}")

print()
print("=== sampled table (h = 0.5) ===")
print(f"{'xi':>6} {'w':>12} {'w_prime':>12} {'w_second':>12} {'phi_h':>12}")
for xi in np.linspace(0.3, math.pi, 8):
    print(
        f"{xi:6.3f} {w_eval(alpha, xi):12.6f} {w_prime(alpha, xi):12.6f} "
        f"{w_second(alpha, xi):12.6f} {phi_eval(alpha, 0.5, xi, beta=beta):12.6f}"
    )

#!/usr/bin/env python3
"""Coarse-to-fine filtering and the norm toolbox.

The filter takes data on the 2h-lattice, keeps it on the even sites of the
h-lattice and fills odd sites with neighbour averages.  In Fourier space
that is exactly the multiplier 2 cos^2(xi/2), which vanishes at the edge
xi = +-pi -- the resonant modes never make it into the evolution.
"""

import math

import numpy as np
import scipy.fft as sfft

from fraclat import (
    LatticeField,
    LatticeGrid,
    ModelParams,
    TimeGrid,
    discretize,
    filter_pi,
    inject,
    lambda_norm,
    norm_lp,
    norm_sobolev,
    restrict,
)
from fraclat.solver import SolutionTrajectory

rng = np.random.default_rng(42)
coarse = LatticeGrid(h=0.4, n_points=64)
f2 = LatticeField(grid=coarse, values=rng.normal(size=64) + 1j * rng.normal(size=64))

print("=== operator algebra ===")
print("restrict(filter(f)) == f :", np.array_equal(restrict(filter_pi(f2)).values, f2.values))
print("restrict(inject(f)) == f :", np.array_equal(restrict(inject(f2)).values, f2.values))

# spectra in FFT order: coefficient j belongs to grid.freqs()[j], -pi at M/2
fine = filter_pi(f2)
fine_xi = fine.grid.freqs()
lhs = sfft.fft(fine.values)
rhs = 2.0 * np.cos(fine_xi / 2) ** 2 * sfft.fft(inject(f2).values)
print(f"spectral identity max |fft(filter f) - 2cos^2(xi/2) fft(inject f)| = {np.abs(lhs-rhs).max():.2e}")
edge = np.abs(lhs[fine.grid.n_points // 2])
print(f"filtered coefficient at xi = {fine_xi[fine.grid.n_points // 2]:.6f}: {edge:.2e}  (edge mode killed)")

print()
print("=== norms of a Gaussian profile ===")
grid = LatticeGrid(h=0.1, n_points=512)
u = discretize(lambda x: np.exp(-(x**2) / 4).astype(complex), grid)
print(f"L2_h      = {norm_lp(u, 2):.8f}")
print(f"L6_h      = {norm_lp(u, 6):.8f}")
print(f"sup       = {norm_lp(u, math.inf):.8f}")
print(f"H^0.25_h  = {norm_sobolev(u, 0.25):.8f}")

params = ModelParams(alpha=1.5, beta=0.85)
tg = TimeGrid(T=1.0, m_steps=8)
traj = SolutionTrajectory(timegrid=tg, grid=grid, values=np.tile(u.values, (9, 1)))
rep = lambda_norm(traj, params)
print()
print("=== contraction norm of the static trajectory ===")
print(f"eta_1 (smoothing, exponent s+sigma-alpha) = {rep.eta1:.8f}")
print(f"eta_2 (energy, sup_t H^s)                 = {rep.eta2:.8f}")
print(f"eta_3 (maximal, L^{{2(p-1)}}_h L^inf_T)     = {rep.eta3:.8f}")
print(f"Lambda_T = max                            = {rep.lam:.8f}")

"""Periodic lattice fields, discrete Fourier analysis and the operator toolbox.

The model lives on h*Z; computationally we truncate to a periodic cell of
fixed extent L = n_points * h whose initial data decay fast enough that
wrap-around sits below the noise floor.  Sites are x_m = m h for
m = -M/2 .. M/2 - 1 and fields are stored in that site order.

Fourier convention: the transform is numpy.fft.fft / ifft along the last
axis of the stored values, and grid.freqs()[j] = 2 pi fftfreq(M)[j] is
the dimensionless frequency xi_j of coefficient j in that FFT order: zero
first, -pi at j = M/2.  Coefficient j is (-1)^j times the centred sum
sum_m u(m h) e^{-i xi_j m}, since storage starts at m = -M/2.  No code
sees that factor: every spectral operation is a Fourier multiplier,
which commutes with a cyclic roll of the sites, or takes a modulus.
Parseval reads  h sum |u|^2 = (h / M) sum_j |u_hat_j|^2.

Operators: cell-average discretization, the coarse-to-fine interpolation
filter (spectral multiplier 2 cos^2(xi/2)), zero-padding injection, the
restriction to the even sub-lattice, piecewise-linear interpolation and
its continuum Fourier multiplier.  The norm suite covers L^p_h, H^s_h and
the mixed smoothing/maximal norms whose maximum is the contraction norm
of the solver.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np


class GridMismatchError(ValueError):
    """Operands live on incompatible grids."""


@dataclass(frozen=True)
class LatticeGrid:
    """Periodic lattice of mesh h with n_points sites (fixed extent h*n_points)."""

    h: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"LatticeGrid: h must be positive and finite, got {self.h}")
        if self.n_points < 8 or self.n_points % 2:
            raise ValueError(f"LatticeGrid: n_points must be even and >= 8, got {self.n_points}")

    @property
    def extent(self) -> float:
        return self.h * self.n_points

    def sites(self) -> np.ndarray:
        m = np.arange(self.n_points) - self.n_points // 2
        return m * self.h

    def freqs(self) -> np.ndarray:
        """Dimensionless frequencies xi_j in [-pi, pi), in the index order of numpy.fft.fft."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points)

    def coarse(self) -> "LatticeGrid":
        """The grid of mesh 2h on the even sites.

        The even sites m sit at even storage positions only when
        n_points % 4 == 0; the filter and the restriction need that.
        """
        if self.n_points % 4:
            raise GridMismatchError(
                f"the 2h grid needs n_points divisible by 4: got n_points = {self.n_points}"
            )
        return LatticeGrid(h=2.0 * self.h, n_points=self.n_points // 2)

    def compatible(self, other: "LatticeGrid") -> bool:
        return self.n_points == other.n_points and math.isclose(
            self.h, other.h, rel_tol=1e-12
        )


@dataclass(frozen=True)
class LatticeField:
    """Complex grid function, values in site order m = -M/2 .. M/2-1."""

    grid: LatticeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n_points,):
            raise GridMismatchError(
                f"field length {v.shape} does not match grid ({self.grid.n_points},)"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class NormReport:
    """The three contraction norms and their maximum."""

    eta1: float
    eta2: float
    eta3: float

    @property
    def lam(self) -> float:
        return max(self.eta1, self.eta2, self.eta3)


# ---------------------------------------------------------------------------
# discretization and lattice operators
# ---------------------------------------------------------------------------

# 4-node Gauss-Legendre rule on [0, 1]
_GL4_X = np.array(
    [0.069431844202973712, 0.330009478207571868, 0.669990521792428132, 0.930568155797026288]
)
_GL4_W = np.array(
    [0.173927422568726929, 0.326072577431273071, 0.326072577431273071, 0.173927422568726929]
)


def discretize(f, grid: LatticeGrid) -> LatticeField:
    """Cell averages f_h(m h) = (1/h) int_{mh}^{(m+1)h} f, 4-node Gauss per cell."""
    x = grid.sites()[:, None] + grid.h * _GL4_X[None, :]
    vals = np.asarray(f(x), dtype=np.complex128) @ _GL4_W
    return LatticeField(grid=grid, values=vals)


def filter_pi(coarse: LatticeField) -> LatticeField:
    """Interpolation filter: even sites copied, odd sites averaged from neighbours."""
    cg = coarse.grid
    fine = LatticeGrid(h=cg.h / 2.0, n_points=2 * cg.n_points)
    v = np.empty(fine.n_points, dtype=np.complex128)
    v[::2] = coarse.values
    v[1::2] = 0.5 * (coarse.values + np.roll(coarse.values, -1))
    return LatticeField(grid=fine, values=v)


def inject(coarse: LatticeField) -> LatticeField:
    """Zero-padding injection: even sites copied, odd sites zero."""
    cg = coarse.grid
    fine = LatticeGrid(h=cg.h / 2.0, n_points=2 * cg.n_points)
    v = np.zeros(fine.n_points, dtype=np.complex128)
    v[::2] = coarse.values
    return LatticeField(grid=fine, values=v)


def restrict(fine: LatticeField) -> LatticeField:
    """Restriction to the even sub-lattice (mesh 2h)."""
    coarse = fine.grid.coarse()
    return LatticeField(grid=coarse, values=fine.values[::2].copy())


def interp_linear(field, query_grid: LatticeGrid):
    """Piecewise-linear interpolation p_h u sampled on a nested finer grid.

    ``field`` is a LatticeField, or a SolutionTrajectory whose nodes are
    all interpolated at once; the result is of the same type on query_grid.
    """
    h, qh = field.grid.h, query_grid.h
    ratio = h / qh
    r = int(round(ratio))
    if r < 1 or abs(ratio - r) > 1e-9 * ratio:
        raise GridMismatchError(f"query mesh must refine the field mesh: ratio {ratio}")
    if query_grid.n_points != r * field.grid.n_points:
        raise GridMismatchError("query grid extent does not match the field grid")
    u = field.values
    slope = np.roll(u, -1, axis=-1) - u  # forward difference times h
    frac = np.arange(r) / r
    out = (u[..., :, None] + slope[..., :, None] * frac).reshape(*u.shape[:-1], -1)
    return replace(field, grid=query_grid, values=out)


def interp_multiplier(h: float, xi):
    """Continuum Fourier multiplier P_h(xi) of linear interpolation.

    P_h(xi) = int_0^h e^{-ix xi} dx + (e^{i h xi} - 1)/h * int_0^h x e^{-ix xi} dx,
    evaluated in closed form; |h xi| < 1e-4 switches to the Taylor series of
    the removable singularity.  P_h(0) = h and |P_h| <= h.
    """
    scalar = np.isscalar(xi)
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    th = h * x
    out = np.empty(x.shape, dtype=np.complex128)
    small = np.abs(th) < 1e-4
    ts = th[small]
    out[small] = h * (1.0 - ts**2 / 12.0 + ts**4 / 360.0)
    tb = th[~small]
    xb = x[~small]
    i1 = (1.0 - np.exp(-1j * tb)) / (1j * xb)
    i2 = (-h * np.exp(-1j * tb) + i1) / (1j * xb)
    out[~small] = i1 + (np.exp(1j * tb) - 1.0) / h * i2
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def norm_lp(field: LatticeField, p) -> float:
    """(h sum |u|^p)^{1/p}; sup norm for p = inf."""
    a = np.abs(field.values)
    if p == math.inf or p == "inf":
        return float(a.max(initial=0.0))
    if p < 1:
        raise ValueError("norm_lp: p must be >= 1 or inf")
    return float((field.grid.h * np.sum(a**p)) ** (1.0 / p))


def _sobolev_squares(coeffs: np.ndarray, grid: LatticeGrid, s: float) -> np.ndarray:
    """Squared H^s_h norms from DFT coefficients, one per row."""
    xi = grid.freqs()
    weight = 1.0 + (np.abs(xi) / grid.h) ** (2.0 * s) if s != 0.0 else np.ones_like(xi)
    return grid.h / grid.n_points * np.sum(weight * np.abs(coeffs) ** 2, axis=-1)


def norm_sobolev(field: LatticeField, s: float) -> float:
    """H^s_h norm: quadrature of (1 + h^{-2s} |xi|^{2s}) |u_hat|^2."""
    return float(math.sqrt(_sobolev_squares(np.fft.fft(field.values), field.grid, s)))


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


# nodes per block of the eta1, eta2 and eta3 passes: their temporaries stay a
# few (_NORM_ROWS, sites) arrays, whatever the number of nodes
_NORM_ROWS = 32


def _smoothing(coeffs: np.ndarray, grid: LatticeGrid, times: np.ndarray, delta: float) -> float:
    """norm_smoothing from the (nodes, sites) DFT coefficients of a trajectory."""
    mult = (1.0 + np.abs(grid.freqs()) / grid.h) ** delta
    tw = _trapezoid_weights(np.asarray(times, dtype=float))
    # the time integral per site, carried as row 0 of each block: a sum
    # over axis 0 adds rows in order, so the blocks add up exactly as one
    # sum over every node would
    acc = np.zeros(grid.n_points)
    buf = np.empty((min(_NORM_ROWS, len(coeffs)) + 1, grid.n_points))
    for lo in range(0, len(coeffs), _NORM_ROWS):
        v = coeffs[lo : lo + _NORM_ROWS] * mult
        np.fft.ifft(v, axis=-1, out=v)
        w = buf[: len(v) + 1]
        w[0] = acc
        np.multiply(tw[lo : lo + len(v), None], np.abs(v) ** 2, out=w[1:])
        np.sum(w, axis=0, out=acc)
    return float(np.sqrt(acc.max()))


def norm_smoothing(traj, delta: float) -> float:
    """|| <h^{-1} grad>^delta u ||_{L^inf_h L^2_T} of a SolutionTrajectory.

    Per node the spectral multiplier (1 + |xi|/h)^delta is applied,
    then the time-L^2 per site (trapezoid rule), then the sup over sites.
    """
    return _smoothing(np.fft.fft(traj.values, axis=-1), traj.grid, traj.times, delta)


def norm_maximal(traj, q: float) -> float:
    """|| u ||_{L^q_h L^inf_T} of a SolutionTrajectory: per-site sup over time, then L^q_h."""
    sup = np.zeros(traj.grid.n_points)
    for lo in range(0, len(traj.values), _NORM_ROWS):
        np.maximum(sup, np.abs(traj.values[lo : lo + _NORM_ROWS]).max(axis=0), out=sup)
    return norm_lp(LatticeField(grid=traj.grid, values=sup.astype(np.complex128)), q)


def lambda_norm(traj, params, *, spectrum: np.ndarray | None = None) -> NormReport:
    """Contraction norm of a SolutionTrajectory.

    eta1 smoothing (exponent params.delta = s+sigma-alpha), eta2 energy sup_t H^s,
    eta3 maximal; one batched DFT of the nodes serves eta1 and eta2.  All
    three run over blocks of _NORM_ROWS nodes.
    ``spectrum`` may pass that DFT in, fft(traj.values, axis=-1), when the
    caller already holds it.

    Each eta is a sup or an l^q over the sites of a per-site quantity, and
    the DFT of a cyclically rolled field differs only by a unimodular
    factor per mode, so the report is unchanged by a cyclic roll of the
    sites.
    """
    coeffs = np.fft.fft(traj.values, axis=-1) if spectrum is None else spectrum
    eta1 = _smoothing(coeffs, traj.grid, traj.times, params.delta)
    eta2_sq = max(
        _sobolev_squares(coeffs[lo : lo + _NORM_ROWS], traj.grid, params.s).max()
        for lo in range(0, len(coeffs), _NORM_ROWS)
    )
    eta2 = float(np.sqrt(eta2_sq))
    eta3 = norm_maximal(traj, 2.0 * (params.p - 1))
    return NormReport(eta1=eta1, eta2=eta2, eta3=eta3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<dqd")  # h, n_points, t


def field_to_bytes(field: LatticeField, t: float = 0.0) -> bytes:
    head = _HEADER.pack(field.grid.h, field.grid.n_points, t)
    body = np.ascontiguousarray(field.values, dtype="<c16").tobytes()
    return head + body


def field_from_bytes(buf: bytes, offset: int = 0) -> tuple[LatticeField, float, int]:
    """Decode one field record; returns (field, t, next offset)."""
    h, n, t = _HEADER.unpack_from(buf, offset)
    start = offset + _HEADER.size
    end = start + 16 * n
    values = np.frombuffer(buf[start:end], dtype="<c16").copy()
    return LatticeField(grid=LatticeGrid(h=h, n_points=int(n)), values=values), t, end

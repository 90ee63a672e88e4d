"""Memory propagator, singular Duhamel quadrature and Picard solver.

The integral equation solved here (per Fourier mode, mu >= 0 the
dispersion multiplier) is

    u_hat(t) = E_b(i^{-b} t^b mu) u0_hat
               + i^{-b} int_0^t (t-s)^{b-1} E_{b,b}(i^{-b}(t-s)^b mu) g_hat(s) ds,

with g the (optionally filtered) power nonlinearity evaluated in physical
space.  The weakly singular kernel is integrated by product integration:
the density g_hat is piecewise linear on the uniform time grid, the
kernel is integrated exactly per interval by Gauss rules (Gauss-Jacobi
with weight (t-s)^{b-1} on the interval touching the singularity,
Gauss-Legendre elsewhere).  On a uniform grid the weights depend on the
lag n-j only, so the memory sum is a causal convolution, evaluated by
FFT along the time axis for all modes at once.  The two weight families
fold into one kernel C[m] = A[m-1] + B[m] whose spectrum is computed
once per solve, so a Picard sweep costs one forward and one inverse FFT
(Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  The
multiplier is even, mu(xi) = mu(-xi), so in FFT order modes j and N-j
are one +-xi pair, and the Mittag-Leffler tables are evaluated once per
pair: mode j reads row min(j, N-j), and K = N/2 + 1 rows cover the N
modes.  The propagator table is gathered to every mode; the memory
kernel keeps its K rows.

The fixed point is produced by Picard iteration over the whole time
interval, mirroring the contraction construction behind the
well-posedness theory; the residual is measured in the contraction norm
Lambda_T.  An iterate or a norm that stops being finite raises
NonContractionError like a growing residual does.  The continuum
reference solver is the identical pipeline with the multiplier
|xi|^alpha and no filtering.

Sites stay in storage order and modes in the FFT order of the lattice
module throughout, so no sweep shifts anything.  The filter acts on the
even storage positions, which are the even sites when n_points % 4 == 0,
as a filtered solve requires.  The memory kernel is stored mode-major, so
both time-axis FFTs run along contiguous rows, a block of modes at a
time.  The residual's spectrum is the difference of two spectra the sweep
already holds, so a sweep costs three site-axis FFTs: the density, the
new iterate and the smoothing part of the residual norm.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .lattice import (
    GridMismatchError,
    LatticeField,
    LatticeGrid,
    discretize,
    filter_pi,
    lambda_norm,
)
from .special import GRID_TOL, ml_e_grid, ml_ee_grid
from .symbol import w_on_dft_grid


class ParameterError(ValueError):
    """A model parameter violates the admissibility conditions."""


class NonContractionError(RuntimeError):
    """The Picard construction failed: its residuals stopped decreasing, or an
    iterate (the linear flow included) or its norm left double range."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(message)
        self.residuals = residuals


# ---------------------------------------------------------------------------
# parameters and grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelParams:
    """Physical/analytic parameters with the admissibility conditions enforced.

    sigma = alpha/beta and delta = s + sigma - alpha, the lower end of
    delta's admissible window, are derived.  s defaults to its minimal
    value 1/2 - 1/(2(p-1)), where that window is non-empty exactly when
    alpha > (sigma+1)/2.
    """

    alpha: float
    beta: float
    p: int = 3
    sign: int = 1
    s: float | None = None
    use_filter: bool = True

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < 2.0:
            raise ParameterError(f"alpha must lie in (1, 2): got {self.alpha}")
        if not 0.5 < self.beta <= 1.0:
            raise ParameterError(f"beta must lie in (1/2, 1]: got {self.beta}")
        if self.p < 3 or self.p % 2 == 0:
            raise ParameterError(f"p must be an odd integer >= 3: got {self.p}")
        if self.sign not in (-1, 1):
            raise ParameterError(f"sign must be +1 or -1: got {self.sign}")
        sigma = self.alpha / self.beta
        if not self.alpha > (sigma + 1.0) / 2.0:
            raise ParameterError(
                f"alpha > (sigma+1)/2 fails: {self.alpha:g} <= {(sigma + 1.0) / 2.0:g} "
                f"(sigma = alpha/beta = {sigma:g})"
            )
        s_min = 0.5 - 0.5 / (self.p - 1)
        if self.s is None:
            object.__setattr__(self, "s", s_min)
        if not (math.isfinite(self.s) and self.s >= s_min - 1e-12):
            raise ParameterError(
                f"s >= 1/2 - 1/(2(p-1)) fails: {self.s:g} < {s_min:g}"
            )
        d_hi = sigma / 2.0 - 0.5 / (self.p - 1)
        if not self.delta < d_hi:
            raise ParameterError(
                f"delta in [s+sigma-alpha, sigma/2 - 1/(2(p-1))) is empty: "
                f"s = {self.s:g} puts its lower end at {self.delta:g} >= {d_hi:g}"
            )

    @property
    def sigma(self) -> float:
        return self.alpha / self.beta

    @property
    def delta(self) -> float:
        """Smoothing exponent of eta1 in Lambda_T."""
        return self.s + self.sigma - self.alpha

    @property
    def phase_unit(self) -> complex:
        """Branch convention i^{-beta} = exp(-i beta pi / 2)."""
        return cmath.exp(-1j * self.beta * math.pi / 2.0)

    def condition_margins(self) -> dict[str, float]:
        """Slack in each admissibility condition (positive = satisfied)."""
        sigma = self.sigma
        return {
            "alpha_gt_(sigma+1)/2": self.alpha - (sigma + 1.0) / 2.0,
            "s_ge_1/2-1/(2(p-1))": self.s - (0.5 - 0.5 / (self.p - 1)),
            "delta_lt_sigma/2-1/(2(p-1))": (sigma / 2.0 - 0.5 / (self.p - 1)) - self.delta,
        }


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_j = j T / m_steps, j = 0..m_steps."""

    T: float
    m_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"TimeGrid: T must be positive and finite, got {self.T}")
        if self.m_steps < 2:
            raise ValueError(f"TimeGrid: m_steps must be >= 2, got {self.m_steps}")

    @property
    def dt(self) -> float:
        return self.T / self.m_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.m_steps + 1)


@dataclass
class SolutionTrajectory:
    """Values at every node of the time grid plus Picard diagnostics.

    ``values`` has shape (m_steps + 1, n_points): row i is the field at
    time node t_i on ``grid``.
    """

    timegrid: TimeGrid
    grid: LatticeGrid
    values: np.ndarray
    residuals: list[float] = dc_field(default_factory=list)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        shape = (self.timegrid.m_steps + 1, self.grid.n_points)
        if v.shape != shape:
            raise GridMismatchError(f"trajectory values {v.shape} do not match (nodes, sites) {shape}")
        self.values = v

    @property
    def times(self) -> np.ndarray:
        return self.timegrid.times

    def snapshot(self, i: int) -> LatticeField:
        """The field at time node i."""
        return LatticeField(grid=self.grid, values=self.values[i])

    @property
    def residual_ratios(self) -> list[float]:
        r = self.residuals
        return [r[i] / r[i - 1] for i in range(1, len(r)) if r[i - 1] > 0.0]


# ---------------------------------------------------------------------------
# dispersion multiplier
# ---------------------------------------------------------------------------


def _pair_multiplier(grid: LatticeGrid, alpha: float, kind: str) -> np.ndarray:
    """The dispersion multiplier mu on the N/2 + 1 +-xi pair rows of grid.

    Row k belongs to the frequency grid.freqs()[k]; mu(xi) = mu(-xi) is
    increasing in |xi|, so in FFT order mode j reads row min(j, N-j).
    Row 0, the zero mode, is exactly 0.
    """
    K = grid.n_points // 2 + 1
    if kind == "lattice":
        mu = w_on_dft_grid(alpha, grid.n_points)[:K] / grid.h**alpha
    elif kind == "continuum":
        mu = (np.abs(grid.freqs()[:K]) / grid.h) ** alpha
    else:
        raise ValueError(f"symbol kind must be 'lattice' or 'continuum': {kind!r}")
    mu[0] = 0.0
    return mu


def _gauss_jacobi(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for the weight (1 + x)^b on [-1, 1], b > -1, by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the Jacobi polynomials P^{(0,b)}: diagonal b/(b+2), then
    b^2/(c(c+2)), off-diagonal 2k(k+b)/(c sqrt(c^2-1)), with c = 2k+b,
    k = 1..n-1.  The weights are mu_0 = 2^{b+1}/(b+1), the weight's
    integral, times the squared first components of the eigenvectors.
    """
    k = np.arange(1, n)
    c = 2.0 * k + b
    diag = np.concatenate(([b / (b + 2.0)], b * b / (c * (c + 2.0))))
    off = 2.0 * k * (k + b) / (c * np.sqrt(c * c - 1.0))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (b + 1.0) / (b + 1.0) * vecs[0] ** 2


def _duhamel_nodes(timegrid: TimeGrid, beta: float, n_nodes: int = 8):
    """Quadrature nodes/assembled weights per lag (shared across modes)."""
    M = timegrid.m_steps
    dt = timegrid.dt
    xj, wj = _gauss_jacobi(n_nodes, beta - 1.0)
    xl, wl = np.polynomial.legendre.leggauss(n_nodes)

    # lag 1 touches the (t-s)^{beta-1} singularity: Gauss-Jacobi absorbs it;
    # lags >= 2 (rows 1..M-1): smooth kernel, Gauss-Legendre with the
    # explicit tau^{beta-1}
    t_nodes = np.arange(1, M)[:, None] * dt + dt * (xl + 1.0) / 2.0
    taus = np.vstack([dt * (xj + 1.0) / 2.0, t_nodes])
    wfac = np.vstack([(dt / 2.0) ** beta * wj, dt / 2.0 * wl * t_nodes ** (beta - 1.0)])
    phi_a = np.vstack([(xj + 1.0) / 2.0, np.broadcast_to((xl + 1.0) / 2.0, t_nodes.shape)])
    return taus, wfac, phi_a


# points per ml_ee_grid call in _duhamel_weight_blocks, about 74 bytes each: a
# quarter of the (nodes, sites) elements of a 257-node, 1024-site solve, so
# that building the kernel peaks below the Picard sweeps
_ML_POINTS = 1 << 16


def _duhamel_weight_blocks(timegrid: TimeGrid, mus: np.ndarray, params: ModelParams):
    """Product-integration weights (lo, hi, A, B), a block of columns at a time.

    A and B have shape (m_steps, hi - lo); column k belongs to mus[lo + k]
    >= 0, and the blocks cover mus in order.  For target node t_n and
    source interval [t_j, t_{j+1}] the pair at lag l = n - j approximates
    int (t_n - s)^{beta-1} E_{beta,beta}(i^{-beta}(t_n-s)^{beta} mu) g(s) ds
    by A[l-1] g(t_j) + B[l-1] g(t_{j+1}) for piecewise-linear g.
    """
    beta = params.beta
    taus, wfac, phi_a = _duhamel_nodes(timegrid, beta)
    M, n_nodes = taus.shape
    K = mus.size
    wa = wfac * phi_a
    wb = wfac * (1.0 - phi_a)
    tb = taus**beta
    chunk = max(1, _ML_POINTS // (M * n_nodes))
    for lo in range(0, K, chunk):
        hi = min(lo + chunk, K)
        r = tb[:, :, None] * mus[None, None, lo:hi]
        ek = ml_ee_grid(beta, r.reshape(M * n_nodes, -1), tol=GRID_TOL).reshape(M, n_nodes, hi - lo)
        yield lo, hi, np.einsum("li,lik->lk", wa, ek), np.einsum("li,lik->lk", wb, ek)


# ---------------------------------------------------------------------------
# initial data, propagation, nonlinearity
# ---------------------------------------------------------------------------


def prepare_initial(f, grid: LatticeGrid, use_filter: bool) -> LatticeField:
    """Initial datum: filtered (discretize on 2h, then interpolate) or raw."""
    if not use_filter:
        return discretize(f, grid)
    return filter_pi(discretize(f, grid.coarse()))


def _batch_nonlinearity(U: np.ndarray, params: ModelParams) -> np.ndarray:
    """Signed power nonlinearity, filtered through restrict + interpolate.

    Acts on one field or on every row of (nodes, sites): sign * Pi_h R_h
    (|u|^{p-1} u), or the pointwise power with use_filter off.  The filter
    keeps the even positions and averages the odd ones from their cyclic
    neighbours, which is Pi_h R_h when n_points % 4 == 0; solve checks that
    once, through grid.coarse().
    """
    G = params.sign * np.abs(U) ** (params.p - 1) * U
    if params.use_filter:
        even = G[..., ::2]
        G[..., 1::2] = 0.5 * (even + np.roll(even, -1, axis=-1))
    return G


# modes per block of _FoldedKernel.convolve: a block's (modes, P) buffer stays
# in cache and below malloc's mmap threshold, where one (K, P) buffer does not
_CONV_BLOCK = 256


class _FoldedKernel:
    """The causal product-integration sum as one convolution, kernel transformed once.

    D[n] = sum_{l=1..n} A[l-1] G[n-l] + B[l-1] G[n-l+1] collects, per source
    node k, the weight C[n-k] with C[m] = A[m-1] + B[m] (A[-1] = B[M] = 0),
    except that the B part has no interval left of t_0: the k = 0 term
    carries A only.  Hence D[n] = (C * G)[n] - B[n] G[0].

    A and B hold one column per +-xi pair, K = N/2 + 1 for N modes in FFT
    order: mode j uses column min(j, N-j).  weights yields them as
    (lo, hi, A, B) blocks of columns, so the full (M, K) tables never
    exist: the hole they would leave in the heap is too small for a
    (nodes, sites) array, and would stay resident through every sweep.
    The spectrum and B are stored mode-major at width K, (K, P) and
    (K, M): each pair's time series is a contiguous row, so both time-axis
    FFTs run in place along the last axis.  convolve works through blocks
    of modes, transposing G in and D out block by block.  The blocks split at mode K, so a block
    below it reads rows lo..hi-1 and a block above it rows N-lo down to
    N-hi+1, each a view of the kernel.
    """

    def __init__(self, weights, K: int, M: int, n_modes: int):
        # P, the least power of two >= 2M, keeps lags 1..M free of wrap-around;
        # lag 0 is set, not read
        self.size = 1 << (2 * M - 1).bit_length()
        C = np.zeros((K, self.size), dtype=np.complex128)
        self.Bt = np.empty((K, M), dtype=np.complex128)
        for lo, hi, A, B in weights:
            C[lo:hi, :M] = B.T
            C[lo:hi, 1 : M + 1] += A.T
            self.Bt[lo:hi] = B.T
        self.spectrum = np.fft.fft(C, axis=-1, out=C)
        edges = [*range(0, K, _CONV_BLOCK), *range(K, n_modes, _CONV_BLOCK), n_modes]
        self.blocks = [
            (lo, hi, slice(lo, hi) if hi <= K else slice(n_modes - lo, n_modes - hi, -1))
            for lo, hi in zip(edges, edges[1:])
        ]

    def convolve(self, G: np.ndarray) -> np.ndarray:
        """D of shape (M+1, N) for the density G of shape (M+1, N), N modes; D[0] = 0."""
        M = self.Bt.shape[1]
        N = G.shape[1]
        D = np.empty_like(G)
        buf = np.empty((min(_CONV_BLOCK, N), self.size), dtype=np.complex128)
        for lo, hi, rows in self.blocks:
            X = buf[: hi - lo]
            X[:, : M + 1] = G[:, lo:hi].T
            X[:, M + 1 :] = 0.0
            np.fft.fft(X, axis=-1, out=X)
            X *= self.spectrum[rows]
            np.fft.ifft(X, axis=-1, out=X)
            X[:, 1:M] -= self.Bt[rows, 1:] * G[0, lo:hi, None]
            D[:, lo:hi] = X[:, : M + 1].T
        D[0] = 0.0
        return D


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

_K_MAX = 60  # Picard sweeps before the solver returns the iterate it has


def solve(
    params: ModelParams,
    grid: LatticeGrid,
    timegrid: TimeGrid,
    f,
    symbol_source: str = "lattice",
    tol: float = 1e-10,
    nonlinear: bool = True,
    forcing=None,
    initial_field: LatticeField | None = None,
) -> SolutionTrajectory:
    """Picard construction of the solution to the memory integral equation.

    f is a callable initial profile (vectorised over ndarray); pass
    initial_field to skip the discretization step (lattice-native data).
    ``forcing`` adds a prescribed source t -> values array; combined with
    nonlinear=False it makes the density u-independent (manufactured
    time-refinement studies) and the fixed point is reached in one sweep.

    Raises ValueError for an unknown symbol_source or an initial_field that
    is not finite, GridMismatchError for a filtered nonlinear solve whose
    n_points is not divisible by 4, and NonContractionError when the linear
    flow, the first iterate, is not finite (the message names the stage
    that left double range: the datum built from f, its spectrum or its
    propagation), when a later iterate or its Lambda_T norm stops being
    finite, or when residuals fail to decrease on three consecutive sweeps:
    the signal that T exceeds the contraction horizon.  So no returned
    trajectory holds a non-finite value.
    """
    # the continuum reference carries no lattice filter, in its datum or
    # its nonlinearity
    run_params = replace(params, use_filter=False) if symbol_source == "continuum" else params
    if initial_field is not None:
        if not initial_field.grid.compatible(grid):
            raise GridMismatchError("initial_field grid does not match solver grid")
        bad = np.flatnonzero(~np.isfinite(initial_field.values))
        if bad.size:
            raise ValueError(
                f"solve: the initial field is not finite at {bad.size} of {grid.n_points} "
                f"sites (site {bad[0]} holds {initial_field.values[bad[0]]})"
            )
        u0 = initial_field
    else:
        u0 = prepare_initial(f, grid, run_params.use_filter)
    if nonlinear and run_params.use_filter:
        grid.coarse()  # the filter's sub-lattice: n_points % 4 == 0

    # E_beta(i^{-beta} t^beta mu), evaluated once per +-xi pair from the
    # radii t^beta mu and gathered to every mode; take, unlike fancy
    # indexing, keeps the gather row-major
    mu = _pair_multiplier(grid, params.alpha, symbol_source)
    r = np.multiply.outer(timegrid.times**params.beta, mu)
    j = np.arange(grid.n_points)
    LIN = ml_e_grid(params.beta, r, tol=GRID_TOL).take(np.minimum(j, grid.n_points - j), axis=-1)
    del r  # else it stays alive through every Picard sweep
    u0_hat = np.fft.fft(u0.values)
    LIN *= u0_hat
    # the linear flow is the first iterate; the first sweep turns it into
    # the step, which the next rebinding of U frees
    U = np.fft.ifft(LIN, axis=-1)
    U[0] = u0.values  # t = 0 multiplier is exactly 1
    if not np.isfinite(U).all():
        # like every Picard iterate, the first one must be finite; name the
        # first stage that left double range
        stages = (("datum", u0.values), ("datum's spectrum", u0_hat), ("propagated datum", U))
        stage = next(name for name, a in stages if not np.isfinite(a).all())
        raise NonContractionError(
            f"the linear flow is not finite: the {stage} left double range "
            f"(largest |datum| {np.abs(u0.values).max():.3e}); shrink the data",
            [],
        )

    if not nonlinear and forcing is None:
        return SolutionTrajectory(timegrid, grid, U)

    # the memory term carries the phase i^{-beta}: fold it into the weights
    unit = params.phase_unit
    blocks = _duhamel_weight_blocks(timegrid, mu, params)
    weights = ((lo, hi, unit * A, unit * B) for lo, hi, A, B in blocks)
    kernel = _FoldedKernel(weights, mu.size, timegrid.m_steps, grid.n_points)

    force_hat = None
    if forcing is not None:
        F = np.stack([np.asarray(forcing(t), dtype=np.complex128) for t in timegrid.times])
        force_hat = np.fft.fft(F, axis=-1, out=F)

    U_hat = LIN
    residuals: list[float] = []
    first_norm = None
    bad_streak = 0
    for sweep in range(1, _K_MAX + 1):
        if nonlinear:
            G_hat = _batch_nonlinearity(U, run_params)
            np.fft.fft(G_hat, axis=-1, out=G_hat)
            if force_hat is not None:
                G_hat += force_hat
        else:
            G_hat = force_hat
        U_new_hat = kernel.convolve(G_hat)
        del G_hat  # free the density before the norms allocate
        U_new_hat += LIN
        U_new = np.fft.ifft(U_new_hat, axis=-1)
        U_new[0] = u0.values  # D[0] = 0: node 0 is the datum, kept exact
        if not np.isfinite(U_new).all():
            raise NonContractionError(
                f"Picard sweep {sweep} produced a non-finite iterate; "
                f"shrink the horizon T = {timegrid.T:g}",
                residuals,
            )
        # the step U - U_new and its spectrum, in place (every eta is
        # sign-blind); LIN, the first previous spectrum, stays intact
        if U_hat is LIN:
            U_hat = LIN - U_new_hat
        else:
            U_hat -= U_new_hat
        U -= U_new
        res = lambda_norm(SolutionTrajectory(timegrid, grid, U), params, spectrum=U_hat).lam
        residuals.append(res)
        if first_norm is None:
            first_norm = lambda_norm(
                SolutionTrajectory(timegrid, grid, U_new), params, spectrum=U_new_hat
            ).lam
        # an overflowed norm would pass the stop test below as inf <= inf
        if not (math.isfinite(res) and math.isfinite(first_norm)):
            raise NonContractionError(
                f"Picard sweep {sweep} overflowed the Lambda_T norm (residual {res:.3e}, "
                f"first iterate {first_norm:.3e}); shrink the data or the horizon T = {timegrid.T:g}",
                residuals,
            )
        U, U_hat = U_new, U_new_hat
        if forcing is not None and not nonlinear:
            break  # u-independent source: fixed point after one sweep
        if res <= tol * max(first_norm, 1e-300):
            break
        if len(residuals) >= 2 and res >= residuals[-2]:
            bad_streak += 1
            if bad_streak >= 3:
                raise NonContractionError(
                    f"Picard residuals non-decreasing for 3 sweeps "
                    f"(last {res:.3e}); shrink the horizon T = {timegrid.T:g}",
                    residuals,
                )
        else:
            bad_streak = 0
    # exhausting _K_MAX with decreasing residuals is a legitimate exit: the
    # caller reads the quality off the residual history
    return SolutionTrajectory(timegrid, grid, U, residuals)


def solve_continuum_reference(
    params: ModelParams,
    grid: LatticeGrid,
    timegrid: TimeGrid,
    f,
    **kwargs,
) -> SolutionTrajectory:
    """Pseudo-spectral continuum solver: multiplier |xi|^alpha, no filtering."""
    return solve(params, grid, timegrid, f, symbol_source="continuum", **kwargs)

"""Model parameters, singular-kernel weights, propagation and Picard iteration."""

import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import assume, given, settings, strategies as st

import fraclat.solver as solver
from fraclat.lattice import (
    GridMismatchError,
    LatticeField,
    LatticeGrid,
    discretize,
    filter_pi,
    lambda_norm,
    norm_lp,
    restrict,
)
from fraclat.solver import (
    ModelParams,
    NonContractionError,
    ParameterError,
    SolutionTrajectory,
    TimeGrid,
    prepare_initial,
    solve,
    solve_continuum_reference,
)
from fraclat.solver import (
    _CONV_BLOCK,
    _FoldedKernel,
    _batch_nonlinearity,
    _duhamel_nodes,
    _duhamel_weight_blocks,
    _gauss_jacobi,
    _pair_multiplier,
)
from fraclat.special import GRID_TOL, ml_e_grid
from fraclat.symbol import w_eval


def gauss(x):
    return np.exp(-((np.asarray(x) / 2.0) ** 2)).astype(complex)


def chirped(x):
    # shifted, chirped complex Gaussian: neither even nor real, so a reversed
    # site or mode order changes the result
    x = np.asarray(x)
    return 0.7 * np.exp(-(((x - 1.3) / 1.6) ** 2) + 0.9j * x + 0.15j * x**2)


def zeros(x):
    return np.zeros_like(np.asarray(x), dtype=complex)


def weight_tables(tg, mus, params):
    """The full (m_steps, len(mus)) tables A, B, joined from solve's blocks of columns."""
    blocks = list(_duhamel_weight_blocks(tg, np.asarray(mus), params))
    edges = [0] + [hi for _, hi, _, _ in blocks]
    assert [lo for lo, _, _, _ in blocks] == edges[:-1] and edges[-1] == len(mus)
    return np.hstack([A for _, _, A, _ in blocks]), np.hstack([B for _, _, _, B in blocks])


def one_block(A, B, n_modes):
    """A kernel built from tables A, B of shape (M, K) passed as one block."""
    M, K = A.shape
    return _FoldedKernel([(0, K, A, B)], K, M, n_modes)


def mode_multiplier(grid, params, kind="lattice"):
    """mu at every mode in FFT order, evaluated mode by mode from the symbol."""
    xi = grid.freqs()
    if kind == "lattice":
        mu = w_eval(params.alpha, xi) / grid.h**params.alpha
    else:
        mu = (np.abs(xi) / grid.h) ** params.alpha
    mu[0] = 0.0
    return mu


class TestModelParams:
    def test_defaults_and_derived(self):
        p = ModelParams(alpha=1.5, beta=0.85)
        assert p.sigma == pytest.approx(1.5 / 0.85)
        assert p.s == pytest.approx(0.25)
        assert p.delta == pytest.approx(p.s + p.sigma - p.alpha)
        assert p.phase_unit == pytest.approx(cmath.exp(-1j * 0.85 * math.pi / 2))

    def test_worked_example_boundary(self):
        # alpha = 3/2 admits exactly beta in (3/4, 1)
        ModelParams(alpha=1.5, beta=0.76)
        with pytest.raises(ParameterError, match=r"alpha > \(sigma\+1\)/2"):
            ModelParams(alpha=1.5, beta=0.74)
        with pytest.raises(ParameterError):
            ModelParams(alpha=1.5, beta=0.75)  # boundary itself is excluded
        ModelParams(alpha=1.5, beta=0.75 + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
        beta=st.floats(0.5, 1.0, exclude_min=True),
    )
    def test_admissibility_boundary(self, alpha, beta):
        # alpha > (sigma+1)/2 with sigma = alpha/beta is beta > alpha/(2 alpha - 1)
        edge = alpha / (2.0 * alpha - 1.0)
        assume(abs(beta - edge) >= 1e-9)
        if beta > edge:
            ModelParams(alpha=alpha, beta=beta)
        else:
            with pytest.raises(ParameterError, match=r"alpha > \(sigma\+1\)/2"):
                ModelParams(alpha=alpha, beta=beta)

    def test_alpha_beta_ranges(self):
        with pytest.raises(ParameterError, match="alpha"):
            ModelParams(alpha=2.3, beta=0.9)
        with pytest.raises(ParameterError, match="beta"):
            ModelParams(alpha=1.5, beta=0.4)

    def test_beta_one_allowed(self):
        p = ModelParams(alpha=1.5, beta=1.0)
        assert p.sigma == pytest.approx(1.5)

    def test_s_condition(self):
        with pytest.raises(ParameterError, match=r"s >= 1/2 - 1/\(2\(p-1\)\)"):
            ModelParams(alpha=1.5, beta=0.85, s=0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError, match=rf"s >= .* fails: {bad:g} <"):
                ModelParams(alpha=1.5, beta=0.85, s=bad)

    def test_delta_window(self):
        # delta = s + sigma - alpha must stay below sigma/2 - 1/(2(p-1)):
        # an s at or past s_hi = alpha - sigma/2 - 1/4 empties the window
        p = ModelParams(alpha=1.5, beta=0.85)
        s_hi = p.alpha - p.sigma / 2.0 - 0.25
        for s in (s_hi, s_hi + 0.1):
            with pytest.raises(ParameterError, match=r"delta in \[s\+sigma-alpha, .*\) is empty"):
                ModelParams(alpha=1.5, beta=0.85, s=s)
        q = ModelParams(alpha=1.5, beta=0.85, s=s_hi - 1e-6)
        assert q.delta == q.s + q.sigma - q.alpha
        assert q.condition_margins()["delta_lt_sigma/2-1/(2(p-1))"] > 0.0

    def test_p_and_sign(self):
        with pytest.raises(ParameterError, match="odd"):
            ModelParams(alpha=1.5, beta=0.85, p=4)
        with pytest.raises(ParameterError, match="sign"):
            ModelParams(alpha=1.5, beta=0.85, sign=0)

    def test_margins_positive_when_valid(self):
        p = ModelParams(alpha=1.5, beta=0.85)
        assert all(v >= 0.0 for v in p.condition_margins().values())


class TestTimeGrid:
    def test_nodes(self):
        tg = TimeGrid(T=1.0, m_steps=4)
        assert tg.dt == 0.25
        assert np.allclose(tg.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(T=0.0, m_steps=4)
        with pytest.raises(ValueError, match="m_steps must be >= 2, got 1"):
            TimeGrid(T=1.0, m_steps=1)
        for T in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"T must be positive and finite, got {T}"):
                TimeGrid(T=T, m_steps=4)


def mode_weights(tg, mu, params):
    """The (A, B) columns of the weight tables for the single mode mu."""
    A, B = weight_tables(tg, [mu], params)
    return A[:, 0], B[:, 0]


class TestDuhamelWeights:
    @pytest.mark.parametrize("beta", [0.55, 0.85, 1.0])
    def test_gauss_rules_match_scipy(self, beta):
        # scipy's rules are an independent reference (scipy is a test dependency only)
        from scipy.special import roots_jacobi, roots_legendre

        xj, wj = roots_jacobi(8, 0.0, beta - 1.0)
        x, w = _gauss_jacobi(8, beta - 1.0)
        assert np.abs(x - xj).max() < 1e-15
        assert np.abs(w / wj - 1.0).max() < 5e-14
        # the assembled nodes and weights: Gauss-Jacobi on lag 1, Gauss-Legendre after
        tg = TimeGrid(T=0.4, m_steps=6)
        dt = tg.dt
        xl, wl = roots_legendre(8)
        lags = np.arange(2, 7)[:, None]
        t_ref = np.vstack([dt * (xj + 1.0) / 2.0, (lags - 1) * dt + dt * (xl + 1.0) / 2.0])
        w_ref = np.vstack([(dt / 2.0) ** beta * wj, dt / 2.0 * wl * t_ref[1:] ** (beta - 1.0)])
        taus, wfac, _ = _duhamel_nodes(tg, beta)
        assert np.abs(taus - t_ref).max() < 1e-15
        assert np.abs(wfac / w_ref - 1.0).max() < 5e-14

    def test_beta_one_mu_zero_trapezoid(self):
        params = ModelParams(alpha=1.5, beta=1.0)
        tg = TimeGrid(T=0.8, m_steps=8)
        A, B = mode_weights(tg, 0.0, params)
        assert np.allclose(A, tg.dt / 2.0, atol=1e-14)
        assert np.allclose(B, tg.dt / 2.0, atol=1e-14)

    def test_mu_zero_closed_form(self):
        # kernel tau^{b-1}/Gamma(b): analytic antiderivatives against linear hats
        params = ModelParams(alpha=1.5, beta=0.85)
        b = params.beta
        tg = TimeGrid(T=0.4, m_steps=16)
        dt = tg.dt
        A, B = mode_weights(tg, 0.0, params)

        def moments(lo, hi):
            m0 = (hi**b - lo**b) / b
            m1 = (hi ** (b + 1) - lo ** (b + 1)) / (b + 1)
            return m0, m1

        for lag in (1, 2, 7, 16):
            lo, hi = (lag - 1) * dt, lag * dt
            m0, m1 = moments(lo, hi)
            a_ref = (m1 - lo * m0) / dt / math.gamma(b)
            b_ref = (hi * m0 - m1) / dt / math.gamma(b)
            assert A[lag - 1] == pytest.approx(a_ref, rel=1e-12)
            assert B[lag - 1] == pytest.approx(b_ref, rel=1e-12)

    def test_frozen_oracle_values(self):
        # oracle: mpmath adaptive quadrature of tau^{b-1} E_{b,b}(i^{-b} tau^b mu) phi(tau)
        params = ModelParams(alpha=1.5, beta=0.85)
        tg = TimeGrid(T=0.01 * 64, m_steps=64)  # dt = 0.01
        A, B = mode_weights(tg, 3.0, params)
        refs = {
            1: (0.00979511858645928 - 0.00047974974649439j,
                0.0114672168154942 - 0.000280979228093179j),
            2: (0.00848759532366331 - 0.000935967193436933j,
                0.00876071469019559 - 0.000796568975495647j),
            5: (0.00730061668408028 - 0.0019825656467604j,
                0.00738761075534749 - 0.00187761669564342j),
        }
        # the adjacent interval carries the fixed 8-node Gauss-Jacobi design
        # accuracy (~1e-8 here: the density itself has tau^{beta} terms);
        # non-adjacent intervals are exact to roundoff
        for lag, (a_ref, b_ref) in refs.items():
            tol = dict(abs=2e-7) if lag == 1 else dict(rel=1e-9)
            assert A[lag - 1] == pytest.approx(a_ref, **tol)
            assert B[lag - 1] == pytest.approx(b_ref, **tol)

    def test_convolution_matches_direct_sum(self):
        # the folded kernel against the O(M^2) double sum; a large G[0] makes
        # the B[n] G[0] correction visible, from n = 1 to n = M; N past two
        # mode blocks reuses the block buffer.  Modes j and N - j share a
        # kernel row, as the +-xi pairs of the multiplier do, so the kernel
        # has N // 2 + 1 rows for N modes.
        rng = np.random.default_rng(0)
        for M, N in ((1, 6), (2, 6), (12, 6), (13, 6), (13, 2 * _CONV_BLOCK + 4)):
            j = np.arange(N)
            index = np.minimum(j, N - j)
            rows = N // 2 + 1
            A = rng.normal(size=(M, rows)) + 1j * rng.normal(size=(M, rows))
            B = rng.normal(size=(M, rows)) + 1j * rng.normal(size=(M, rows))
            G = rng.normal(size=(M + 1, N)) + 1j * rng.normal(size=(M + 1, N))
            G[0] *= 100.0
            D = one_block(A, B, N).convolve(G)
            A, B = A[:, index], B[:, index]
            ref = np.zeros_like(D)
            for n in range(1, M + 1):
                for l in range(1, n + 1):
                    ref[n] += A[l - 1] * G[n - l] + B[l - 1] * G[n - l + 1]
            assert D.shape == (M + 1, N)
            assert np.all(D[0] == 0.0)
            for n in (1, M):
                assert np.abs(D[n] - ref[n]).max() < 1e-12 * np.abs(ref[n]).max()
            assert np.abs(D - ref).max() < 1e-12 * np.abs(ref).max()

    def test_kernel_from_weight_blocks_equals_one_block(self, monkeypatch):
        # solve hands the kernel its weights a block of pair rows at a time;
        # the kernel is the one the joined tables give, bit for bit
        params = ModelParams(alpha=1.5, beta=0.85)
        tg = TimeGrid(T=0.2, m_steps=12)
        mus = _pair_multiplier(LatticeGrid(h=0.1, n_points=256), params.alpha, "lattice")
        monkeypatch.setattr(solver, "_ML_POINTS", 12 * 8 * 20)  # 20 rows a block
        assert len(list(_duhamel_weight_blocks(tg, mus, params))) == 7
        kernel = _FoldedKernel(_duhamel_weight_blocks(tg, mus, params), mus.size, 12, 256)
        ref = one_block(*weight_tables(tg, mus, params), 256)
        assert np.array_equal(kernel.spectrum, ref.spectrum)
        assert np.array_equal(kernel.Bt, ref.Bt)

    @pytest.mark.parametrize("n", [8, 256, 516, 1024, 4096])
    def test_blocks_read_pair_rows_as_slices(self, n):
        # the blocks tile the modes in order, and each reads the rows
        # min(j, n - j) of its modes through a slice, a view of the kernel
        K = n // 2 + 1
        kernel = one_block(np.zeros((2, K)), np.zeros((2, K)), n)
        j = np.arange(n)
        assert np.array_equal(np.concatenate([j[lo:hi] for lo, hi, _ in kernel.blocks]), j)
        for lo, hi, rows in kernel.blocks:
            assert isinstance(rows, slice) and 0 < hi - lo <= _CONV_BLOCK
            assert np.array_equal(np.arange(K)[rows], np.minimum(j, n - j)[lo:hi])

    @pytest.mark.parametrize("kind", ["lattice", "continuum"])
    def test_pair_width_kernel_equals_full_width(self, kind):
        # one kernel row per +-xi pair changes where a mode's row is read,
        # not one bit of the memory term: modes j and N - j with the same
        # density get the same D, bit for bit, whichever blocks hold them.
        # A neighbouring row has another mu, so a reversed slice one row
        # off fails this; 1024 modes span five mode blocks
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.05, n_points=1024)
        N = grid.n_points
        tg = TimeGrid(T=0.2, m_steps=12)
        A, B = weight_tables(tg, _pair_multiplier(grid, params.alpha, kind), params)
        assert A.shape == B.shape == (12, N // 2 + 1)
        kernel = one_block(A, B, N)
        assert kernel.spectrum.shape == (N // 2 + 1, kernel.size)
        rng = np.random.default_rng(3)
        G = rng.normal(size=(13, N)) + 1j * rng.normal(size=(13, N))
        j = np.arange(1, N // 2)
        G[:, N - j] = G[:, j]
        D = kernel.convolve(G)
        assert np.array_equal(D[:, j], D[:, N - j])


class TestSymbolTable:
    """The multiplier on the +-xi pair rows, and the tables solve builds from it."""

    def test_mu_nonnegative_zero_mode(self):
        grid = LatticeGrid(h=0.2, n_points=64)
        for kind in ("lattice", "continuum"):
            mu = _pair_multiplier(grid, 1.5, kind)
            assert mu[0] == 0.0  # FFT order: the zero mode first
            assert np.all(mu >= 0.0)

    def test_unknown_kind_named(self):
        grid = LatticeGrid(h=0.2, n_points=64)
        with pytest.raises(ValueError, match="'spectral'"):
            _pair_multiplier(grid, 1.5, "spectral")
        with pytest.raises(ValueError, match="'spectral'"):
            solve(ModelParams(alpha=1.5, beta=0.85), grid, TimeGrid(T=0.3, m_steps=4), gauss,
                  symbol_source="spectral")

    def test_lattice_symbol_matches_continuum_at_low_modes(self):
        # normalized symbol: w(xi) = |xi|^alpha (1 + O(xi^{2-alpha})); at the
        # lowest resolved modes the relative gap shrinks like xi^{1/2}
        grid = LatticeGrid(h=0.05, n_points=512)
        lat = _pair_multiplier(grid, 1.5, "lattice")
        cont = _pair_multiplier(grid, 1.5, "continuum")
        xi = grid.freqs()[: lat.size]
        dev = np.abs(lat / np.where(cont == 0.0, 1.0, cont) - 1.0)
        lowest = (np.abs(xi) > 0.0) & (np.abs(xi) < 0.05)
        mid = (np.abs(xi) > 0.2) & (np.abs(xi) < 0.4)
        assert dev[lowest].max() < 0.10
        assert dev[lowest].max() < dev[mid].min()  # gap closes as xi -> 0

    @pytest.mark.parametrize("kind", ["lattice", "continuum"])
    def test_mu_even_in_xi(self, kind):
        # the pair layout mode j -> row min(j, n - j) needs mu even in xi and
        # strictly increasing in |xi| up to the Nyquist mode n / 2: the pair
        # rows, read that way, give mu at every mode bit for bit
        params = ModelParams(alpha=1.5, beta=0.85)
        for n in (8, 18, 256, 512, 516, 1024, 4096):
            grid = LatticeGrid(h=51.2 / n, n_points=n)
            mu = _pair_multiplier(grid, params.alpha, kind)
            j = np.arange(n)
            assert mu.size == n // 2 + 1
            assert np.all(np.diff(mu) > 0.0)
            assert np.array_equal(mu[np.minimum(j, n - j)], mode_multiplier(grid, params, kind))

    @pytest.mark.parametrize("kind", ["lattice", "continuum"])
    def test_pair_tables_match_full_mode_evaluation(self, kind):
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.2, n_points=128)
        tg = TimeGrid(T=0.4, m_steps=16)
        mu = mode_multiplier(grid, params, kind)
        z = params.phase_unit * np.multiply.outer(tg.times**params.beta, mu)
        full = ml_e_grid(params.beta, z.astype(complex), tol=GRID_TOL)
        # solve's linear flow is its propagator table times the datum's
        # spectrum; a unit impulse has spectrum 1 at every mode, so the flow's
        # spectrum is the table itself, entry by entry, up to FFT rounding
        e0 = np.zeros(grid.n_points, dtype=complex)
        e0[0] = 1.0
        traj = solve(params, grid, tg, None, symbol_source=kind, nonlinear=False,
                     initial_field=LatticeField(grid=grid, values=e0))
        prop = np.fft.fft(traj.values, axis=-1)
        assert np.abs(prop - full).max() <= (GRID_TOL + 1e-13) * np.abs(full).max()
        A_full, B_full = weight_tables(tg, mu, params)
        A, B = weight_tables(tg, _pair_multiplier(grid, params.alpha, kind), params)
        assert A.shape == B.shape == (tg.m_steps, grid.n_points // 2 + 1)
        j = np.arange(grid.n_points)
        index = np.minimum(j, grid.n_points - j)
        for got, ref in ((A[:, index], A_full), (B[:, index], B_full)):
            assert np.abs(got - ref).max() <= GRID_TOL * np.abs(ref).max()


class TestPrepareInitial:
    def test_zero(self):
        grid = LatticeGrid(h=0.2, n_points=64)
        assert norm_lp(prepare_initial(zeros, grid, True), 2) == 0.0

    def test_filtered_constant(self):
        grid = LatticeGrid(h=0.2, n_points=64)
        f = prepare_initial(lambda x: np.full_like(np.asarray(x), 3.0, dtype=complex), grid, True)
        assert np.allclose(f.values, 3.0, atol=1e-13)

    def test_filtered_spectrum_vanishes_at_nyquist(self):
        grid = LatticeGrid(h=0.2, n_points=128)
        filt = prepare_initial(gauss, grid, True)
        raw = prepare_initial(gauss, grid, False)
        c_f = sfft.fft(filt.values)
        c_r = sfft.fft(raw.values)
        # multiplier 2 cos^2(xi/2) kills the edge mode, at M/2 in FFT order
        assert grid.freqs()[64] == -math.pi
        assert abs(c_f[64]) < 1e-13 * abs(c_r).max()


class TestApplyNonlinearity:
    """The Picard density, _batch_nonlinearity, on one field and on (nodes, sites)."""

    def test_zero(self):
        out = _batch_nonlinearity(np.zeros(16, dtype=complex), ModelParams(alpha=1.5, beta=0.85))
        assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_constant_filtered(self, sign):
        c = 1.5 - 0.5j
        out = _batch_nonlinearity(np.full(16, c), ModelParams(alpha=1.5, beta=0.85, sign=sign))
        assert np.allclose(out, sign * abs(c) ** 2 * c, atol=1e-14)

    def test_alternating_hand_computation(self):
        # u_m = (-1)^m c; |u|^2 u = (-1)^m |c|^2 c; restriction keeps the even
        # sites (constant |c|^2 c) and the odd sites re-average to the same
        c = 0.8 + 0.3j
        u = np.array([(-1.0) ** m * c for m in range(16)])
        out = _batch_nonlinearity(u, ModelParams(alpha=1.5, beta=0.85, sign=1))
        assert np.allclose(out, abs(c) ** 2 * c, atol=1e-14)

    def test_batch_matches_single(self):
        grid = LatticeGrid(h=0.2, n_points=32)
        rng = np.random.default_rng(1)
        params = ModelParams(alpha=1.5, beta=0.85, sign=-1)
        U = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
        batch = _batch_nonlinearity(U, params)
        for i in range(3):
            single = _batch_nonlinearity(U[i], params)
            pointwise = LatticeField(grid=grid, values=-np.abs(U[i]) ** 2 * U[i])
            assert np.abs(batch[i] - single).max() < 1e-14
            assert np.abs(batch[i] - filter_pi(restrict(pointwise)).values).max() < 1e-14

    def test_unfiltered_pointwise(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        params = ModelParams(alpha=1.5, beta=0.85, use_filter=False)
        out = _batch_nonlinearity(v, params)
        assert np.allclose(out, np.abs(v) ** 2 * v, atol=1e-14)


class TestLinearPropagate:
    """The propagator table, and solve(nonlinear=False) built on it."""

    def test_t_zero_identity(self):
        # solve keeps node 0 as the datum: the t = 0 multiplier is exactly 1
        grid = LatticeGrid(h=0.2, n_points=64)
        params = ModelParams(alpha=1.5, beta=0.85)
        u0 = prepare_initial(gauss, grid, True)
        z = params.phase_unit * 0.0**params.beta * _pair_multiplier(grid, params.alpha, "lattice")
        first = ml_e_grid(params.beta, z.astype(complex), tol=GRID_TOL)
        assert np.array_equal(first, np.ones(33))
        traj = solve(params, grid, TimeGrid(T=0.3, m_steps=4), gauss, nonlinear=False)
        assert np.array_equal(traj.values[0], u0.values)

    def test_zero_mode_invariant(self):
        grid = LatticeGrid(h=0.2, n_points=64)
        params = ModelParams(alpha=1.5, beta=0.85)
        traj = solve(params, grid, TimeGrid(T=1.7, m_steps=17), gauss, nonlinear=False)
        c = sfft.fft(traj.values, axis=-1)[:, 0]
        assert np.abs(c - c[0]).max() <= 1e-12 * abs(c[0])

    def test_beta_one_phase_rotation(self):
        grid = LatticeGrid(h=0.2, n_points=64)
        params = ModelParams(alpha=1.5, beta=1.0)
        t = 0.37
        traj = solve(params, grid, TimeGrid(T=t, m_steps=4), gauss, nonlinear=False)
        out = sfft.fft(traj.values[-1])
        ref = np.exp(-1j * t * mode_multiplier(grid, params)) * sfft.fft(traj.values[0])
        assert np.abs(out - ref).max() < 1e-12 * np.abs(ref).max()


class TestSolve:
    def test_zero_data_zero_trajectory(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.2, n_points=64)
        traj = solve(params, grid, TimeGrid(T=0.3, m_steps=16), zeros)
        assert np.abs(traj.values).max() == 0.0

    def test_snapshot_zero_is_initial_datum(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.2, n_points=64)
        traj = solve(params, grid, TimeGrid(T=0.3, m_steps=16), gauss)
        u0 = prepare_initial(gauss, grid, True)
        assert np.array_equal(traj.values[0], u0.values)

    def test_nonlinearity_off_equals_linear_propagator(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.2, n_points=64)
        tg = TimeGrid(T=0.3, m_steps=16)
        traj = solve(params, grid, tg, gauss, nonlinear=False)
        mu = mode_multiplier(grid, params)
        u0_hat = sfft.fft(prepare_initial(gauss, grid, True).values)
        for i in (3, 16):
            z = params.phase_unit * tg.times[i] ** params.beta * mu
            ref = sfft.ifft(ml_e_grid(params.beta, z.astype(complex)) * u0_hat)
            assert np.abs(traj.values[i] - ref).max() < 1e-10

    def test_contraction_ratios(self):
        # defocusing cubic, Gaussian data: geometric residual decay, ratio < 0.5
        params = ModelParams(alpha=1.5, beta=0.85, sign=1)
        grid = LatticeGrid(h=0.2, n_points=128)
        traj = solve(params, grid, TimeGrid(T=0.5, m_steps=64), gauss)
        ratios = traj.residual_ratios
        assert len(traj.residuals) >= 3
        assert max(ratios) < 0.5

    def test_non_contraction_raises_for_large_horizon(self, monkeypatch):
        monkeypatch.setattr(solver, "_K_MAX", 25)
        params = ModelParams(alpha=1.5, beta=0.85, sign=-1)  # focusing, large data
        grid = LatticeGrid(h=0.4, n_points=32)

        def big(x):
            return 4.0 * np.exp(-((np.asarray(x) / 1.5) ** 2)).astype(complex)

        with pytest.raises(NonContractionError):
            solve(params, grid, TimeGrid(T=4.0, m_steps=64), big)

    def test_contraction_strengthens_as_horizon_shrinks(self):
        params = ModelParams(alpha=1.5, beta=0.85, sign=1)
        grid = LatticeGrid(h=0.2, n_points=128)
        worst = {}
        for T in (0.8, 0.4, 0.2):
            traj = solve(params, grid, TimeGrid(T=T, m_steps=64), gauss)
            worst[T] = max(traj.residual_ratios[:3])  # early sweeps set the rate
        assert worst[0.2] < worst[0.4] < worst[0.8] < 1.0

    def test_filter_parity_rejected_up_front(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.4, n_points=18)
        tg = TimeGrid(T=0.2, m_steps=8)
        u0 = discretize(chirped, grid)
        with pytest.raises(GridMismatchError, match="n_points = 18"):
            solve(params, grid, tg, None, initial_field=u0)
        # unfiltered, or linear, the same grid is fine
        solve(replace(params, use_filter=False), grid, tg, None, initial_field=u0)
        solve(params, grid, tg, None, initial_field=u0, nonlinear=False)

    def test_non_finite_initial_field_rejected(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.2, n_points=64)
        u0 = prepare_initial(gauss, grid, True)
        values = u0.values.copy()
        values[7] = np.nan
        bad = LatticeField(grid=grid, values=values)
        with pytest.raises(ValueError, match=r"initial field is not finite.*site 7 holds \(?nan"):
            solve(params, grid, TimeGrid(T=0.3, m_steps=16), None, initial_field=bad)

    def test_non_finite_iterate_raises_typed_error(self):
        # a forcing that turns non-finite at the last node poisons the first
        # iterate; the sweep stops with NonContractionError, never a NaN result
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.2, n_points=64)
        tg = TimeGrid(T=0.3, m_steps=16)

        def forcing(t):
            return np.full(grid.n_points, np.nan if t == tg.T else 0.0, dtype=complex)

        with pytest.raises(NonContractionError, match="sweep 1 produced a non-finite iterate") as exc:
            solve(params, grid, tg, gauss, forcing=forcing)
        assert exc.value.residuals == []

    def test_k_max_exhaustion_is_normal_exit(self, monkeypatch):
        monkeypatch.setattr(solver, "_K_MAX", 2)
        params = ModelParams(alpha=1.5, beta=0.85, sign=1)
        grid = LatticeGrid(h=0.2, n_points=64)
        traj = solve(params, grid, TimeGrid(T=0.3, m_steps=16), gauss)
        assert len(traj.residuals) == 2  # stopped at the sweep budget

    def test_forced_problem_single_sweep(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.4, n_points=32)
        psi = np.exp(-((grid.sites() / 2.0) ** 2)).astype(complex)
        traj = solve(
            params, grid, TimeGrid(T=0.5, m_steps=16), zeros,
            nonlinear=False, forcing=lambda t: (t**0.85) * psi,
        )
        assert len(traj.residuals) == 1

    def test_time_refinement_order(self):
        # manufactured linear-forced: global order 1+beta for a t^beta density
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.4, n_points=64)
        psi = np.exp(-((grid.sites() / 2.0) ** 2)).astype(complex)
        forcing = lambda t: (t**params.beta) * psi
        finals = {}
        for M in (32, 64, 128, 256, 512):
            tr = solve(params, grid, TimeGrid(T=0.5, m_steps=M), gauss,
                       nonlinear=False, forcing=forcing)
            finals[M] = tr.values[-1]
        errs = [
            (0.5 / M, math.sqrt(grid.h * np.sum(np.abs(finals[M] - finals[512]) ** 2)))
            for M in (32, 64, 128, 256)
        ]
        slope = np.polyfit(np.log([e[0] for e in errs]), np.log([e[1] for e in errs]), 1)[0]
        assert abs(slope - (1.0 + params.beta)) <= 0.3

    def test_kernel_derivative_loss_slope(self):
        # |t^{b-1} E_{b,b}(i^{-b} t^b mu)| grows like (xi/h)^{sigma-alpha}
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.0125, n_points=4096)
        mu = mode_multiplier(grid, params, "continuum")
        t = 1.0
        xi = grid.freqs()
        sel = (np.abs(xi) / grid.h > 20.0) & (xi < 0)
        from fraclat.special import ml_ee_grid

        z = params.phase_unit * (t**params.beta) * mu[sel].astype(complex)
        mults = np.abs(t ** (params.beta - 1.0) * ml_ee_grid(params.beta, z))
        slope = np.polyfit(np.log(np.abs(xi[sel]) / grid.h), np.log(mults), 1)[0]
        assert abs(slope - (params.sigma - params.alpha)) <= 0.1


class TestContinuumReference:
    def test_linear_case_matches_exact_multiplier(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.1, n_points=256)
        tg = TimeGrid(T=0.3, m_steps=8)
        traj = solve_continuum_reference(params, grid, tg, gauss, nonlinear=False)
        from fraclat.special import ml_e_grid

        u0_hat = sfft.fft(traj.values[0])
        t = float(tg.times[5])
        z = params.phase_unit * t**params.beta * mode_multiplier(grid, params, "continuum")
        ref = sfft.ifft(ml_e_grid(params.beta, z.astype(complex)) * u0_hat)
        assert np.abs(traj.values[5] - ref).max() < 1e-10

    def test_beta_one_mass_conservation(self):
        params = ModelParams(alpha=1.5, beta=1.0, sign=1)
        grid = LatticeGrid(h=0.1, n_points=256)
        traj = solve_continuum_reference(
            params, grid, TimeGrid(T=0.1, m_steps=512), gauss
        )
        m0 = norm_lp(traj.snapshot(0), 2)
        mT = norm_lp(traj.snapshot(-1), 2)
        assert abs(mT - m0) / m0 < 1e-6

    def test_heap_peak_in_arrays(self, monkeypatch):
        # A nonlinear sweep holds five (nodes, sites) arrays: the linear flow,
        # the iterate, the step's spectrum, and the density and memory term
        # (or the new iterate and its spectrum).  The memory kernel, one
        # spectrum row and one B row per +-xi pair, adds about 1.5 arrays.
        # Measured: 7.19 arrays under pytest, 7.38 in a fresh interpreter.
        # The bound leaves about half an array, less than an iterate kept
        # alive (+1) or a kernel stored per mode (+1.5) adds.
        # The criterion-9 reference's ML point budget is a quarter of its
        # (nodes, sites) elements; this solve keeps that proportion.
        grid = LatticeGrid(h=0.025, n_points=2048)
        tg = TimeGrid(T=0.4, m_steps=128)
        elements = (tg.m_steps + 1) * grid.n_points
        monkeypatch.setattr(solver, "_ML_POINTS", elements // 4)
        params = ModelParams(alpha=1.5, beta=0.85)
        tracemalloc.start()
        try:
            traj = solve_continuum_reference(params, grid, tg, lambda x: 0.8 * gauss(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.residuals) > 2  # the peak is reached from the second sweep on
        assert peak < 7.7 * 16 * elements, f"{peak / (16 * elements):.2f} arrays"


def _site_order_reference(params, grid, tg, u0, kind, nonlinear=True, forcing=None, tol=1e-10):
    """The Picard loop with centred transforms, per-mode tables and a direct memory sum."""

    def dft_rows(v):  # the centred sum over m = -M/2 .. M/2-1, xi from -pi up
        return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(v, axes=-1), axis=-1), axes=-1)

    def idft_rows(c):
        return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(c, axes=-1), axis=-1), axes=-1)

    # mu from the symbol itself, at the centred frequencies xi_m = 2 pi m/M
    xi = 2.0 * math.pi * np.arange(-(grid.n_points // 2), grid.n_points // 2) / grid.n_points
    if kind == "lattice":
        mu = w_eval(params.alpha, xi) / grid.h**params.alpha
    else:
        mu = np.abs(xi / grid.h) ** params.alpha
    z = params.phase_unit * np.multiply.outer(tg.times**params.beta, mu).astype(complex)
    LIN = ml_e_grid(params.beta, z) * dft_rows(u0)
    A, B = weight_tables(tg, mu, params)
    filtered = params.use_filter and kind == "lattice"

    def density(U):
        G = params.sign * np.abs(U) ** (params.p - 1) * U
        if filtered:
            G = np.stack([filter_pi(restrict(LatticeField(grid=grid, values=g))).values for g in G])
        return dft_rows(G)

    def memory(G):
        D = np.zeros_like(G)
        for n in range(1, tg.m_steps + 1):
            for l in range(1, n + 1):
                D[n] += A[l - 1] * G[n - l] + B[l - 1] * G[n - l + 1]
        return D

    F = 0.0 if forcing is None else dft_rows(np.stack([forcing(t) for t in tg.times]))
    U = idft_rows(LIN)
    U[0] = u0
    residuals, first = [], None
    for _ in range(60):
        G = (density(U) if nonlinear else 0.0) + F
        U_new = idft_rows(LIN + params.phase_unit * memory(G))
        U_new[0] = u0
        residuals.append(lambda_norm(SolutionTrajectory(tg, grid, U_new - U), params).lam)
        if first is None:
            first = lambda_norm(SolutionTrajectory(tg, grid, U_new), params).lam
        U = U_new
        if not nonlinear or residuals[-1] <= tol * first:
            break
    return U, residuals


class TestSiteOrder:
    """solve against a site-order reference sweep, on data with no symmetry."""

    @pytest.mark.parametrize("case", ["filtered-lattice", "continuum", "forced-linear"])
    def test_matches_site_order_reference(self, case):
        params = ModelParams(alpha=1.5, beta=0.85, sign=-1)
        tg = TimeGrid(T=0.3, m_steps=16)
        kw = {}
        if case == "continuum":
            grid = LatticeGrid(h=0.2, n_points=64)
            kind, u0 = "continuum", discretize(chirped, grid).values
        else:
            grid = LatticeGrid(h=0.4, n_points=32)
            kind, u0 = "lattice", prepare_initial(chirped, grid, True).values
        if case == "forced-linear":
            psi = chirped(grid.sites() + 0.7)
            kw = dict(nonlinear=False, forcing=lambda t: t**params.beta * psi)
        traj = solve(params, grid, tg, chirped, symbol_source=kind, **kw)
        ref, ref_res = _site_order_reference(params, grid, tg, u0, kind, **kw)
        assert np.abs(traj.values - ref).max() <= 1e-12 * np.abs(ref).max()
        assert len(traj.residuals) == len(ref_res) >= (1 if kw else 3)
        assert traj.residuals == pytest.approx(ref_res, rel=1e-6)

    @pytest.mark.parametrize("case", ["filtered-lattice", "continuum"])
    @pytest.mark.parametrize("r", [2, 6, "half"])
    def test_shift_equivariant(self, case, r):
        # every operator of the loop is a Fourier multiplier, a modulus or the
        # filter on even positions: rolling the datum by an even r rolls the
        # whole trajectory
        params = ModelParams(alpha=1.5, beta=0.85, sign=-1)
        tg = TimeGrid(T=0.3, m_steps=16)
        if case == "continuum":
            grid = LatticeGrid(h=0.2, n_points=64)
            kind, u0 = "continuum", discretize(chirped, grid)
        else:
            grid = LatticeGrid(h=0.4, n_points=32)
            kind, u0 = "lattice", prepare_initial(chirped, grid, True)
        r = grid.n_points // 2 if r == "half" else r
        rolled = LatticeField(grid=grid, values=np.roll(u0.values, r))
        traj = solve(params, grid, tg, None, symbol_source=kind, initial_field=u0)
        shifted = solve(params, grid, tg, None, symbol_source=kind, initial_field=rolled)
        expected = np.roll(traj.values, r, axis=-1)
        assert np.abs(shifted.values - expected).max() <= 1e-12 * np.abs(expected).max()
        assert len(shifted.residuals) == len(traj.residuals) >= 3

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([8, 12, 16, 32]),
        nodes=st.integers(3, 9),
        shift=st.integers(-40, 40),
        seed=st.integers(0, 2**16),
    )
    def test_lambda_norm_roll_and_sign_blind(self, n, nodes, shift, seed):
        # the solver measures residuals as U - U_new and passes in the
        # spectrum it already holds
        params = ModelParams(alpha=1.5, beta=0.85)
        grid = LatticeGrid(h=0.3, n_points=n)
        tg = TimeGrid(T=0.5, m_steps=nodes - 1)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(nodes, n)) + 1j * rng.normal(size=(nodes, n))
        rep = lambda_norm(SolutionTrajectory(tg, grid, values), params)
        rolled = lambda_norm(SolutionTrajectory(tg, grid, np.roll(values, shift, axis=-1)), params)
        for a, b in ((rep.eta1, rolled.eta1), (rep.eta2, rolled.eta2), (rep.eta3, rolled.eta3)):
            assert b == pytest.approx(a, rel=1e-12)
        assert lambda_norm(SolutionTrajectory(tg, grid, -values), params) == rep
        given_spectrum = lambda_norm(
            SolutionTrajectory(tg, grid, values), params, spectrum=np.fft.fft(values, axis=-1)
        )
        assert given_spectrum == rep

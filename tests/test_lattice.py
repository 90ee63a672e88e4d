"""Grids, transforms, lattice operators and the norm suite."""

import math

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fraclat.lattice import (
    GridMismatchError,
    LatticeField,
    LatticeGrid,
    discretize,
    field_from_bytes,
    field_to_bytes,
    filter_pi,
    inject,
    interp_linear,
    interp_multiplier,
    lambda_norm,
    norm_lp,
    norm_maximal,
    norm_smoothing,
    norm_sobolev,
    restrict,
)
from fraclat.lattice import _NORM_ROWS
from fraclat.solver import ModelParams, SolutionTrajectory, TimeGrid


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    return LatticeField(grid=grid, values=v)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeGrid(h=0.0, n_points=16)
        for n in (15, 4):
            with pytest.raises(ValueError, match=f"n_points must be even and >= 8, got {n}"):
                LatticeGrid(h=0.1, n_points=n)
        for h in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"h must be positive and finite, got {h}"):
                LatticeGrid(h=h, n_points=16)

    def test_sites_and_freqs(self):
        g = LatticeGrid(h=0.5, n_points=8)
        assert g.extent == pytest.approx(4.0)
        assert g.sites()[0] == pytest.approx(-2.0)
        # FFT order: the zero mode first, the edge -pi at M/2
        assert g.freqs()[0] == 0.0
        assert g.freqs()[4] == pytest.approx(-math.pi)
        assert np.array_equal(g.freqs(), 2.0 * math.pi * np.fft.fftfreq(8))


class TestDiscretize:
    def test_constant(self):
        g = LatticeGrid(h=0.3, n_points=16)
        f = discretize(lambda x: np.ones_like(x, dtype=complex), g)
        assert np.allclose(f.values, 1.0, atol=1e-15)

    def test_linear_exact_average(self):
        g = LatticeGrid(h=0.2, n_points=8)
        f = discretize(lambda x: x.astype(complex), g)
        # site m=0 owns the cell [0, h): average h/2
        assert f.values[4] == pytest.approx(0.1, abs=1e-15)

    def test_gaussian_against_adaptive_quadrature(self):
        g = LatticeGrid(h=0.1, n_points=32)
        f = discretize(lambda x: np.exp(-(x**2)).astype(complex), g)
        for m in (0, 5, 20, 31):
            a = g.sites()[m]
            ref = quad(lambda x: math.exp(-(x**2)), a, a + g.h, epsabs=1e-14)[0] / g.h
            assert f.values[m] == pytest.approx(ref, abs=1e-12)


class TestTransforms:
    """scipy.fft.fft of the stored values, indexed by grid.freqs()."""

    def test_delta_is_flat(self):
        # the delta at site m = 0 sits at storage position M/2: its centred
        # sum is 1, so coefficient j is (-1)^j
        g = LatticeGrid(h=0.5, n_points=16)
        v = np.zeros(16, dtype=complex)
        v[8] = 1.0
        c = sfft.fft(LatticeField(grid=g, values=v).values)
        assert np.allclose(c, (-1.0) ** np.arange(16), atol=1e-14)

    def test_pure_mode_single_coefficient(self):
        # e^{i xi_k m} peaks where grid.freqs() == xi_k; k = -8 is the edge -pi
        g = LatticeGrid(h=0.5, n_points=16)
        m = np.arange(16) - 8
        for k in (3, -3, -8):
            xi = 2.0 * math.pi * k / 16
            mags = np.abs(sfft.fft(LatticeField(grid=g, values=np.exp(1j * xi * m)).values))
            peak = int(np.argmax(mags))
            assert g.freqs()[peak] == pytest.approx(xi, abs=1e-15)
            assert mags[peak] == pytest.approx(16.0, rel=1e-12)
            mags[peak] = 0.0
            assert mags.max() < 1e-10

    @pytest.mark.parametrize("n", [16, 48, 64, 250])
    def test_parseval(self, n):
        g = LatticeGrid(h=0.17, n_points=n)
        u = random_field(g, n)
        c = sfft.fft(u.values)
        quadrature = g.h / g.n_points * np.sum(np.abs(c) ** 2)
        assert quadrature == pytest.approx(norm_lp(u, 2) ** 2, rel=1e-12)


class TestOperatorProperties:
    """Parseval and the filter/inject/restrict algebra on random fields."""

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(4, 160), h=st.floats(0.01, 2.0), seed=st.integers(0, 2**16))
    def test_parseval(self, half, h, seed):
        # h sum |u|^2 = (h/M) sum |u_hat|^2
        u = random_field(LatticeGrid(h=h, n_points=2 * half), seed)
        c = np.fft.fft(u.values)
        lhs = h * np.sum(np.abs(u.values) ** 2)
        assert h / u.grid.n_points * np.sum(np.abs(c) ** 2) == pytest.approx(lhs, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(4, 160), h=st.floats(0.01, 2.0), seed=st.integers(0, 2**16))
    def test_restrict_undoes_filter_and_inject(self, half, h, seed):
        c = random_field(LatticeGrid(h=h, n_points=2 * half), seed)
        assert np.array_equal(restrict(filter_pi(c)).values, c.values)
        assert np.array_equal(restrict(inject(c)).values, c.values)
        assert restrict(filter_pi(c)).grid.compatible(c.grid)

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(4, 160), h=st.floats(0.01, 2.0), seed=st.integers(0, 2**16))
    def test_filter_multiplier(self, half, h, seed):
        # fft(filter c) = 2 cos^2(xi/2) fft(inject c) on the fine grid
        c = random_field(LatticeGrid(h=h, n_points=2 * half), seed)
        fine = filter_pi(c)
        lhs = np.fft.fft(fine.values)
        rhs = 2.0 * np.cos(fine.grid.freqs() / 2.0) ** 2 * np.fft.fft(inject(c).values)
        assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(rhs).max()


class TestFilterInjectRestrict:
    def test_filter_constant(self):
        cg = LatticeGrid(h=0.5, n_points=16)
        f = filter_pi(LatticeField(grid=cg, values=np.full(16, 2.0 + 1j)))
        assert np.allclose(f.values, 2.0 + 1j, atol=1e-15)

    def test_restrict_after_filter_is_identity(self):
        cg = LatticeGrid(h=0.5, n_points=16)
        f2 = random_field(cg, 2)
        assert np.array_equal(restrict(filter_pi(f2)).values, f2.values)

    def test_restrict_after_inject_is_identity(self):
        cg = LatticeGrid(h=0.5, n_points=16)
        f2 = random_field(cg, 3)
        assert np.array_equal(restrict(inject(f2)).values, f2.values)

    def test_spectral_multiplier_identity(self):
        # fft(filter f) = 2 cos^2(xi/2) fft(inject f)
        cg = LatticeGrid(h=0.5, n_points=32)
        f2 = random_field(cg, 4)
        fine_xi = filter_pi(f2).grid.freqs()
        lhs = sfft.fft(filter_pi(f2).values)
        rhs = 2.0 * np.cos(fine_xi / 2.0) ** 2 * sfft.fft(inject(f2).values)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_inject_constant_alternates(self):
        cg = LatticeGrid(h=0.5, n_points=8)
        v = inject(LatticeField(grid=cg, values=np.ones(8, dtype=complex))).values
        assert np.allclose(v[::2], 1.0) and np.allclose(v[1::2], 0.0)

    def test_inject_norm_relation(self):
        cg = LatticeGrid(h=0.5, n_points=32)
        f2 = random_field(cg, 5)
        assert norm_lp(inject(f2), 2) ** 2 == pytest.approx(
            0.5 * norm_lp(f2, 2) ** 2, rel=1e-13
        )

    def test_inject_pure_mode_aliases(self):
        # brute-force DFT of the injected coarse mode on 16 fine sites
        cg = LatticeGrid(h=0.5, n_points=8)
        k = np.arange(8) - 4
        xi_c = 2.0 * math.pi * 2 / 8
        f2 = LatticeField(grid=cg, values=np.exp(1j * xi_c * k))
        fine = inject(f2)
        m = np.arange(16) - 8
        spec = np.array(
            [np.sum(fine.values * np.exp(-1j * xi * m)) for xi in fine.grid.freqs()]
        )
        peaks = np.nonzero(np.abs(spec) > 1e-9)[0]
        xi_f = fine.grid.freqs()[peaks]
        assert len(peaks) == 2  # the mode and its Nyquist-shifted alias
        assert np.any(np.isclose(xi_f, xi_c / 2.0))
        assert np.any(np.isclose(np.abs(np.abs(xi_f) - math.pi), xi_c / 2.0, atol=1e-12))

    def test_restrict_alternating_sign_field(self):
        g = LatticeGrid(h=0.25, n_points=16)
        v = np.array([(-1.0) ** m for m in range(16)], dtype=complex)
        assert np.allclose(restrict(LatticeField(grid=g, values=v)).values, 1.0)

    def test_filter_norm_equivalence_across_h(self):
        # ||f_2h||_{L^2_2h} ~ ||Pi_h f_2h||_{L^2_h} with h-independent constants
        rng = np.random.default_rng(21)
        ratios = []
        for h in (0.4, 0.2, 0.1, 0.05):
            n_c = int(round(25.6 / (2 * h)))
            cg = LatticeGrid(h=2 * h, n_points=n_c)
            vals = rng.normal(size=n_c) + 1j * rng.normal(size=n_c)
            f2 = LatticeField(grid=cg, values=vals)
            ratios.append(norm_lp(filter_pi(f2), 2) / norm_lp(f2, 2))
        assert 0.5 < min(ratios) and max(ratios) < 1.5

    def test_linearity_of_filter_and_inject(self):
        cg = LatticeGrid(h=0.5, n_points=16)
        a, b = random_field(cg, 22), random_field(cg, 23)
        lam = 0.7 - 0.2j
        comb = LatticeField(grid=cg, values=a.values + lam * b.values)
        for op in (filter_pi, inject):
            lhs = op(comb).values
            rhs = op(a).values + lam * op(b).values
            assert np.abs(lhs - rhs).max() < 1e-14


class TestInterpolation:
    def test_same_grid_identity(self):
        g = LatticeGrid(h=0.5, n_points=16)
        u = random_field(g, 6)
        assert np.abs(interp_linear(u, g).values - u.values).max() < 1e-15

    def test_filter_compatibility(self):
        # p_h (Pi_h f_2h) = p_2h f_2h: both are linear interpolants of f_2h
        cg = LatticeGrid(h=0.5, n_points=16)
        f2 = random_field(cg, 7)
        query = LatticeGrid(h=0.125, n_points=64)
        via_filter = interp_linear(filter_pi(f2), query)
        direct = interp_linear(f2, query)
        assert np.abs(via_filter.values - direct.values).max() < 1e-13

    def test_trajectory_interpolates_every_node(self):
        g = LatticeGrid(h=0.5, n_points=16)
        query = LatticeGrid(h=0.125, n_points=64)
        snaps = [random_field(g, seed) for seed in (1, 2, 3)]
        traj = SolutionTrajectory(timegrid=TimeGrid(T=1.0, m_steps=2), grid=g,
                                  values=np.stack([u.values for u in snaps]))
        fine = interp_linear(traj, query)
        assert isinstance(fine, SolutionTrajectory) and fine.grid == query
        for i, u in enumerate(snaps):
            assert np.array_equal(fine.values[i], interp_linear(u, query).values)

    def test_non_nested_grid_rejected(self):
        g = LatticeGrid(h=0.5, n_points=16)
        with pytest.raises(GridMismatchError):
            interp_linear(random_field(g), LatticeGrid(h=0.3, n_points=16))
        with pytest.raises(GridMismatchError):
            interp_linear(random_field(g), LatticeGrid(h=0.25, n_points=16))

    def test_interpolation_error_decay(self):
        # ||p_h f_h - f||_{L^2} = O(h) for H^1 data: slope >= 0.9 on a sweep
        f = lambda x: np.exp(-(x**2)).astype(complex)
        fine = LatticeGrid(h=0.0125, n_points=2048)
        x_fine = fine.sites()
        f_exact = f(x_fine)
        errs = []
        for h in (0.4, 0.2, 0.1):
            g = LatticeGrid(h=h, n_points=int(round(25.6 / h)))
            p = interp_linear(discretize(f, g), fine)
            errs.append(
                (h, math.sqrt(fine.h * float(np.sum(np.abs(p.values - f_exact) ** 2))))
            )
        slope = np.polyfit(np.log([e[0] for e in errs]), np.log([e[1] for e in errs]), 1)[0]
        assert slope >= 0.9

    def test_fourier_multiplier_on_pure_mode(self):
        # continuum transform of p_h u versus P_h(xi) u_hat(h xi); the fine
        # Riemann sum of the transform converges O(h_q^2)
        g = LatticeGrid(h=0.5, n_points=16)
        k = 2
        m = np.arange(16) - 8
        xi_k = g.freqs()[k]
        u = LatticeField(grid=g, values=np.exp(1j * xi_k * m))
        r = 256
        fine = LatticeGrid(h=g.h / r, n_points=16 * r)
        pu = interp_linear(u, fine).values
        xi_phys = xi_k / g.h
        x = fine.sites()
        riemann = fine.h * np.sum(pu * np.exp(-1j * xi_phys * x))
        # u_hat(h xi_phys) = sum_m e^{i xi_k m} e^{-i xi_k m} = M over one period
        predicted = interp_multiplier(g.h, xi_phys) * 16.0
        assert riemann == pytest.approx(predicted, rel=1e-5)


class TestInterpMultiplier:
    def test_zero_frequency(self):
        assert interp_multiplier(0.25, 0.0) == pytest.approx(0.25, rel=1e-14)

    def test_bounded_by_h(self):
        xi = np.linspace(-80.0, 80.0, 4001)
        vals = np.abs(interp_multiplier(0.1, xi))
        assert vals.max() <= 0.1 + 1e-12

    def test_against_adaptive_quadrature(self):
        h, xi = 0.1, 3.0
        i1 = quad(lambda x: math.cos(x * xi), 0, h, epsabs=1e-15)[0] - 1j * quad(
            lambda x: math.sin(x * xi), 0, h, epsabs=1e-15
        )[0]
        i2 = quad(lambda x: x * math.cos(x * xi), 0, h, epsabs=1e-15)[0] - 1j * quad(
            lambda x: x * math.sin(x * xi), 0, h, epsabs=1e-15
        )[0]
        ref = i1 + (np.exp(1j * h * xi) - 1.0) / h * i2
        assert interp_multiplier(h, xi) == pytest.approx(ref, abs=1e-12)

    def test_series_branch_continuity(self):
        h = 0.2
        just_below = interp_multiplier(h, 0.99e-4 / h)
        just_above = interp_multiplier(h, 1.01e-4 / h)
        assert just_below == pytest.approx(just_above, rel=1e-9)


class TestNorms:
    def test_delta_l2(self):
        g = LatticeGrid(h=0.04, n_points=32)
        v = np.zeros(32, dtype=complex)
        v[7] = 1.0
        assert norm_lp(LatticeField(grid=g, values=v), 2) == pytest.approx(math.sqrt(0.04))

    def test_constant_sup(self):
        g = LatticeGrid(h=0.3, n_points=16)
        f = LatticeField(grid=g, values=np.full(16, -2.5 + 1j))
        assert norm_lp(f, math.inf) == pytest.approx(abs(-2.5 + 1j))

    def test_sobolev_s0_is_l2(self):
        g = LatticeGrid(h=0.2, n_points=64)
        u = random_field(g, 8)
        assert norm_sobolev(u, 0.0) == pytest.approx(norm_lp(u, 2), rel=1e-12)

    def test_sobolev_pure_mode(self):
        g = LatticeGrid(h=0.2, n_points=32)
        k = 5
        xi = g.freqs()[k]
        m = np.arange(32) - 16
        amp = 0.7
        u = LatticeField(grid=g, values=amp * np.exp(1j * xi * m))
        s = 0.6
        expected = amp * math.sqrt(g.extent) * math.sqrt(1.0 + (abs(xi) / g.h) ** (2 * s))
        assert norm_sobolev(u, s) == pytest.approx(expected, rel=1e-12)

    def test_uniform_in_h_sobolev_bound(self):
        # ||f_h||_{H^s_h} <= C ||f||_{H^s} with C independent of h (Gaussian data)
        s = 0.5
        fhat = lambda xi: math.sqrt(math.pi) * math.exp(-(xi**2) / 4.0)  # W = 1
        norm_cont = math.sqrt(
            quad(lambda xi: (1 + abs(xi)) ** (2 * s) * fhat(xi) ** 2, -40, 40, limit=400)[0]
            / (2 * math.pi)
        )
        ratios = []
        for h in (0.4, 0.2, 0.1, 0.05):
            n = int(round(25.6 / h))
            g = LatticeGrid(h=h, n_points=n)
            fh = discretize(lambda x: np.exp(-(x**2)).astype(complex), g)
            ratios.append(norm_sobolev(fh, s) / norm_cont)
        assert max(ratios) < 1.5
        assert max(ratios) / min(ratios) - 1.0 < 0.02

    def test_homogeneity(self):
        g = LatticeGrid(h=0.2, n_points=32)
        u = random_field(g, 9)
        doubled = LatticeField(grid=g, values=2.0 * u.values)
        for p in (1, 2, 4, math.inf):
            assert norm_lp(doubled, p) == pytest.approx(2.0 * norm_lp(u, p), rel=1e-12)
        assert norm_sobolev(doubled, 0.7) == pytest.approx(
            2.0 * norm_sobolev(u, 0.7), rel=1e-12
        )


def _static_traj(field, T, nodes):
    tg = TimeGrid(T=T, m_steps=nodes - 1)
    return SolutionTrajectory(timegrid=tg, grid=field.grid, values=np.tile(field.values, (nodes, 1)))


class TestMixedNorms:
    def test_smoothing_static(self):
        g = LatticeGrid(h=0.2, n_points=32)
        u = random_field(g, 10)
        traj = _static_traj(u, 2.0, 9)
        assert norm_smoothing(traj, 0.0) == pytest.approx(
            math.sqrt(2.0) * norm_lp(u, math.inf), rel=1e-12
        )

    def test_smoothing_zero(self):
        g = LatticeGrid(h=0.2, n_points=16)
        z = LatticeField(grid=g, values=np.zeros(16, dtype=complex))
        assert norm_smoothing(_static_traj(z, 1.0, 5), 0.3) == 0.0

    def test_smoothing_rotating_pure_mode(self):
        g = LatticeGrid(h=0.2, n_points=32)
        k, amp, delta, T = 4, 1.3, 0.6, 1.5
        xi = g.freqs()[k]
        m = np.arange(32) - 16
        tg = TimeGrid(T=T, m_steps=16)
        values = amp * np.exp(1j * (xi * m - 3.0 * tg.times[:, None]))
        traj = SolutionTrajectory(timegrid=tg, grid=g, values=values)
        expected = math.sqrt(T) * (1.0 + abs(xi) / g.h) ** delta * amp
        assert norm_smoothing(traj, delta) == pytest.approx(expected, rel=1e-12)

    def test_maximal_single_profile(self):
        g = LatticeGrid(h=0.2, n_points=32)
        u = random_field(g, 11)
        assert norm_maximal(_static_traj(u, 1.0, 3), 4.0) == pytest.approx(
            norm_lp(u, 4.0), rel=1e-12
        )

    def test_maximal_doubled_snapshot_dominates(self):
        g = LatticeGrid(h=0.2, n_points=32)
        u = random_field(g, 12)
        two = LatticeField(grid=g, values=2.0 * u.values)
        tg = TimeGrid(T=1.0, m_steps=2)
        traj = SolutionTrajectory(timegrid=tg, grid=g, values=np.stack([u.values, two.values, u.values]))
        assert norm_maximal(traj, 4.0) == pytest.approx(2.0 * norm_lp(u, 4.0), rel=1e-12)

    def test_maximal_blocks_equal_whole_array_max(self):
        # 70 nodes span three blocks of _NORM_ROWS; each site's sup sits in
        # the first, the middle or the last, partial block
        from fraclat.lattice import _NORM_ROWS

        g = LatticeGrid(h=0.2, n_points=32)
        tg = TimeGrid(T=1.0, m_steps=69)
        rng = np.random.default_rng(14)
        values = rng.normal(size=(70, 32)) + 1j * rng.normal(size=(70, 32))
        peaks = rng.integers(0, 70, size=32)
        peaks[:3] = (0, _NORM_ROWS + 5, 69)
        values[peaks, np.arange(32)] *= 10.0
        assert len(values) > 2 * _NORM_ROWS
        sup = np.abs(values).max(axis=0)
        ref = norm_lp(LatticeField(grid=g, values=sup.astype(np.complex128)), 4.0)
        assert norm_maximal(SolutionTrajectory(timegrid=tg, grid=g, values=values), 4.0) == ref

    def test_lambda_zero(self):
        g = LatticeGrid(h=0.2, n_points=16)
        z = LatticeField(grid=g, values=np.zeros(16, dtype=complex))
        rep = lambda_norm(_static_traj(z, 1.0, 4), ModelParams(alpha=1.5, beta=0.85))
        assert rep.eta1 == rep.eta2 == rep.eta3 == rep.lam == 0.0

    def test_lambda_static_gaussian_composes(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        g = LatticeGrid(h=0.1, n_points=256)
        u = discretize(lambda x: np.exp(-(x**2)).astype(complex), g)
        traj = _static_traj(u, 2.0, 9)
        rep = lambda_norm(traj, params)
        assert rep.eta1 == pytest.approx(
            norm_smoothing(traj, params.s + params.sigma - params.alpha), rel=1e-12
        )
        assert rep.eta2 == pytest.approx(norm_sobolev(u, params.s), rel=1e-12)
        assert rep.eta3 == pytest.approx(norm_lp(u, 2.0 * (params.p - 1)), rel=1e-12)
        assert rep.lam == max(rep.eta1, rep.eta2, rep.eta3)

    def test_lambda_homogeneity(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        g = LatticeGrid(h=0.2, n_points=64)
        u = random_field(g, 13)
        r1 = lambda_norm(_static_traj(u, 1.0, 5), params)
        u2 = LatticeField(grid=g, values=2.0 * u.values)
        r2 = lambda_norm(_static_traj(u2, 1.0, 5), params)
        assert r2.eta1 == pytest.approx(2 * r1.eta1, rel=1e-12)
        assert r2.eta2 == pytest.approx(2 * r1.eta2, rel=1e-12)
        assert r2.eta3 == pytest.approx(2 * r1.eta3, rel=1e-12)


def _norms_per_snapshot(traj, params):
    """Reference loop for the batched norms: one transform pair per node."""
    g = traj.grid
    dt = np.diff(traj.times)
    tw = np.concatenate([[0.5 * dt[0]], 0.5 * (dt[:-1] + dt[1:]), [0.5 * dt[-1]]])
    mult = (1.0 + np.abs(g.freqs()) / g.h) ** (params.s + params.sigma - params.alpha)
    acc = np.zeros(g.n_points)
    sup = np.zeros(g.n_points)
    eta2 = 0.0
    for w_t, row in zip(tw, traj.values):
        snap = LatticeField(grid=g, values=row)
        v = sfft.ifft(sfft.fft(snap.values) * mult)
        acc += w_t * np.abs(v) ** 2
        sup = np.maximum(sup, np.abs(row))
        eta2 = max(eta2, norm_sobolev(snap, params.s))
    eta3 = norm_lp(LatticeField(grid=g, values=sup), 2.0 * (params.p - 1))
    return math.sqrt(acc.max()), eta2, eta3


class TestBatchedNorms:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 32, 64]),
        nodes=st.integers(3, 12),
        h=st.floats(0.05, 1.0),
        T=st.floats(0.1, 3.0),
        ab=st.sampled_from([(1.5, 0.85), (1.3, 0.95), (1.7, 0.9), (1.9, 1.0)]),
        seed=st.integers(0, 2**16),
    )
    def test_batched_norms_match_per_snapshot_loop(self, n, nodes, h, T, ab, seed):
        params = ModelParams(alpha=ab[0], beta=ab[1])
        g = LatticeGrid(h=h, n_points=n)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(nodes, n)) + 1j * rng.normal(size=(nodes, n))
        traj = SolutionTrajectory(timegrid=TimeGrid(T=T, m_steps=nodes - 1), grid=g, values=values)
        eta1, eta2, eta3 = _norms_per_snapshot(traj, params)
        rep = lambda_norm(traj, params)
        delta = params.s + params.sigma - params.alpha
        assert norm_smoothing(traj, delta) == pytest.approx(eta1, rel=1e-12)
        assert norm_maximal(traj, 2.0 * (params.p - 1)) == pytest.approx(eta3, rel=1e-12)
        assert rep.eta1 == pytest.approx(eta1, rel=1e-12)
        assert rep.eta2 == pytest.approx(eta2, rel=1e-12)
        assert rep.eta3 == pytest.approx(eta3, rel=1e-12)


class TestSerialization:
    def test_binary_roundtrip(self):
        g = LatticeGrid(h=0.2, n_points=32)
        u = random_field(g, 14)
        blob = field_to_bytes(u, t=0.75)
        back, t, end = field_from_bytes(blob)
        assert t == 0.75 and end == len(blob)
        assert back.grid.compatible(g)
        assert np.array_equal(back.values, u.values)

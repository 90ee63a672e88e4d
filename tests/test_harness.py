"""Experiment plumbing: order fitting, reports, quick experiment smoke runs."""

import math

import numpy as np
import pytest
import scipy.fft as sfft

from fraclat.harness import (
    fit_order,
    gaussian_profile,
    grid_for,
    nyquist_packet,
    run_continuum_study,
    run_mass_uniformity,
    run_ml_check,
    run_smoothing_experiment,
    run_symbol_checks,
    spectral_mass_near,
)
from fraclat.lattice import (
    GridMismatchError,
    LatticeField,
    LatticeGrid,
    filter_pi,
    norm_lp,
    norm_smoothing,
)
from fraclat.solver import (
    ModelParams,
    SolutionTrajectory,
    TimeGrid,
    prepare_initial,
    solve,
)
from fraclat.special import ml_e_grid
from fraclat.symbol import phi_eval, w_eval


def gauss(x):
    return np.exp(-((np.asarray(x) / 2.0) ** 2)).astype(complex)


class TestFitOrder:
    def test_exact_square(self):
        hs = [0.4, 0.2, 0.1, 0.05]
        assert fit_order([(h, h**2) for h in hs]) == pytest.approx(2.0, abs=1e-12)

    def test_scaled_half_power(self):
        hs = [0.4, 0.2, 0.1]
        assert fit_order([(h, 3.0 * h**0.5) for h in hs]) == pytest.approx(0.5, abs=1e-12)

    def test_noisy_half_power(self):
        rng = np.random.default_rng(11)
        hs = np.geomspace(0.4, 0.0125, 8)
        errs = hs**0.5 * (1.0 + rng.uniform(-0.02, 0.02, hs.size))
        assert fit_order(list(zip(hs, errs))) == pytest.approx(0.5, abs=0.05)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_order([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])
        with pytest.raises(ValueError):
            fit_order([(0.1, 1.0), (0.2, 2.0)])
        with pytest.raises(ValueError):
            fit_order([(0.1, 1.0), (0.2, 0.0), (0.4, 2.0)])


class TestInitialData:
    def test_gaussian_profile_modulation(self):
        f = gaussian_profile(amplitude=2.0, width=1.0, center=0.5, freq=3.0)
        x = np.array([0.5])
        assert f(x)[0] == pytest.approx(2.0 * np.exp(1.5j), rel=1e-12)

    def test_nyquist_packet_mass_concentration(self):
        grid = LatticeGrid(h=0.1, n_points=512)
        pkt = nyquist_packet(grid, width=4.0)
        assert spectral_mass_near(pkt, math.pi, 0.2) > 0.95
        assert spectral_mass_near(pkt, 0.0, 0.2) < 0.01


class TestSymbolChecks:
    def test_single_alpha_passes(self):
        rep = run_symbol_checks([1.5])
        assert rep["pass"]
        entry = rep["results"][0]
        assert entry["w_second_sign_changes"] == 1
        assert 0.0 < entry["xi0"] < math.pi / 2.0
        assert entry["xi0"] < entry["xi1"] < math.pi


class TestMassUniformity:
    def test_beta_one_is_unitary(self):
        params = ModelParams(alpha=1.5, beta=1.0)
        rep = run_mass_uniformity(params, [0.4, 0.2], gauss, extent=12.8, T=0.5, n_times=16)
        for e in rep["entries"]:
            assert e["ratio"] == pytest.approx(1.0, abs=1e-12)
        assert rep["pass"]

    def test_zero_data_flagged(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        rep = run_mass_uniformity(
            params,
            [0.4],
            lambda x: np.zeros_like(np.asarray(x), dtype=complex),
            extent=12.8,
            T=0.5,
            n_times=4,
        )
        assert rep["entries"][0]["skipped"] == "zero initial data"
        assert not rep["pass"]

    def test_ratio_matches_per_node_loop(self):
        # one propagator table per h against E_beta evaluated node by node
        params = ModelParams(alpha=1.5, beta=0.85)
        T, n_times = 0.7, 12
        rep = run_mass_uniformity(params, [0.4, 0.2], gauss, extent=12.8, T=T, n_times=n_times)
        for e in rep["entries"]:
            grid = grid_for(12.8, e["h"])
            u0 = prepare_initial(gauss, grid, True)
            c0 = sfft.fft(u0.values)
            mu = w_eval(params.alpha, grid.freqs()) / grid.h**params.alpha
            worst = 0.0
            for t in np.linspace(0.0, T, n_times + 1):
                z = params.phase_unit * t**params.beta * mu.astype(complex)
                mult = ml_e_grid(params.beta, z)
                mass = math.sqrt(grid.h / grid.n_points * np.sum(np.abs(mult * c0) ** 2))
                worst = max(worst, mass / norm_lp(u0, 2))
            assert e["ratio"] == pytest.approx(worst, rel=1e-12)


class TestSmoothing:
    def test_dichotomy_direction(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        rep = run_smoothing_experiment(params, [0.2, 0.1], extent=25.6, T=1.0, n_times=32)
        assert rep["packet_mass_ok"]
        # unfiltered grows strictly faster than filtered at the halving
        assert rep["unfiltered_growth_ratios"][0] > rep["filtered_ratios"][0]
        assert rep["dichotomy"]

    @pytest.mark.parametrize("alpha,beta", [(1.7, 0.9), (1.3, 0.95)])
    def test_dichotomy_parameter_stability(self, alpha, beta):
        # the separation persists across the admissible corner cases tested
        params = ModelParams(alpha=alpha, beta=beta)
        rep = run_smoothing_experiment(params, [0.2, 0.1], extent=25.6, T=1.0, n_times=32)
        assert rep["dichotomy"]

    def test_filtered_constant_data_flat(self):
        # zero-frequency data: multiplier 1, quotient ~ sqrt(T), flat in h
        params = ModelParams(alpha=1.5, beta=0.85)
        qs = []
        for h in (0.4, 0.2):
            coarse = LatticeGrid(h=2 * h, n_points=int(round(12.8 / h)) // 2)
            ones = LatticeField(grid=coarse, values=np.ones(coarse.n_points, dtype=complex))
            u0 = filter_pi(ones)
            traj = solve(params, u0.grid, TimeGrid(T=1.0, m_steps=16), None,
                         nonlinear=False, initial_field=u0)
            qs.append(norm_smoothing(traj, 0.3) / norm_lp(u0, 2))
        assert qs[0] == pytest.approx(qs[1], rel=1e-6)

    def test_beta_one_matches_phase_evolution(self):
        # at beta = 1, E_1(-i t mu) = exp(-i t mu) and phi_h = mu: the
        # quotients of the solver's propagator equal those of the closed-form
        # phase evolution ifft(exp(-i t phi_h) fft(u0))
        params = ModelParams(alpha=1.5, beta=1.0)
        T, n_times = 1.0, 32
        rep = run_smoothing_experiment(params, [0.2, 0.1], extent=25.6, T=T, n_times=n_times)
        tg = TimeGrid(T=T, m_steps=n_times)
        for e in rep["entries"]:
            grid = grid_for(25.6, e["h"])
            phi = phi_eval(params.alpha, grid.h, grid.freqs(), params.beta)
            raw = nyquist_packet(grid, e["packet_width"])
            filt = filter_pi(nyquist_packet(grid.coarse(), e["packet_width"]))
            for tag, u0 in (("unfiltered", raw), ("filtered", filt)):
                values = np.fft.ifft(np.exp(-1j * tg.times[:, None] * phi) * np.fft.fft(u0.values), axis=-1)
                traj = SolutionTrajectory(timegrid=tg, grid=grid, values=values)
                q = norm_smoothing(traj, rep["delta"]) / norm_lp(u0, 2)
                assert e[tag] == pytest.approx(q, rel=1e-12)

    def test_filtered_packet_needs_n_divisible_by_4(self):
        # h = 0.2 on extent 3.6 gives n_points = 18: even, but no 2h grid
        params = ModelParams(alpha=1.5, beta=0.85)
        with pytest.raises(GridMismatchError, match="n_points = 18"):
            run_smoothing_experiment(params, [0.2, 0.1], extent=3.6)


class TestContinuumStudy:
    def test_zero_data_flagged(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        rep = run_continuum_study(
            params,
            [0.4, 0.2, 0.1],
            0.025,
            lambda x: np.zeros_like(np.asarray(x), dtype=complex),
            extent=12.8,
            T=0.2,
            m_steps=8,
        )
        assert math.isnan(rep["fitted_order"])
        assert not rep["pass"]

    def test_linear_rate_small(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        rep = run_continuum_study(
            params,
            [0.4, 0.2, 0.1],
            0.025,
            gauss,
            extent=25.6,
            T=1.0,
            m_steps=8,
            linear_only=True,
        )
        assert rep["monotone"]
        assert abs(rep["fitted_order"] - 0.5) <= 0.3

    def test_h_ref_precondition(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        with pytest.raises(ValueError):
            run_continuum_study(params, [0.4, 0.2], 0.2, gauss, extent=12.8)


class TestGridFor:
    def test_grid_spans_extent(self):
        g = grid_for(51.2, 0.1)
        assert g.n_points == 512 and g.h == 0.1

    @pytest.mark.parametrize("extent,h,name", [
        (51.2, math.nan, "h"), (51.2, math.inf, "h"), (51.2, 0.0, "h"),
        (math.nan, 0.1, "extent"), (-1.0, 0.1, "extent"),
    ])
    def test_bad_values_named(self, extent, h, name):
        value = h if name == "h" else extent
        with pytest.raises(ValueError, match=rf"grid_for: {name} must be positive and finite, got {value}"):
            grid_for(extent, h)


class TestMlCheckReport:
    def test_small_sweep(self):
        rep = run_ml_check(betas=(0.8,), n_radii=9, r_max=30.0)
        assert rep["pass"]
        assert rep["results"][0]["sup_|E_beta|_on_ray"] < 10.0


class TestWorkers:
    def test_thread_fanout_matches_serial(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        kw = dict(extent=12.8, T=0.5, n_times=8)
        serial = run_mass_uniformity(params, [0.4, 0.2], gauss, workers=1, **kw)
        threaded = run_mass_uniformity(params, [0.4, 0.2], gauss, workers=2, **kw)
        assert threaded == serial
        assert len(serial["entries"]) == 2

    def test_smoothing_matches_serial(self):
        params = ModelParams(alpha=1.5, beta=0.85)
        kw = dict(extent=12.8, T=0.5, n_times=8)
        serial = run_smoothing_experiment(params, [0.2, 0.1, 0.05], workers=1, **kw)
        threaded = run_smoothing_experiment(params, [0.2, 0.1, 0.05], workers=2, **kw)
        assert threaded == serial

    def test_continuum_study_matches_serial(self):
        # workers = 2 runs the reference beside the h-sweep; the report is
        # the serial one, value for value
        params = ModelParams(alpha=1.5, beta=0.85)
        kw = dict(extent=12.8, T=0.4, m_steps=16)
        serial = run_continuum_study(params, [0.4, 0.2, 0.1], 0.025, gauss, workers=1, **kw)
        threaded = run_continuum_study(params, [0.4, 0.2, 0.1], 0.025, gauss, workers=2, **kw)
        assert threaded == serial
        assert len(serial["ref_residuals"]) >= 3

"""Experiment plumbing: order fitting, reports, quick experiment smoke runs."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from fraclat import harness
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
    discretize,
    filter_pi,
    interp_linear,
    lambda_norm,
    norm_lp,
    norm_smoothing,
)
from fraclat.lattice import _NORM_ROWS
from fraclat.solver import (
    ModelParams,
    NonContractionError,
    SolutionTrajectory,
    TimeGrid,
    prepare_initial,
    solve,
    solve_continuum_reference,
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

    def test_beta_one_gates_on_xi1_equal_to_xi0(self, monkeypatch):
        # find_xi1 returns xi0 at beta = 1, which the report used to fail
        rep = run_symbol_checks([1.5], beta=1.0)
        entry = rep["results"][0]
        assert rep["pass"] and entry["xi1"] == entry["xi0"]
        monkeypatch.setattr(harness, "find_xi1", lambda alpha, beta: entry["xi0"] + 0.1)
        assert not run_symbol_checks([1.5], beta=1.0)["pass"]


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
            [0.4, 0.2],
            lambda x: np.zeros_like(np.asarray(x), dtype=complex),
            extent=12.8,
            T=0.5,
            n_times=4,
        )
        assert all(e["skipped"] == "zero initial data" for e in rep["entries"])
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
                mult = ml_e_grid(params.beta, t**params.beta * mu)
                mass = math.sqrt(grid.h / grid.n_points * np.sum(np.abs(mult * c0) ** 2))
                worst = max(worst, mass / norm_lp(u0, 2))
            assert e["ratio"] == pytest.approx(worst, rel=1e-12)

    def test_huge_amplitude_keeps_the_ratios(self):
        # the squares of 1e200 overflowed both L^2 norms: every ratio was nan
        params = ModelParams(alpha=1.5, beta=0.85)
        kw = dict(extent=12.8, T=0.5, n_times=8)
        one = run_mass_uniformity(params, [0.4, 0.2], gaussian_profile(), **kw)
        big = run_mass_uniformity(params, [0.4, 0.2], gaussian_profile(amplitude=1e200), **kw)
        assert [e["ratio"] for e in big["entries"]] == pytest.approx(
            [e["ratio"] for e in one["entries"]], rel=1e-12)
        assert big["variation"] == pytest.approx(one["variation"], abs=1e-12)
        assert big["pass"]


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


class TestSweepLength:
    # one mesh gives no growth ratio, fit_order needs three, and a repeated
    # mesh measures nothing new: such runs used to pass with an empty or zero
    # measurement, or end in a NaN order
    @pytest.mark.parametrize("run, h_list, message", [
        (lambda p, hs: run_mass_uniformity(p, hs, gauss, extent=12.8), [0.4],
         "mass needs at least 2 meshes, got 1"),
        (lambda p, hs: run_smoothing_experiment(p, hs, extent=12.8), [0.2],
         "smoothing needs at least 2 meshes, got 1"),
        (lambda p, hs: run_continuum_study(p, hs, 0.025, gauss, extent=12.8), [0.4, 0.2],
         "continuum needs at least 3 meshes, got 2"),
        (lambda p, hs: run_mass_uniformity(p, hs, gauss, extent=12.8), [0.4, 0.2, 0.4],
         r"repeats a mesh: \[0.4, 0.2, 0.4\]"),
    ], ids=["mass", "smoothing", "continuum", "repeat"])
    def test_short_or_repeating_sweep_rejected(self, monkeypatch, run, h_list, message):
        monkeypatch.setattr(harness, "solve", None)  # rejected before any solve
        with pytest.raises(ValueError, match=message):
            run(ModelParams(alpha=1.5, beta=0.85), h_list)


# the horizon search's cases: amplitude 2 fails the contraction test at
# T = 0.1 and passes it at 0.06, one shrink later
SHRINK_PARAMS = ModelParams(alpha=1.5, beta=0.85, p=3)
SHRINK_MESHES = ([0.4, 0.2, 0.1], 0.025)
SHRINK_KW = dict(extent=25.6, T=0.1, m_steps=16)


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
        with pytest.raises(ValueError, match="h_ref must be at most"):
            run_continuum_study(params, [0.4, 0.2, 0.1], 0.2, gauss, extent=12.8)

    def test_horizon_shrinks_once(self):
        rep = run_continuum_study(SHRINK_PARAMS, *SHRINK_MESHES, gaussian_profile(amplitude=2.0),
                                  **SHRINK_KW)
        assert rep["T_used"] == 0.06
        assert rep["pass"] and rep["monotone"] and rep["lambda_monotone"]
        # pinned from the study's report at T = 0.06 (13 sweeps per solve)
        assert rep["fitted_order"] == pytest.approx(1.0435350978223166, rel=1e-10)
        assert [e for _, e in rep["pairs"]] == pytest.approx(
            [1.0052095783999586, 0.4994551775966147, 0.23658428109924018], rel=1e-10)
        assert [e for _, e in rep["l2_errors"]] == pytest.approx(
            [0.7196029825460516, 0.35674241931431466, 0.16893414644127083], rel=1e-10)
        assert rep["lambda_errors"] == rep["pairs"]  # eta2 is the largest part of Lambda_T
        assert len(rep["ref_residuals"]) == 13
        assert {h: len(r) for h, r in rep["residuals"].items()} == {"0.4": 13, "0.2": 13, "0.1": 13}
        assert rep["ref_residuals"][-1] == pytest.approx(3.504420140796283e-10, rel=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_gives_up_naming_the_last_horizon_run_and_the_solver_error(self):
        # every horizon overflows the Lambda_T norm in sweep 1; the search
        # runs T = 0.01 ... 0.01 * 0.6^4 and names the last of them
        kw = dict(SHRINK_KW, T=0.01, m_steps=8)
        with pytest.raises(NonContractionError) as exc:
            run_continuum_study(SHRINK_PARAMS, *SHRINK_MESHES, gaussian_profile(amplitude=1e100), **kw)
        message = str(exc.value)
        assert message.startswith("no contracting horizon found down to T = 0.001296: ")
        assert "Picard sweep 1 overflowed the Lambda_T norm" in message
        assert isinstance(exc.value.__cause__, NonContractionError)
        assert str(exc.value.__cause__) in message

    def test_gives_up_naming_the_ratio_over_the_cap(self):
        cause = r"down to T = 0\.01296: residual ratio 0\.\d{3} >= cap 0\.01$"
        with pytest.raises(NonContractionError, match=cause) as exc:
            run_continuum_study(SHRINK_PARAMS, *SHRINK_MESHES, gaussian_profile(amplitude=2.0),
                                ratio_cap=0.01, **SHRINK_KW)
        assert exc.value.__cause__ is None


_trajectory_errors = harness._trajectory_errors


def spy_reference(monkeypatch):
    """Record (mesh, result) of every reference solve and the reference the errors read."""
    seen = {"solves": [], "ref": []}

    def solve_ref(params, grid, tg, f, **kw):
        traj = solve_continuum_reference(params, grid, tg, f, **kw)
        seen["solves"].append((grid.h, kw.get("initial_field") is not None, traj))
        return traj

    def errors(traj, ref, datum, params):
        seen["ref"].append(ref)
        return _trajectory_errors(traj, ref, datum, params)

    monkeypatch.setattr(harness, "solve_continuum_reference", solve_ref)
    monkeypatch.setattr(harness, "_trajectory_errors", errors)
    return seen


def band_tail(values, grid, H, p=3):
    """The largest share of its peak a node's spectrum holds where |xi|/h > 2 pi/((p+1) H)."""
    a = np.abs(np.fft.fft(values, axis=-1))
    band = np.abs(grid.freqs()) / grid.h > 2.0 * math.pi / ((p + 1) * H)
    return float(np.max(a[..., band].max(axis=-1) / a.max(axis=-1)))


class TestPaddedReference:
    def test_padded_reference_equals_the_full_solve(self, monkeypatch):
        seen = spy_reference(monkeypatch)
        f = gaussian_profile(amplitude=0.8)
        rep = run_continuum_study(SHRINK_PARAMS, *SHRINK_MESHES, f, **SHRINK_KW)
        assert rep["ref_solve_h"] == 0.1 and rep["T_used"] == 0.1
        assert [(h, given) for h, given, _ in seen["solves"]] == [(0.1, True)]
        ref = seen["ref"][0]
        assert ref is seen["solves"][0][2]  # the errors read the solve on its own mesh
        full = solve_continuum_reference(SHRINK_PARAMS, grid_for(25.6, 0.025), ref.timegrid, f)
        datum = discretize(f, full.grid)
        # every node padded to h_ref by the rows the errors read
        padded = harness._reference_rows(ref, datum, 0, len(ref.values))
        assert np.array_equal(padded[0], full.values[0])  # row 0 is the datum
        l2 = lambda v: np.sqrt(np.sum(np.abs(v) ** 2, axis=-1)).max()
        assert l2(padded - full.values) <= 1e-13 * l2(full.values)
        assert len(ref.residuals) == len(full.residuals)

    @pytest.mark.parametrize("f, kw", [
        # the committed datum truncated to extent 12.8: cut at 3.6e-5 of its peak
        (gaussian_profile(amplitude=0.8), dict(extent=12.8, T=0.4, m_steps=16)),
        # a packet at the reference grid's Nyquist frequency
        (lambda x: np.exp(1j * math.pi / 0.025 * np.asarray(x)) * gauss(x),
         dict(extent=12.8, T=0.4, m_steps=16, linear_only=True)),
    ], ids=["truncated-gaussian", "nyquist-packet"])
    def test_unresolved_datum_takes_h_ref_in_one_solve(self, monkeypatch, f, kw):
        seen = spy_reference(monkeypatch)
        rep = run_continuum_study(SHRINK_PARAMS, [0.4, 0.2, 0.1], 0.025, f, **kw)
        assert rep["ref_solve_h"] == 0.025
        assert [(h, given) for h, given, _ in seen["solves"]] == [(0.025, True)]
        ref = seen["ref"][0]
        assert ref is seen["solves"][0][2]
        today = solve_continuum_reference(SHRINK_PARAMS, grid_for(12.8, 0.025), ref.timegrid, f,
                                          nonlinear=not kw.get("linear_only", False))
        assert np.array_equal(ref.values, today.values)
        assert ref.residuals == today.residuals

    def test_unresolved_solution_falls_back_to_h_ref(self, monkeypatch):
        # the cubic's harmonics reach the band the datum leaves nearly empty
        # at H = 0.4; a threshold between the two tails passes the datum and
        # rejects the solution, which is solved once more at h_ref
        f = gaussian_profile(amplitude=0.8)
        h_list, h_ref, kw = [1.6, 0.8, 0.4], 0.1, dict(extent=25.6, T=0.2, m_steps=8)
        datum = discretize(f, grid_for(25.6, h_ref))
        coarse_grid = grid_for(25.6, 0.4)
        coarse = solve_continuum_reference(SHRINK_PARAMS, coarse_grid, TimeGrid(0.2, 8), None,
                                           initial_field=LatticeField(coarse_grid, datum.values[::4]))
        lo, hi = band_tail(datum.values, datum.grid, 0.4), band_tail(coarse.values, coarse_grid, 0.4)
        assert 100.0 * lo < hi
        monkeypatch.setattr(harness, "_REF_TAIL", math.sqrt(lo * hi))
        seen = spy_reference(monkeypatch)
        rep = run_continuum_study(SHRINK_PARAMS, h_list, h_ref, f, **kw)
        assert rep["ref_solve_h"] == h_ref
        assert [(h, given) for h, given, _ in seen["solves"]] == [(0.4, True), (h_ref, True)]
        assert seen["ref"][0] is seen["solves"][1][2]
        assert rep["ref_residuals"] == seen["solves"][1][2].residuals

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_datum_past_double_range_fails_before_any_solve(self, monkeypatch):
        seen = spy_reference(monkeypatch)
        with pytest.raises(NonContractionError,
                           match=r"^the reference datum or its spectrum left double range \(largest "
                                 r"\|datum\| 1\.\d+e\+308\); shrink the data$"):
            run_continuum_study(SHRINK_PARAMS, *SHRINK_MESHES, gaussian_profile(amplitude=1.7e308),
                                **SHRINK_KW)
        assert seen["solves"] == []


def whole_array_errors(traj, ref, datum, params):
    """The distances from (nodes, h_ref sites) arrays: every node of the
    reference padded at once, the lattice trajectory interpolated at once."""
    fine = datum.grid
    if ref.grid.n_points != fine.n_points:
        r, half = fine.n_points // ref.grid.n_points, ref.grid.n_points // 2
        spectra = r * np.fft.fft(ref.values, axis=-1)
        padded = np.zeros((len(spectra), fine.n_points), dtype=np.complex128)
        padded[:, :half], padded[:, -half:] = spectra[:, :half], spectra[:, half:]
        padded = np.fft.ifft(padded, axis=-1, out=padded)
        padded[0] = datum.values
        ref = SolutionTrajectory(ref.timegrid, fine, padded, ref.residuals)
    diff = SolutionTrajectory(ref.timegrid, fine, interp_linear(traj, fine).values - ref.values)
    rep = lambda_norm(diff, params)
    err_l2 = float(np.sqrt(fine.h * np.sum(np.abs(diff.values) ** 2, axis=-1)).max())
    return rep.eta2, err_l2, rep.lam


def error_study(m_steps, extent, h, H, h_ref, **kw):
    """(lattice solve at h, reference solved at H from the h_ref datum, datum)."""
    f = gaussian_profile(amplitude=0.8)
    tg = TimeGrid(T=0.1, m_steps=m_steps)
    datum = discretize(f, grid_for(extent, h_ref))
    grid = grid_for(extent, H)
    ref = solve_continuum_reference(SHRINK_PARAMS, grid, tg, None, **kw, initial_field=LatticeField(
        grid, datum.values[:: datum.grid.n_points // grid.n_points]))
    return solve(SHRINK_PARAMS, grid_for(extent, h), tg, f, **kw), ref, datum


class TestStreamedErrors:
    @pytest.mark.parametrize("H", [0.1, 0.025], ids=["padded", "h_ref"])
    def test_blocks_keep_every_bit_of_the_whole_array_formula(self, H):
        # 71 nodes: two full blocks of _NORM_ROWS and a partial third
        traj, ref, datum = error_study(70, 12.8, 0.2, H, 0.025)
        assert len(traj.values) > 2 * _NORM_ROWS and len(traj.values) % _NORM_ROWS
        streamed = harness._trajectory_errors(traj, ref, datum, SHRINK_PARAMS)
        assert streamed == whole_array_errors(traj, ref, datum, SHRINK_PARAMS)

    def test_grids_that_do_not_nest_raise(self):
        traj, ref, _ = error_study(8, 12.8, 0.2, 0.1, 0.025)
        datum = discretize(gaussian_profile(), grid_for(25.6, 0.025))
        with pytest.raises(GridMismatchError, match="query grid extent"):
            harness._trajectory_errors(traj, ref, datum, SHRINK_PARAMS)

    def test_heap_peak_below_half_an_array(self):
        # 513 nodes: a block of _NORM_ROWS is 1/16 of a (nodes, h_ref sites)
        # array.  The whole-array formula peaked at 3.2 such arrays, with the
        # padded reference built before the call; streamed, the peak is a few
        # blocks (0.21 arrays, 3.5 MB), whatever the number of nodes
        traj, ref, datum = error_study(512, 25.6, 0.1, 0.05, 0.0125, nonlinear=False)
        harness._trajectory_errors(traj, ref, datum, SHRINK_PARAMS)  # warm the FFT plans
        array = 16 * len(traj.values) * datum.grid.n_points
        tracemalloc.start()
        try:
            harness._trajectory_errors(traj, ref, datum, SHRINK_PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * array, f"{peak / array:.2f} arrays"


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
        # the serial one, value for value, after a horizon shrink too
        f = gaussian_profile(amplitude=2.0)
        serial = run_continuum_study(SHRINK_PARAMS, *SHRINK_MESHES, f, workers=1, **SHRINK_KW)
        threaded = run_continuum_study(SHRINK_PARAMS, *SHRINK_MESHES, f, workers=2, **SHRINK_KW)
        assert serial["T_used"] == 0.06
        assert threaded == serial
        assert len(serial["ref_residuals"]) >= 3

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
measurements.  The heavy nonlinear mesh-refinement study is computed once
and shared between the convergence and contraction criteria.
"""

import cmath
import math
import time

import numpy as np
import pytest
import scipy.fft as sfft

import mpmath as mp

from fraclat.harness import (
    run_continuum_study,
    run_mass_uniformity,
    run_ml_check,
    run_smoothing_experiment,
    run_symbol_checks,
)
from fraclat.lattice import (
    LatticeField,
    LatticeGrid,
    filter_pi,
    inject,
)
from fraclat.solver import (
    ModelParams,
    ParameterError,
    SymbolTable,
    TimeGrid,
    prepare_initial,
    solve,
)
from fraclat.special import ml_e
from fraclat.symbol import SymbolConfig, w_eval


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def gauss(width=2.0, amplitude=1.0):
    def f(x):
        return amplitude * np.exp(-((np.asarray(x) / width) ** 2)).astype(complex)

    return f


# ---------------------------------------------------------------------------
# criterion 1: special-function oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_ml_oracle_equivalence():
    t0 = time.perf_counter()
    rep = run_ml_check(betas=(0.6, 0.75, 0.8, 0.9), n_radii=50, r_max=50.0)
    elapsed = time.perf_counter() - t0
    worst = max(
        max(r["max_rel_err_ml_e"], r["max_rel_err_ml_ee"]) for r in rep["results"]
    )
    ok = rep["pass"] and elapsed < 30.0
    _report(
        "criterion 1 (ML oracle equivalence)",
        ok,
        f"200 sector points, worst rel err {worst:.2e} (<= 1e-9), {elapsed:.1f}s (< 30s)",
    )
    assert rep["pass"], f"worst relative error {worst:.3e} exceeds 1e-9"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


# ---------------------------------------------------------------------------
# criterion 2: beta = 1 degeneration
# ---------------------------------------------------------------------------


def _etd_rk2_reference(params, grid, T, dt, u0):
    """Independent exponential-integrator (Cox-Matthews ETDRK2) for beta = 1."""
    tab = SymbolTable(grid, params)
    L = (-1j * np.fft.fftshift(tab.mu)).astype(complex)  # centred order, as b_dft

    def b_dft(v):
        return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(v)))

    def b_idft(c):
        return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(c)))

    def nonlin_hat(uhat):
        u = b_idft(uhat)
        g = params.sign * np.abs(u) ** 2 * u
        ge = g[::2]
        gf = np.empty_like(g)
        gf[::2] = ge
        gf[1::2] = 0.5 * (ge + np.roll(ge, -1))
        return -1j * b_dft(gf)

    def phi1(z):
        out = np.empty_like(z)
        sm = np.abs(z) < 1e-6
        out[sm] = 1.0 + z[sm] / 2 + z[sm] ** 2 / 6
        out[~sm] = (np.exp(z[~sm]) - 1.0) / z[~sm]
        return out

    def phi2(z):
        out = np.empty_like(z)
        sm = np.abs(z) < 1e-4
        out[sm] = 0.5 + z[sm] / 6 + z[sm] ** 2 / 24
        out[~sm] = (np.exp(z[~sm]) - z[~sm] - 1.0) / z[~sm] ** 2
        return out

    E, P1, P2 = np.exp(L * dt), phi1(L * dt), phi2(L * dt)
    uhat = b_dft(u0.values)
    for _ in range(int(round(T / dt))):
        nn = nonlin_hat(uhat)
        a = E * uhat + dt * P1 * nn
        uhat = a + dt * P2 * (nonlin_hat(a) - nn)
    return b_idft(uhat)


def test_criterion_2_beta_one_degeneration():
    t0 = time.perf_counter()
    # part a: E_1(z) = e^z to 1e-12 on 100 points
    rng = np.random.default_rng(5)
    worst_exp = 0.0
    for _ in range(100):
        r = rng.uniform(0.0, 30.0)
        th = rng.uniform(math.pi / 2.0, 3.0 * math.pi / 2.0)  # Re z <= 0
        z = r * cmath.exp(1j * th)
        worst_exp = max(worst_exp, abs(ml_e(1.0, z) - cmath.exp(z)) / abs(cmath.exp(z)))

    # part b: full solver vs independent ETDRK2, T = 0.1, N = 256
    params = ModelParams(alpha=1.5, beta=1.0, sign=1)
    grid = LatticeGrid(h=0.1, n_points=256)
    T = 0.1
    traj = solve(params, grid, TimeGrid(T=T, m_steps=1024), gauss())
    u0 = prepare_initial(gauss(), grid, True)
    u_ref = _etd_rk2_reference(params, grid, T, 2e-5, u0)
    diff = traj.values[-1] - u_ref
    l2 = math.sqrt(grid.h * float(np.sum(np.abs(diff) ** 2)))
    elapsed = time.perf_counter() - t0
    ok = worst_exp <= 1e-12 and l2 <= 1e-6 and elapsed < 60.0
    _report(
        "criterion 2 (beta=1 degeneration)",
        ok,
        f"E_1 vs exp worst {worst_exp:.2e} (<= 1e-12); solver vs ETD L2 {l2:.2e} "
        f"(<= 1e-6); {elapsed:.1f}s (< 60s)",
    )
    assert worst_exp <= 1e-12
    assert l2 <= 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 3: symbol properties
# ---------------------------------------------------------------------------


def test_criterion_3_symbol_properties():
    t0 = time.perf_counter()
    rep = run_symbol_checks([1.2, 1.5, 1.9], beta=0.85)
    elapsed = time.perf_counter() - t0
    msg = "; ".join(
        f"a={r['alpha']}: xi0={r['xi0']:.3f} xi1={r['xi1']:.3f} slope={r['small_xi_slope']:.3f}"
        for r in rep["results"]
    )
    ok = rep["pass"] and elapsed < 60.0
    _report("criterion 3 (symbol properties)", ok, f"{msg}; {elapsed:.1f}s (< 60s)")
    for r in rep["results"]:
        assert r["w_prime_positive"], f"w' > 0 fails at alpha={r['alpha']}"
        assert r["w_second_decreasing"], f"w'' monotonicity fails at alpha={r['alpha']}"
        assert r["w_second_sign_changes"] == 1
        assert 0.0 < r["xi0"] < math.pi / 2.0
        assert r["xi0"] < r["xi1"] < math.pi
        assert abs(r["small_xi_slope"] - 2.0) <= 0.05
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: closed form of the unnormalized symbol at the edge
# ---------------------------------------------------------------------------


def test_criterion_4_w_pi_closed_form():
    cfg = SymbolConfig(alpha=1.5, normalize=False)
    got = w_eval(cfg, math.pi)
    with mp.workdps(40):
        ref = float(4 * (1 - mp.mpf(2) ** mp.mpf("-2.5")) * mp.zeta(mp.mpf("2.5")))
    rel = abs(got - ref) / ref
    ok = rel <= 1e-9
    _report("criterion 4 (w(pi) closed form)", ok, f"rel err {rel:.2e} (<= 1e-9)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: filter identity
# ---------------------------------------------------------------------------


def test_criterion_5_filter_identity():
    rng = np.random.default_rng(17)
    worst = 0.0
    for n_coarse in (16, 32, 64, 128):
        cg = LatticeGrid(h=0.5, n_points=n_coarse)
        for _ in range(20):
            vals = rng.normal(size=n_coarse) + 1j * rng.normal(size=n_coarse)
            f2 = LatticeField(grid=cg, values=vals)
            fine_xi = filter_pi(f2).grid.freqs()
            lhs = sfft.fft(filter_pi(f2).values)
            rhs = 2.0 * np.cos(fine_xi / 2.0) ** 2 * sfft.fft(inject(f2).values)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst <= 1e-12
    _report(
        "criterion 5 (filter multiplier identity)",
        ok,
        f"80 random fields, worst |diff| {worst:.2e} (<= 1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: mass uniformity
# ---------------------------------------------------------------------------


def test_criterion_6_mass_uniformity():
    t0 = time.perf_counter()
    params = ModelParams(alpha=1.5, beta=0.85)
    rep = run_mass_uniformity(
        params, [0.4, 0.2, 0.1, 0.05], gauss(), extent=51.2, T=1.0, n_times=96
    )
    elapsed = time.perf_counter() - t0
    ok = rep["pass"] and elapsed < 60.0
    ratios = {e["h"]: round(e["ratio"], 5) for e in rep["entries"]}
    _report(
        "criterion 6 (mass uniformity)",
        ok,
        f"ratios {ratios}, variation {rep['variation']:.4f} (< 0.05); {elapsed:.1f}s (< 60s)",
    )
    assert rep["variation"] < 0.05
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 7: smoothing dichotomy
# ---------------------------------------------------------------------------


def test_criterion_7_smoothing_dichotomy():
    t0 = time.perf_counter()
    params = ModelParams(alpha=1.5, beta=0.85)
    rep = run_smoothing_experiment(
        params, [0.2, 0.1, 0.05, 0.025], extent=51.2, T=1.0, n_times=64
    )
    elapsed = time.perf_counter() - t0
    unf = [round(r, 4) for r in rep["unfiltered_growth_ratios"]]
    fil = [round(r, 4) for r in rep["filtered_ratios"]]
    ok = rep["pass"] and elapsed < 120.0
    _report(
        "criterion 7 (smoothing dichotomy)",
        ok,
        f"unfiltered Q(h/2)/Q(h) {unf} (each >= 1.5); filtered {fil} "
        f"(each in [0.8, 1.2]); dichotomy={rep['dichotomy']}; {elapsed:.1f}s (< 120s)",
    )
    assert rep["packet_mass_ok"]
    assert all(0.8 <= r <= 1.2 for r in rep["filtered_ratios"]), fil
    assert rep["dichotomy"], "unfiltered growth does not dominate filtered"
    assert all(r >= 1.5 for r in rep["unfiltered_growth_ratios"]), unf
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 8: linear continuum rate
# ---------------------------------------------------------------------------


def test_criterion_8_linear_rate():
    t0 = time.perf_counter()
    params = ModelParams(alpha=1.5, beta=0.85)
    rep = run_continuum_study(
        params,
        [0.2, 0.1, 0.05, 0.025],
        0.00625,
        gauss(),
        extent=51.2,
        T=1.0,
        m_steps=16,
        linear_only=True,
    )
    elapsed = time.perf_counter() - t0
    l2_order = float(
        np.polyfit(
            np.log([h for h, _ in rep["l2_errors"]]),
            np.log([e for _, e in rep["l2_errors"]]),
            1,
        )[0]
    )
    ok = abs(l2_order - 0.5) <= 0.3 and elapsed < 120.0
    _report(
        "criterion 8 (linear continuum rate)",
        ok,
        f"sup_t L2 order {l2_order:.3f} (target 0.5 +- 0.3); "
        f"errors {[round(e, 4) for _, e in rep['l2_errors']]}; {elapsed:.1f}s (< 120s)",
    )
    assert abs(l2_order - 0.5) <= 0.3
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criteria 9 and 10: nonlinear continuum limit and Picard contraction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nonlinear_study():
    t0 = time.perf_counter()
    params = ModelParams(alpha=1.5, beta=0.85, p=3, sign=1, s=0.25)
    rep = run_continuum_study(
        params,
        [0.2, 0.1, 0.05],
        0.0125,
        gauss(amplitude=0.8),
        extent=51.2,
        T=0.4,
        m_steps=256,
        tol=1e-10,
        ratio_cap=0.5,
    )
    rep["elapsed"] = time.perf_counter() - t0
    return rep


def test_criterion_9_nonlinear_continuum_limit(nonlinear_study):
    rep = nonlinear_study
    errs = [e for _, e in rep["pairs"]]
    lam = [e for _, e in rep["lambda_errors"]]
    ok = (
        rep["monotone"]
        and rep["lambda_monotone"]
        and rep["fitted_order"] >= 0.2
        and rep["elapsed"] < 900.0
    )
    _report(
        "criterion 9 (nonlinear continuum limit)",
        ok,
        f"H^s errors {[round(e, 4) for e in errs]} decreasing={rep['monotone']}; "
        f"Lambda_T errors {[round(e, 4) for e in lam]} decreasing={rep['lambda_monotone']}; "
        f"order {rep['fitted_order']:.3f} (>= 0.2, target {rep['target_order']}); "
        f"T={rep['T_used']}; {rep['elapsed']:.0f}s (< 900s)",
    )
    assert rep["monotone"], "sup_t H^s errors are not strictly decreasing"
    assert rep["lambda_monotone"], "Lambda_T errors are not strictly decreasing"
    assert rep["fitted_order"] >= 0.2
    assert rep["elapsed"] < 900.0


def test_criterion_10_picard_contraction(nonlinear_study):
    rep = nonlinear_study
    worst_ratio = 0.0
    for res in list(rep["residuals"].values()) + [rep["ref_residuals"]]:
        for i in range(1, len(res)):
            if res[i - 1] > 0:
                worst_ratio = max(worst_ratio, res[i] / res[i - 1])

    # time-refinement order on a linear-forced manufactured problem
    params = ModelParams(alpha=1.5, beta=0.85)
    grid = LatticeGrid(h=0.4, n_points=64)
    psi = np.exp(-((grid.sites() / 2.0) ** 2)).astype(complex)
    finals = {}
    for M in (32, 64, 128, 256, 512):
        tr = solve(
            params,
            grid,
            TimeGrid(T=0.5, m_steps=M),
            lambda x: np.zeros_like(np.asarray(x), dtype=complex),
            nonlinear=False,
            forcing=lambda t: (t**params.beta) * psi,
        )
        finals[M] = tr.values[-1]
    errs = [
        (0.5 / M, math.sqrt(grid.h * float(np.sum(np.abs(finals[M] - finals[512]) ** 2))))
        for M in (32, 64, 128, 256)
    ]
    slope = float(
        np.polyfit(np.log([p[0] for p in errs]), np.log([p[1] for p in errs]), 1)[0]
    )
    target = 1.0 + params.beta
    ok = worst_ratio < 0.5 and abs(slope - target) <= 0.3
    _report(
        "criterion 10 (Picard contraction)",
        ok,
        f"worst residual ratio {worst_ratio:.3f} (< 0.5); time-refinement order "
        f"{slope:.3f} (target {target} +- 0.3)",
    )
    assert worst_ratio < 0.5
    assert abs(slope - target) <= 0.3


# ---------------------------------------------------------------------------
# criterion 11: parameter validator worked example
# ---------------------------------------------------------------------------


def test_criterion_11_parameter_validator():
    accepted = ModelParams(alpha=1.5, beta=0.76)
    rejected = False
    message = ""
    try:
        ModelParams(alpha=1.5, beta=0.74)
    except ParameterError as exc:
        rejected = True
        message = str(exc)
    ok = accepted is not None and rejected and "alpha > (sigma+1)/2" in message
    _report(
        "criterion 11 (parameter validator)",
        ok,
        f"accepts (1.5, 0.76); rejects (1.5, 0.74) with: {message!r}",
    )
    assert rejected
    assert "alpha > (sigma+1)/2" in message

"""Mittag-Leffler evaluation against the arbitrary-precision oracle."""

import cmath
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import rgamma

from fraclat import special
from fraclat.special import (
    MLOverflowError,
    ml_e,
    ml_e_grid,
    ml_ee,
    ml_ee_grid,
    ml_oracle,
)

RAY = lambda beta, r: complex(r) * cmath.exp(-1j * beta * math.pi / 2.0)


class TestMittagLefflerOracle:
    def test_exponential_cases(self):
        assert ml_oracle(1.0, 1.0, 1.0, digits=50) == pytest.approx(math.e, rel=1e-14)
        assert ml_oracle(0.8, 0.0, 1.0, digits=50) == pytest.approx(1.0, rel=1e-14)

    def test_cross_check_beta_one_closed_form(self):
        z = RAY(1.0, 7.0)
        assert ml_oracle(1.0, z, 1.0, digits=60) == pytest.approx(cmath.exp(z), rel=1e-13)

    def test_half_beta_closed_form(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z)
        z = RAY(0.5, 3.0)
        with mp.workdps(40):
            ref = complex(mp.e ** (mp.mpc(z) ** 2) * mp.erfc(-mp.mpc(z)))
        assert ml_oracle(0.5, z, 1.0, digits=60) == pytest.approx(ref, rel=1e-13)

    def test_digits_floor(self):
        with pytest.raises(ValueError):
            ml_oracle(0.8, 1.0, 1.0, digits=10)

    @staticmethod
    def _direct_sum(beta, gam, z, dps):
        # sum z^k / Gamma(beta*k + gam) with mp.rgamma term by term, until
        # five consecutive terms fall below 1e-40 of the partial sum
        with mp.workdps(dps):
            zz, bb, gg = mp.mpc(z), mp.mpf(beta), mp.mpf(gam)
            s, zp, quiet, k = mp.mpc(0), mp.mpc(1), 0, 0
            while quiet < 5:
                t = zp * mp.rgamma(bb * k + gg)
                s += t
                quiet = quiet + 1 if abs(t) < mp.mpf(10) ** -40 * abs(s) else 0
                zp *= zz
                k += 1
            return complex(s)

    @pytest.mark.parametrize("gam", [1.0, 0.6])
    def test_shared_table_matches_direct_sum(self, gam):
        # the costliest point: E_{0.6} and E_{0.6,0.6} both read the one
        # reciprocal-Gamma table of beta = 0.6; partial sums peak near
        # e^{50^{1/0.6}} ~ 1e295, so 340 digits leave 30 guard digits
        z = 50.0 * cmath.exp(-1j * 0.3 * math.pi)
        ref = self._direct_sum(0.6, gam, z, dps=340)
        assert ml_oracle(0.6, z, gam) == pytest.approx(ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("gam", [1.0, 0.75])
    def test_one_bit_entries_match_direct_sum(self, gam):
        # beta*k is an integer at every fourth k, so entries such as
        # 1/Gamma(3) = 1/2 have 1-bit mantissas; the gam = 1 division must
        # keep the working precision there too.  Partial sums peak near
        # e^{50^{4/3}} ~ 1e80, so 140 digits leave 60 guard digits
        z = RAY(0.75, 50.0)
        ref = self._direct_sum(0.75, gam, z, dps=140)
        assert ml_oracle(0.75, z, gam) == pytest.approx(ref, rel=1e-15, abs=0.0)

    # gam = 1 divides the shared table, gam = beta shifts it, gam + beta has its own
    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.sampled_from([0.6, 0.75, 0.85]),
        r=st.floats(0.0, 30.0),
        frac=st.floats(-1.0, 1.0),
    )
    def test_recurrence_across_coefficient_paths(self, beta, r, frac):
        # E_{b,g}(z) - z E_{b,g+b}(z) = 1/Gamma(g)
        z = complex(r * cmath.exp(1j * frac * beta * math.pi / 2.0))
        for gam in (1.0, beta):
            lhs = ml_oracle(beta, z, gam, digits=50)
            zrhs = z * ml_oracle(beta, z, gam + beta, digits=50)
            assert abs(lhs - zrhs - rgamma(gam)) <= 1e-13 * max(abs(lhs), abs(zrhs))

    def test_general_second_param_own_table(self):
        # E_{1,2}(z) = (e^z - 1)/z; gam = 2 is neither 1 nor beta
        for z in (2.5, -5.0, RAY(1.0, 7.0), 3.0 - 4.0j):
            with mp.workdps(60):
                ref = complex(mp.expm1(mp.mpc(z)) / mp.mpc(z))
            assert ml_oracle(1.0, z, 2.0, digits=60) == pytest.approx(ref, rel=1e-14)
        assert (1.0, 2.0) in special._MP_RGAMMA_CACHE
        # E_{b,1}(z) = 1 + z E_{b,1+b}(z): the shared table against its own
        z = RAY(0.8, 9.0)
        lhs = ml_oracle(0.8, z, 1.0, digits=60)
        rhs = 1.0 + z * ml_oracle(0.8, z, 1.8, digits=60)
        assert lhs == pytest.approx(rhs, rel=1e-13)
        assert (0.8, 1.8) in special._MP_RGAMMA_CACHE

    def test_threads_share_the_gamma_cache(self):
        # concurrent evaluations at different precisions that extend one
        # fresh table must give the serial values; beta = 0.77 is used by no
        # other test, so its table starts empty here
        beta = 0.77
        pts = [
            (40.0 * cmath.exp(-1j * th), gam, digits)
            for th in (0.2, 0.6, 1.0)
            for gam, digits in ((1.0, 50), (beta, 80))
        ]
        ref = [ml_oracle(beta, z, gam, digits=digits) for z, gam, digits in pts]
        special._MP_RGAMMA_CACHE.pop((beta, 0.0))
        got = [None] * len(pts)

        def work(i):
            z, gam, digits = pts[i]
            got[i] = ml_oracle(beta, z, gam, digits=digits)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often to provoke races
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(pts))]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(old)
        assert got == ref


class TestMlE:
    def test_z_zero_is_one(self):
        for beta in (0.6, 0.85, 1.0):
            assert ml_e(beta, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_beta_one_is_exp(self):
        assert ml_e(1.0, 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_frozen_sector_point(self):
        # oracle: ml_oracle(0.8, 20*exp(-0.4j*pi), 1.0, digits=100)
        z = 20.0 * cmath.exp(-1j * 0.4 * math.pi)
        ref = complex(-0.14935618358795844, 1.2315692700382226)
        assert ml_e(0.8, z) == pytest.approx(ref, rel=1e-11)

    def test_beta_one_degeneration_left_half_plane(self):
        # 100 points |z| <= 30, Re z <= 0: E_1 = exp to 1e-12 relative
        rng = np.random.default_rng(3)
        r = rng.uniform(0.0, 30.0, 100)
        th = rng.uniform(math.pi / 2.0, math.pi, 100) * rng.choice([-1, 1], 100)
        worst = 0.0
        for ri, ti in zip(r, th):
            z = ri * cmath.exp(1j * ti)
            worst = max(worst, abs(ml_e(1.0, z) - cmath.exp(z)) / abs(cmath.exp(z)))
        assert worst <= 1e-12

    def test_off_sector_rejected(self):
        with pytest.raises(ValueError):
            ml_e(0.8, 5.0 * cmath.exp(-1j * 0.9 * math.pi))


class TestMlEe:
    def test_z_zero(self):
        assert ml_ee(0.8, 0.0) == pytest.approx(1.0 / 1.1642297137253030, rel=1e-13)

    def test_beta_one_is_exp(self):
        assert ml_ee(1.0, 2.0) == pytest.approx(7.389056098930650, rel=1e-13)

    def test_frozen_sector_point(self):
        # oracle: ml_oracle(0.8, 20*exp(-0.4j*pi), 0.8, digits=100)
        z = 20.0 * cmath.exp(-1j * 0.4 * math.pi)
        ref = complex(0.5184055068682563, 2.5923182656987627)
        assert ml_ee(0.8, z) == pytest.approx(ref, rel=1e-11)


class TestSectorInvariants:
    @pytest.mark.parametrize("beta", [0.6, 0.75, 0.8, 0.9])
    def test_oracle_agreement_on_ray(self, beta):
        # coarse version of the acceptance sweep: 12 radii per beta
        worst = 0.0
        for r in np.linspace(50.0, 0.0, 12):
            z = RAY(beta, r)
            for gam, f in ((1.0, ml_e), (beta, ml_ee)):
                ref = ml_oracle(beta, z, gam, digits=60)
                worst = max(worst, abs(f(beta, z) - ref) / abs(ref))
        assert worst <= 1e-9

    def test_uniform_boundedness_on_ray(self):
        # the propagator multiplier stays bounded by a small constant
        sup = 0.0
        for beta in (0.6, 0.75, 0.85, 0.95):
            for r in np.linspace(60.0, 0.0, 40):
                sup = max(sup, abs(ml_e(beta, RAY(beta, r))))
        assert sup <= 10.0

    def test_increment_bound(self):
        # E(z1)-E(z2) matches the phase increment up to C |z1-z2|/(|z1||z2|)
        beta = 0.8
        worst_c = 0.0
        for r1, r2 in ((10.0, 12.0), (15.0, 18.0), (25.0, 30.0), (40.0, 49.0)):
            z1, z2 = RAY(beta, r1), RAY(beta, r2)
            lead = (
                cmath.exp(-1j * r1 ** (1.0 / beta)) - cmath.exp(-1j * r2 ** (1.0 / beta))
            ) / beta
            lhs = abs(ml_e(beta, z1) - ml_e(beta, z2) - lead)
            rhs = abs(z1 - z2) / (r1 * r2)
            worst_c = max(worst_c, lhs / rhs)
        assert worst_c <= 2.0  # measured C is ~0.21


def _reference_order(beta: float, gam: float, tol: float, r: float) -> int:
    """The truncation rules of the grid path applied term by term at |z| = r."""
    radius = math.log(1.0 / tol) ** beta
    if r < radius:
        kmax = min(int(3.5 * radius ** (1.0 / beta) / beta) + 30, 600) - 1
        for k in range(9, kmax):
            if r**k * abs(rgamma(beta * k + gam)) < 1e-22:
                return k
        return kmax
    prev = math.inf
    for k in range(1, 60):
        env = math.exp(special._log_env_recip_gamma(gam - beta * k) - k * math.log(r))
        if env > prev:
            return k - 1  # past the point's envelope minimum
        if env < tol * 1e-3:
            return k
        prev = env
    return 59


def _order_breakpoints(beta: float, gam: float, rmax: float) -> list[float]:
    """Radii on both sides of the two outermost series order jumps and the
    two innermost asymptotic ones, below rmax."""
    rs = np.geomspace(0.5, rmax, 4000)
    key, scoef, _ = special._grid_orders(beta, gam, special.GRID_TOL, rs)
    jumps = np.flatnonzero(np.diff(key) != 0)
    series = [j for j in jumps if key[j + 1] < scoef.size]
    asymp = [j for j in jumps if key[j] >= scoef.size]
    assert len(series) >= 2 and len(asymp) >= 2
    return [r for j in series[-2:] + asymp[:2] for r in (rs[j], rs[j + 1])]


class TestGridEvaluators:
    @pytest.mark.parametrize("beta", [0.76, 0.85, 1.0])
    def test_grid_matches_scalar(self, beta):
        rs = np.linspace(0.0, 40.0, 17)
        ge = ml_e_grid(beta, rs)
        gee = ml_ee_grid(beta, rs)
        for i, r in enumerate(rs):
            assert ge[i] == pytest.approx(ml_e(beta, RAY(beta, r)), rel=5e-8)
            assert gee[i] == pytest.approx(ml_ee(beta, RAY(beta, r)), rel=5e-8)

    @pytest.mark.parametrize("beta", [0.55, 0.7, 0.85, 1.0])
    def test_grid_matches_oracle_on_the_ray(self, beta):
        # the crossover radius from both sides, and both sides of order jumps
        rmax = 30.0 if beta < 0.7 else 60.0
        radius = math.log(1.0 / special.GRID_TOL) ** beta
        common = [0.0, 0.5 * radius, 0.99 * radius, 1.01 * radius, rmax]
        for gam, grid_f in ((1.0, ml_e_grid), (beta, ml_ee_grid)):
            rs = np.array(common + _order_breakpoints(beta, gam, rmax))
            got = grid_f(beta, rs)
            for r, gi in zip(rs, got):
                assert gi == pytest.approx(ml_oracle(beta, RAY(beta, r), gam, digits=50), rel=5e-8)

    @pytest.mark.parametrize("beta", [0.55, 0.85])
    def test_orders_follow_term_by_term_rules(self, beta):
        tol = special.GRID_TOL
        radius = math.log(1.0 / tol) ** beta
        rs = np.geomspace(1e-3, 3e3, 1500)
        for gam in (1.0, beta):
            key, scoef, _ = special._grid_orders(beta, gam, tol, rs)
            in_series = key < scoef.size
            assert np.array_equal(in_series, rs < radius)
            got = np.where(in_series, key, key - scoef.size)
            want = [_reference_order(beta, gam, tol, r) for r in rs]
            assert got.tolist() == want

    def test_beta_one_is_exp(self):
        # E_1 = exp at the point r e^{i theta} the radii and angle describe,
        # bit for bit, on the ray and at angles all round the plane
        rs = np.linspace(0.0, 60.0, 31)
        ray = np.exp(rs * cmath.exp(-0.5j * math.pi))
        assert np.array_equal(ml_e_grid(1.0, rs), ray)
        assert np.array_equal(ml_ee_grid(1.0, rs), ray)
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-math.pi, math.pi, 8):
            r = rng.uniform(0.0, 56.0, 5)
            got = special._ml_grid(1.0, 1.0, r, theta, special.GRID_TOL)
            assert np.array_equal(got, np.exp(r * cmath.exp(1j * theta)))

    @pytest.mark.parametrize("r", [-2.5, -1e-300, math.nan])
    def test_bad_radii_rejected(self, r):
        rs = np.array([0.0, 3.0, r, 7.0])
        with pytest.raises(ValueError, match=rf"radii must be >= 0: got {r}$"):
            ml_e_grid(0.85, rs)
        with pytest.raises(ValueError, match=rf"radii must be >= 0: got {r}$"):
            ml_ee_grid(1.0, rs)  # the exp route is checked too

    def test_complex_radii_rejected(self):
        with pytest.raises(TypeError, match="radii must be real"):
            ml_e_grid(0.85, np.array([1.0, 2.0 + 0j]))

    def test_plans_cached_and_read_only(self):
        # the coefficient plans and the order table are built once per
        # (beta, gam, tol) and shared by every call, so no caller may write
        # into them
        rs = np.linspace(0.0, 12.0, 50)
        first = ml_ee_grid(0.85, rs)
        for plan in (special._series_plan, special._asymp_plan, special._order_table):
            a = plan(0.85, 0.85, special.GRID_TOL)
            b = plan(0.85, 0.85, special.GRID_TOL)
            assert all(x is y for x, y in zip(a, b))
            for arr in a:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0
        assert np.array_equal(ml_ee_grid(0.85, rs), first)

    @pytest.mark.parametrize("tol", [1e-16, 1.0, math.nan])
    def test_tolerance_out_of_range_rejected(self, tol):
        with pytest.raises(ValueError, match=rf"tolerance .* got {tol}"):
            ml_e_grid(0.8, np.array([1.0, 30.0]), tol=tol)

    # beta >= 0.6 keeps e^{|z|^{1/beta}} inside double range at |z| = 40, arg z = 0
    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.6, 1.0),
        r=st.floats(0.0, 40.0),
        frac=st.floats(-1.0, 1.0),
    )
    @example(beta=0.75, r=5e-324, frac=1.0)  # subnormal |z|: no phase to check
    def test_grid_matches_scalar_in_sector(self, beta, r, frac):
        # the grid evaluator at the point's own angle
        theta = frac * beta * math.pi / 2.0
        z = complex(r * cmath.exp(1j * theta))
        for gam, point_f in ((1.0, ml_e), (beta, ml_ee)):
            got = special._ml_grid(beta, gam, np.array([r]), theta, special.GRID_TOL)[0]
            assert got == pytest.approx(point_f(beta, z), rel=5e-8)


class TestOneEvaluator:
    # beta >= 0.6 keeps e^{|z|^{1/beta}} inside double range at |z| = 40, arg z = 0
    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.6, 1.0),
        r=st.floats(0.0, 40.0),
        frac=st.floats(-1.0, 1.0),
    )
    @example(beta=0.75, r=5e-324, frac=1.0)  # subnormal |z|: no phase to check
    def test_point_evaluators_match_oracle_in_sector(self, beta, r, frac):
        z = complex(r * cmath.exp(1j * frac * beta * math.pi / 2.0))
        assert ml_e(beta, z) == pytest.approx(ml_oracle(beta, z, 1.0, digits=50), rel=1e-11)
        assert ml_ee(beta, z) == pytest.approx(ml_oracle(beta, z, beta, digits=50), rel=1e-11)

    @pytest.mark.parametrize("beta", [0.6, 0.8, 0.95])
    def test_pole_on_contour_node(self, beta):
        # s* = z^{1/beta} on each node u = k h whose point of the parabola
        # lies in the sector (|u| <= 1); without the half-step shift the
        # subtracted pole term cancels the integrand on that node
        n = special._CONTOUR_N
        mu, h = math.pi * n / 12.0, 3.0 / n
        for k in range(-n, n + 1):
            if abs(k * h) > 1.0:
                continue
            z = (mu * (1.0 + 1j * k * h) ** 2) ** beta
            for gam in (1.0, beta):
                got = special._contour_sum(beta, gam, np.array([z]))[0]
                assert got == pytest.approx(ml_oracle(beta, z, gam, digits=50), rel=1e-12), k

    def test_criterion_1_points_make_no_mpmath_call(self, monkeypatch):
        calls = []
        series_mp = special._ml_series_mp
        monkeypatch.setattr(special, "_ml_series_mp", lambda *a: calls.append(a) or series_mp(*a))
        for beta in (0.6, 0.75, 0.8, 0.9):
            for r in np.linspace(0.0, 50.0, 50):
                ml_e(beta, RAY(beta, r))
                ml_ee(beta, RAY(beta, r))
        assert calls == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_named(self):
        # E_0.55(40) ~ e^{40^{1/0.55}}/0.55 = e^{815}/0.55 leaves double range
        with pytest.raises(MLOverflowError, match=r"E_\{0\.55,1\}.* 1 point.*\|z\| = 40$"):
            special._ml_grid(0.55, 1.0, np.array([1.0, 40.0]), 0.0, special.GRID_TOL)
        with pytest.raises(MLOverflowError, match=r"E_\{0\.55,1\}.*\|z\| = 40$"):
            ml_e(0.55, 40.0)


def test_evaluators_load_no_numpy_ma():
    # np.unique would import numpy.ma, 1 MB resident through every solve
    code = ("import sys, numpy as np, fraclat.special as sp; sp.ml_ee_grid(0.85, np.linspace(0, 99, 9)); "
            "sp.ml_e(0.8, 3 + 1j); print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(special.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestReciprocalGamma:
    # poles, both sides of a pole, subnormal arguments, and past 171.6 where
    # Gamma leaves double range and 1/Gamma comes from exp(-lgamma)
    @pytest.mark.parametrize(
        "x",
        [0.0, -1.0, -2.0, -57.0, -3.0 + 1e-9, -3.0 - 1e-9, -1.0 + 1e-15, -20.5, -58.3,
         1e-300, -1e-300, 1e-310, -1e-310, 0.5, 2.5, 10.3, 100.7,
         171.5, 171.62, 171.7, 172.0, 180.3, 600.5],
    )
    def test_matches_mpmath(self, x):
        with mp.workdps(30):
            ref = float(mp.rgamma(mp.mpf(x)))
        got = float(special._rgamma(np.array([x]))[0])
        # exp(-lgamma) amplifies lgamma's absolute rounding past 171.6
        assert got == pytest.approx(ref, rel=2e-15 if x < 171.6 else 1e-12, abs=0.0)

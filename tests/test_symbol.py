"""Dispersion symbol: the expansion about xi = 0, its derivatives, critical
points.  High-precision references come from the polylogarithm:
w = 2(zeta(1+a) - Re Li_{1+a}(e^{i xi})), w' = 2 Im Li_a, w'' = 2 Re Li_{a-1};
the defining cosine series is the independent oracle for w."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclat.symbol import (
    _zeta_table,
    find_xi0,
    find_xi1,
    normalization_constant,
    normalization_constant_closed_form,
    phi_eval,
    w_eval,
    w_on_dft_grid,
    w_prime,
    w_second,
)

ALPHA = 1.5
# the symbol functions return w/c; c times them is the raw cosine series
C = normalization_constant_closed_form(ALPHA)


def cosine_series(alpha, xi, n_terms=100_000):
    """2 (zeta(1+a) - sum_{n<=N} cos(n xi)/n^{1+a}) and its truncation bound.

    For decreasing coefficients the partial sums of cos(n xi) are bounded by
    1/|sin(xi/2)|, so the dropped tail is at most (N+1)^{-1-a}/|sin(xi/2)|.
    """
    xi = np.asarray(xi, dtype=float)
    n = np.arange(1, n_terms + 1, dtype=float)
    partial = np.cos(np.multiply.outer(xi, n)) @ n ** (-1.0 - alpha)
    w = 2.0 * (float(mp.zeta(1.0 + alpha)) - partial)
    bound = 2.0 * (n_terms + 1.0) ** (-1.0 - alpha) / np.abs(np.sin(xi / 2.0))
    return w, bound


class TestConfig:
    def test_alpha_range(self):
        for alpha in (1.0, 2.0, math.nan):
            with pytest.raises(ValueError, match=rf"alpha must be in \(1, 2\), got {alpha}"):
                w_eval(alpha, 0.5)


class TestWEval:
    def test_zero(self):
        assert w_eval(ALPHA, 0.0) == 0.0

    def test_even(self):
        assert w_eval(ALPHA, -0.7) == pytest.approx(w_eval(ALPHA, 0.7), rel=1e-14)

    def test_periodic_extension(self):
        assert w_eval(ALPHA, 0.9 + 2.0 * math.pi) == pytest.approx(
            w_eval(ALPHA, 0.9), rel=1e-12
        )

    def test_closed_form_at_pi(self):
        # only odd n survive: w(pi) = 4 (1 - 2^{-1-a}) zeta(1+a); zeta from mpmath
        import mpmath as mp

        ref = float(4 * (1 - mp.mpf(2) ** mp.mpf("-2.5")) * mp.zeta(mp.mpf("2.5")))
        assert C * w_eval(ALPHA, math.pi) == pytest.approx(ref, rel=1e-9)

    def test_frozen_value(self):
        # oracle: 2*(zeta(2.5) - Re Li_{2.5}(e^{i})) at 40 digits
        assert C * w_eval(ALPHA, 1.0) == pytest.approx(1.8839527613413515, rel=1e-10)

    def test_dft_grid_path_matches(self):
        # FFT order: zero frequency first, -pi at index m/2
        for m in (16, 48, 64):
            xi = 2.0 * math.pi * np.fft.fftfreq(m)
            got = C * w_on_dft_grid(ALPHA, m)
            assert got[0] == 0.0
            assert xi[m // 2] == -math.pi
            nz = np.arange(m) != 0
            ref, bound = cosine_series(1.5, xi[nz])
            assert np.all(np.abs(got[nz] - ref) <= bound + 1e-13)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    def test_matches_defining_cosine_series(self, alpha):
        xi = np.array([-2.0, 0.3, 1.0, 2.0, 2.9, math.pi, 0.7 + 2.0 * math.pi])
        ref, bound = cosine_series(alpha, xi)
        got = normalization_constant_closed_form(alpha) * np.asarray(w_eval(alpha, xi))
        assert np.all(np.abs(got - ref) <= bound + 1e-13)

    def test_normalized_small_xi(self):
        # normalized symbol approaches |xi|^alpha
        for xi in (1e-3, 3e-3):
            assert w_eval(ALPHA, xi) == pytest.approx(xi**1.5, rel=5e-2)


class TestWPrime:
    def test_zero_at_pi(self):
        assert abs(C * w_prime(ALPHA, math.pi)) < 1e-12

    def test_frozen_value(self):
        # oracle: 2 Im Li_{1.5}(e^{i}) at 40 digits
        assert C * w_prime(ALPHA, 1.0) == pytest.approx(2.1011176942556032, rel=1e-11)

    def test_small_xi_constant(self):
        # w'(xi)/xi^{alpha-1} -> pi/(Gamma(a) sin(a pi/2)); the ratio carries
        # an O(xi^{2-alpha}) correction, removed by Richardson extrapolation
        c_lim = math.pi / (math.gamma(1.5) * math.sin(0.75 * math.pi))
        r1 = C * w_prime(ALPHA, 0.01) / 0.01**0.5
        r2 = C * w_prime(ALPHA, 0.0025) / 0.0025**0.5
        extrap = (r2 - 0.5 * r1) / (1.0 - 0.5)  # 2^{-(2-alpha)} = 1/2
        assert extrap == pytest.approx(c_lim, rel=2e-3)

    def test_positive_inside(self):
        xs = np.linspace(0.01, math.pi - 0.01, 500)
        assert np.all(np.asarray(w_prime(ALPHA, xs)) > 0.0)

    def test_matches_abel_summed_sine_series(self):
        # the differentiated series 2 sum sin(n xi)/n^alpha converges only
        # conditionally; its Abel sum 2 sum r^n sin(n xi)/n^alpha, r -> 1-,
        # extrapolated linearly in (1-r), is an independent oracle
        xi = 1.3
        n = np.arange(1, 400_000, dtype=float)
        base = np.sin(n * xi) / n**1.5

        def abel(r):
            return 2.0 * float(np.sum(r**n * base))

        r1, r2 = 1.0 - 2e-3, 1.0 - 1e-3
        a1, a2 = abel(r1), abel(r2)
        extrap = a2 + (a2 - a1)  # removes the O(1-r) term
        assert C * w_prime(ALPHA, xi) == pytest.approx(extrap, rel=1e-5)


class TestWSecond:
    def test_large_near_zero(self):
        # O(xi^{alpha-2}) blow-up: large, positive, with the right growth trend
        assert C * w_second(ALPHA, 1e-3) > 50.0
        ratio = w_second(ALPHA, 1e-4) / w_second(ALPHA, 1e-3)
        assert 2.5 < ratio < 4.0  # ~ 10^{2-alpha} = sqrt(10)

    def test_negative_at_half_pi(self):
        assert w_second(ALPHA, math.pi / 2.0) < 0.0

    def test_frozen_value(self):
        # oracle: 2 Re Li_{0.5}(e^{2i}) at 40 digits
        assert C * w_second(ALPHA, 2.0) == pytest.approx(-1.0398724225846287, rel=1e-10)

    def test_domain_error_at_zero(self):
        with pytest.raises(ValueError):
            w_second(ALPHA, 0.0)


class TestDerivativeConsistency:
    def test_fd_w_vs_wprime(self):
        d = 1e-5
        for xi in (0.8, 1.5, 2.4):
            fd = C * (w_eval(ALPHA, xi + d) - w_eval(ALPHA, xi - d)) / (2 * d)
            assert abs(fd - C * w_prime(ALPHA, xi)) < 1e-6

    def test_fd_wprime_vs_wsecond(self):
        d = 1e-5
        for xi in (0.8, 1.5, 2.4):
            fd = C * (w_prime(ALPHA, xi + d) - w_prime(ALPHA, xi - d)) / (2 * d)
            assert abs(fd - C * w_second(ALPHA, xi)) < 1e-6


class TestCriticalPoints:
    def test_xi0_frozen(self):
        # oracle: mpmath root of 2 Re Li_{0.5}(e^{i xi}) = 0
        assert find_xi0(ALPHA) == pytest.approx(0.743772937966011, abs=1e-10)

    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_xi0_interval(self, alpha):
        xi0 = find_xi0(alpha)
        assert 0.0 < xi0 < math.pi / 2.0

    def test_xi1_frozen(self):
        # oracle: mpmath root of (1/b-1) w'^2 + w w'' on (xi0, pi)
        assert find_xi1(ALPHA, 0.85) == pytest.approx(1.01410502027488, abs=1e-9)

    def test_xi1_exceeds_xi0(self):
        assert find_xi0(ALPHA) < find_xi1(ALPHA, 0.85) < math.pi

    def test_beta_one_collapse(self):
        assert find_xi1(ALPHA, 1.0) == find_xi0(ALPHA)

    def test_xi1_bad_beta_rejected(self):
        # beta = -0.2 used to end in a BracketError, beta = 1.5 in xi0
        for beta in (-0.2, 0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=rf"beta must be in \(0, 1\], got {beta}"):
                find_xi1(ALPHA, beta)

    def test_xi1_reuses_the_cached_xi0(self):
        find_xi0.cache_clear()
        xi0 = find_xi0(1.37)
        assert find_xi1(1.37, 0.85) > xi0
        info = find_xi0.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestZetaTable:
    @pytest.mark.parametrize(
        "alpha", [1.0 + 2**-40, 1.001, 1.1, 1.2, 1.37, 1.5, 1.63, 1.8, 1.9, 1.999, 2.0 - 2**-40]
    )
    def test_correctly_rounded_against_mpmath(self, alpha):
        # every entry is the double nearest to zeta(alpha + 1 - 2j), j = 1..40
        with mp.workdps(40):
            ref = [float(mp.zeta(mp.mpf(alpha) + 1 - 2 * j)) for j in range(1, 41)]
        assert _zeta_table(alpha).tolist() == ref


class TestPhi:
    def test_zero(self):
        assert phi_eval(ALPHA, 0.5, 0.0, beta=0.85) == 0.0

    def test_beta_one_h_one_collapse(self):
        # exponent collapse: phi_1 = w at beta = 1, h = 1
        assert phi_eval(ALPHA, 1.0, 1.3, beta=1.0) == pytest.approx(
            w_eval(ALPHA, 1.3), rel=1e-14
        )

    def test_frozen_composition(self):
        # oracle: 0.1^{-sigma} (w(1)/c)^{1/0.85} at 40 digits with the closed-form c
        assert phi_eval(ALPHA, 0.1, 1.0, beta=0.85) == pytest.approx(
            29.6355737085628, rel=1e-12
        )

    def test_beta_required(self):
        with pytest.raises(TypeError):
            phi_eval(ALPHA, 0.1, 1.0)

    def test_bad_beta_rejected(self):
        for beta in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=rf"beta must be in \(0, 1\], got {beta}"):
                phi_eval(ALPHA, 0.1, 1.0, beta)

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_bad_mesh_rejected(self, h):
        with pytest.raises(ValueError, match=rf"phi_eval: h must be positive and finite, got {h}"):
            phi_eval(ALPHA, h, 1.0, beta=0.85)


class TestSymbolInvariants:
    def test_sandwich(self):
        xs = np.linspace(0.01, math.pi, 400)
        ratio = np.asarray(w_eval(ALPHA, xs)) / xs**1.5
        assert ratio.min() > 0.0 and np.isfinite(ratio.max())

    def test_strict_increase_of_w(self):
        xs = np.linspace(0.01, math.pi - 0.01, 1500)
        assert np.all(np.diff(np.asarray(w_eval(ALPHA, xs))) > 0.0)

    def test_derivative_bounds(self):
        xs = np.linspace(0.02, math.pi - 0.02, 800)
        wp = np.asarray(w_prime(ALPHA, xs))
        assert np.all(wp <= 4.0 * xs**0.5)
        assert np.all(wp >= 0.05 * xs**0.5 * (math.pi - xs))

    def test_wsecond_strictly_decreasing(self):
        xs = np.linspace(0.05, math.pi - 1e-6, 900)
        assert np.all(np.diff(np.asarray(w_second(ALPHA, xs))) < 0.0)

    def test_small_xi_residual_slope(self):
        xs = np.geomspace(1e-3, 0.1, 25)
        resid = np.abs(np.asarray(w_eval(ALPHA, xs)) - xs**1.5)
        slope = np.polyfit(np.log(xs), np.log(resid), 1)[0]
        assert abs(slope - 2.0) <= 0.05

    def test_normalization_cross_check(self):
        # c is the coefficient Gamma(-a) (-i xi)^a + c.c. of the polylogarithm
        # expansion: -2 Gamma(-a) cos(a pi/2), at 40 digits
        for alpha in (1.001, 1.2, 1.5, 1.9, 1.999):
            with mp.workdps(40):
                a = mp.mpf(alpha)
                ref = float(-2 * mp.gamma(-a) * mp.cos(a * mp.pi / 2))
            assert normalization_constant(alpha) == pytest.approx(ref, rel=1e-14)
            assert normalization_constant_closed_form(alpha) == pytest.approx(ref, rel=1e-14)


# near alpha = 2 the leading terms cancel (error ~ 1e-16/(2 - alpha) relative
# to their size, ~1e-12 at alpha = 1.999), and below xi ~ 1e-6 the 40-digit
# reference for w itself cancels away
@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(1.001, 1.999), xi=st.floats(1e-6, math.pi))
def test_expansion_matches_polylog(alpha, xi):
    c = normalization_constant_closed_form(alpha)
    with mp.workdps(40):
        a, z = mp.mpf(alpha), mp.expj(mp.mpf(xi))
        w = float(2 * (mp.zeta(1 + a) - mp.re(mp.polylog(1 + a, z))))
        wp = float(2 * mp.im(mp.polylog(a, z)))
        wpp = float(2 * mp.re(mp.polylog(a - 1, z)))
    assert c * w_eval(alpha, xi) == pytest.approx(w, rel=1e-9)
    # w' vanishes at pi and w'' at xi0: an absolute floor there
    assert c * w_prime(alpha, xi) == pytest.approx(wp, rel=1e-9, abs=1e-10)
    assert c * w_second(alpha, xi) == pytest.approx(wpp, rel=1e-9, abs=1e-10)

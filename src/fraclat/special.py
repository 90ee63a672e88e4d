"""Gamma and Mittag-Leffler functions on the propagator sector.

The two-parameter Mittag-Leffler family

    E_{b,g}(z) = sum_k z^k / Gamma(b*k + g)

supplies the linear propagator multiplier E_b = E_{b,1} and the memory
kernel multiplier E_{b,b}.  All propagator arguments in this package lie
on the ray arg z = -b*pi/2 (branch convention i^{-b} = exp(-i*b*pi/2)),
where both functions stay uniformly bounded, so the evaluation strategy
only has to be trustworthy on the closed sector |arg z| <= b*pi/2.

Three evaluation routes are combined:

* power series in double precision while the terms cannot cancel
  catastrophically,
* the large-|z| expansion (1/b) z^{(1-g)/b} exp(z^{1/b}) minus the
  algebraic series z^{-k}/Gamma(g - b*k),
* an arbitrary-precision fallback (mpmath) whenever the estimated error
  of either fast route exceeds the requested tolerance.

The vectorised grid path (``ml_e_grid``/``ml_ee_grid``, the solver's
tables) uses the first two routes only, split at the radius
(ln 1/tol)^b.  Each point's truncation order follows from its own |z|
through a few scalar thresholds per (b, g, tol); the points are sorted by
order once and every branch is summed by Horner's rule, so a point pays
for its own order, not for the worst one.

``ml_oracle`` exposes the arbitrary-precision series directly; the test
suite uses it as the independent reference for everything else.
"""

from __future__ import annotations

import math
import cmath
import threading
from dataclasses import dataclass

import numpy as np
import mpmath as mp
from mpmath.libmp import (
    fone,
    fzero,
    mpc_add,
    mpc_mul,
    mpc_mul_mpf,
    mpc_to_complex,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_mul_int,
    mpf_shift,
    round_nearest as _RND,
)
from scipy.special import gammaln as _gammaln


class PoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class NonConvergenceError(RuntimeError):
    """A series failed to converge within its term budget."""


# ---------------------------------------------------------------------------
# real Gamma via Lanczos
# ---------------------------------------------------------------------------

# Godfrey's 15-coefficient Lanczos table, g = 607/128.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _lanczos_sum(x: float) -> float:
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (x + i)
    return s


def gamma_real(x: float) -> float:
    """Gamma(x) for real x, poles excluded.

    Accurate to ~1e-14 relative on [-170, 170] away from the poles;
    negative arguments go through the reflection formula.
    """
    if x == math.floor(x) and x <= 0.0:
        raise PoleError(f"gamma_real: pole at x = {x:g}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_real(1.0 - x))
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    # the exponent reaches ~700 near x = 170; assembling it in extended
    # precision keeps the relative error of exp() at the 1e-15 level
    ld = np.longdouble
    lg = (ld(z) + ld(0.5)) * np.log(ld(t)) - ld(t)
    return float(np.exp(lg) * ld(_SQRT_2PI) * ld(_lanczos_sum(z)))


def _recip_gamma_real(x: float) -> float:
    """1/Gamma(x) with zeros (not poles) at non-positive integers."""
    if x == math.floor(x) and x <= 0.0:
        return 0.0
    if x > 171.0:
        return 0.0  # Gamma overflows double; reciprocal underflows
    return 1.0 / gamma_real(x)


# ---------------------------------------------------------------------------
# Mittag-Leffler parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLParams:
    """Evaluation policy: regime switch radius, asymptotic order, tolerance."""

    beta: float
    series_radius: float = 10.0
    asym_order: int = 10
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"MLParams: beta must be in (0, 1], got {self.beta}")
        if self.series_radius <= 0.0:
            raise ValueError("MLParams: series_radius must be positive")
        if self.asym_order < 2:
            raise ValueError("MLParams: asym_order must be >= 2")
        if self.tol <= 0.0:
            raise ValueError("MLParams: tol must be positive")


# ---------------------------------------------------------------------------
# arbitrary-precision series (oracle and fallback)
# ---------------------------------------------------------------------------

# mpmath keeps its working precision in the process-wide ``mp`` context, so
# every arbitrary-precision summation, and every update of the Gamma cache,
# runs under this lock.  Pure-Python mp arithmetic holds the GIL anyway, so
# serialising it costs no parallelism.
_MP_LOCK = threading.RLock()
_MP_RGAMMA_CACHE: dict[tuple[float, float], tuple[int, list]] = {}
_RGAMMA_STEP = 256
_ORACLE_TERM_CAP = 200_000
_HUGE_EXP = 1 << 62


def _mp_rgamma_table(beta: float, gam: float, dps: int, upto: int) -> list:
    """Cached reciprocals 1/Gamma(beta*k + gam), k = 0..n-1 with n >= upto.

    The cache holds reciprocals, as raw libmp mpf values, so that each
    series term costs a multiply instead of a divide.  It keeps one table
    per beta, keyed (beta, 0): g_k = 1/Gamma(beta*k), from which
    _ml_series_mp reads both propagator multipliers, E_beta and
    E_{beta,beta}.  Any other gam keeps a table of its own.  A table is
    kept at the highest precision requested so far (extra digits are
    harmless to lower-precision summations) and grows in fixed steps of
    _RGAMMA_STEP entries.  New entries go into a fresh list that replaces
    the cached one in a single assignment under _MP_LOCK, so a list once
    handed out is never modified.
    """
    key = (beta, gam)
    with _MP_LOCK:
        built_dps, table = _MP_RGAMMA_CACHE.get(key, (0, []))
        if dps > built_dps:
            built_dps, table = dps, []
        if len(table) < upto:
            n = len(table) + _RGAMMA_STEP * -(-(upto - len(table)) // _RGAMMA_STEP)
            with mp.workdps(built_dps):
                bb = mp.mpf(beta)
                gg = mp.mpf(gam)
                table = table + [mp.rgamma(bb * k + gg)._mpf_ for k in range(len(table), n)]
            _MP_RGAMMA_CACHE[key] = (built_dps, table)
        return table


def _mpc_sup(v: tuple) -> tuple:
    """max(|Re v|, |Im v|) of a raw libmp complex."""
    re, im = mpf_abs(v[0]), mpf_abs(v[1])
    return im if mpf_gt(im, re) else re


def _mpc_mag(v: tuple) -> int:
    """Least m with max(|Re v|, |Im v|) < 2^m (very negative for v = 0)."""
    (_, m1, e1, b1), (_, m2, e2, b2) = v
    return max(e1 + b1 if m1 else -_HUGE_EXP, e2 + b2 if m2 else -_HUGE_EXP)


def _settled(t: tuple, s: tuple, thresh: tuple, prec: int) -> bool:
    """Sup-norm stop test 2 sup|t| <= thresh (sup|s| + thresh), rounded at prec.

    The exponents alone settle most calls: sup|t| >= 2^(mag t - 1) and the
    rounded right side is at most 2^(mag thresh + max(mag s, mag thresh) + 1),
    so a larger mag t fails the test without any multiprecision arithmetic.
    """
    mt = thresh[2] + thresh[3]
    if _mpc_mag(t) > mt + max(_mpc_mag(s), mt) + 1:
        return False
    return mpf_le(
        mpf_shift(_mpc_sup(t), 1),
        mpf_mul(thresh, mpf_add(_mpc_sup(s), thresh, prec, _RND), prec, _RND),
    )


def _series_dps(beta: float, absz: float, digits: int) -> int:
    """Working precision: requested digits plus the cancellation budget.

    On the bounded sector the partial sums peak near exp(|z|^{1/beta}),
    so ~|z|^{1/beta}/ln(10) digits cancel before the tail settles.
    """
    x = absz ** (1.0 / beta) if absz > 1.0 else 1.0
    return int(digits + 1.15 * x / math.log(10.0) + 25)


def _ml_series_mp(beta: float, gam: float, z: complex, digits: int) -> complex:
    """Defining power series summed in arbitrary precision.

    With eps = 10^{-digits} and s the partial sum, terms t are added until
    ten consecutive ones pass the sup-norm test

        2 max(|Re t|, |Im t|) <= eps (max(|Re s|, |Im s|) + eps),

    which needs no square root.  It is never looser than the Euclidean test
    |t| <= eps (|s| + eps), i.e. |t| <= 10^{-digits} |s| up to the absolute
    floor eps^2: |t| <= sqrt(2) max(|Re t|, |Im t|) and
    max(|Re s|, |Im s|) <= |s|, so a term passes only where the Euclidean
    test passes too, and the summation never stops earlier than under it.

    Coefficients are reciprocals from _mp_rgamma_table.  gam = beta and
    gam = 1 share the table g_k = 1/Gamma(beta*k) of their beta, through
    1/Gamma(beta*k + beta) = g_{k+1} and 1/Gamma(beta*k + 1) = g_k/(beta*k).
    beta*k is exact at working precision (a 53-bit beta times a small
    integer), so the first identity is exact and the second costs one
    rounding at working precision.  Any other gam uses a table of its own.
    """
    dps = _series_dps(beta, abs(z), digits)
    if gam == beta:
        base, off, div = 0.0, 1, False
    elif gam == 1.0:
        base, off, div = 0.0, 0, True
    else:
        base, off, div = gam, 0, False
    with _MP_LOCK, mp.workdps(dps):
        # the loop works on raw libmp values with the rounding mode of mp
        # itself, so it gives the same digits as mpf/mpc objects without
        # their per-operation wrapper cost
        prec = mp.mp.prec
        zz = mp.mpc(z)._mpc_
        thresh = (mp.mpf(10) ** (-digits))._mpf_
        bb = mp.mpf(beta)._mpf_
        s = (fzero, fzero)
        zp = (fone, fzero)
        table: list = []
        quiet = 0
        for k in range(_ORACLE_TERM_CAP):
            if k + off >= len(table):
                table = _mp_rgamma_table(beta, base, dps, k + off + 1)
            if not div:
                t = mpc_mul_mpf(zp, table[k + off], prec, _RND)
            elif k:
                c = mpf_div(table[k], mpf_mul_int(bb, k, prec, _RND), prec, _RND)
                t = mpc_mul_mpf(zp, c, prec, _RND)
            else:
                t = zp
            s = mpc_add(s, t, prec, _RND)
            zp = mpc_mul(zp, zz, prec, _RND)
            if _settled(t, s, thresh, prec):
                quiet += 1
                if quiet >= 10:
                    return mpc_to_complex(s, rnd=_RND)
            else:
                quiet = 0
    raise NonConvergenceError(
        f"Mittag-Leffler series did not settle within {_ORACLE_TERM_CAP} terms "
        f"(beta={beta}, gam={gam}, |z|={abs(z):.3g})"
    )


def ml_oracle(beta: float, z: complex, second_param: float = 1.0, digits: int = 100) -> complex:
    """Arbitrary-precision evaluation of E_{beta, second_param}(z).

    The reference implementation for tests: the defining power series is
    summed with enough guard digits to survive the sector cancellation,
    then rounded to double precision.
    """
    if digits < 50:
        raise ValueError("ml_oracle: digits must be >= 50")
    if beta <= 0.0:
        raise ValueError("ml_oracle: beta must be positive")
    return _ml_series_mp(beta, second_param, complex(z), digits)


# ---------------------------------------------------------------------------
# fast scalar evaluation
# ---------------------------------------------------------------------------


def _cancellation_digits(beta: float, gam: float, absz: float) -> float:
    """log10 of the largest series term (the sum itself is O(1) on the ray)."""
    if absz <= 1.0:
        return 0.0
    kpeak = int(max(4.0, absz ** (1.0 / beta) / beta)) + 2
    ks = np.arange(1, kpeak + 8, dtype=float)
    logs = ks * math.log(absz) - _gammaln(beta * ks + gam)
    return float(np.max(logs)) / math.log(10.0)


def _ml_series_double(beta: float, gam: float, z: complex) -> tuple[complex, float]:
    """Compensated double-precision power series; returns (sum, max |term|)."""
    s = complex(0.0)
    comp = complex(0.0)  # Kahan compensation
    zp = complex(1.0)
    maxt = 0.0
    quiet = 0
    for k in range(512):
        t = zp * _recip_gamma_real(beta * k + gam)
        maxt = max(maxt, abs(t))
        # Kahan step
        y = t - comp
        tot = s + y
        comp = (tot - s) - y
        s = tot
        zp *= z
        if abs(t) <= 1e-17 * (abs(s) + 1e-300):
            quiet += 1
            if quiet >= 6:
                return s, maxt
        else:
            quiet = 0
    raise NonConvergenceError(
        f"double-precision ML series did not settle (beta={beta}, |z|={abs(z):.3g})"
    )


def _log_env_recip_gamma(g: float) -> float:
    """log of a sine-free envelope of |1/Gamma(g)|.

    Near the poles 1/Gamma vanishes through a sine factor, which would fool
    any smallest-term stopping rule; the reflection bound
    |1/Gamma(g)| <= Gamma(1-g)/pi (g < 1/2) ignores the sine and decays or
    grows monotonically with k along g = gam - beta*k.
    """
    if g >= 0.5:
        return -math.lgamma(g)
    return math.lgamma(1.0 - g) - math.log(math.pi)


def _ml_asymp_double(
    beta: float, gam: float, z: complex, order: int
) -> tuple[complex, float]:
    """Sector expansion (1/b) z^{(1-g)/b} e^{z^{1/b}} - sum_k z^{-k}/Gamma(g-bk).

    Returns (value, conservative truncation-error estimate).  The algebraic
    series is truncated at order-1 terms or at the minimum of its sine-free
    term envelope, whichever comes first; Gamma poles delete their term.
    """
    logz = cmath.log(z)
    lead = cmath.exp(cmath.exp(logz / beta)) / beta
    if gam != 1.0:
        lead *= cmath.exp(logz * (1.0 - gam) / beta)
    lnz = math.log(abs(z))
    s = complex(0.0)
    zinv = 1.0 / z
    zp = complex(1.0)
    prev_env = math.inf
    est = math.inf
    k = 1
    while k < order:
        zp *= zinv
        env = math.exp(min(_log_env_recip_gamma(gam - beta * k) - k * lnz, 700.0))
        if env > prev_env:
            est = prev_env  # envelope minimum reached: stop before divergence
            break
        coeff = _recip_gamma_real(gam - beta * k)
        if coeff != 0.0:
            s -= zp * coeff
        prev_env = env
        est = env
        k += 1
    else:
        # order exhausted: the first omitted term's envelope bounds the rest
        env_next = math.exp(
            min(_log_env_recip_gamma(gam - beta * order) - order * lnz, 700.0)
        )
        est = max(est, env_next)
    return lead + s, est


def _ml_point(beta: float, gam: float, z: complex, params: MLParams) -> complex:
    """One Mittag-Leffler value on the sector, honouring params.tol."""
    if beta == 1.0 and gam == 1.0:
        return cmath.exp(z)  # both E_1 and E_{1,1} degenerate to the exponential
    absz = abs(z)
    if absz == 0.0:
        return complex(1.0 / gamma_real(gam))
    if absz < params.series_radius:
        cancel = _cancellation_digits(beta, gam, absz)
        if 10.0 ** (cancel - 15.5) < 0.1 * params.tol:
            val, maxt = _ml_series_double(beta, gam, z)
            # post-hoc guard: the pre-estimate assumes an O(1) result, which
            # fails when the true value is exponentially small
            if 2e-16 * maxt <= 0.1 * params.tol * abs(val):
                return val
            digits = int(-math.log10(params.tol) + math.log10(maxt / max(abs(val), 1e-300))) + 6
        else:
            digits = int(-math.log10(params.tol)) + 6
        return _ml_series_mp(beta, gam, z, digits)
    val, est = _ml_asymp_double(beta, gam, z, params.asym_order)
    if est > params.tol * max(abs(val), 1e-30):
        digits = int(-math.log10(params.tol)) + 6
        return _ml_series_mp(beta, gam, z, digits)
    return val


def ml_e(beta: float, z: complex, params: MLParams | None = None) -> complex:
    """E_beta(z) on the sector |arg z| <= beta*pi/2 to params.tol relative."""
    if params is None:
        params = MLParams(beta=beta)
    _check_sector(beta, z)
    return _ml_point(beta, 1.0, complex(z), params)


def ml_ee(beta: float, z: complex, params: MLParams | None = None) -> complex:
    """E_{beta,beta}(z) on the sector |arg z| <= beta*pi/2 to params.tol relative."""
    if params is None:
        params = MLParams(beta=beta)
    _check_sector(beta, z)
    return _ml_point(beta, beta, complex(z), params)


def _check_sector(beta: float, z: complex) -> None:
    if beta == 1.0:
        return  # E_1 = exp: the expansion is exact in the whole plane
    if z != 0 and abs(cmath.phase(z)) > beta * math.pi / 2.0 + 1e-9:
        raise ValueError(
            f"argument off the validity sector: |arg z| = {abs(cmath.phase(z)):.4f} "
            f"> beta*pi/2 = {beta * math.pi / 2.0:.4f}"
        )


# ---------------------------------------------------------------------------
# vectorised evaluation for propagator tables
# ---------------------------------------------------------------------------

# default tolerance of the grid evaluators, shared by every solver table
GRID_TOL = 5e-8
_SERIES_CUT = 1e-22  # a series point stops after its first term k > 8 below this
_ASYM_TERMS = 59  # most algebraic terms the asymptotic branch adds


def _series_plan(beta: float, gam: float, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients 1/Gamma(beta*k + gam), k = 0..kmax, and the order thresholds.

    A point stops after the first k > 8 with |z|^k |c_k| < _SERIES_CUT, that
    is, after the first k whose radius (_SERIES_CUT/|c_k|)^{1/k} exceeds |z|.
    The running maximum of those radii (k = 9..kmax) is sorted, so the
    order is 9 plus a searchsorted.
    """
    kmax = min(int(3.5 * radius ** (1.0 / beta) / beta) + 30, 600) - 1
    coef = np.array([_recip_gamma_real(beta * k + gam) for k in range(kmax + 1)])
    with np.errstate(divide="ignore"):
        radii = np.exp((math.log(_SERIES_CUT) - np.log(np.abs(coef[9:]))) / np.arange(9, kmax + 1))
    return coef, np.maximum.accumulate(radii)


def _asymp_plan(beta: float, gam: float, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients 1/Gamma(gam - beta*k), k = 0..59, and the order thresholds.

    With L_k the log of the sine-free envelope of 1/Gamma(gam - beta*k),
    term k has envelope exp(L_k - k ln|z|).  It is no larger than term
    k-1's while |z| >= exp(L_k - L_{k-1}) (k >= 2; term 1 always counts),
    and it is below tol*1e-3 once |z| > exp((L_k - ln(tol*1e-3))/k).  The
    running maximum of the first radii and the running minimum of the
    second are monotone, so both counts are searchsorteds.
    """
    ks = np.arange(_ASYM_TERMS + 1)
    coef = np.array([_recip_gamma_real(gam - beta * k) for k in ks])
    logenv = np.array([_log_env_recip_gamma(gam - beta * k) for k in ks])
    rising = np.exp(np.maximum.accumulate(np.diff(logenv)[1:]))  # k = 2..59
    settled = np.exp(np.minimum.accumulate((logenv[1:] - math.log(tol * 1e-3)) / ks[1:]))
    return coef, rising, settled[::-1]  # ascending: k = 59..1


def _grid_orders(
    beta: float, gam: float, tol: float, absz: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point truncation orders of _ml_grid, with the coefficients they index.

    Returns (key, series_coef, asym_coef).  key (int16) is the series
    order N of a point inside the crossover radius, and
    len(series_coef) + K, K the asymptotic order, outside it; so sorting
    by key groups the points by branch, then by order.
    """
    radius = math.log(1.0 / tol) ** beta
    scoef, sradii = _series_plan(beta, gam, radius)
    acoef, rising, settled = _asymp_plan(beta, gam, tol)
    small = absz < radius
    key = np.empty(absz.shape, dtype=np.int16)
    key[small] = np.minimum(9 + np.searchsorted(sradii, absz[small], side="right"), scoef.size - 1)
    big = ~small
    absb = absz[big]
    past_min = 1 + np.searchsorted(rising, absb, side="right")
    unsettled = 1 + settled.size - np.searchsorted(settled, absb, side="left")
    key[big] = scoef.size + np.minimum(past_min, unsettled)
    return key, scoef, acoef


def _asymp_sum(beta: float, gam: float, zb: np.ndarray,
               coef: np.ndarray, start: np.ndarray) -> np.ndarray:
    """(1/b) z^{(1-g)/b} e^{z^{1/b}} - sum_{k=1..K} coef[k] z^{-k} on points sorted by K.

    start[k] (k = 0..59) is the first position with order >= k; Horner in
    1/z runs each term over that suffix only.
    """
    logz = np.log(zb)
    lead = np.exp(np.exp(logz / beta) + (1.0 - gam) / beta * logz) / beta
    w = 1.0 / zb
    acc = np.zeros_like(zb)
    for k in range(_ASYM_TERMS, 0, -1):
        a = acc[start[k]:]
        a += coef[k]
        a *= w[start[k]:]
    lead -= acc
    return lead


def _ml_grid(beta: float, gam: float, z: np.ndarray, tol: float) -> np.ndarray:
    """Vectorised E_{beta,gam} over an ndarray of sector points.

    Fast two-regime split tuned so that neither branch needs extended
    precision: the crossover radius (ln 1/tol)^beta puts the asymptotic
    floor e^{-|z|^{1/beta}} below tol.  Both branches stay within the
    default tol = 5e-8 on the solver's whole range beta in (1/2, 1]: on the
    ray, against the 50-digit oracle (|z| <= 30 for beta < 0.7, 60 above),
    the worst relative error of E_beta and E_{beta,beta} is 8.5e-9 at
    beta = 0.55, 1.3e-8 at 0.6, 1.9e-8 at 0.7 and 1.5e-8 at 0.85.

    Each point's truncation order comes from its own |z|:

    * series, |z| < radius: terms k = 0..N, N the first k > 8 with
      |z|^k |1/Gamma(beta*k + gam)| < 1e-22;
    * asymptotic, (1/b) z^{(1-g)/b} e^{z^{1/b}} - sum_{k=1..K} z^{-k}/Gamma(g - b*k):
      K ends at the point's own minimum of the sine-free term envelope,
      or at its first term whose envelope is below tol*1e-3 (at most 59).

    Both orders are step functions of |z| read off scalar thresholds
    (_grid_orders).  The points are sorted once by (branch, order); Horner's
    rule, in z or in 1/z, then runs from the highest order down over a
    suffix of the sorted points that grows as the order falls, so each
    point pays for its own order only.
    """
    z = np.ascontiguousarray(z, dtype=np.complex128)
    if beta == 1.0 and gam == 1.0:
        return np.exp(z)  # E_1 = E_{1,1} = exp, as in _ml_point
    zf = z.ravel()
    absz = np.abs(zf)
    key, scoef, acoef = _grid_orders(beta, gam, tol, absz)
    nser = scoef.size
    counts = np.bincount(key, minlength=nser + _ASYM_TERMS + 1)
    perm = np.argsort(key, kind="stable")
    # start[j]: the first sorted position whose key is >= j
    start = np.concatenate(([0], np.cumsum(counts)))
    nsmall = int(start[nser])
    zs = zf[perm]

    res = np.zeros(nsmall, dtype=np.complex128)
    for k in range(nser - 1, -1, -1):
        a = res[start[k]:]
        a *= zs[start[k]:nsmall]
        a += scoef[k]
    zs[nsmall:] = _asymp_sum(beta, gam, zs[nsmall:], acoef, start[nser:] - nsmall)
    zs[:nsmall] = res
    out = np.empty_like(zf)
    out[perm] = zs
    return out.reshape(z.shape)


def ml_e_grid(beta: float, z: np.ndarray, tol: float = GRID_TOL) -> np.ndarray:
    """Vectorised E_beta on sector points (propagator symbol tables)."""
    return _ml_grid(beta, 1.0, z, tol)


def ml_ee_grid(beta: float, z: np.ndarray, tol: float = GRID_TOL) -> np.ndarray:
    """Vectorised E_{beta,beta} on sector points (memory kernel tables)."""
    return _ml_grid(beta, beta, z, tol)


def regime_switch_report(beta: float, params: MLParams | None = None, n: int = 32) -> dict:
    """Measure series/asymptotics disagreement on a ring at the switch radius.

    Returns the worst relative mismatch of ml_e and ml_ee against the
    oracle just below and just above series_radius.  A mismatch beyond
    params.tol * 50 is reported as a failure flag rather than silently
    accepted.
    """
    if params is None:
        params = MLParams(beta=beta)
    worst = 0.0
    for fac in (0.995, 1.005):
        r = params.series_radius * fac
        for th in np.linspace(0.0, beta * math.pi / 2.0, n // 2):
            z = r * cmath.exp(-1j * th)
            for gam, f in ((1.0, ml_e), (beta, ml_ee)):
                ref = ml_oracle(beta, z, gam, digits=60)
                got = f(beta, z, params)
                worst = max(worst, abs(got - ref) / abs(ref))
    return {
        "beta": beta,
        "series_radius": params.series_radius,
        "worst_rel_mismatch": worst,
        "ok": bool(worst <= 50.0 * params.tol),
    }

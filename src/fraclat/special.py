"""Mittag-Leffler functions on the propagator sector.

The two-parameter Mittag-Leffler family

    E_{b,g}(z) = sum_k z^k / Gamma(b*k + g)

supplies the linear propagator multiplier E_b = E_{b,1} and the memory
kernel multiplier E_{b,b}.  All propagator arguments in this package lie
on the ray arg z = -b*pi/2 (branch convention i^{-b} = exp(-i*b*pi/2)),
where both functions stay uniformly bounded, so the evaluation only has
to be trustworthy on the closed sector |arg z| <= b*pi/2.

One vectorised evaluator, ``_ml_grid(b, g, r, theta, tol)``, serves every
caller.  It takes real radii r >= 0 and one angle theta, the points
z = r e^{i theta}, and for a relative tolerance tol it picks a route per
point from rho = r^{1/b}:

* rho < ln(tol/1e-16): the power series by Horner's rule in the real r,
  with coefficients e^{ik theta}/Gamma(b*k + g); its partial sums peak
  near e^rho, so rounding costs about 1e-16 e^rho;
* rho >= ln(1/tol): the large-|z| expansion (1/b) z^{(1-g)/b} exp(z^{1/b})
  minus the algebraic series z^{-k}/Gamma(g - b*k), whose smallest term is
  about e^{-rho}.  The lead takes ln r and real exp, cos and sin; the
  series runs Horner in the real 1/r with coefficients
  e^{-ik theta}/Gamma(g - b*k);
* in the band between: the Bromwich integral on a parabolic contour, with
  the pole z^{1/b} subtracted and its residue added back, at the complex
  points rebuilt from r and theta.

The band is empty for tol >= 1e-8.  So the solver's tables use series and
asymptotics only: ``ml_e_grid``/``ml_ee_grid`` evaluate at ``GRID_TOL`` on
the propagator ray theta = -b*pi/2 from the radii t^b mu, which the solver
stores as real arrays.  ``ml_e``/``ml_ee`` are one-point calls at 1e-12 at
(|z|, arg z) that use all three routes.  Series and asymptotic truncation
orders follow from each point's own r, one searchsorted into a cached table
of breakpoints per (b, g, tol); the points are sorted by route and order
once, and each branch is summed by Horner's rule on the real and imaginary
parts as two rows of one real array, so a point pays for its own order,
not for the worst one.

``ml_oracle`` sums the series in arbitrary precision: fixed-point Python
integers, with mpmath only for its cached reciprocal-Gamma coefficients.
It is the test suite's independent reference; no evaluator calls it.
"""

from __future__ import annotations

import math
import cmath
import functools
import sys
import threading

import numpy as np
import mpmath as mp


class NonConvergenceError(RuntimeError):
    """A series failed to converge within its term budget."""


class MLOverflowError(OverflowError):
    """A Mittag-Leffler value at a finite argument leaves double range."""


# ---------------------------------------------------------------------------
# arbitrary-precision series (the test oracle)
# ---------------------------------------------------------------------------

# mpmath keeps its working precision in the process-wide ``mp`` context, so
# every update of the Gamma cache runs under this lock.  The summation needs
# none: it works on Python integers and on table lists never modified.
_MP_LOCK = threading.Lock()
_MP_RGAMMA_CACHE: dict[tuple[float, float], tuple[int, list]] = {}
_RGAMMA_STEP = 256
_ORACLE_TERM_CAP = 200_000
_GUARD_BITS = 32  # fixed-point bits of the oracle below its float floor


def _mp_rgamma_table(beta: float, gam: float, dps: int, upto: int) -> list:
    """Cached reciprocals 1/Gamma(beta*k + gam), k = 0..n-1 with n >= upto.

    The cache holds reciprocals, as mpf tuples (sign, mantissa, exponent,
    bit count), so that each series term costs a multiply, not a divide.
    It keeps one table per beta, keyed (beta, 0): g_k = 1/Gamma(beta*k),
    from which _ml_series_mp reads both propagator multipliers, E_beta and
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


def _series_dps(beta: float, absz: float, digits: int) -> int:
    """Working precision: requested digits plus the cancellation budget.

    On the bounded sector the partial sums peak near exp(|z|^{1/beta}),
    so ~|z|^{1/beta}/ln(10) digits cancel before the tail settles.
    """
    x = absz ** (1.0 / beta) if absz > 1.0 else 1.0
    return int(digits + 1.15 * x / math.log(10.0) + 25)


def _ml_series_mp(beta: float, gam: float, z: complex, digits: int) -> complex:
    """Defining power series summed in fixed point with Python integers.

    With eps = 10^{-digits} and s the partial sum, terms t are added until
    ten consecutive ones pass the sup-norm test

        2 max(|Re t|, |Im t|) <= eps (max(|Re s|, |Im s|) + eps),

    which needs no square root.  It is never looser than the Euclidean test
    |t| <= eps (|s| + eps), i.e. |t| <= 10^{-digits} |s| up to the absolute
    floor eps^2: |t| <= sqrt(2) max(|Re t|, |Im t|) and
    max(|Re s|, |Im s|) <= |s|, so a term passes only where the Euclidean
    test passes too, and the summation never stops earlier than under it.

    The loop runs on Python integers.  z^k is a pair of P-bit mantissas
    (P the binary precision of _series_dps) with a shared exponent, taken
    from z's doubles exactly and renormalised after each Gauss product.
    Terms and partial sum are integers in units of 2^{-F}.  The partial sums
    peak near e^rho, rho = |z|^{1/beta}, so F = P - rho/ln 2 + _GUARD_BITS
    lies below the absolute floor 2^{-P} e^rho of a P-bit float sum; a
    |z| < 1 adds -log2|z| bits, so that a tiny z keeps its first-order term.

    Coefficients are reciprocals from _mp_rgamma_table.  gam = beta and
    gam = 1 share the table g_k = 1/Gamma(beta*k) of their beta, through
    1/Gamma(beta*k + beta) = g_{k+1} and 1/Gamma(beta*k + 1) = g_k/(beta*k).
    The first is exact; the second divides g_k's mantissa, shifted to keep
    P bits whatever its length, by k times beta's 53-bit integer mantissa.
    Any other gam uses a table of its own.
    """
    absz = abs(z)
    dps = _series_dps(beta, absz, digits)
    prec = round((dps + 1) * math.log2(10.0))  # mpmath's binary precision at dps
    fbits = prec - math.ceil(absz ** (1.0 / beta) / math.log(2.0)) + _GUARD_BITS
    fbits += max(0, -math.frexp(absz)[1])
    if gam == beta:
        base, off, div = 0.0, 1, False
    elif gam == 1.0:
        base, off, div = 0.0, 0, True
    else:
        base, off, div = gam, 0, False
    # z = (x + iy) 2^zexp with integers x, y, exactly
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den = max(xd, yd)
    x, y, zexp = xn * (den // xd), yn * (den // yd), 1 - den.bit_length()
    xpy, ymx = x + y, y - x
    bnum, bden = beta.as_integer_ratio()
    bexp = bden.bit_length() - 1
    # the stop test in units of 2^{-F}: 2 10^digits sup|t| <= sup|s| + floor
    tenpow2 = 2 * 10**digits
    tenshift = tenpow2.bit_length() - 1
    floor = (1 << fbits) // 10**digits
    a, b, pexp = 1, 0, 0  # z^k = (a + ib) 2^pexp
    sr = si = 0
    table: list = []
    quiet = 0
    for k in range(_ORACLE_TERM_CAP):
        if k + off >= len(table):
            table = _mp_rgamma_table(beta, base, dps, k + off + 1)
        sign, man, exp, bc = table[k + off]
        if bc > prec:  # the table may be kept at a higher precision
            man, exp, bc = man >> (bc - prec), exp + bc - prec, prec
        if div:
            if k:
                d = k * bnum
                n = prec + 1 - bc + d.bit_length()
                man, exp = (man << n) // d, exp - n + bexp
            else:
                man, exp = 1, 0
        if sign:
            man = -man
        sh = exp + pexp + fbits
        if sh >= 0:
            tr, ti = a * man << sh, b * man << sh
        else:
            # factor bits below 2^c move the term by < 2^-_GUARD_BITS units
            c = min(-sh - prec - _GUARD_BITS, -sh >> 1)
            if c > 0:
                man >>= c
                tr, ti = (a >> c) * man >> (-sh - 2 * c), (b >> c) * man >> (-sh - 2 * c)
            else:
                tr, ti = a * man >> -sh, b * man >> -sh
        sr += tr
        si += ti
        t1 = x * (a + b)
        a, b = t1 - b * xpy, t1 + a * ymx
        n = max(a.bit_length(), b.bit_length()) - prec
        if n > 0:
            a >>= n
            b >>= n
            pexp += n
        pexp += zexp
        tsup, lim = max(abs(tr), abs(ti)), max(abs(sr), abs(si)) + floor
        if tsup <= lim >> tenshift and tenpow2 * tsup <= lim:  # the shift fails most terms
            quiet += 1
            if quiet >= 10:
                return complex(sr / (1 << fbits), si / (1 << fbits))
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
# the evaluator
# ---------------------------------------------------------------------------

# default tolerance of the grid evaluators, shared by every solver table
GRID_TOL = 5e-8
_POINT_TOL = 1e-12  # tolerance of the one-point evaluators ml_e and ml_ee
_EPS = 1e-16  # rounding of a double series, relative to its largest partial sum
_SERIES_CUT = 1e-22  # a series point stops after its first term k > 8 below this
_ASYM_TERMS = 59  # most algebraic terms the asymptotic branch adds
_CONTOUR_N = 32  # the contour's trapezoid rule has 2N + 1 nodes


def _rgamma(xs: np.ndarray) -> np.ndarray:
    """1/Gamma(x) per entry, in double precision.

    0 at the poles x = 0, -1, -2, ...; where Gamma(x) leaves double range
    (x > 171.6, or x within ~1e-308 of a pole), exp(-lgamma(x)) with the
    sign of Gamma(x), which is negative on (-1, 0), (-3, -2), ...
    """
    out = np.empty(len(xs))
    for i, x in enumerate(map(float, xs)):
        if x <= 0.0 and x == math.floor(x):
            out[i] = 0.0
            continue
        try:
            out[i] = 1.0 / math.gamma(x)
        except OverflowError:
            sign = -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0
            out[i] = sign * math.exp(-math.lgamma(x))
    return out


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


def _route_radii(beta: float, tol: float) -> tuple[float, float]:
    """|z| below which a point takes the series, and from which the asymptotics."""
    rho_a = math.log(1.0 / tol)
    return min(math.log(tol / _EPS), rho_a) ** beta, rho_a**beta


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _series_plan(beta: float, gam: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients 1/Gamma(beta*k + gam), k = 0..kmax, and the order thresholds.

    A point stops after the first k > 8 with |z|^k |c_k| < _SERIES_CUT, that
    is, after the first k whose radius (_SERIES_CUT/|c_k|)^{1/k} exceeds |z|.
    The running maximum of those radii (k = 9..kmax) is sorted, so the
    order is 9 plus a searchsorted.  Cached per (beta, gam, tol); the
    arrays are shared, so they are read-only.
    """
    radius = _route_radii(beta, tol)[0]
    kmax = min(int(3.5 * radius ** (1.0 / beta) / beta) + 30, 600) - 1
    coef = _rgamma(beta * np.arange(kmax + 1) + gam)
    with np.errstate(divide="ignore"):
        radii = np.exp((math.log(_SERIES_CUT) - np.log(np.abs(coef[9:]))) / np.arange(9, kmax + 1))
    return _frozen(coef, np.maximum.accumulate(radii))


@functools.lru_cache(maxsize=64)
def _asymp_plan(beta: float, gam: float, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients 1/Gamma(gam - beta*k), k = 0..59, and the order thresholds.

    With L_k the log of the sine-free envelope of 1/Gamma(gam - beta*k),
    term k has envelope exp(L_k - k ln|z|).  It is no larger than term
    k-1's while |z| >= exp(L_k - L_{k-1}) (k >= 2; term 1 always counts),
    and it is below tol*1e-3 once |z| > exp((L_k - ln(tol*1e-3))/k).  The
    running maximum of the first radii and the running minimum of the
    second are monotone, so both counts are searchsorteds.  Cached per
    (beta, gam, tol); the arrays are shared, so they are read-only.
    """
    ks = np.arange(_ASYM_TERMS + 1)
    coef = _rgamma(gam - beta * ks)
    logenv = np.array([_log_env_recip_gamma(gam - beta * k) for k in ks])
    rising = np.exp(np.maximum.accumulate(np.diff(logenv)[1:]))  # k = 2..59
    settled = np.exp(np.minimum.accumulate((logenv[1:] - math.log(tol * 1e-3)) / ks[1:]))
    return _frozen(coef, rising, settled[::-1])  # ascending: k = 59..1


def _order_rules(beta: float, gam: float, tol: float, r: np.ndarray) -> np.ndarray:
    """The key of _grid_orders at each radius r, from the scalar thresholds of the plans."""
    r_series, r_asymp = _route_radii(beta, tol)
    scoef, sradii = _series_plan(beta, gam, tol)
    _, rising, settled = _asymp_plan(beta, gam, tol)
    nser = scoef.size
    key = np.full(r.shape, nser + _ASYM_TERMS + 1, dtype=np.int16)
    small = r < r_series
    key[small] = np.minimum(9 + np.searchsorted(sradii, r[small], side="right"), nser - 1)
    big = r >= r_asymp
    past_min = 1 + np.searchsorted(rising, r[big], side="right")
    unsettled = 1 + settled.size - np.searchsorted(settled, r[big], side="left")
    key[big] = nser + np.minimum(past_min, unsettled)
    return key


@functools.lru_cache(maxsize=64)
def _order_table(beta: float, gam: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(edges, keys): radius r has key keys[searchsorted(edges, r, side="right")].

    The key is a step function of r that changes only at the route radii and
    the plans' thresholds.  The "settled" count changes just past its
    thresholds, so those edges sit one double above them.  keys[i] is the
    key at edges[i-1], keys[0] at r = 0.  Cached per (beta, gam, tol); the
    arrays are shared, so they are read-only.
    """
    _, rising, settled = _asymp_plan(beta, gam, tol)
    # Python's sort: np.unique imports numpy.ma and np.sort pages in its SIMD
    # code, 1 MB and 0.25 MB resident.  A repeated edge is harmless, since
    # searchsorted steps past both copies
    edges = np.array(sorted(np.concatenate((
        _route_radii(beta, tol), _series_plan(beta, gam, tol)[1], rising, np.nextafter(settled, np.inf)
    ))))
    return _frozen(edges, _order_rules(beta, gam, tol, np.concatenate(([0.0], edges))))


def _grid_orders(
    beta: float, gam: float, tol: float, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point routes and truncation orders of _ml_grid, with the coefficients they index.

    Returns (key, series_coef, asym_coef).  key (int16) is a point's series
    order N for rho = r^{1/beta} below min(ln(tol/_EPS), ln(1/tol)),
    len(series_coef) + K, K its asymptotic order, for rho >= ln(1/tol), and
    len(series_coef) + 60, past every asymptotic key, in the contour band
    between.  So sorting by key groups the points by route, then by order.
    One searchsorted into _order_table gives every key.
    """
    edges, keys = _order_table(beta, gam, tol)
    key = keys[np.searchsorted(edges, r, side="right")]
    return key, _series_plan(beta, gam, tol)[0], _asymp_plan(beta, gam, tol)[0]


def _rotated(coef: np.ndarray, theta: float) -> np.ndarray:
    """Real and imaginary parts, shape (2, n), of coef[k] e^{ik theta}.

    k theta is taken as k theta_hi + k (theta - theta_hi), theta_hi being
    theta on 24 bits, so each factor is good to an ulp.  A rounded k theta
    errs by up to k ulp(theta)/2, which the series' cancellation magnifies:
    near the crossover at GRID_TOL and beta = 0.55 it raised the rms error
    against the oracle from 2.1e-9 to 3.1e-9 (300 radii on the ray).
    """
    k = np.arange(coef.size)
    hi = float(np.float32(theta))
    rot = coef * np.exp(1j * (k * hi)) * np.exp(1j * (k * (theta - hi)))
    return np.stack((rot.real, rot.imag))


def _asymp_sum(beta: float, gam: float, r: np.ndarray, theta: float,
               coef: np.ndarray, start: np.ndarray, out: np.ndarray) -> None:
    """(1/b) z^{(1-g)/b} e^{z^{1/b}} - sum_{k=1..K} coef[k] z^{-k}, z = r e^{i theta}, into out.

    out has shape (2, r.size): real and imaginary parts.  With rho = r^{1/b}
    the lead is (1/b) exp(rho cos(theta/b) + (1-g)/b ln r) times
    e^{i (rho sin(theta/b) + (1-g) theta/b)}, so it takes one real log, two
    real exps, a cosine and a sine.  The points are sorted by K, and start[k]
    (k = 0..59) is the first position with order >= k: Horner in 1/r, with
    coefficients coef[k] e^{-ik theta}, runs each term over that suffix only.
    """
    lnr = np.log(r)
    rho = np.exp(lnr / beta)
    re, im = out
    np.multiply(rho, math.sin(theta / beta), out=im)
    im += (1.0 - gam) * theta / beta
    rho *= math.cos(theta / beta)
    lnr *= (1.0 - gam) / beta
    rho += lnr
    np.cos(im, out=re)
    np.sin(im, out=im)
    # a lead term past double range is reported by _ml_grid as MLOverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.exp(rho, out=rho)
        mag /= beta
        out *= mag
    w = np.divide(1.0, r, out=lnr)
    top = int(np.count_nonzero(start[1:] < r.size))  # the highest order present
    c = _rotated(coef[: top + 1], -theta)
    acc = np.zeros(out.shape)
    for k in range(top, 0, -1):
        a = acc[:, start[k]:]
        a += c[:, k, None]
        a *= w[start[k]:]
    out -= acc


def _contour_sum(beta: float, gam: float, zc: np.ndarray) -> np.ndarray:
    """E_{beta,gam} from the Bromwich integral on a parabola, pole subtracted.

    E = (1/2 pi i) int e^s s^{b-g}/(s^b - z) ds over the parabola
    s(u) = mu (1 + iu)^2, u real, which winds round the branch cut on the
    negative axis (Weideman & Trefethen, Math. Comp. 76, 2007).  On the
    sector the integrand has one pole, s* = z^{1/b}, with residue c e^{s*},
    c = s*^{1-g}/b.  Subtracting c e^s/(s - s*) from the integrand and
    adding c e^{s*} back gives E whether s* lies inside the parabola or
    outside it (Garrappa, SIAM J. Numer. Anal. 53, 2015), and leaves the
    trapezoid rule a pole-free integrand:

        E = c e^{s*} + (h mu/pi) sum_{k=-N..N} [e^s s^{b-g}/(s^b - z) - c e^s/(s - s*)] (1 + iu)

    at s = s(u), u = (k + off) h, with N = 32, mu = pi N/12 and h = 3/N.  The
    two terms cancel catastrophically when s* sits on a node, so a point
    whose pole pre-image u* = (sqrt(s*/mu) - 1)/i lies within h/4 of a node
    takes off = 1/2, otherwise off = 0.
    """
    n = _CONTOUR_N
    mu, h = math.pi * n / 12.0, 3.0 / n
    logz = np.log(zc)
    star = np.exp(logz / beta)
    c = np.exp((1.0 - gam) / beta * logz) / beta
    ustar = (np.sqrt(star / mu) - 1.0) / 1j
    off = np.where(np.abs(ustar - h * np.round(ustar.real / h)) < h / 4.0, 0.5, 0.0)
    acc = np.zeros_like(zc)
    for k in range(-n, n + 1):
        w = 1.0 + 1j * h * (k + off)
        s = mu * w * w
        logs = np.log(s)
        es = np.exp(s)
        acc += (es * np.exp((beta - gam) * logs) / (np.exp(beta * logs) - zc) - c * es / (s - star)) * w
    return c * np.exp(star) + h * mu / math.pi * acc


def _ml_grid(beta: float, gam: float, r: np.ndarray, theta: float, tol: float) -> np.ndarray:
    """Vectorised E_{beta,gam}(r e^{i theta}) over an ndarray of radii r >= 0, to tol relative.

    theta is one angle of the sector |theta| <= beta*pi/2 for every point.
    Routes, with rho = r^{1/beta}:

    * series, rho < ln(tol/1e-16) (and below the asymptotic radius): terms
      k = 0..N, N the first k > 8 with r^k |1/Gamma(beta*k + gam)| < 1e-22,
      by Horner's rule in the real r with coefficients
      e^{ik theta}/Gamma(beta*k + gam);
    * asymptotic, rho >= ln(1/tol), so that the expansion's floor e^{-rho}
      is below tol: (1/b) z^{(1-g)/b} e^{z^{1/b}} - sum_{k=1..K} z^{-k}/Gamma(g - b*k)
      (_asymp_sum), K ending at the point's own minimum of the sine-free
      term envelope, or at its first term whose envelope is below tol*1e-3
      (at most 59);
    * contour (_contour_sum) on the points z = r e^{i theta} in the band
      between, which is empty for tol >= 1e-8.

    At tol = GRID_TOL the split is series/asymptotic at r = (ln 1/tol)^beta.
    Both branches then stay within tol on the solver's whole range
    beta in (1/2, 1]: on the ray, against the 50-digit oracle (62 radii up to
    r = 30 for beta < 0.7, 60 above, and six within 2% of the crossover),
    the worst relative error of E_beta and E_{beta,beta} is 1.0e-8 at
    beta = 0.55, 1.4e-8 at 0.6, 2.2e-8 at 0.7 and 1.5e-8 at 0.85.

    Both orders are step functions of r read off scalar thresholds
    (_grid_orders).  The points are sorted once by (route, order); Horner's
    rule, in r or in 1/r, then runs from the highest order present down over
    a suffix of the sorted points that grows as the order falls, so each
    point pays for its own order only.  Real and imaginary parts are summed
    as the two rows of one real array.  Complex radii raise TypeError, a
    negative or NaN radius ValueError; a finite point whose value leaves
    double range raises MLOverflowError.
    """
    if not _EPS < tol < 1.0:
        raise ValueError(f"Mittag-Leffler tolerance must lie in (1e-16, 1): got {tol}")
    if np.iscomplexobj(r):
        raise TypeError("Mittag-Leffler radii must be real: got a complex array")
    r = np.asarray(r, dtype=np.float64)
    if r.size and not r.min() >= 0.0:
        raise ValueError(f"Mittag-Leffler radii must be >= 0: got {r[~(r >= 0.0)][0]}")
    if beta == 1.0 and gam == 1.0:
        out = np.exp(r * cmath.exp(1j * theta))  # E_1 = E_{1,1} = exp
    else:
        rf = r.ravel()
        key, scoef, acoef = _grid_orders(beta, gam, tol, rf)
        nser = scoef.size
        counts = np.bincount(key, minlength=nser + _ASYM_TERMS + 2)
        perm = np.argsort(key, kind="stable")
        # start[j]: the first sorted position whose key is >= j
        start = np.concatenate(([0], np.cumsum(counts)))
        # sorted positions: series below nsmall, asymptotics below nband, contour above
        nsmall, nband = int(start[nser]), int(start[nser + _ASYM_TERMS + 1])
        rs = rf[perm]
        vals = np.zeros((2, rs.size))  # real and imaginary parts at the sorted positions
        top = int(np.count_nonzero(start[1:nser] < nsmall))  # the highest series order present
        c = _rotated(scoef[: top + 1], theta)
        ser = vals[:, :nsmall]
        for k in range(top, -1, -1):
            a = ser[:, start[k]:]
            a *= rs[start[k]:nsmall]
            a += c[:, k, None]
        if nband > nsmall:
            _asymp_sum(beta, gam, rs[nsmall:nband], theta, acoef, start[nser:] - nsmall,
                       vals[:, nsmall:nband])
        if nband < rs.size:
            zc = _contour_sum(beta, gam, rs[nband:] * cmath.exp(1j * theta))
            vals[0, nband:], vals[1, nband:] = zc.real, zc.imag
        out = np.empty(r.shape, dtype=np.complex128)
        flat = out.reshape(-1)
        flat.real[perm] = vals[0]
        flat.imag[perm] = vals[1]
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out) & np.isfinite(r)
        if bad.any():
            raise MLOverflowError(
                f"E_{{{beta:g},{gam:g}}}(z) leaves double range at {np.count_nonzero(bad)} "
                f"point(s), the smallest with |z| = {r[bad].min():.6g}"
            )
    return out


def ml_e_grid(beta: float, r: np.ndarray, tol: float = GRID_TOL) -> np.ndarray:
    """Vectorised E_beta(i^{-beta} r) over radii r >= 0 (propagator tables)."""
    return _ml_grid(beta, 1.0, r, -beta * math.pi / 2.0, tol)


def ml_ee_grid(beta: float, r: np.ndarray, tol: float = GRID_TOL) -> np.ndarray:
    """Vectorised E_{beta,beta}(i^{-beta} r) over radii r >= 0 (memory kernel tables)."""
    return _ml_grid(beta, beta, r, -beta * math.pi / 2.0, tol)


def ml_e(beta: float, z: complex) -> complex:
    """E_beta(z) on the sector |arg z| <= beta*pi/2, to 1e-12 relative."""
    _check_sector(beta, z)
    return complex(_ml_grid(beta, 1.0, np.array([abs(z)]), cmath.phase(z), _POINT_TOL)[0])


def ml_ee(beta: float, z: complex) -> complex:
    """E_{beta,beta}(z) on the sector |arg z| <= beta*pi/2, to 1e-12 relative."""
    _check_sector(beta, z)
    return complex(_ml_grid(beta, beta, np.array([abs(z)]), cmath.phase(z), _POINT_TOL)[0])


def _check_sector(beta: float, z: complex) -> None:
    if beta == 1.0:
        return  # E_1 = exp: the expansion is exact in the whole plane
    # a subnormal z has no reliable phase and acts like z = 0
    if abs(z) >= sys.float_info.min and abs(cmath.phase(z)) > beta * math.pi / 2.0 + 1e-9:
        raise ValueError(
            f"argument off the validity sector: |arg z| = {abs(cmath.phase(z)):.4f} "
            f"> beta*pi/2 = {beta * math.pi / 2.0:.4f}"
        )

"""Lattice dispersion symbol w, its derivatives and critical points.

    w(xi) = 2 sum_{n>=1} (1 - cos(n xi)) / n^{1+alpha},   alpha in (1, 2)

is the lattice stand-in for |xi|^alpha; it equals
2 (zeta(1+alpha) - Re Li_{1+alpha}(e^{i xi})).  The expansion of the
polylogarithm about xi = 0 (DLMF 25.12(ii)) converges on |xi| < 2 pi:

    w(xi) = c |xi|^alpha - 2 sum_{j>=1} (-1)^j zeta(1+alpha-2j) xi^{2j} / (2j)!,
    c     = pi / (Gamma(1+alpha) sin(alpha pi / 2)).

w, w' and w'' all come from this one series, differentiated term by term
and evaluated on |xi| <= pi after the 2 pi-periodic reduction, where 40
terms reach double precision.  Near alpha = 2 the two leading terms grow
like 1/(2 - alpha) and cancel, so the relative error grows like
1e-16 / (2 - alpha).

Normalized quantities divide by c, so that w(xi) = |xi|^alpha + O(xi^2).
The phase function of the memory propagator is
phi_h(xi) = h^{-sigma} w(xi)^{1/beta}, sigma = alpha/beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import factorial, zeta as _zeta


class BracketError(RuntimeError):
    """A guaranteed sign change was not found."""


class MultiplicityError(RuntimeError):
    """More sign changes detected than the phase inflection's uniqueness permits."""


@dataclass(frozen=True)
class SymbolConfig:
    """Symbol evaluation parameters for one alpha."""

    alpha: float
    normalize: bool = True

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"SymbolConfig: alpha must be in (1, 2), got {self.alpha}")


# ---------------------------------------------------------------------------
# the expansion of w and its derivatives
# ---------------------------------------------------------------------------

_TERMS = 40  # term j is O((xi / 2 pi)^{2j}): below 4^{-40} relative at xi = pi
_TWO_PI = 2.0 * math.pi


def normalization_constant_closed_form(alpha: float) -> float:
    """c = pi / (Gamma(1+alpha) sin(alpha pi/2)), the coefficient of |xi|^alpha in w."""
    # sin(alpha pi/2) = sin((2-alpha) pi/2), and 2 - alpha is exact: no
    # rounding is amplified where the sine vanishes at alpha = 2
    return math.pi / (math.gamma(1.0 + alpha) * math.sin((2.0 - alpha) * math.pi / 2.0))


def normalization_constant(cfg: SymbolConfig) -> float:
    """The c with w(xi) = c |xi|^alpha + O(xi^2) that normalized quantities divide by."""
    return normalization_constant_closed_form(cfg.alpha)


def _fold(x: np.ndarray) -> np.ndarray:
    """|x| reduced into [0, pi] by 2 pi-periodicity; exact for |x| <= pi."""
    t = np.fmod(np.abs(x), _TWO_PI)
    return np.minimum(t, _TWO_PI - t)


def _expansion(cfg: SymbolConfig, t: np.ndarray, k: int) -> np.ndarray:
    """k-th derivative of w at t in [0, pi] (k <= 2), divided by c if normalized."""
    a = cfg.alpha
    c = normalization_constant(cfg)
    j = np.arange(1, _TERMS + 1)
    # d^k/dt^k maps t^a to a(a-1)..(a-k+1) t^{a-k} and t^{2j}/(2j)! to
    # t^{2j-k}/(2j-k)!; (a - 1) - 2(j - 1) keeps the j = 1 zeta argument,
    # next to the pole at 1, free of rounding
    b = -2.0 * (-1.0) ** j * _zeta((a - 1.0) - 2.0 * (j - 1)) / factorial(2 * j - k)
    smooth = t ** (2 - k) * np.polyval(b[::-1], t * t)  # Horner in t^2
    out = c * math.prod(a - i for i in range(k)) * t ** (a - k) + smooth
    return out / c if cfg.normalize else out


def w_eval(cfg: SymbolConfig, xi):
    """(Normalized) dispersion symbol w; even and 2pi-periodic."""
    scalar = np.isscalar(xi)
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    w = _expansion(cfg, _fold(x), 0)
    return float(w[0]) if scalar else w


def w_on_dft_grid(cfg: SymbolConfig, n_points: int) -> np.ndarray:
    """w at the DFT frequencies 2 pi fftfreq(M), in the index order of scipy.fft.fft."""
    return w_eval(cfg, _TWO_PI * np.fft.fftfreq(n_points))


def w_prime(cfg: SymbolConfig, xi):
    """w'(xi) on (0, pi]; positive inside, 0 at pi (and 0 for xi <= 0 by convention).

    Beyond pi it follows the odd 2pi-periodic extension.
    """
    scalar = np.isscalar(xi)
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.copysign(_expansion(cfg, _fold(x), 1), math.pi - np.fmod(x, _TWO_PI))
    out[x <= 0.0] = 0.0  # limit value at the origin for alpha > 1
    return float(out[0]) if scalar else out


def w_second(cfg: SymbolConfig, xi):
    """w''(xi) on (0, pi]; diverges to +inf as xi -> 0+."""
    scalar = np.isscalar(xi)
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(x <= 0.0):
        raise ValueError("w_second: xi must be positive (w'' diverges at 0)")
    out = _expansion(cfg, _fold(x), 2)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# phase function and critical points
# ---------------------------------------------------------------------------


def phi_eval(cfg: SymbolConfig, h: float, xi, beta: float):
    """Phase phi_h(xi) = h^{-sigma} w(xi)^{1/beta} with sigma = alpha/beta."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"phi_eval: beta must be in (0, 1], got {beta}")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"phi_eval: h must be positive and finite, got {h}")
    return h ** -(cfg.alpha / beta) * w_eval(cfg, xi) ** (1.0 / beta)


def _phi_second_sign_fn(cfg: SymbolConfig, beta: float):
    """g(xi) with the sign of phi_1''(xi): (1/beta - 1) w'^2 + w w''.

    phi_1'' = w^{1/beta-2} g up to the positive factor 1/beta, so roots and
    signs agree while the evaluation stays well-conditioned.
    """

    def g(x):
        return (1.0 / beta - 1.0) * np.asarray(w_prime(cfg, x)) ** 2 + np.asarray(
            w_eval(cfg, x)
        ) * np.asarray(w_second(cfg, x))

    return g


def _bisect(fn, lo: float, hi: float, flo: float, width: float = 1e-12) -> float:
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        fm = float(fn(mid))
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_xi0(cfg: SymbolConfig, tol: float = 1e-10) -> float:
    """Unique zero of w'' in (0, pi/2), by bisection."""
    lo, hi = 0.05, math.pi / 2.0
    flo = float(w_second(cfg, lo))
    while flo <= 0.0 and lo > 1e-6:
        lo *= 0.5
        flo = float(w_second(cfg, lo))
    fhi = float(w_second(cfg, hi))
    if flo <= 0.0 or fhi >= 0.0:
        raise BracketError(
            f"w'' bracket failure on ({lo:.3g}, pi/2): w''({lo:.3g}) = {flo:.3g}, "
            f"w''(pi/2) = {fhi:.3g}"
        )
    root = _bisect(lambda x: w_second(cfg, x), lo, hi, flo)
    if abs(float(w_second(cfg, root))) > max(tol, 1e6 * 1e-12):
        raise BracketError(f"residual |w''({root})| too large after bisection")
    return root


def find_xi1(cfg: SymbolConfig, beta: float, grid_points: int = 800) -> float:
    """Unique zero of phi_1''(xi) in (xi0, pi); equals xi0 when beta = 1."""
    xi0 = find_xi0(cfg)
    if beta >= 1.0:
        return xi0  # the first summand vanishes and the equation reduces to w'' = 0
    g = _phi_second_sign_fn(cfg, beta)
    xs = np.linspace(xi0 + 1e-6, math.pi - 1e-9, grid_points)
    vals = np.asarray(g(xs))
    signs = np.sign(vals)
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if changes.size == 0:
        raise BracketError("phi'' sign change not found on (xi0, pi)")
    if changes.size > 1:
        raise MultiplicityError(
            f"phi'' shows {changes.size} sign changes on (xi0, pi); expected exactly one"
        )
    i = changes[0]
    return _bisect(g, xs[i], xs[i + 1], vals[i])


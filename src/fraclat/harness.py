"""Experiments: symbol properties, mass bounds, smoothing dichotomy, continuum limit.

Each run_* function turns one of the model's structural statements into a
measurement on desk-scale grids and returns a plain dict (JSON-ready)
with a "pass" flag, so the CLI can persist machine-readable reports.

The continuum study measures sup-in-time Sobolev distances between the
linearly interpolated lattice solution and a fine pseudo-spectral
reference, a block of time nodes at a time, then fits the order against
the mesh; the target order is 2 - alpha.  The reference is solved on the
coarsest of min(h_list), min/2, ... whose band above 2/(p+1) of its
Nyquist holds nothing of the datum's or the solution's spectrum, and each
block is zero-padded to the reference grid.  The mass and smoothing
experiments reach the linear flow only through the solver: each datum
evolves under the memory propagator E_beta(i^{-beta} t^beta mu) of a
linear solve.  The smoothing experiment evolves Nyquist wave packets and
compares the growth of the smoothing quotient with and without the
interpolation filter: unfiltered packets resonate at the symbol's
critical point while filtered ones stay h-uniform.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .lattice import (
    _NORM_ROWS,
    LatticeField,
    LatticeGrid,
    discretize,
    filter_pi,
    interp_linear,  # unused here; perfbench/tracer.py wraps it
    interp_rows,
    lambda_norm,  # unused here; perfbench/tracer.py wraps it
    lambda_pass,
    norm_lp,
    norm_smoothing,
    norm_sobolev,  # unused here; perfbench/tracer.py wraps it
)
from .solver import (
    ModelParams,
    NonContractionError,
    SolutionTrajectory,
    TimeGrid,
    solve,
    solve_continuum_reference,
)
from .special import _series_dps, ml_e, ml_ee, ml_oracle
from .symbol import (
    find_xi0,
    find_xi1,
    normalization_constant,
    normalization_constant_closed_form,  # unused here; perfbench/tracer.py wraps it
    phi_eval,
    w_eval,
    w_prime,
    w_second,
)


def fit_order(pairs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("fit_order: need at least 3 (h, err) pairs")
    h = np.array([p[0] for p in pairs], dtype=float)
    e = np.array([p[1] for p in pairs], dtype=float)
    if np.any(h <= 0.0) or np.any(e <= 0.0):
        raise ValueError("fit_order: entries must be positive")
    if np.ptp(h) < 1e-14 * h.max():
        raise ValueError("fit_order: degenerate input (identical h values)")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def gaussian_profile(amplitude: float = 1.0, width: float = 2.0, center: float = 0.0,
                     freq: float = 0.0):
    """Modulated Gaussian x -> A exp(-((x-c)/W)^2) e^{i freq x}."""

    def f(x):
        x = np.asarray(x, dtype=float)
        env = amplitude * np.exp(-(((x - center) / width) ** 2))
        return env * np.exp(1j * freq * x) if freq != 0.0 else env.astype(np.complex128)

    return f


def nyquist_packet(grid: LatticeGrid, width: float) -> LatticeField:
    """Gaussian envelope modulated by e^{i pi m}: spectrum centred at xi = pi."""
    m = np.arange(grid.n_points) - grid.n_points // 2
    x = grid.sites()
    vals = np.exp(1j * math.pi * m) * np.exp(-((x / width) ** 2))
    return LatticeField(grid=grid, values=vals)


def spectral_mass_near(field: LatticeField, center: float, halfwidth: float) -> float:
    """Fraction of spectral mass with | |xi| - center | < halfwidth."""
    c = np.fft.fft(field.values)
    xi = field.grid.freqs()
    p = np.abs(c) ** 2
    # the +pi and -pi half-neighbourhoods are one aliased neighbourhood
    dist = np.abs(np.abs(xi) - center) if center == math.pi else np.abs(xi - center)
    return float(np.sum(p[dist < halfwidth]) / np.sum(p))


# ---------------------------------------------------------------------------
# symbol property checks
# ---------------------------------------------------------------------------


# rows per alpha of the symbol CSV's (xi, w, w', w'', phi_h) table
_TABLE_POINTS = 200
_GRID_POINTS = 10_000  # grid of the sandwich, w' > 0 and derivative-bound checks


def run_symbol_checks(alpha_list, beta: float = 0.85) -> dict:
    """Grid verification of the dispersion-symbol properties, one entry per alpha.

    Each entry also carries a coarse (xi, w, w', w'', phi_h) table at h = 1
    for the CSV emitted by the `symbol` subcommand.
    """
    results = []
    for alpha in alpha_list:
        xs = np.linspace(1e-4, math.pi, _GRID_POINTS, endpoint=False)[1:]
        wv = np.asarray(w_eval(alpha, xs))
        wp = np.asarray(w_prime(alpha, xs))

        ratio = wv / xs**alpha
        sandwich = (float(ratio.min()), float(ratio.max()))

        monotone_wp = bool(np.all(wp > 0.0))

        xs2 = np.linspace(1e-3, math.pi, 2000)
        wpp = np.asarray(w_second(alpha, xs2))
        wpp_decreasing = bool(np.all(np.diff(wpp) < 0.0))
        sign_changes = int(np.count_nonzero(np.diff(np.sign(wpp)) != 0.0))

        xi0 = find_xi0(alpha)
        xi1 = find_xi1(alpha, beta)

        small = np.geomspace(1e-3, 0.1, 30)
        resid = np.abs(np.asarray(w_eval(alpha, small)) - small**alpha)
        slope = float(np.polyfit(np.log(small), np.log(resid), 1)[0])

        inner = xs < math.pi - 1e-6
        qup = wp[inner] / xs[inner] ** (alpha - 1.0)
        qlo = wp[inner] / (xs[inner] ** (alpha - 1.0) * (math.pi - xs[inner]))
        deriv_bounds = (float(qlo.min()), float(qup.max()))

        # centred finite differences vs the term-by-term derivatives; at this
        # step the O(d^2) truncation, not the rounding of w, sets the error
        mids = np.array([0.8, 1.3, 1.9, 2.4])
        d = 1e-4
        fd1 = (np.asarray(w_eval(alpha, mids + d)) - np.asarray(w_eval(alpha, mids - d))) / (2 * d)
        fd2 = (np.asarray(w_prime(alpha, mids + d)) - np.asarray(w_prime(alpha, mids - d))) / (2 * d)
        fd_w_err = float(np.max(np.abs(fd1 - np.asarray(w_prime(alpha, mids)))))
        fd_wp_err = float(np.max(np.abs(fd2 - np.asarray(w_second(alpha, mids)))))

        xt = np.linspace(1e-3, math.pi, _TABLE_POINTS)
        table = np.column_stack(
            [xt, np.asarray(w_eval(alpha, xt)), np.asarray(w_prime(alpha, xt)),
             np.asarray(w_second(alpha, xt)), phi_eval(alpha, 1.0, xt, beta)]
        )

        entry = {
            "alpha": alpha,
            "beta": beta,
            "xi0": xi0,
            "xi1": xi1,
            "c": normalization_constant(alpha),
            "sandwich": sandwich,
            "deriv_bounds": deriv_bounds,
            "w_prime_positive": monotone_wp,
            "w_second_decreasing": wpp_decreasing,
            "w_second_sign_changes": sign_changes,
            "small_xi_slope": slope,
            "fd_w_vs_wprime": fd_w_err,
            "fd_wprime_vs_wsecond": fd_wp_err,
            "table": [list(row) for row in table],
        }
        entry["pass"] = bool(
            monotone_wp
            and wpp_decreasing
            and sign_changes == 1
            and 0.0 < xi0 < math.pi / 2.0
            and xi0 < xi1 < math.pi
            and abs(slope - 2.0) <= 0.05
            and sandwich[0] > 0.0
            and fd_w_err < 1e-6
            and fd_wp_err < 1e-6
        )
        results.append(entry)
    return {"experiment": "symbol", "results": results,
            "pass": bool(all(r["pass"] for r in results))}


# ---------------------------------------------------------------------------
# mass uniformity
# ---------------------------------------------------------------------------


# the extent of every lattice experiment whose config leaves it out
DEFAULT_EXTENT = 51.2


def grid_for(extent: float, h: float) -> LatticeGrid:
    """The lattice of mesh h spanning the given extent, which h must divide."""
    for name, value in (("extent", extent), ("h", h)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"grid_for: {name} must be positive and finite, got {value}")
    n = int(round(extent / h))
    if abs(n * h - extent) > 1e-9 * extent:
        raise ValueError(f"extent {extent} is not an integer multiple of h = {h}")
    return LatticeGrid(h=h, n_points=n)


# largest admissible relative spread max/min - 1 of the mass ratios
_MASS_THRESHOLD = 0.05


def run_mass_uniformity(
    params: ModelParams,
    h_list,
    f,
    extent: float = DEFAULT_EXTENT,
    T: float = 1.0,
    n_times: int = 96,
    workers: int = 1,
) -> dict:
    """sup_t ||L_{h,t} f_h|| / ||f_h|| across an h-sweep at fixed extent."""
    h_list = sorted(h_list, reverse=True)
    timegrid = TimeGrid(T=T, m_steps=n_times)

    def one(h: float) -> dict:
        grid = grid_for(extent, h)
        traj = solve(params, grid, timegrid, f, nonlinear=False)
        # scaled by a power of two: the squares stay in range, the ratio keeps its bits
        u = traj.values * 2.0 ** -math.frexp(np.abs(traj.values).max())[1]
        nrm0 = norm_lp(LatticeField(grid, u[0]), 2)
        if nrm0 == 0.0:
            return {"h": h, "ratio": None, "skipped": "zero initial data"}
        mass = np.sqrt(grid.h * np.sum(np.abs(u) ** 2, axis=-1))
        return {"h": h, "ratio": float(mass.max() / nrm0)}

    entries = _fan_out(one, h_list, workers)
    ratios = [e["ratio"] for e in entries if e.get("ratio") is not None]
    variation = max(ratios) / min(ratios) - 1.0 if ratios else None
    return {
        "experiment": "mass",
        "entries": entries,
        "variation": variation,
        "threshold": _MASS_THRESHOLD,
        "pass": bool(variation is not None and variation < _MASS_THRESHOLD),
    }


# ---------------------------------------------------------------------------
# smoothing dichotomy
# ---------------------------------------------------------------------------


# the share of a packet's spectral mass that must sit within 0.2 of xi = pi
_MIN_SPECTRAL_MASS = 0.95


def run_smoothing_experiment(
    params: ModelParams,
    h_list,
    extent: float = DEFAULT_EXTENT,
    T: float = 1.0,
    n_times: int = 64,
    eps: float = 0.01,
    packet_width: float | None = None,
    workers: int = 1,
) -> dict:
    """Filtered-vs-unfiltered smoothing quotients for Nyquist packet data.

    Q(h) = || <h^{-1} grad>^{(sigma-1)/2 - eps} u ||_{L^inf_h L^2_T} / ||u0||_{L^2_h}
    with u the linear solve of the packet, which evolves under the solver's
    memory propagator E_beta(i^{-beta} t^beta mu).  The unfiltered branch
    feeds the packet straight to the h-grid (spectrum on the critical
    point xi = pi); the filtered branch builds it on the 2h-grid and
    applies the filter.

    The default packet width is scaled per mesh, W = 20 h: the spectral
    standard deviation h/W then sits at a quarter of the 0.2 window, so
    well over 95% of the mass stays within |xi -+ pi| < 0.2 at every h.
    Pass a float to pin a fixed width instead.
    """
    h_list = sorted(h_list, reverse=True)
    delta = (params.sigma - 1.0) / 2.0 - eps
    timegrid = TimeGrid(T=T, m_steps=n_times)

    def one(h: float) -> dict:
        grid = grid_for(extent, h)
        width = 20.0 * h if packet_width is None else packet_width
        raw = nyquist_packet(grid, width)
        mass = spectral_mass_near(raw, math.pi, 0.2)
        filt = filter_pi(nyquist_packet(grid.coarse(), width))
        out = {"h": h, "packet_width": width, "packet_spectral_mass": mass}
        for tag, u0 in (("unfiltered", raw), ("filtered", filt)):
            traj = solve(params, grid, timegrid, None, nonlinear=False, initial_field=u0)
            out[tag] = norm_smoothing(traj, delta) / norm_lp(u0, 2)
        return out

    entries = _fan_out(one, h_list, workers)
    unf = [e["unfiltered"] for e in entries]
    fil = [e["filtered"] for e in entries]
    if any(q <= 0.0 for q in unf + fil):
        raise ValueError("run_smoothing_experiment: quotients must be positive")
    ratios_unf = [b / a for a, b in zip(unf, unf[1:])]
    ratios_fil = [b / a for a, b in zip(fil, fil[1:])]
    mass_ok = all(e["packet_spectral_mass"] >= _MIN_SPECTRAL_MASS for e in entries)
    return {
        "experiment": "smoothing",
        "h_list": list(h_list),
        "delta": delta,
        "entries": entries,
        "unfiltered_growth_ratios": ratios_unf,
        "filtered_ratios": ratios_fil,
        "packet_mass_ok": mass_ok,
        "dichotomy": bool(
            ratios_unf
            and min(ratios_unf) > max(ratios_fil)
        ),
        "pass": bool(
            mass_ok
            and all(r >= 1.5 for r in ratios_unf)
            and all(0.8 <= r <= 1.2 for r in ratios_fil)
        ),
    }


# ---------------------------------------------------------------------------
# continuum limit study
# ---------------------------------------------------------------------------


def _reference_rows(ref: SolutionTrajectory, datum: LatticeField, lo: int, hi: int) -> np.ndarray:
    """Nodes lo:hi of the reference on datum's grid: ref's own rows there, or
    ref's spectra zero-padded from its solve mesh, with row 0 datum itself."""
    if ref.grid.n_points == datum.grid.n_points:
        return ref.values[lo:hi]
    half = ref.grid.n_points // 2
    spectra = datum.grid.n_points // ref.grid.n_points * np.fft.fft(ref.values[lo:hi], axis=-1)
    padded = np.zeros((len(spectra), datum.grid.n_points), dtype=np.complex128)
    padded[:, :half], padded[:, -half:] = spectra[:, :half], spectra[:, half:]
    padded = np.fft.ifft(padded, axis=-1, out=padded)
    if lo == 0:
        padded[0] = datum.values
    return padded


def _trajectory_errors(traj, ref, datum: LatticeField, params) -> tuple[float, float, float]:
    """sup_t H^s (eta2 of Lambda_T), sup_t L^2 and Lambda_T distances on datum's
    grid, _NORM_ROWS nodes at a time: no (nodes, sites) array of that grid exists."""
    fine, l2 = datum.grid, []

    def blocks():
        for lo in range(0, len(traj.values), _NORM_ROWS):
            diff = interp_rows(traj.values[lo : lo + _NORM_ROWS], traj.grid, fine)
            diff -= _reference_rows(ref, datum, lo, lo + _NORM_ROWS)
            l2.append(np.sqrt(fine.h * np.sum(np.abs(diff) ** 2, axis=-1)).max())
            yield diff, np.fft.fft(diff, axis=-1)

    rep = lambda_pass(blocks(), fine, ref.times, params.delta, params.s, 2.0 * (params.p - 1))
    return rep.eta2, float(np.max(l2)), rep.lam


def check_h_ref(h_list, h_ref: float) -> None:
    """The reference mesh must be at most a quarter of the finest study mesh."""
    if h_ref > min(h_list) / 4.0 + 1e-12:
        raise ValueError(f"h_ref must be at most min(h_list)/4 = {min(h_list) / 4.0:g}, got {h_ref}")


# horizon shrinks (T -> 0.6 T each) before the continuum study gives up
_MAX_SHRINK = 4
# the largest share of its peak a reference spectrum may hold in the band
# that the p-fold products of a solve at the solve mesh alias back into
_REF_TAIL = 1e-13


def _resolved(spectra: np.ndarray, grid: LatticeGrid, H: float, p: int) -> bool:
    """Whether every row of spectra holds below _REF_TAIL of its peak where
    the wavenumber |xi|/h exceeds 2 pi/((p+1) H) (Orszag, J. Atmos. Sci. 28, 1971)."""
    a = np.abs(spectra)
    band = np.abs(grid.freqs()) / grid.h > 2.0 * math.pi / ((p + 1) * H)
    return bool(np.all(a[..., band].max(axis=-1) < _REF_TAIL * a.max(axis=-1)))


def _padded_reference(params, datum: LatticeField, H: float, tg: TimeGrid, **kw):
    """(reference, solve mesh): the continuum reference from datum, solved on
    the sites of mesh H, whose spectra _reference_rows zero-pads to datum's
    grid; solved again on datum's grid when its spectrum is not resolved."""
    fine = datum.grid
    if H != fine.h:
        grid = grid_for(fine.extent, H)
        r = fine.n_points // grid.n_points
        traj = solve_continuum_reference(params, grid, tg, None,
                                         initial_field=LatticeField(grid, datum.values[::r]), **kw)
        if _resolved(r * np.fft.fft(traj.values, axis=-1), grid, H, params.p):
            return traj, H
    return solve_continuum_reference(params, fine, tg, None, initial_field=datum, **kw), fine.h


def run_continuum_study(
    params: ModelParams,
    h_list,
    h_ref: float,
    f,
    extent: float = DEFAULT_EXTENT,
    T: float = 0.4,
    m_steps: int = 256,
    linear_only: bool = False,
    tol: float = 1e-10,
    ratio_cap: float = 0.5,
    workers: int = 1,
) -> dict:
    """Mesh-refinement study against a fine continuum reference.

    The horizon follows the contraction criterion, mirroring T(rho) ->
    infinity as the data shrinks: the reference and every mesh are solved
    at T, 0.6 T, 0.36 T, ... (at most _MAX_SHRINK + 1 horizons) until no
    solve raises NonContractionError and every Picard residual ratio is
    below ratio_cap (not read when linear_only).  Past the last horizon it
    raises NonContractionError("no contracting horizon found down to T =
    <last horizon run>: <cause>"), the cause being the last solver error,
    chained, or the ratio that broke the cap.

    The reference datum, the cell averages of f on the h_ref grid, is built
    once (past double range: NonContractionError before any solve).  The
    reference is solved from its values on the sites of the coarsest H of
    min(h_list), min/2, ..., h_ref whose band |xi|/H > 2 pi/((p+1) H) the
    datum's spectrum resolves (_resolved), once more at h_ref if its
    solution's fails that test; ref_solve_h names H.  The errors zero-pad
    it to h_ref and measure there, a block of _NORM_ROWS nodes at a time.
    """
    h_list = sorted(h_list, reverse=True)
    check_h_ref(h_list, h_ref)
    datum = discretize(f, grid_for(extent, h_ref))
    spectrum = np.fft.fft(datum.values)
    if not np.isfinite(spectrum).all():
        raise NonContractionError("the reference datum or its spectrum left double range (largest "
                                  f"|datum| {np.abs(datum.values).max():.3e}); shrink the data", [])
    H = min(h_list)  # the solve mesh
    while H > 1.5 * h_ref and not (abs(round(H / h_ref) * h_ref - H) <= 1e-9 * H
                                   and _resolved(spectrum, datum.grid, H, params.p)):
        H /= 2.0
    H = H if H > 1.5 * h_ref else h_ref

    kw = dict(nonlinear=not linear_only, tol=tol)
    T_used, error = T, None
    for attempt in range(_MAX_SHRINK + 1):
        if attempt:
            T_used *= 0.6
        tg = TimeGrid(T=T_used, m_steps=m_steps)
        # the reference, the longest solve, starts first and runs beside the
        # h-sweep when workers > 1
        jobs = [partial(_padded_reference, params, datum, H, tg, **kw)]
        jobs += [partial(solve, params, grid_for(extent, h), tg, f, **kw) for h in h_list]
        try:
            (ref, ref_h), *trajs = _fan_out(lambda job: job(), jobs, workers)
        except NonContractionError as exc:
            error, cause = exc, str(exc)
            continue
        worst = max((r for t in [ref, *trajs] for r in t.residual_ratios), default=0.0)
        if linear_only or worst < ratio_cap:
            break
        error, cause = None, f"residual ratio {worst:.3f} >= cap {ratio_cap}"
    else:
        message = f"no contracting horizon found down to T = {T_used:g}: {cause}"
        raise NonContractionError(message, []) from error

    err_s, err_l2, err_lam = zip(*(_trajectory_errors(traj, ref, datum, params) for traj in trajs))
    positive = all(e > 0.0 for e in err_s) and len(err_s) >= 3
    order = fit_order(zip(h_list, err_s)) if positive else float("nan")
    monotone = all(a > b for a, b in zip(err_s, err_s[1:]))
    lambda_monotone = all(a > b for a, b in zip(err_lam, err_lam[1:]))
    if linear_only:
        passed = abs(order - (2.0 - params.alpha)) <= 0.3
    else:
        passed = monotone and lambda_monotone and order >= 0.2
    return {
        "experiment": "continuum",
        "linear_only": linear_only,
        "pairs": [[h, e] for h, e in zip(h_list, err_s)],
        "l2_errors": [[h, e] for h, e in zip(h_list, err_l2)],
        "lambda_errors": [[h, e] for h, e in zip(h_list, err_lam)],
        "fitted_order": order,
        "target_order": 2.0 - params.alpha,
        "T_used": T_used,
        "monotone": monotone,
        "lambda_monotone": lambda_monotone,
        "residuals": {str(h): traj.residuals for h, traj in zip(h_list, trajs)},
        "ref_residuals": ref.residuals,
        "ref_solve_h": ref_h,
        "pass": bool(passed),
    }


# ---------------------------------------------------------------------------
# Mittag-Leffler oracle sweep
# ---------------------------------------------------------------------------


# the oracle's working digits and the largest relative error that passes
_ORACLE_DIGITS = 100
_ML_TOL_REQUIRED = 1e-9
# run_ml_check's defaults, which parse_config also holds to the digit budget
ML_BETAS = (0.6, 0.75, 0.8, 0.9)
ML_R_MAX = 50.0
# most working digits an ml-check oracle call may take.  Its costliest call,
# the smallest beta at r_max, takes 471 digits on the committed config at
# beta = 0.598 (the benchmark moves each beta by up to 0.002) and 1201 at
# beta = 0.6, r_max = 100, where two radii ran for 120 s.  On a 2-core box
# the first point, which builds the Gamma table, took 7 s at 471 digits and
# 11 s at 610.
ORACLE_DIGIT_BUDGET = 600


def check_oracle_budget(betas, r_max: float) -> None:
    """The oracle's precision at the smallest beta and r_max must fit the digit budget.

    The precision grows like r_max^{1/beta}/ln 10 digits (_series_dps), and
    the oracle's cost faster still.
    """
    beta = min(betas)
    digits = _series_dps(beta, r_max, _ORACLE_DIGITS)
    if digits > ORACLE_DIGIT_BUDGET:
        raise ValueError(
            f"the oracle would need {digits} digits at beta = {beta:g}, r_max = {r_max:g}, "
            f"over the budget of {ORACLE_DIGIT_BUDGET}; lower r_max or raise beta"
        )


def run_ml_check(
    betas=ML_BETAS,
    n_radii: int = 50,
    r_max: float = ML_R_MAX,
) -> dict:
    """Sector-ray comparison of the fast evaluators against the series oracle."""
    check_oracle_budget(betas, r_max)
    results = []
    for beta in betas:
        worst_e = worst_ee = 0.0
        sup_e = 0.0
        # descending radii: the first point builds the largest gamma table,
        # every later point reuses it
        for r in np.linspace(0.0, r_max, n_radii)[::-1]:
            z = complex(r) * cmath.exp(-1j * beta * math.pi / 2.0)
            ref_e = ml_oracle(beta, z, 1.0, digits=_ORACLE_DIGITS)
            ref_ee = ml_oracle(beta, z, beta, digits=_ORACLE_DIGITS)
            worst_e = max(worst_e, abs(ml_e(beta, z) - ref_e) / abs(ref_e))
            worst_ee = max(worst_ee, abs(ml_ee(beta, z) - ref_ee) / abs(ref_ee))
            sup_e = max(sup_e, abs(ref_e))
        results.append(
            {
                "beta": beta,
                "max_rel_err_ml_e": worst_e,
                "max_rel_err_ml_ee": worst_ee,
                "sup_|E_beta|_on_ray": sup_e,
                "pass": bool(max(worst_e, worst_ee) <= _ML_TOL_REQUIRED),
            }
        )
    return {
        "experiment": "ml-check",
        "n_points": len(betas) * n_radii,
        "results": results,
        "pass": bool(all(r["pass"] for r in results)),
    }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _fan_out(fn, items, workers: int):
    """Map preserving order; thread pool when workers > 1."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))

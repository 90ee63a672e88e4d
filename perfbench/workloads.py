"""The benchmark's workloads: configs made from a seed, and output checks.

Each workload is one committed ``demos/configs/<name>.cfg``.  Seed 0 returns
that file unchanged; any other seed nudges the physical inputs by a small,
seeded amount that keeps the work the same (same grids, step counts, radii
and term counts), so that no result can be tuned to one fixed input.

The checks read the files a CLI run wrote and hold them to the tolerances
pinned in ``tests/test_acceptance.py`` (criteria 1, 3, 9 and 10), minus the
wall-clock budgets, which are what the benchmark measures.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

NAMES = ("continuum", "ml_check", "symbol")

# key -> ("rel" or "abs", size of the uniform jitter), applied to each list entry
_JITTER = {
    # amplitude and width move the Picard contraction rate, so they stay
    # within a band that keeps the sweep count of the committed config
    "continuum": {"amplitude": ("rel", 0.005), "width": ("rel", 0.005)},
    "ml_check": {"betas": ("abs", 0.002)},
    "symbol": {"alphas": ("abs", 0.01), "beta": ("abs", 0.01)},
}


def parse(text: str) -> dict:
    """The key = value pairs of a config, values as text."""
    raw = {}
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if "=" in stripped:
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def _floats(value: str) -> list[float]:
    return [float(tok) for tok in value.replace(",", " ").split()]


def make_config(name: str, committed: str, seed: int) -> str:
    """The config text of workload ``name`` for ``seed``."""
    if seed == 0:
        return committed
    rng = random.Random(f"{name}:{seed}")
    jitter = _JITTER[name]
    lines = []
    for line in committed.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in jitter:
            kind, amount = jitter[key]
            vals = []
            for v in _floats(line.split("=", 1)[1]):
                d = rng.uniform(-amount, amount)
                vals.append(round(v * (1.0 + d) if kind == "rel" else v + d, 6))
            line = f"{key} = {', '.join(repr(v) for v in vals)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _strictly_decreasing(xs) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


def _loglog_slope(pairs) -> float:
    x = [math.log(h) for h, _ in pairs]
    y = [math.log(e) for _, e in pairs]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


def _check_continuum(rep: dict, cfg: dict, rows: int) -> list[str]:
    bad = []
    h_list = _floats(cfg["h_list"])
    pairs = rep["pairs"]
    if sorted((h for h, _ in pairs), reverse=True) != sorted(h_list, reverse=True) or rows != len(h_list):
        bad.append(f"continuum: expected one error row per h in {h_list}")
    if not (all(e > 0 for _, e in pairs) and _strictly_decreasing([e for _, e in pairs])):
        bad.append("continuum: sup_t H^s errors are not strictly decreasing")
    if not _strictly_decreasing([e for _, e in rep["lambda_errors"]]):
        bad.append("continuum: Lambda_T errors are not strictly decreasing")
    order = _loglog_slope(pairs)
    if not order >= 0.2:
        bad.append(f"continuum: fitted order {order:.4f} < 0.2")
    if abs(order - rep["fitted_order"]) > 1e-9 * max(1.0, abs(order)):
        bad.append(f"continuum: report order {rep['fitted_order']} != refit {order}")
    series = list(rep["residuals"].values()) + [rep["ref_residuals"]]
    if len(series) != len(h_list) + 1 or not all(series):
        bad.append("continuum: missing Picard residual history")
    worst = max((r[i] / r[i - 1] for r in series for i in range(1, len(r)) if r[i - 1] > 0), default=0.0)
    if not worst < 0.5:
        bad.append(f"continuum: Picard residual ratio {worst:.4f} >= 0.5")
    return bad


def _check_ml(rep: dict, cfg: dict, rows: int) -> list[str]:
    bad = []
    betas = _floats(cfg["betas"])
    got = [r["beta"] for r in rep["results"]]
    if got != betas or rows != len(betas):
        bad.append(f"ml_check: betas {got} in report, {betas} in config")
    if rep["n_points"] != len(betas) * int(cfg["n_radii"]):
        bad.append(f"ml_check: {rep['n_points']} points, expected {len(betas)} x {cfg['n_radii']}")
    for r in rep["results"]:
        worst = max(r["max_rel_err_ml_e"], r["max_rel_err_ml_ee"])
        if not worst <= 1e-9:
            bad.append(f"ml_check: beta={r['beta']} worst relative error {worst:.3e} > 1e-9")
    return bad


def _check_symbol(rep: dict, cfg: dict, rows: int) -> list[str]:
    bad = []
    alphas = _floats(cfg["alphas"])
    if [r["alpha"] for r in rep["results"]] != alphas:
        bad.append(f"symbol: alphas in report differ from config {alphas}")
    if rows != 200 * len(alphas):
        bad.append(f"symbol: {rows} table rows, expected {200 * len(alphas)}")
    for r in rep["results"]:
        a = r["alpha"]
        if not r["w_prime_positive"]:
            bad.append(f"symbol: w' > 0 fails at alpha={a}")
        if not r["w_second_decreasing"]:
            bad.append(f"symbol: w'' monotonicity fails at alpha={a}")
        if r["w_second_sign_changes"] != 1:
            bad.append(f"symbol: w'' has {r['w_second_sign_changes']} sign changes at alpha={a}")
        if not 0.0 < r["xi0"] < math.pi / 2.0:
            bad.append(f"symbol: xi0={r['xi0']} outside (0, pi/2) at alpha={a}")
        if not r["xi0"] < r["xi1"] < math.pi:
            bad.append(f"symbol: xi1={r['xi1']} outside (xi0, pi) at alpha={a}")
        if not abs(r["small_xi_slope"] - 2.0) <= 0.05:
            bad.append(f"symbol: small-xi slope {r['small_xi_slope']} at alpha={a}")
    return bad


_CHECKS = {"continuum": _check_continuum, "ml_check": _check_ml, "symbol": _check_symbol}


def check(name: str, config_text: str, out_dir: Path) -> list[str]:
    """Problems with the outputs of one run; an empty list means correct."""
    out_dir = Path(out_dir)
    # the CLI names its files after the experiment, which is the workload name
    # with '_' for '-'
    report, data = out_dir / f"{name}_report.json", out_dir / f"{name}_data.csv"
    missing = [p.name for p in (report, data, out_dir / "manifest.json") if not p.exists()]
    if missing:
        return [f"{name}: missing outputs {missing}"]
    try:
        rep = json.loads(report.read_text())
        with open(data, newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        bad = [] if rep.get("pass") is True else [f"{name}: report does not pass"]
        return bad + _CHECKS[name](rep, parse(config_text), rows)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"{name}: malformed output ({type(exc).__name__}: {exc})"]

"""Configuration parsing and run orchestration.

Experiments are driven by line-oriented ``key = value`` files (``#``
comments allowed); command-line flags only select the config file, the
output directory and the worker count.  A key the file leaves out takes
the default in the signature of the harness entry point it feeds (of
``_run_solve`` for ``solve``): ``run`` passes on only the keys the file
sets.  ``initial`` is ``gaussian`` (reads ``amplitude``, ``width``) or
``packet`` (also ``center``, ``freq``).  Every run writes
``<experiment>_report.json`` (machine-readable pass/fail plus values),
``<experiment>_data.csv`` (raw series) and ``manifest.json`` (config
echo, versions, timings).  Exit code 0 means every assertion of the
invoked report passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .harness import (
    gaussian_profile,
    grid_for,
    run_continuum_study,
    run_mass_uniformity,
    run_ml_check,
    run_smoothing_experiment,
    run_symbol_checks,
)
from .lattice import field_to_bytes, norm_lp
from .solver import (
    ModelParams,
    NonContractionError,
    ParameterError,
    TimeGrid,
    solve,
)


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


EXPERIMENTS = ("symbol", "mass", "smoothing", "continuum", "ml-check", "solve")


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {s!r}")
    return v


def _parse_float_list(s: str) -> list[float]:
    return [_parse_float(tok) for tok in s.replace(",", " ").split()]


_INITIAL_KINDS = ("gaussian", "packet")


def _parse_initial(s: str) -> str:
    if s not in _INITIAL_KINDS:
        raise ValueError(f"unknown initial data kind {s!r}; choose from {_INITIAL_KINDS}")
    return s


_KEY_PARSERS = {
    "experiment": str,
    "alpha": _parse_float,
    "beta": _parse_float,
    "p": int,
    "sign": int,
    "s": _parse_float,
    "delta": _parse_float,
    "use_filter": _parse_bool,
    "extent": _parse_float,
    "h": _parse_float,
    "h_list": _parse_float_list,
    "h_ref": _parse_float,
    "T": _parse_float,
    "m_steps": int,
    "n_times": int,
    "tol": _parse_float,
    "eps": _parse_float,
    "ratio_cap": _parse_float,
    "linear_only": _parse_bool,
    "initial": _parse_initial,
    "amplitude": _parse_float,
    "width": _parse_float,
    "center": _parse_float,
    "freq": _parse_float,
    "packet_width": _parse_float,
    "alphas": _parse_float_list,
    "betas": _parse_float_list,
    "n_radii": int,
    "r_max": _parse_float,
}


@dataclass
class RunConfig:
    """Validated experiment configuration."""

    experiment: str
    raw: dict = field(default_factory=dict)
    params: ModelParams | None = None

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def require(self, key):
        if key not in self.raw:
            raise ConfigError(f"missing required key {key!r} for experiment {self.experiment!r}")
        return self.raw[key]

    def present(self, *keys) -> dict:
        """The values of those ``keys`` the file sets; the callee's defaults cover the rest."""
        return {k: self.raw[k] for k in keys if k in self.raw}


def parse_config(path, experiment: str | None = None) -> RunConfig:
    """Parse and validate a key = value config file.

    Unknown keys are rejected with their line number; model parameters are
    re-validated here so a bad file fails before any computation starts,
    with the violated admissibility condition quoted in the message.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw: dict = {}
    lines = path.read_text().splitlines()
    for ln, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        try:
            raw[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: bad value for {key!r}: {exc}") from exc
    if not raw:
        raise ConfigError(f"{path}: empty configuration")

    exp = raw.get("experiment", experiment)
    if exp is None:
        raise ConfigError("no experiment selected (config key or subcommand)")
    if experiment is not None and "experiment" in raw and raw["experiment"] != experiment:
        raise ConfigError(
            f"config names experiment {raw['experiment']!r} but subcommand is {experiment!r}"
        )
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {EXPERIMENTS}")

    cfg = RunConfig(experiment=exp, raw=raw)
    if exp not in ("symbol", "ml-check"):
        try:
            cfg.params = ModelParams(
                alpha=cfg.require("alpha"),
                beta=cfg.require("beta"),
                p=raw.get("p", 3),
                sign=raw.get("sign", 1),
                s=raw.get("s"),
                delta=raw.get("delta"),
                use_filter=raw.get("use_filter", True),
            )
        except ParameterError as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from exc
    return cfg


def _initial_profile(cfg: RunConfig):
    """A gaussian reads amplitude and width; a packet also center and freq."""
    keys = ("amplitude", "width")
    if cfg.get("initial") == "packet":
        keys += ("center", "freq")
    return gaussian_profile(**cfg.present(*keys))


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _report_rows(exp: str, report: dict) -> tuple[list[str], list]:
    if exp == "symbol":
        # dense symbol table; the summary block {alpha, beta, xi0, xi1, c}
        # stays in the JSON report
        rows = []
        for r in report["results"]:
            rows.extend([r["alpha"]] + row for row in r.pop("table"))
        return ["alpha", "xi", "w", "w_prime", "w_second", "phi_h"], rows
    if exp == "mass":
        return (
            ["h", "ratio"],
            [[e["h"], e.get("ratio")] for e in report["entries"]],
        )
    if exp == "smoothing":
        return (
            ["h", "unfiltered", "filtered", "packet_spectral_mass"],
            [
                [e["h"], e["unfiltered"], e["filtered"], e["packet_spectral_mass"]]
                for e in report["entries"]
            ],
        )
    if exp == "continuum":
        return (
            ["h", "err_hs", "err_l2", "err_lambda"],
            [
                [h, e, l2[1], lam[1]]
                for (h, e), l2, lam in zip(
                    report["pairs"], report["l2_errors"], report["lambda_errors"]
                )
            ],
        )
    if exp == "ml-check":
        return (
            ["beta", "max_rel_err_ml_e", "max_rel_err_ml_ee", "sup_ray"],
            [
                [r["beta"], r["max_rel_err_ml_e"], r["max_rel_err_ml_ee"], r["sup_|E_beta|_on_ray"]]
                for r in report["results"]
            ],
        )
    raise ValueError(exp)


def _run_solve(cfg: RunConfig, out_dir: Path) -> dict:
    grid = grid_for(cfg.get("extent", 51.2), cfg.require("h"))
    tg = TimeGrid(T=cfg.require("T"), m_steps=cfg.get("m_steps", 128))
    f = _initial_profile(cfg)
    traj = solve(cfg.params, grid, tg, f, **cfg.present("tol"))
    blob = b"".join(
        field_to_bytes(traj.snapshot(i), t=float(t)) for i, t in enumerate(traj.times)
    )
    (out_dir / "trajectory.bin").write_bytes(blob)
    _write_csv(
        out_dir / "solve_data.csv",
        ["t", "l2_norm"],
        [[float(t), norm_lp(traj.snapshot(i), 2)] for i, t in enumerate(traj.times)],
    )
    return {
        "experiment": "solve",
        "h": grid.h,
        "n_points": grid.n_points,
        "T": tg.T,
        "m_steps": tg.m_steps,
        "residuals": traj.residuals,
        "residual_ratios": traj.residual_ratios,
        "pass": True,
    }


def run(cfg: RunConfig, out_dir, workers: int = 1) -> int:
    """Dispatch one experiment; returns the process exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    exp = cfg.experiment
    try:
        # only the keys the file sets are passed on: each default lives in
        # the signature of the harness entry point
        if exp == "symbol":
            report = run_symbol_checks(
                cfg.get("alphas", [cfg.get("alpha", 1.5)]), **cfg.present("beta")
            )
        elif exp == "mass":
            report = run_mass_uniformity(
                cfg.params,
                cfg.require("h_list"),
                _initial_profile(cfg),
                **cfg.present("extent", "T", "n_times"),
                workers=workers,
            )
        elif exp == "smoothing":
            report = run_smoothing_experiment(
                cfg.params,
                cfg.require("h_list"),
                **cfg.present("extent", "T", "n_times", "eps", "packet_width"),
                workers=workers,
            )
        elif exp == "continuum":
            report = run_continuum_study(
                cfg.params,
                cfg.require("h_list"),
                cfg.require("h_ref"),
                _initial_profile(cfg),
                **cfg.present("extent", "T", "m_steps", "linear_only", "tol", "ratio_cap"),
                workers=workers,
            )
        elif exp == "ml-check":
            report = run_ml_check(**cfg.present("betas", "n_radii", "r_max"))
        elif exp == "solve":
            report = _run_solve(cfg, out_dir)
        else:  # pragma: no cover - guarded by parse_config
            raise ConfigError(f"unknown experiment {exp!r}")
    except (NonContractionError, ParameterError, ConfigError, ValueError) as exc:
        record = {"experiment": exp, "error": type(exc).__name__, "message": str(exc)}
        (out_dir / f"{exp.replace('-', '_')}_error.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wall = time.perf_counter() - t0
    stem = exp.replace("-", "_")
    if exp != "solve":
        # the CSV consumes (and strips) any dense tables; the JSON keeps the summary
        header, rows = _report_rows(exp, report)
        _write_csv(out_dir / f"{stem}_data.csv", header, rows)
    (out_dir / f"{stem}_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=float) + "\n"
    )
    manifest = {
        "config": cfg.raw,
        "experiment": exp,
        "version": __version__,
        "workers": workers,
        "wall_time_s": wall,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=float) + "\n"
    )
    return 0 if report.get("pass", False) else 1


def describe(cfg: RunConfig) -> str:
    """Human-readable admissibility conditions with the config's margins."""
    lines = [
        "admissibility conditions (sigma = alpha/beta):",
        "  alpha > (sigma+1)/2          [smoothing gain beats the memory loss]",
        "  s >= 1/2 - 1/(2(p-1))",
        "  delta in [s+sigma-alpha, sigma/2 - 1/(2(p-1)))",
    ]
    if cfg.params is not None:
        p = cfg.params
        lines.append(
            f"current: alpha={p.alpha:g} beta={p.beta:g} sigma={p.sigma:g} "
            f"p={p.p} s={p.s:g} delta={p.delta:g}"
        )
        for name, margin in p.condition_margins().items():
            lines.append(f"  margin {name}: {margin:+.6g}")
    else:
        lines.append("(experiment carries no model parameters)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclat",
        description="Experiments for the lattice fractional Schrodinger equation with memory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, help="key = value configuration file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument(
            "--describe",
            action="store_true",
            help="print the parameter conditions and margins, then exit",
        )
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, experiment=args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.describe:
        print(describe(cfg))
        return 0
    return run(cfg, args.out, workers=args.workers)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Configuration parsing and run orchestration.

Experiments are driven by line-oriented ``key = value`` files (``#``
comments allowed); flags only select the config file, the output
directory and, for the experiments that fan out over meshes, the worker
count.  ``EXPERIMENTS`` is the one table of experiments: the config keys
each one reads, the only keys its file may set, and the runner that calls
its harness entry point with just the keys the file sets, so that each
default lives in one signature (``_run_solve``'s for ``solve``).  Every
run writes ``<experiment>_report.json`` (machine-readable pass/fail plus
values), ``<experiment>_data.csv`` (raw series) and ``manifest.json``
(config echo, versions, timings).  Exit code 0 means every assertion of
the invoked report passed.  A config fault, a missing required key
included, exits 2 before any output is written; a run that fails for a
valid config (a Picard iteration that stops contracting) exits 1 and
writes ``<experiment>_error.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .harness import (
    DEFAULT_EXTENT,
    ML_BETAS,
    ML_R_MAX,
    check_h_ref,
    check_oracle_budget,
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
from .special import MLOverflowError
from .symbol import check_alpha, check_beta


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


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


def _parse_positive(s: str) -> float:
    v = _parse_float(s)
    if not v > 0.0:
        raise ValueError(f"must be positive, got {v}")
    return v


def _parse_float_list(s: str) -> list[float]:
    values = [_parse_float(tok) for tok in s.replace(",", " ").split()]
    if not values:
        raise ValueError(f"no numbers in {s!r}")
    return values


def _parse_alphas(s: str) -> list[float]:
    return [check_alpha(a) for a in _parse_float_list(s)]


def _parse_beta(s: str) -> float:
    # the symbol's range (0, 1]; ModelParams narrows it to (1/2, 1] for the model
    return check_beta(_parse_float(s))


def _parse_ml_betas(s: str) -> list[float]:
    # the range on which the Mittag-Leffler evaluators state their accuracy;
    # below it the oracle's working precision grows like |z|^{1/beta}
    values = _parse_float_list(s)
    for b in values:
        if not 0.5 < b <= 1.0:
            raise ValueError(f"beta must be in (1/2, 1], got {b}")
    return values


def _parse_nonnegative(s: str) -> float:
    v = _parse_float(s)
    if v < 0.0:
        raise ValueError(f"must be non-negative, got {v}")
    return v


def _parse_count(s: str, least: int = 1) -> int:
    n = int(s)
    if n < least:
        raise ValueError(f"must be at least {least}, got {n}")
    return n


_parse_steps = partial(_parse_count, least=2)  # a TimeGrid takes at least 2 steps


_INITIAL_KINDS = ("gaussian", "packet")


def _parse_initial(s: str) -> str:
    if s not in _INITIAL_KINDS:
        raise ValueError(f"unknown initial data kind {s!r}; choose from {_INITIAL_KINDS}")
    return s


_KEY_PARSERS = {
    "experiment": str,
    "alpha": _parse_float,
    "beta": _parse_beta,
    "p": int,
    "sign": int,
    "s": _parse_float,
    "use_filter": _parse_bool,
    "extent": _parse_positive,
    "h": _parse_float,
    "h_list": _parse_float_list,
    "h_ref": _parse_float,
    "T": _parse_positive,
    "m_steps": _parse_steps,
    "n_times": _parse_steps,
    "tol": _parse_float,
    "eps": _parse_float,
    "ratio_cap": _parse_float,
    "linear_only": _parse_bool,
    "initial": _parse_initial,
    "amplitude": _parse_float,
    "width": _parse_positive,
    "center": _parse_float,
    "freq": _parse_float,
    "packet_width": _parse_positive,
    "alphas": _parse_alphas,
    "betas": _parse_ml_betas,
    "n_radii": _parse_count,
    "r_max": _parse_nonnegative,
}


@dataclass
class RunConfig:
    """Validated experiment configuration."""

    experiment: str
    raw: dict = field(default_factory=dict)
    params: ModelParams | None = None

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def present(self, *keys) -> dict:
        """The values of those ``keys`` the file sets; the callee's defaults cover the rest."""
        return {k: self.raw[k] for k in keys if k in self.raw}


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _initial_profile(cfg: RunConfig):
    # parse_config admits center and freq only under initial = packet
    return gaussian_profile(**cfg.present("amplitude", "width", "center", "freq"))


# Each runner calls its harness entry point by its name in this module at
# call time, so that a wrapper patched onto that name (a test spy, the
# benchmark's tracer) sees the call.


def _run_symbol(cfg: RunConfig, out_dir: Path, workers: int) -> dict:
    report = run_symbol_checks(cfg.raw["alphas"], **cfg.present("beta"))
    # the CSV takes the dense tables; the JSON report keeps each alpha's summary
    rows = [[r["alpha"]] + row for r in report["results"] for row in r.pop("table")]
    _write_csv(out_dir / "symbol_data.csv", ["alpha", "xi", "w", "w_prime", "w_second", "phi_h"], rows)
    return report


def _run_ml_check(cfg: RunConfig, out_dir: Path, workers: int) -> dict:
    report = run_ml_check(**cfg.present("betas", "n_radii", "r_max"))
    rows = [[r["beta"], r["max_rel_err_ml_e"], r["max_rel_err_ml_ee"], r["sup_|E_beta|_on_ray"]]
            for r in report["results"]]
    header = ["beta", "max_rel_err_ml_e", "max_rel_err_ml_ee", "sup_ray"]
    _write_csv(out_dir / "ml_check_data.csv", header, rows)
    return report


def _run_mass(cfg: RunConfig, out_dir: Path, workers: int) -> dict:
    report = run_mass_uniformity(cfg.params, cfg.raw["h_list"], _initial_profile(cfg),
                                 **cfg.present("extent", "T", "n_times"), workers=workers)
    rows = [[e["h"], e.get("ratio")] for e in report["entries"]]
    _write_csv(out_dir / "mass_data.csv", ["h", "ratio"], rows)
    return report


def _run_smoothing(cfg: RunConfig, out_dir: Path, workers: int) -> dict:
    report = run_smoothing_experiment(
        cfg.params, cfg.raw["h_list"],
        **cfg.present("extent", "T", "n_times", "eps", "packet_width"), workers=workers)
    header = ["h", "unfiltered", "filtered", "packet_spectral_mass"]
    _write_csv(out_dir / "smoothing_data.csv", header,
               [[e[k] for k in header] for e in report["entries"]])
    return report


def _run_continuum(cfg: RunConfig, out_dir: Path, workers: int) -> dict:
    report = run_continuum_study(
        cfg.params, cfg.raw["h_list"], cfg.raw["h_ref"], _initial_profile(cfg),
        **cfg.present("extent", "T", "m_steps", "linear_only", "tol", "ratio_cap"), workers=workers)
    rows = [[h, e, l2[1], lam[1]] for (h, e), l2, lam
            in zip(report["pairs"], report["l2_errors"], report["lambda_errors"])]
    _write_csv(out_dir / "continuum_data.csv", ["h", "err_hs", "err_l2", "err_lambda"], rows)
    return report


def _run_solve(cfg: RunConfig, out_dir: Path, workers: int) -> dict:
    grid = grid_for(cfg.get("extent", DEFAULT_EXTENT), cfg.raw["h"])
    tg = TimeGrid(T=cfg.raw["T"], m_steps=cfg.get("m_steps", 128))
    traj = solve(cfg.params, grid, tg, _initial_profile(cfg), **cfg.present("tol"))
    snapshots = [(float(t), traj.snapshot(i)) for i, t in enumerate(traj.times)]
    (out_dir / "trajectory.bin").write_bytes(b"".join(field_to_bytes(u, t=t) for t, u in snapshots))
    _write_csv(out_dir / "solve_data.csv", ["t", "l2_norm"], [[t, norm_lp(u, 2)] for t, u in snapshots])
    return {"experiment": "solve", "h": grid.h, "n_points": grid.n_points, "T": tg.T,
            "m_steps": tg.m_steps, "residuals": traj.residuals,
            "residual_ratios": traj.residual_ratios, "pass": True}


class Experiment(NamedTuple):
    keys: tuple[str, ...]  # the config keys the experiment reads, besides experiment
    required: tuple[str, ...]  # the keys among them that have no default
    runner: Callable[[RunConfig, Path, int], dict]  # (cfg, out_dir, workers) -> report
    fans_out: bool = False  # runs its meshes on --workers threads


# the model keys build ModelParams and are read as a unit; alpha and beta
# have no default
_MODEL = ("alpha", "beta", "p", "sign", "s", "use_filter")
_INITIAL = ("initial", "amplitude", "width", "center", "freq")
_PACKET_ONLY = ("center", "freq")

EXPERIMENTS = {
    "symbol": Experiment(("alphas", "beta"), ("alphas",), _run_symbol),
    "mass": Experiment(_MODEL + ("h_list", "extent", "T", "n_times") + _INITIAL,
                       ("alpha", "beta", "h_list"), _run_mass, fans_out=True),
    "smoothing": Experiment(_MODEL + ("h_list", "extent", "T", "n_times", "eps", "packet_width"),
                            ("alpha", "beta", "h_list"), _run_smoothing, fans_out=True),
    "continuum": Experiment(_MODEL + ("h_list", "h_ref", "extent", "T", "m_steps", "linear_only",
                                      "tol", "ratio_cap") + _INITIAL,
                            ("alpha", "beta", "h_list", "h_ref"), _run_continuum, fans_out=True),
    "ml-check": Experiment(("betas", "n_radii", "r_max"), (), _run_ml_check),
    "solve": Experiment(_MODEL + ("h", "extent", "T", "m_steps", "tol") + _INITIAL,
                        ("alpha", "beta", "h", "T"), _run_solve),
}


def _check_run(cfg: RunConfig, path: Path, line_of: dict) -> None:
    """Reject at parse time the values that would fail or stall the run.

    Every lattice the run builds is built here: each mesh of h, h_list and
    h_ref must divide extent into an even number (>= 8) of sites, h_list
    may not repeat a mesh, and h_ref must be at most min(h_list)/4.  The
    lattices of h and h_list must also hold the filter's 2h lattice
    (n_points % 4 == 0) when the filter is on, and always under smoothing,
    whose filtered packet is built there.  ml-check's oracle must fit its
    digit budget at the smallest beta and r_max.  The ConfigError names the
    line of the key at fault.
    """
    raw = cfg.raw

    def bad(key: str, message: str) -> ConfigError:
        return ConfigError(f"{path}:{line_of[key]}: bad value for {key!r}: {message}")

    if cfg.experiment == "ml-check":
        try:
            check_oracle_budget(raw.get("betas", ML_BETAS), raw.get("r_max", ML_R_MAX))
        except ValueError as exc:
            raise bad("r_max" if "r_max" in raw else "betas", str(exc)) from exc
    if cfg.params is None:
        return
    extent = raw.get("extent", DEFAULT_EXTENT)
    quarter = cfg.experiment == "smoothing" or cfg.params.use_filter
    for key in ("h", "h_list", "h_ref"):
        if key not in raw:
            continue
        for h in raw[key] if key == "h_list" else [raw[key]]:
            try:
                n = grid_for(extent, h).n_points
            except ValueError as exc:
                raise bad(key, str(exc)) from exc
            if quarter and key != "h_ref" and n % 4:
                raise bad(key, f"extent {extent:g} / h = {h:g} gives {n} sites; the filter's "
                               f"2h lattice needs a multiple of 4")
    if len(set(raw.get("h_list", []))) < len(raw.get("h_list", [])):
        raise bad("h_list", f"repeats a mesh: {raw['h_list']}")
    if "h_ref" in raw:
        try:
            check_h_ref(raw["h_list"], raw["h_ref"])
        except ValueError as exc:
            raise bad("h_ref", str(exc)) from exc


def parse_config(path, experiment: str | None = None) -> RunConfig:
    """Parse and validate a key = value config file.

    Unknown keys are rejected with their line number, and so, once every
    value has parsed, is a key the selected experiment does not read.  A
    required key the file leaves out is rejected with the file's path.
    Model parameters are validated here so a bad file fails before any
    computation starts, with the violated admissibility condition quoted
    in the message, and so are the lattices and the oracle's precision
    (_check_run).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw: dict = {}
    line_of: dict = {}
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
        line_of[key] = ln
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
        raise ConfigError(f"unknown experiment {exp!r}; choose from {tuple(EXPERIMENTS)}")

    keys = EXPERIMENTS[exp].keys
    for key, ln in line_of.items():
        if key not in keys and key != "experiment":
            raise ConfigError(f"{path}:{ln}: experiment {exp!r} does not read key {key!r}")
        if key in _PACKET_ONLY and raw.get("initial") != "packet":
            raise ConfigError(
                f"{path}:{ln}: experiment {exp!r} reads key {key!r} only with initial = packet"
            )
    for key in EXPERIMENTS[exp].required:
        if key not in raw:
            raise ConfigError(f"{path}: experiment {exp!r} requires key {key!r}, which is not set")

    cfg = RunConfig(experiment=exp, raw=raw)
    if "alpha" in keys:
        try:
            cfg.params = ModelParams(**cfg.present(*_MODEL))
        except ParameterError as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from exc
    _check_run(cfg, path, line_of)
    return cfg


def run(cfg: RunConfig, out_dir, workers: int = 1) -> int:
    """Dispatch one experiment; returns the process exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    exp = cfg.experiment
    stem = exp.replace("-", "_")
    try:
        report = EXPERIMENTS[exp].runner(cfg, out_dir, workers)
    except (NonContractionError, MLOverflowError) as exc:
        record = {"experiment": exp, "error": type(exc).__name__, "message": str(exc)}
        (out_dir / f"{stem}_error.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wall = time.perf_counter() - t0
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
        "  delta = s+sigma-alpha < sigma/2 - 1/(2(p-1))",
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


def _worker_count(s: str) -> int:
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclat",
        description="Experiments for the lattice fractional Schrodinger equation with memory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, help="key = value configuration file")
        sp.add_argument("--out", default="out", help="output directory")
        if spec.fans_out:
            sp.add_argument(
                "--workers", type=_worker_count, default=1, help="threads that run the meshes"
            )
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
    return run(cfg, args.out, workers=getattr(args, "workers", 1))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

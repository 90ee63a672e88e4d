"""Outside-in span tracer for fraclat, and the per-layer metrics it yields.

The tracer never edits the package.  It replaces, for the duration of one
run, the names that each consumer module bound with ``from .x import y``:
wrapping ``fraclat.lattice.lambda_norm`` would miss every call, because the
solver calls its own binding ``fraclat.solver.lambda_norm``.  Each wrapped
call becomes a span (name, start, end, parent); the root span is the
``fraclat.cli.run`` call, so every span of a run nests under one parent.

Span names read ``<layer>.<what>``; the layer is one of the package's
modules (special, symbol, lattice, solver, harness, cli).
"""

from __future__ import annotations

import importlib
import statistics
import time


def _size(x) -> int:
    """Element count of an array argument (1 for a scalar)."""
    return int(getattr(x, "size", 1))


def _solve_extra(args, result) -> dict:
    # solve(params, grid, timegrid, f, ...): the horizon, and the sweeps taken
    # when the solve returned (a non-contracting one raises instead)
    return {"T": args[2].T, "sweeps": len(result.residuals) if result is not None else 0}


# (consumer module, bound name, span name, extra span fields from (args, result))
WRAPS = (
    ("fraclat.cli", "run_symbol_checks", "harness.run_symbol_checks", None),
    ("fraclat.cli", "run_ml_check", "harness.run_ml_check", None),
    ("fraclat.cli", "run_continuum_study", "harness.run_continuum_study", None),
    ("fraclat.harness", "solve", "solver.solve_lattice", _solve_extra),
    ("fraclat.harness", "solve_continuum_reference", "solver.solve_reference", _solve_extra),
    ("fraclat.harness", "ml_oracle", "special.ml_oracle", None),
    ("fraclat.harness", "ml_e", "special.ml_fast", None),
    ("fraclat.harness", "ml_ee", "special.ml_fast", None),
    ("fraclat.harness", "w_eval", "symbol.w_eval", lambda a, r: {"n": _size(a[1])}),
    ("fraclat.harness", "w_prime", "symbol.derivs", None),
    ("fraclat.harness", "w_second", "symbol.derivs", None),
    ("fraclat.harness", "find_xi0", "symbol.find_xi", None),
    ("fraclat.harness", "find_xi1", "symbol.find_xi", None),
    ("fraclat.harness", "normalization_constant", "symbol.norm_const", None),
    ("fraclat.harness", "normalization_constant_closed_form", "symbol.norm_const", None),
    ("fraclat.harness", "interp_linear", "lattice.error_norms", None),
    ("fraclat.harness", "norm_sobolev", "lattice.error_norms", None),
    ("fraclat.harness", "norm_lp", "lattice.error_norms", None),
    ("fraclat.harness", "lambda_norm", "lattice.error_norms", None),
    ("fraclat.solver", "ml_ee_grid", "special.ml_ee_grid", lambda a, r: {"n": _size(a[1])}),
    ("fraclat.solver", "ml_e_grid", "special.ml_e_grid", lambda a, r: {"n": _size(a[1])}),
    ("fraclat.solver", "w_on_dft_grid", "symbol.w_on_dft_grid", None),
    ("fraclat.solver", "lambda_norm", "lattice.lambda_norm_solver", None),
)

ROOT = "cli.run"


class Tracer:
    """Records spans in memory; ``install`` patches the consumer bindings."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None, "name": name}
            spans.append(span)
            stack.append(span["id"])
            result = None
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
                if extra is not None:
                    span.update(extra(args, result))

        return traced

    def install(self) -> None:
        for modname, attr, name, extra in WRAPS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, extra))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    def call_root(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span of this run."""
        return self._wrap(fn, ROOT, None)(*args, **kwargs)


# ---------------------------------------------------------------------------
# metrics from a finished span list (parent process side: stdlib only)
# ---------------------------------------------------------------------------


def _percentile(xs: list[float], p: int) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    out = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["t1"] - s["t0"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run, by metric name."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    points: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    oracle_ms = []
    sweeps = 0
    horizons = set()
    for s in spans:
        name = s["name"]
        total[name] = total.get(name, 0.0) + (s["t1"] - s["t0"])
        calls[name] = calls.get(name, 0) + 1
        points[name] = points.get(name, 0) + s.get("n", 0)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[s["id"]]
        if name == "special.ml_oracle":
            oracle_ms.append(1e3 * (s["t1"] - s["t0"]))
        if "sweeps" in s:
            sweeps += s["sweeps"]
            horizons.add(s["T"])
    return {
        "special.ml_ee_grid_s": total.get("special.ml_ee_grid", 0.0),
        "special.ml_ee_grid_points": points.get("special.ml_ee_grid", 0),
        "special.ml_e_grid_s": total.get("special.ml_e_grid", 0.0),
        "special.ml_e_grid_points": points.get("special.ml_e_grid", 0),
        "special.ml_oracle_s": total.get("special.ml_oracle", 0.0),
        "special.ml_oracle_calls": calls.get("special.ml_oracle", 0),
        "special.ml_oracle_call_p50_ms": _percentile(oracle_ms, 50),
        "special.ml_oracle_call_p97_ms": _percentile(oracle_ms, 97),
        "special.ml_fast_s": total.get("special.ml_fast", 0.0),
        "special.ml_fast_calls": calls.get("special.ml_fast", 0),
        "symbol.w_eval_s": total.get("symbol.w_eval", 0.0),
        "symbol.w_eval_points": points.get("symbol.w_eval", 0),
        "symbol.find_xi_s": total.get("symbol.find_xi", 0.0),
        "symbol.derivs_s": total.get("symbol.derivs", 0.0),
        "symbol.w_on_dft_grid_s": total.get("symbol.w_on_dft_grid", 0.0),
        "lattice.lambda_norm_solver_s": total.get("lattice.lambda_norm_solver", 0.0),
        "lattice.lambda_norm_solver_calls": calls.get("lattice.lambda_norm_solver", 0),
        "lattice.error_norms_s": total.get("lattice.error_norms", 0.0),
        "solver.self_s": layer_self.get("solver", 0.0),
        "solver.solve_lattice_s": total.get("solver.solve_lattice", 0.0),
        "solver.solve_reference_s": total.get("solver.solve_reference", 0.0),
        "solver.picard_sweeps": sweeps,
        "solver.horizon_shrinks": max(len(horizons) - 1, 0),
        "harness.self_s": layer_self.get("harness", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
    }


COUNTS = (
    "special.ml_ee_grid_points",
    "special.ml_e_grid_points",
    "special.ml_oracle_calls",
    "special.ml_fast_calls",
    "symbol.w_eval_points",
    "lattice.lambda_norm_solver_calls",
    "solver.picard_sweeps",
    "solver.horizon_shrinks",
)

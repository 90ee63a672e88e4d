"""Benchmark of fraclat's three long CLI experiments, run as a user runs them.

usage: python3 perfbench/run.py [--workload continuum|ml_check|symbol|all]
                                [--seed N] [--seconds S] [--trace 0|1]

Every repetition is a fresh interpreter (``child.py``) that imports fraclat
from this checkout's ``src``, parses the workload's config and calls
``fraclat.cli.run`` with one worker; nothing is warm from an earlier
repetition.  Repetitions run one at a time until ``--seconds`` of run time
have been measured (at least one).  Outputs go to a temporary directory
under ``.perfbench_tmp/`` in the checkout, are checked against the
acceptance tolerances (``workloads.check``), then deleted.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (config parsed to
report, CSV and manifest written), ``setup_s`` (process spawn to fraclat
imported and config parsed; extra set-up-only processes add samples) and
``peak_rss_mb`` of the run's process.  ``--trace 1`` follows each traced
repetition with a plain twin and reports the per-layer metrics of
``tracer.layer_metrics`` plus ``tracing.overhead_s``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics (medians).  The line before it carries the sample counts, every
sample, and the environment.  The exit code is 1 when any run failed its
check, 2 when the checkout holds no fraclat to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "demos" / "configs"
TMP = ROOT / ".perfbench_tmp"

DEADLINE_S = 170.0  # every invocation must end within 180 s
SETUP_PROBES = 4  # set-up-only processes per plain invocation
POLL_S = 0.02

UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    """A child process timed out, left no record or ran another fraclat."""


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: a machine-speed diagnostic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(nproc())
    return env


def run_child(config: Path, out_dir: Path, mode: str, deadline: float) -> dict:
    """Spawn child.py, wait for it, and return its record plus peak RSS.

    ``setup_s`` is measured from just before the spawn to the child's
    end-of-set-up stamp; both sides read CLOCK_MONOTONIC.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / "record.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(out_dir), str(record_path)]
    if mode:
        cmd.append(mode)
    pid = 0
    with open(out_dir / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=out_dir, stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise ChildFailed(f"timed out after {time.monotonic() - t_spawn:.1f} s")
                time.sleep(POLL_S)
        finally:
            if not pid:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    if not record_path.exists():
        tail = (out_dir / "child.log").read_text(errors="replace")[-2000:]
        raise ChildFailed(f"exit {proc.returncode} without a record:\n{tail}")
    record = json.loads(record_path.read_text())
    if not Path(record["fraclat_file"]).resolve().is_relative_to(SRC.resolve()):
        raise ChildFailed(f"imported fraclat from {record['fraclat_file']}, not {SRC}")
    record["setup_s"] = record["setup_end"] - t_spawn
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    record["exit"] = proc.returncode
    return record


def environment(seed: int) -> dict:
    files = sorted((SRC / "fraclat").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc(),
        "openblas_threads": nproc(),
        "git_commit": commit,
        "src_sha256": digest,
        "seed": seed,
    }


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


class Bench:
    """One invocation on one workload: repetitions, checks and samples."""

    def __init__(self, name: str, seed: int, seconds: float, tmp: Path):
        self.name = name
        self.config_text = workloads.make_config(name, (CONFIGS / f"{name}.cfg").read_text(), seed)
        self.config = tmp / f"{name}.cfg"
        self.config.write_text(self.config_text)
        self.seconds = seconds
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.samples: dict[str, list] = {}
        self.versions: dict = {}
        self._n = 0

    def add(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def setup_probe(self) -> None:
        self._n += 1
        try:
            rec = run_child(self.config, self.tmp / f"probe{self._n}", "--setup-only", self.deadline)
        except ChildFailed as exc:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{self.name}: set-up probe {exc}")
            return
        self.add("setup_s", rec["setup_s"])

    def repetition(self, mode: str = "") -> dict | None:
        """One checked run; returns its record, or None if it failed."""
        self._n += 1
        out = self.tmp / f"rep{self._n}"
        self.attempted += 1
        ref = reference_loop()
        try:
            rec = run_child(self.config, out, mode, self.deadline)
        except ChildFailed as exc:
            self.failed += 1
            self.problems.append(f"{self.name}: {exc}")
            return None
        bad = workloads.check(self.name, self.config_text, out)
        if rec["exit"] != 0:
            bad.insert(0, f"{self.name}: exit code {rec['exit']}")
        shutil.rmtree(out)
        self.versions = rec["versions"]
        self.add("reference_loop_s", ref)
        if bad:
            self.failed += 1
            self.problems += bad
            return None
        return rec

    def time_left(self, last_wall: float) -> bool:
        return time.monotonic() + 1.5 * last_wall + 5.0 < self.deadline

    def plain(self) -> dict:
        measured = 0.0
        while True:
            t0 = time.monotonic()
            rec = self.repetition()
            if rec is not None:
                measured += rec["run_s"]
                for key in ("run_s", "setup_s", "peak_rss_mb"):
                    self.add(key, rec[key])
            if measured >= self.seconds or rec is None or not self.time_left(time.monotonic() - t0):
                break
        for _ in range(SETUP_PROBES):
            if self.time_left(2.0):
                self.setup_probe()
        return {key: median(self.samples.get(key, [])) for key in UNITS}

    def traced(self) -> dict:
        """Traced repetitions, each followed by a plain twin when time allows."""
        measured = 0.0
        layers: list[dict] = []
        while True:
            t0 = time.monotonic()
            rec = self.repetition("--trace")
            if rec is None:
                break
            measured += rec["run_s"]
            self.add("traced_run_s", rec["run_s"])
            layers.append(tracer.layer_metrics(rec["spans"]))
            if not self.time_left(time.monotonic() - t0):
                break
            plain = self.repetition()
            if plain is None:
                break
            self.add("run_s", plain["run_s"])
            if measured >= self.seconds or not self.time_left(time.monotonic() - t0):
                break
        for key in tracer.COUNTS:
            if len({m[key] for m in layers}) > 1:
                self.failed += 1
                self.problems.append(f"{self.name}: count {key} differs between repetitions")
        out = {key: median([m[key] for m in layers]) for key in tracer.layer_metrics([])}
        if "run_s" in self.samples:
            out["tracing.overhead_s"] = median(self.samples["traced_run_s"]) - median(self.samples["run_s"])
        else:
            out["tracing.overhead_s"] = 0.0
            self.problems.append(f"{self.name}: no plain twin ran, tracing.overhead_s not measured")
        return out


def bench(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail line)."""
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP))
    try:
        b = Bench(name, seed, seconds, tmp)
        values = b.traced() if trace else b.plain()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = {k: UNITS.get(k) or per_layer_unit(k) for k in values}
    result = {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    detail = {
        "workload": name,
        "trace": trace,
        "fail_ratio": b.failed / b.attempted if b.attempted else 1.0,
        "sample_counts": {k: len(v) for k, v in b.samples.items()},
        "samples": b.samples,
        "problems": b.problems,
        "environment": {**environment(seed), **b.versions},
    }
    return result, detail


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    needed = [SRC / "fraclat" / "cli.py"] + [CONFIGS / f"{n}.cfg" for n in names]
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: no fraclat checkout around {HERE}: missing {missing}", file=sys.stderr)
        return 2

    ok = True
    for name in names:
        result, detail = bench(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and result["correct"]
        counts = detail["sample_counts"]
        print(f"[{name}] seed={args.seed} trace={args.trace} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"fail_ratio={detail['fail_ratio']:.3g}")
        for key, m in result["metrics"].items():
            n = counts.get(key, counts.get("traced_run_s" if args.trace else "run_s", 0))
            print(f"[{name}]   {key:34s} {m['value']:12.6g} {m['unit']:5s} (median of {n})")
        for problem in detail["problems"]:
            print(f"[{name}] problem: {problem}")
        print(json.dumps(detail))
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

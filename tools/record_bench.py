"""Record every benchmark metric of this checkout in one JSON file.

usage: python3 tools/record_bench.py OUT.json [--seed N]

Runs ``perfbench/run.py`` on every workload twice, with ``--trace 0`` (the
end-to-end metrics) and with ``--trace 1`` (the per-layer metrics), one
invocation after the other, and writes OUT.json:

    {"seed": N,
     "runs": {"<workload>": {"trace0": {"result": ..., "detail": ...},
                             "trace1": {"result": ..., "detail": ...}}}}

``result`` is run.py's last line for the workload: correct, attempted,
failed and the medians of its metrics.  ``detail`` is the line before it:
every sample, the sample counts, any check failures and the environment
(core count, library versions, git commit, hash of ``src/fraclat``, seed).
The exit code is run.py's worst exit code; OUT.json is written either way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
TIMEOUT_S = 1800.0  # run.py ends each workload within 180 s


def record(seed: int, trace: int) -> tuple[int, dict]:
    """One run.py invocation on every workload; returns (exit code, {workload: lines})."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    # run.py prints each workload's detail line, then its result line
    runs = {detail["workload"]: {"result": result, "detail": detail}
            for detail, result in zip(lines[::2], lines[1::2])}
    return done.returncode, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--seed", type=int, default=0, help="workload seed passed to run.py")
    args = parser.parse_args(argv)
    code = 0
    runs: dict = {}
    for trace in (0, 1):
        rc, by_workload = record(args.seed, trace)
        code = max(code, rc)
        for name, lines in by_workload.items():
            runs.setdefault(name, {})[f"trace{trace}"] = lines
    args.out.write_text(json.dumps({"seed": args.seed, "runs": runs}, indent=1, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

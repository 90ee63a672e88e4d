"""One fraclat CLI run in a fresh interpreter, as a user of ``fraclat`` runs it.

usage: python3 child.py CONFIG OUT_DIR RECORD_JSON [--trace | --setup-only]

Imports fraclat, parses CONFIG, then calls ``fraclat.cli.run`` with one
worker, so that the report, CSV and manifest land in OUT_DIR.  RECORD_JSON
receives the CLOCK_MONOTONIC time at which set-up ended (the parent knows
when it spawned this process), the wall time of the run, the versions of
the numeric stack and, with --trace, the spans of the run.  --setup-only
stops after set-up.  The exit code is the one ``fraclat.cli.run`` returns.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    config, out_dir, record_path = argv[1:4]
    mode = argv[4] if len(argv) > 4 else ""

    import fraclat
    from fraclat import cli

    cfg = cli.parse_config(config)
    setup_end = time.monotonic()

    import mpmath
    import numpy
    import scipy

    record = {
        "setup_end": setup_end,
        "fraclat_file": fraclat.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        },
    }
    code = 0
    if mode != "--setup-only":
        if mode == "--trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            t0 = time.perf_counter()
            code = tracer.call_root(cli.run, cfg, out_dir, workers=1)
            record["run_s"] = time.perf_counter() - t0
            tracer.uninstall()
            record["spans"] = tracer.spans
        else:
            t0 = time.perf_counter()
            code = cli.run(cfg, out_dir, workers=1)
            record["run_s"] = time.perf_counter() - t0
        record["exit"] = code
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))

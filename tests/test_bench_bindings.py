"""The names the benchmark's tracer wraps must stay bound in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves():
    # Tracer.install does getattr(module, name) for each entry of WRAPS and
    # fails on the first missing one
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPS
    missing = [
        f"{modname}.{attr}"
        for modname, attr, _, _ in tracer.WRAPS
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert missing == []

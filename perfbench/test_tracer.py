"""Self-test of the benchmark's tracer and checks on scaled-down configs.

Run from the checkout root (about 10 s):

    python3 -m unittest perfbench/test_tracer.py

Each scaled-down config runs traced in a fresh interpreter, exactly as the
benchmark runs a workload; the tests then check that the spans nest under
one root per run, that self times plus uncovered time add up to run_s, and
that the counts equal what the run's own report shows.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MINI = {
    "ml_check": "experiment = ml-check\nbetas = 0.75\nn_radii = 5\nr_max = 10.0\n",
    "continuum": (
        "experiment = continuum\nalpha = 1.5\nbeta = 0.85\np = 3\nsign = 1\ns = 0.25\n"
        "extent = 12.8\nh_list = 0.4, 0.2, 0.1\nh_ref = 0.025\nT = 0.4\nm_steps = 32\n"
        "tol = 1e-10\nratio_cap = 0.5\ninitial = gaussian\namplitude = 0.8\nwidth = 2.0\n"
    ),
    "symbol": "experiment = symbol\nalphas = 1.5\nbeta = 0.85\n",
}


def traced_run(tmp: Path, name: str, tag: str) -> tuple[dict, dict, Path]:
    """Run a mini config traced; returns (child record, report, output dir)."""
    cfg = tmp / f"{name}.cfg"
    cfg.write_text(MINI[name])
    out = tmp / f"{name}-{tag}"
    rec = run.run_child(cfg, out, "--trace", time.monotonic() + 120.0)
    report = json.loads(next(out.glob("*_report.json")).read_text())
    return rec, report, out


class TracedMiniRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.TMP.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP))
        cls.runs = {name: traced_run(cls.tmp, name, "a") for name in MINI}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_spans_nest_under_one_root(self):
        for name, (rec, _, _) in self.runs.items():
            spans = {s["id"]: s for s in rec["spans"]}
            roots = [s for s in spans.values() if s["parent"] is None]
            self.assertEqual([r["name"] for r in roots], [tracer.ROOT], name)
            for s in spans.values():
                p = spans.get(s["parent"])
                if p is not None:
                    self.assertTrue(p["t0"] <= s["t0"] <= s["t1"] <= p["t1"], (name, s["name"]))
            # siblings are sequential (one worker): no two overlap
            by_parent: dict = {}
            for s in spans.values():
                by_parent.setdefault(s["parent"], []).append(s)
            for kids in by_parent.values():
                kids.sort(key=lambda s: s["t0"])
                for a, b in zip(kids, kids[1:]):
                    self.assertLessEqual(a["t1"], b["t0"], name)

    def test_self_times_and_uncovered_sum_to_run_s(self):
        for name, (rec, _, _) in self.runs.items():
            root = next(s for s in rec["spans"] if s["parent"] is None)
            uncovered = rec["run_s"] - (root["t1"] - root["t0"])
            self.assertGreaterEqual(uncovered, 0.0, name)
            self.assertLess(uncovered, 0.01, name)
            total = sum(tracer.self_times(rec["spans"]).values()) + uncovered
            self.assertAlmostEqual(total, rec["run_s"], delta=1e-6, msg=name)
            m = tracer.layer_metrics(rec["spans"])
            layers = [m["solver.self_s"], m["harness.self_s"], m["cli.self_s"]]
            self.assertTrue(all(v >= 0.0 for v in layers), (name, layers))

    def test_counts_match_the_report(self):
        _, rep, _ = self.runs["ml_check"]
        m = tracer.layer_metrics(self.runs["ml_check"][0]["spans"])
        self.assertEqual(m["special.ml_oracle_calls"], 2 * 1 * 5)
        self.assertEqual(m["special.ml_oracle_calls"], 2 * rep["n_points"])
        self.assertEqual(m["special.ml_fast_calls"], 2 * rep["n_points"])
        self.assertEqual(m["solver.picard_sweeps"], 0)

        _, rep, _ = self.runs["continuum"]
        m = tracer.layer_metrics(self.runs["continuum"][0]["spans"])
        sweeps = sum(len(r) for r in rep["residuals"].values()) + len(rep["ref_residuals"])
        self.assertEqual(m["solver.picard_sweeps"], sweeps)
        # one residual norm per sweep plus the first iterate's norm per solve
        self.assertEqual(m["lattice.lambda_norm_solver_calls"], sweeps + 3 + 1)
        self.assertEqual(m["solver.horizon_shrinks"], 0)
        self.assertEqual(rep["T_used"], 0.4)
        self.assertGreater(m["special.ml_ee_grid_points"], 0)
        self.assertEqual(m["special.ml_oracle_calls"], 0)

        m = tracer.layer_metrics(self.runs["symbol"][0]["spans"])
        self.assertGreater(m["symbol.w_eval_points"], 0)
        self.assertEqual(m["special.ml_ee_grid_points"], 0)
        self.assertEqual(sum(s["name"] == "symbol.find_xi" for s in self.runs["symbol"][0]["spans"]), 2)

    def test_counts_repeat_exactly(self):
        for name in ("ml_check", "continuum"):
            again = tracer.layer_metrics(traced_run(self.tmp, name, "b")[0]["spans"])
            first = tracer.layer_metrics(self.runs[name][0]["spans"])
            for key in tracer.COUNTS:
                self.assertEqual(again[key], first[key], (name, key))

    def test_check_passes_good_output_and_flags_bad(self):
        for name, (_, _, out) in self.runs.items():
            self.assertEqual(workloads.check(name, MINI[name], out), [], name)
        _, rep, out = self.runs["ml_check"]
        rep = json.loads(json.dumps(rep))
        rep["results"][0]["max_rel_err_ml_ee"] = 2e-9
        (out / "ml_check_report.json").write_text(json.dumps(rep))
        self.assertTrue(workloads.check("ml_check", MINI["ml_check"], out))


class TracerInstall(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        sys.path.insert(0, str(run.SRC))
        import importlib

        before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.WRAPS}
        t = tracer.Tracer()
        t.install()
        patched = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.WRAPS}
        t.uninstall()
        after = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.WRAPS}
        self.assertEqual(after, before)
        self.assertTrue(all(patched[k] is not before[k] for k in before))


class Configs(unittest.TestCase):
    def test_seed_zero_is_the_committed_config(self):
        for name in workloads.NAMES:
            text = (run.CONFIGS / f"{name}.cfg").read_text()
            self.assertEqual(workloads.make_config(name, text, 0), text)

    def test_other_seeds_are_deterministic_and_keep_the_work(self):
        for name in workloads.NAMES:
            text = (run.CONFIGS / f"{name}.cfg").read_text()
            a = workloads.make_config(name, text, 7)
            self.assertEqual(a, workloads.make_config(name, text, 7))
            self.assertNotEqual(a, workloads.make_config(name, text, 8))
            base, new = workloads.parse(text), workloads.parse(a)
            self.assertEqual(base.keys(), new.keys())
            changed = {k for k in base if base[k] != new[k]}
            self.assertTrue(changed and changed <= set(workloads._JITTER[name]), (name, changed))


if __name__ == "__main__":
    unittest.main()

"""Config parsing, validation messages, run orchestration, determinism."""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fraclat
import fraclat.cli as cli
from fraclat.cli import ConfigError, describe, main, parse_config, run

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.cfg"))


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


MINIMAL_SYMBOL = """
# symbol sweep
experiment = symbol
alphas = 1.5
beta = 0.85
"""

MINIMAL_MASS = """
experiment = mass
alpha = 1.5
beta = 0.85
p = 3
h_list = 0.4, 0.2
extent = 12.8
T = 0.25
n_times = 8
initial = gaussian
width = 2.0
"""


SMALL_CONTINUUM = """
experiment = continuum
alpha = 1.5
beta = 0.85
extent = 12.8
h_list = 0.4, 0.2, 0.1
h_ref = 0.025
T = 0.4
m_steps = 16
amplitude = 0.8
initial = gaussian
width = 2.0
"""


def assert_rejected_at_line(tmp_path, capsys, exp, base, line, message):
    """base plus line fails to parse, naming that line, and main exits 2 before any output."""
    p = write(tmp_path, base + line + "\n")
    ln = base.count("\n") + 1
    with pytest.raises(ConfigError, match=rf"run\.cfg:{ln}: bad value for {re.escape(message)}"):
        parse_config(p)
    assert main([exp, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"run.cfg:{ln}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL_MASS))
        assert cfg.experiment == "mass"
        assert cfg.params.alpha == 1.5
        assert cfg.get("h_list") == [0.4, 0.2]

    def test_unknown_key_rejected_with_line(self, tmp_path):
        p = write(tmp_path, "experiment = mass\nalpha = 1.5\nbanana = 3\n")
        with pytest.raises(ConfigError, match=r":3: unknown key 'banana'"):
            parse_config(p)

    def test_workers_key_rejected(self, tmp_path):
        # the worker count is the --workers option, not a config key
        p = write(tmp_path, "experiment = symbol\nalphas = 1.5\nworkers = 2\n")
        with pytest.raises(ConfigError, match=r":3: unknown key 'workers'"):
            parse_config(p)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            parse_config(write(tmp_path, "# only a comment\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r":2: expected"):
            parse_config(write(tmp_path, "experiment = mass\nalpha 1.5\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write(tmp_path, "experiment = mass\nalpha = 1.5\nalpha = 1.6\n"))

    def test_admissibility_rejection_quotes_condition(self, tmp_path):
        # alpha = 1.2, beta = 0.6: sigma = 2, condition alpha > 1.5 fails
        p = write(
            tmp_path,
            "experiment = mass\nalpha = 1.2\nbeta = 0.6\nh_list = 0.4\nT = 0.1\n",
        )
        with pytest.raises(ConfigError, match=r"alpha > \(sigma\+1\)/2 fails: 1.2 <= 1.5"):
            parse_config(p)

    @pytest.mark.parametrize(
        "key, value, bad",
        [("tol", "nan", "nan"), ("T", "inf", "inf"), ("h_list", "0.4, -inf", "-inf"),
         ("betas", "0.6 NaN", "NaN")],
    )
    def test_non_finite_value_rejected(self, tmp_path, key, value, bad):
        p = write(tmp_path, f"{MINIMAL_SYMBOL}{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"'{key}': not a finite number: '{bad}'"):
            parse_config(p)

    @pytest.mark.parametrize(
        "exp, base, line, message",
        [("symbol", "experiment = symbol\n", "alphas =", "'alphas': no numbers in ''"),
         ("ml-check", "experiment = ml-check\n", "betas = ,", "'betas': no numbers in ','"),
         ("ml-check", "experiment = ml-check\n", "n_radii = 0",
          "'n_radii': must be at least 1, got 0"),
         ("continuum", SMALL_CONTINUUM.replace("h_list = 0.4, 0.2, 0.1\n", ""), "h_list = ",
          "'h_list': no numbers in ''"),
         ("mass", MINIMAL_MASS.replace("h_list = 0.4, 0.2\n", ""), "h_list = 0.4",
          "'h_list': mass needs at least 2 meshes, got 1"),
         ("smoothing", "experiment = smoothing\nalpha = 1.5\nbeta = 0.85\nextent = 12.8\n",
          "h_list = 0.4", "'h_list': smoothing needs at least 2 meshes, got 1"),
         ("continuum", SMALL_CONTINUUM.replace("h_list = 0.4, 0.2, 0.1\n", ""), "h_list = 0.4, 0.2",
          "'h_list': continuum needs at least 3 meshes, got 2")],
        ids=["alphas", "betas", "n_radii", "h_list", "mass-one-mesh", "smoothing-one-mesh",
             "continuum-two-meshes"],
    )
    def test_empty_sweep_rejected(self, tmp_path, capsys, exp, base, line, message):
        # an empty sweep would pass while checking nothing, and so would a
        # mass or smoothing sweep of one mesh; a continuum fit needs three
        assert_rejected_at_line(tmp_path, capsys, exp, base, line, message)

    @pytest.mark.parametrize(
        "exp, base, line, message",
        [("symbol", "experiment = symbol\n", "alphas = 1.5, 2.5",
          "'alphas': alpha must be in (1, 2), got 2.5"),
         ("symbol", MINIMAL_SYMBOL.replace("beta = 0.85\n", ""), "beta = 1.5",
          "'beta': beta must be in (0, 1], got 1.5"),
         ("symbol", MINIMAL_SYMBOL.replace("beta = 0.85\n", ""), "beta = -0.2",
          "'beta': beta must be in (0, 1], got -0.2"),
         ("ml-check", "experiment = ml-check\nn_radii = 3\n", "betas = 0.6, 0.3",
          "'betas': beta must be in (1/2, 1], got 0.3"),
         ("ml-check", "experiment = ml-check\n", "betas = 1.5",
          "'betas': beta must be in (1/2, 1], got 1.5"),
         ("ml-check", "experiment = ml-check\n", "r_max = -3",
          "'r_max': must be non-negative, got -3.0"),
         ("mass", MINIMAL_MASS.replace("n_times = 8\n", ""), "n_times = 1",
          "'n_times': must be at least 2, got 1"),
         ("solve", "experiment = solve\nalpha = 1.5\nbeta = 0.85\nh = 0.4\nT = 0.2\n",
          "m_steps = 1", "'m_steps': must be at least 2, got 1"),
         ("solve", "experiment = solve\nalpha = 1.5\nbeta = 0.85\nh = 0.4\nT = 0.2\n",
          "tol = 0", "'tol': must be positive, got 0.0"),
         ("continuum", SMALL_CONTINUUM, "tol = -1", "'tol': must be positive, got -1.0"),
         ("continuum", SMALL_CONTINUUM, "ratio_cap = 0", "'ratio_cap': must be positive, got 0.0")],
        ids=["alphas", "beta-high", "beta-negative", "betas-low", "betas-high", "r_max",
             "n_times", "m_steps", "tol-zero", "tol-negative", "ratio_cap"],
    )
    def test_out_of_range_rejected(self, tmp_path, capsys, exp, base, line, message):
        # the run would fail late (exit 1), hang in the oracle or check
        # outside the range its bounds hold on
        assert_rejected_at_line(tmp_path, capsys, exp, base, line, message)

    SOLVE = "experiment = solve\nalpha = 1.5\nbeta = 0.85\nT = 0.2\n"

    @pytest.mark.parametrize(
        "exp, base, line, message",
        [("solve", SOLVE, "h = 0.3", "'h': extent 51.2 is not an integer multiple of h = 0.3"),
         ("solve", SOLVE + "extent = 13.6\n", "h = 0.4",
          "'h': extent 13.6 / h = 0.4 gives 34 sites; the filter's 2h lattice needs a multiple of 4"),
         ("solve", SOLVE + "extent = 2.8\n", "h = 0.4",
          "'h': LatticeGrid: n_points must be even and >= 8, got 7"),
         ("mass", MINIMAL_MASS.replace("h_list = 0.4, 0.2\n", ""), "h_list = 0.4, 0.3",
          "'h_list': extent 12.8 is not an integer multiple of h = 0.3"),
         ("smoothing", "experiment = smoothing\nalpha = 1.5\nbeta = 0.85\nuse_filter = off\n"
          "extent = 13.6\n", "h_list = 0.4",
          "'h_list': extent 13.6 / h = 0.4 gives 34 sites"),
         ("continuum", SMALL_CONTINUUM.replace("h_list = 0.4, 0.2, 0.1\n", ""),
          "h_list = 0.4, 0.2, 0.2", "'h_list': repeats a mesh: [0.4, 0.2, 0.2]"),
         ("continuum", SMALL_CONTINUUM.replace("h_ref = 0.025\n", ""), "h_ref = 0.05",
          "'h_ref': h_ref must be at most min(h_list)/4 = 0.025, got 0.05"),
         ("continuum", SMALL_CONTINUUM.replace("h_ref = 0.025\n", ""), "h_ref = 0.0375",
          "'h_ref': extent 12.8 is not an integer multiple of h = 0.0375"),
         ("solve", SOLVE.replace("T = 0.2\n", "h = 0.4\n"), "T = 0", "'T': must be positive, got 0.0"),
         ("mass", MINIMAL_MASS.replace("width = 2.0\n", ""), "width = 0",
          "'width': must be positive, got 0.0")],
        ids=["h-divides", "filter-quarter", "too-few-sites", "h_list-divides", "smoothing-quarter",
             "h_list-repeats", "h_ref-quarter", "h_ref-divides", "T", "width"],
    )
    def test_lattice_fault_rejected(self, tmp_path, capsys, exp, base, line, message):
        # each failed when the run built its lattice, time grid or datum (exit 1)
        assert_rejected_at_line(tmp_path, capsys, exp, base, line, message)

    def test_unfiltered_lattice_needs_no_quarter(self, tmp_path):
        # without the filter, the solve and its datum never build the 2h lattice
        p = write(tmp_path, self.SOLVE + "extent = 13.6\nuse_filter = off\nh = 0.4\n")
        assert parse_config(p).raw["h"] == 0.4

    @pytest.mark.parametrize(
        "base, line, key, digits",
        [("experiment = ml-check\nbetas = 0.6\n", "r_max = 100", "r_max", 1201),
         ("experiment = ml-check\nn_radii = 2\n", "betas = 0.75, 0.55", "betas", 738)],
        ids=["r_max", "betas-at-default-r_max"],
    )
    def test_oracle_budget_rejected(self, tmp_path, capsys, base, line, key, digits):
        # r_max = 100 at beta = 0.6 ran for 120 s before the budget
        message = f"'{key}': the oracle would need {digits} digits"
        assert_rejected_at_line(tmp_path, capsys, "ml-check", base, line, message)

    def test_oracle_budget_leaves_room_for_the_benchmark(self, tmp_path):
        # the benchmark moves each committed beta by up to 0.002
        config = next(p for p in CONFIGS if p.stem == "ml_check").read_text()
        cfg = parse_config(write(tmp_path, config.replace("betas = 0.6,", "betas = 0.598,")))
        assert min(cfg.raw["betas"]) == 0.598

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(write(tmp_path, "experiment = frobnicate\n"))

    def test_subcommand_mismatch(self, tmp_path):
        p = write(tmp_path, MINIMAL_MASS)
        with pytest.raises(ConfigError, match="subcommand"):
            parse_config(p, experiment="symbol")

    @pytest.mark.parametrize("kind", ["foo", "packetX", "packet(0.0, 2.0, 1.5)"])
    def test_unknown_initial_kind_rejected(self, tmp_path, kind):
        p = write(tmp_path, f"{MINIMAL_SYMBOL}initial = {kind}\n")
        line = MINIMAL_SYMBOL.count("\n") + 1
        with pytest.raises(ConfigError, match=rf":{line}: bad value for 'initial': unknown initial data kind {re.escape(repr(kind))}"):
            parse_config(p)
        assert main(["symbol", "--config", str(p)]) == 2

    @pytest.mark.parametrize(
        "exp, base, extra",
        [("symbol", MINIMAL_SYMBOL, "h_list = 0.4, 0.2\neps = 0.01\n"),
         ("symbol", MINIMAL_SYMBOL, "alpha = 1.5\n"),
         ("ml-check", "experiment = ml-check\nbetas = 0.75\n", "use_filter = on\n"),
         ("mass", MINIMAL_MASS, "center = 1.0\n")],
        ids=["symbol-h_list", "symbol-alpha", "ml-check-use_filter", "gaussian-center"],
    )
    def test_unread_key_rejected(self, tmp_path, capsys, exp, base, extra):
        # the first line of extra is the first key the experiment does not read
        p = write(tmp_path, base + extra)
        line, key = base.count("\n") + 1, extra.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"run\.cfg:{line}: experiment '{exp}' .*key '{key}'"):
            parse_config(p)
        assert main([exp, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert f"run.cfg:{line}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "exp, key", [(exp, key) for exp, e in cli.EXPERIMENTS.items() for key in e.required]
    )
    def test_missing_required_key_rejected(self, tmp_path, capsys, exp, key):
        # the committed config without the key's line fails before any output
        config = next(p for p in CONFIGS if p.stem == exp.replace("-", "_")).read_text()
        lines = [line for line in config.splitlines() if line.split("=")[0].strip() != key]
        p = write(tmp_path, "\n".join(lines) + "\n")
        message = rf"run\.cfg: experiment '{exp}' requires key '{key}'"
        with pytest.raises(ConfigError, match=message):
            parse_config(p)
        assert main([exp, "--config", str(p), "--describe"]) == 2
        assert main([exp, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_delta_key_rejected(self, tmp_path):
        # delta = s + sigma - alpha is derived, never set
        p = write(tmp_path, MINIMAL_MASS + "delta = 0.3\n")
        with pytest.raises(ConfigError, match=r":12: unknown key 'delta'"):
            parse_config(p)

    def test_n_points_key_rejected(self, tmp_path):
        # the solve experiment's lattice is set by h and extent alone
        p = write(tmp_path, "experiment = solve\nalpha = 1.5\nbeta = 0.85\nn_points = 32\n")
        with pytest.raises(ConfigError, match=r":4: unknown key 'n_points'"):
            parse_config(p)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_config_parses_and_describes(path, capsys):
    cfg = parse_config(path)
    assert main([cfg.experiment, "--config", str(path), "--describe"]) == 0
    assert "admissibility conditions" in capsys.readouterr().out


def test_readme_key_table_matches_cli():
    text = README.read_text().split("### Keys per experiment", 1)[1].split("\n## ", 1)[0]
    groups = {
        name: tuple(re.findall(r"`(\w+)`", re.search(rf"\*{name}\* stands for (.*?)[:(]", text, re.S)[1]))
        for name in ("model", "initial data")
    }
    assert groups == {"model": cli._MODEL, "initial data": cli._INITIAL}
    rows = re.findall(r"^\| `([a-z-]+)` \| (.+) \| (.+) \| (yes|no) \|$", text, re.M)
    table = {}
    for exp, keys, required, workers in rows:
        names = ()
        for tok in keys.split(", "):
            names += groups[tok] if tok in groups else (tok.strip("`"),)
        table[exp] = (names, tuple(re.findall(r"`(\w+)`", required)), workers == "yes")
    assert table == {exp: (e.keys, e.required, e.fans_out) for exp, e in cli.EXPERIMENTS.items()}


def test_all_six_configs_committed():
    assert {p.stem for p in CONFIGS} == {"symbol", "mass", "smoothing", "continuum", "ml_check", "solve"}


# values of each parser's type, and how a config file spells them
_VALUES = {
    cli._parse_float: (st.floats(allow_nan=False, allow_infinity=False), repr),
    cli._parse_positive: (st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), repr),
    cli._parse_float_list: (
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
        lambda v: ", ".join(map(repr, v)),
    ),
    int: (st.integers(-10**6, 10**6), str),
    cli._parse_count: (st.integers(1, 10**6), str),
    cli._parse_steps: (st.integers(2, 10**6), str),
    # r_max, the one key of this type, up to 10: within the oracle's digit
    # budget at any beta in (1/2, 1]
    cli._parse_nonnegative: (st.floats(0.0, 10.0), repr),
    cli._parse_beta: (st.floats(0.0, 1.0, exclude_min=True), repr),
    cli._parse_alphas: (
        st.lists(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True), min_size=1, max_size=4),
        lambda v: ", ".join(map(repr, v)),
    ),
    cli._parse_ml_betas: (
        st.lists(st.floats(0.5, 1.0, exclude_min=True), min_size=1, max_size=4),
        lambda v: ", ".join(map(repr, v)),
    ),
    cli._parse_bool: (st.booleans(), lambda v: "true" if v else "off"),
    cli._parse_initial: (st.sampled_from(cli._INITIAL_KINDS), str),
}
_COMMENT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).map(lambda t: "#" + t)


# the keys whose admissible values depend on each other: the model keys,
# and the lattice keys, whose meshes must divide extent into a multiple of
# 4 sites.  An experiment that builds ModelParams gets the fixed admissible
# values of those it reads and the defaults of p, sign and s, while every
# other key it reads may take any value its parser accepts
_ADMISSIBLE = {"alpha": 1.5, "beta": 0.85, "extent": 12.8, "h": 0.4, "h_list": [0.4, 0.2, 0.1],
               "h_ref": 0.025}
_COUPLED = ("p", "sign", "s", *_ADMISSIBLE)


def free_keys(exp):
    """The keys of exp that a drawn config may set to any value their parser accepts."""
    keys = cli.EXPERIMENTS[exp].keys
    return [k for k in keys if "alpha" not in keys or k not in _COUPLED]


@st.composite
def config_files(draw):
    """(lines, values): the lines of a parseable file and the dict it must parse to."""
    exp = draw(st.sampled_from(list(cli.EXPERIMENTS)))
    keys = cli.EXPERIMENTS[exp].keys
    fixed = {k: v for k, v in _ADMISSIBLE.items() if k in keys} if "alpha" in keys else {}
    values = {"experiment": exp, **fixed}
    free = free_keys(exp)
    required = [k for k in cli.EXPERIMENTS[exp].required if k in free]
    drawn = draw(st.lists(st.sampled_from(free), unique=True, max_size=8))
    if "betas" in drawn and "r_max" not in drawn:
        # at the default r_max = 50, a beta near 1/2 needs more oracle digits
        # than the budget allows; a drawn r_max keeps any beta within it
        drawn.append("r_max")
    for key in required + [k for k in drawn if k not in required]:
        strategy, _ = _VALUES[cli._KEY_PARSERS[key]]
        values[key] = draw(strategy)
    if "center" in values or "freq" in values:
        values["initial"] = "packet"
    lines = []
    for key, value in values.items():
        spell = str if key == "experiment" else _VALUES[cli._KEY_PARSERS[key]][1]
        lines.extend(draw(st.lists(st.sampled_from(["", "   "]) | _COMMENT, max_size=2)))
        tail = draw(st.sampled_from(["", "  "]) | _COMMENT.map(lambda c: " " + c))
        lines.append(f"{key} = {spell(value)}{tail}")
    return lines, values


def _parse_lines(lines):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        return parse_config(path)


class TestConfigProperties:
    def test_drawn_keys_cover_every_parser_type(self):
        free = {k for exp in cli.EXPERIMENTS for k in free_keys(exp)}
        # int parses only p and sign, and the float list only h_list, which
        # are coupled; unread-key draws use them
        assert {cli._KEY_PARSERS[k] for k in free} | {int, cli._parse_float_list} == set(_VALUES)

    @settings(max_examples=80, deadline=None)
    @given(config_files())
    def test_round_trip(self, drawn):
        lines, values = drawn
        cfg = _parse_lines(lines)
        assert cfg.experiment == values["experiment"]
        assert cfg.raw == values

    @settings(max_examples=40, deadline=None)
    @given(config_files(), st.data())
    def test_line_without_equals_names_its_line(self, drawn, data):
        lines, _ = drawn
        i = data.draw(st.integers(0, len(lines)))
        bad = data.draw(st.text(st.characters(min_codepoint=33, max_codepoint=126,
                                              blacklist_characters="=#"), min_size=1, max_size=8))
        with pytest.raises(ConfigError, match=rf"run\.cfg:{i + 1}: expected 'key = value'"):
            _parse_lines(lines[:i] + [bad] + lines[i:])

    @settings(max_examples=40, deadline=None)
    @given(config_files(), st.data())
    def test_unknown_key_names_its_line(self, drawn, data):
        lines, _ = drawn
        i = data.draw(st.integers(0, len(lines)))
        key = data.draw(st.from_regex(r"[a-z_]{1,10}", fullmatch=True).filter(
            lambda k: k not in cli._KEY_PARSERS))
        with pytest.raises(ConfigError, match=rf"run\.cfg:{i + 1}: unknown key '{key}'"):
            _parse_lines(lines[:i] + [f"{key} = 1"] + lines[i:])

    @settings(max_examples=40, deadline=None)
    @given(config_files(), st.data())
    def test_unread_key_names_its_line(self, drawn, data):
        lines, values = drawn
        exp = values["experiment"]
        keys = cli.EXPERIMENTS[exp].keys
        packet = values.get("initial") == "packet"
        unread = [k for k in cli._KEY_PARSERS if k != "experiment"
                  and (k not in keys or k in cli._PACKET_ONLY and not packet)]
        key = data.draw(st.sampled_from(unread))
        strategy, spell = _VALUES[cli._KEY_PARSERS[key]]
        i = data.draw(st.integers(0, len(lines)))
        line = f"{key} = {spell(data.draw(strategy))}"
        with pytest.raises(ConfigError, match=rf"run\.cfg:{i + 1}: experiment '{exp}' .*key '{key}'"):
            _parse_lines(lines[:i] + [line] + lines[i:])

    @settings(max_examples=40, deadline=None)
    @given(config_files(), st.data())
    def test_duplicate_key_names_its_line(self, drawn, data):
        lines, _ = drawn
        setting = [j for j, line in enumerate(lines) if "=" in line.split("#", 1)[0]]
        j = data.draw(st.sampled_from(setting))
        i = data.draw(st.integers(j + 1, len(lines)))
        key = lines[j].split("=", 1)[0].strip()
        with pytest.raises(ConfigError, match=rf"run\.cfg:{i + 1}: duplicate key '{key}'"):
            _parse_lines(lines[:i] + [lines[j]] + lines[i:])


class TestDescribe:
    def test_margins_printed(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL_MASS))
        text = describe(cfg)
        assert "alpha > (sigma+1)/2" in text
        assert "margin" in text


class TestRun:
    def test_symbol_run_writes_reports(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL_SYMBOL))
        out = tmp_path / "out"
        code = run(cfg, out)
        assert code == 0
        report = json.loads((out / "symbol_report.json").read_text())
        assert report["pass"] is True
        assert (out / "symbol_data.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "symbol"

    def test_mass_run_deterministic_csv(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL_MASS))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(cfg, out1) == 0
        assert run(cfg, out2) == 0
        assert (out1 / "mass_data.csv").read_bytes() == (out2 / "mass_data.csv").read_bytes()

    def test_continuum_run_writes_reports(self, tmp_path):
        cfg_text = """
experiment = continuum
alpha = 1.5
beta = 0.85
extent = 25.6
h_list = 0.4, 0.2, 0.1
h_ref = 0.025
T = 1.0
m_steps = 8
linear_only = true
initial = gaussian
width = 2.0
"""
        cfg = parse_config(write(tmp_path, cfg_text))
        out = tmp_path / "cont"
        assert run(cfg, out) == 0
        report = json.loads((out / "continuum_report.json").read_text())
        assert report["monotone"] is True
        csv_lines = (out / "continuum_data.csv").read_text().splitlines()
        assert csv_lines[0] == "h,err_hs,err_l2,err_lambda"
        assert len(csv_lines) == 4

    def test_continuum_csv_same_for_any_worker_count(self, tmp_path):
        cfg = parse_config(write(tmp_path, SMALL_CONTINUUM))
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run(cfg, out1, workers=1) == 0
        assert run(cfg, out2, workers=2) == 0
        csv1 = (out1 / "continuum_data.csv").read_bytes()
        assert csv1 == (out2 / "continuum_data.csv").read_bytes()
        assert len(csv1.splitlines()) == 4

    def test_solve_reports_are_byte_identical(self, tmp_path):
        # the report holds results only; the run's wall time is in manifest.json
        cfg = parse_config(next(p for p in CONFIGS if p.stem == "solve"))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(cfg, out1) == 0
        assert run(cfg, out2) == 0
        for name in ("solve_report.json", "solve_data.csv", "trajectory.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_solve_run_writes_trajectory(self, tmp_path):
        cfg_text = """
experiment = solve
alpha = 1.5
beta = 0.85
h = 0.4
extent = 12.8
T = 0.2
m_steps = 16
initial = gaussian
width = 2.0
amplitude = 0.5
"""
        cfg = parse_config(write(tmp_path, cfg_text))
        out = tmp_path / "solve_out"
        assert run(cfg, out) == 0
        blob = (out / "trajectory.bin").read_bytes()
        from fraclat.lattice import field_from_bytes, norm_lp

        field, t0, offset = field_from_bytes(blob)
        assert t0 == 0.0
        assert field.grid.n_points == 32
        report = json.loads((out / "solve_report.json").read_text())
        assert report["m_steps"] == 16
        rows = (out / "solve_data.csv").read_text().splitlines()
        assert rows[0] == "t,l2_norm" and len(rows) == 18
        t, l2 = map(float, rows[1].split(","))
        assert t == 0.0 and l2 == pytest.approx(norm_lp(field, 2), rel=1e-15)
        assert max(report["residual_ratios"]) < 1.0


class TestRunFailures:
    OVERFLOW = """
experiment = solve
alpha = 1.5
beta = 0.85
p = 3
h = 0.1
extent = 25.6
T = 0.01
m_steps = 8
amplitude = 1e100
"""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_solve_is_an_error(self, tmp_path, capsys):
        # the Lambda_T norms overflow in sweep 1; this exited 0 with
        # "pass": true and residuals [inf]
        out = tmp_path / "out"
        assert main(["solve", "--config", str(write(tmp_path, self.OVERFLOW)), "--out", str(out)]) == 1
        record = json.loads((out / "solve_error.json").read_text())
        assert record["error"] == "NonContractionError"
        assert "sweep 1 overflowed the Lambda_T norm" in record["message"]
        assert not (out / "solve_report.json").exists()
        assert "sweep 1 overflowed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "stem, amplitude, stage",
        [("mass", "1e307", "propagated datum"), ("solve", "1.7e308", "datum")],
    )
    def test_datum_past_double_range_is_an_error(self, tmp_path, stem, amplitude, stage):
        # mass wrote NaN ratios and a "variation": NaN report and exited 1;
        # solve ended in a ValueError traceback
        committed = next(p for p in CONFIGS if p.stem == stem).read_text()
        text = re.sub(r"(?m)^amplitude = .*$", "", committed) + f"amplitude = {amplitude}\n"
        out = tmp_path / "out"
        assert main([stem, "--config", str(write(tmp_path, text)), "--out", str(out)]) == 1
        record = json.loads((out / f"{stem}_error.json").read_text())
        assert record["error"] == "NonContractionError"
        assert f"the linear flow is not finite: the {stage} left double range" in record["message"]
        assert sorted(f.name for f in out.iterdir()) == [f"{stem}_error.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_continuum_datum_past_double_range_fails_at_once(self, tmp_path, monkeypatch):
        # the study built this datum inside every solve and reran five horizons
        # that could not pass; now it names the datum before any solve
        calls = []
        for name in ("solve", "solve_continuum_reference"):
            monkeypatch.setattr(fraclat.harness, name, lambda *a, **k: calls.append(a))
        committed = next(p for p in CONFIGS if p.stem == "continuum").read_text()
        text = re.sub(r"(?m)^amplitude = .*$", "", committed) + "amplitude = 1.7e308\n"
        out = tmp_path / "out"
        assert main(["continuum", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 1
        record = json.loads((out / "continuum_error.json").read_text())
        assert record["error"] == "NonContractionError"
        assert record["message"].startswith("the reference datum or its spectrum left double range")
        assert sorted(f.name for f in out.iterdir()) == ["continuum_error.json"]
        assert calls == []

    def test_programming_error_is_not_a_run_failure(self, tmp_path, monkeypatch):
        # only the typed run-time errors become exit 1 and an error record
        def broken(*args, **kwargs):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "run_ml_check", broken)
        cfg = parse_config(write(tmp_path, "experiment = ml-check\nbetas = 0.75\n"))
        with pytest.raises(ValueError, match="a bug"):
            run(cfg, tmp_path / "out")
        assert not (tmp_path / "out" / "ml_check_error.json").exists()


class TestMain:
    def test_describe_flag(self, tmp_path, capsys):
        p = write(tmp_path, MINIMAL_MASS)
        code = main(["mass", "--config", str(p), "--describe"])
        assert code == 0
        assert "alpha > (sigma+1)/2" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        p = write(tmp_path, "experiment = mass\nalpha = 1.2\nbeta = 0.6\n")
        assert main(["mass", "--config", str(p)]) == 2

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2

    def test_packet_initial_parsing(self, tmp_path):
        cfg_text = """
experiment = solve
alpha = 1.5
beta = 0.85
h = 0.4
extent = 12.8
T = 0.1
m_steps = 8
initial = packet
center = 0.0
width = 2.0
freq = 1.5
amplitude = 0.4
"""
        cfg = parse_config(write(tmp_path, cfg_text))
        out = tmp_path / "pk"
        assert run(cfg, out) == 0


class TestWorkers:
    @pytest.mark.parametrize("exp", ["symbol", "ml-check", "solve"])
    def test_flag_only_where_the_run_fans_out(self, exp):
        cfg = next(p for p in CONFIGS if p.stem == exp.replace("-", "_"))
        with pytest.raises(SystemExit) as exc:
            main([exp, "--config", str(cfg), "--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-3", "two", "2"])
    def test_count_checked_before_the_run(self, tmp_path, monkeypatch, value):
        # the spy stands in for the sweep, so no thread starts either way
        spy = _Spy({"entries": [], "pass": True})
        monkeypatch.setattr(cli, "run_mass_uniformity", spy)
        argv = ["mass", "--config", str(write(tmp_path, MINIMAL_MASS)), "--out", str(tmp_path / "out"),
                "--workers", value]
        if value != "2":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2 and spy.kwargs is None
        else:
            assert main(argv) == 0 and spy.kwargs["workers"] == 2


class _Spy:
    """Stands in for a harness entry point and keeps the arguments of its call."""

    def __init__(self, report):
        self.report = report
        self.args = self.kwargs = None

    def __call__(self, *args, **kwargs):
        self.args, self.kwargs = args, kwargs
        return self.report


class TestForwarding:
    """cli.run hands a harness entry point only the keys its config sets."""

    MASS_OPTIONAL = "extent = 12.8\nT = 0.25\nn_times = 8\n"
    CONTINUUM_OPTIONAL = (
        "extent = 12.8\nT = 0.3\nm_steps = 16\nlinear_only = true\ntol = 1e-8\nratio_cap = 0.4\n"
    )

    @pytest.mark.parametrize("optional", [False, True])
    def test_mass(self, tmp_path, monkeypatch, optional):
        spy = _Spy({"entries": [], "pass": True})
        monkeypatch.setattr(cli, "run_mass_uniformity", spy)
        text = "experiment = mass\nalpha = 1.5\nbeta = 0.85\nh_list = 0.4, 0.2\n"
        text += self.MASS_OPTIONAL if optional else ""
        assert run(parse_config(write(tmp_path, text)), tmp_path / "out", workers=3) == 0
        expected = {"extent": 12.8, "T": 0.25, "n_times": 8} if optional else {}
        assert spy.kwargs == {**expected, "workers": 3}
        assert spy.args[1] == [0.4, 0.2]

    @pytest.mark.parametrize("optional", [False, True])
    def test_continuum(self, tmp_path, monkeypatch, optional):
        spy = _Spy({"pairs": [], "l2_errors": [], "lambda_errors": [], "pass": True})
        monkeypatch.setattr(cli, "run_continuum_study", spy)
        text = "experiment = continuum\nalpha = 1.5\nbeta = 0.85\nh_list = 0.4, 0.2, 0.1\nh_ref = 0.025\n"
        text += self.CONTINUUM_OPTIONAL if optional else ""
        assert run(parse_config(write(tmp_path, text)), tmp_path / "out") == 0
        expected = (
            {"extent": 12.8, "T": 0.3, "m_steps": 16, "linear_only": True, "tol": 1e-8, "ratio_cap": 0.4}
            if optional else {}
        )
        assert spy.kwargs == {**expected, "workers": 1}
        assert spy.args[1:3] == ([0.4, 0.2, 0.1], 0.025)


def test_import_loads_no_scipy():
    # the package runs on numpy and mpmath alone; scipy is a test dependency
    env = dict(os.environ, PYTHONPATH=str(Path(fraclat.__file__).resolve().parents[1]))
    code = "import sys, fraclat, fraclat.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

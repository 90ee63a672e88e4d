"""Config parsing, validation messages, run orchestration, determinism."""

import json

import pytest

from fraclat.cli import ConfigError, describe, main, parse_config, run


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

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(write(tmp_path, "experiment = frobnicate\n"))

    def test_subcommand_mismatch(self, tmp_path):
        p = write(tmp_path, MINIMAL_MASS)
        with pytest.raises(ConfigError, match="subcommand"):
            parse_config(p, experiment="symbol")


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
initial = packet(0.0, 2.0, 1.5)
amplitude = 0.4
"""
        cfg = parse_config(write(tmp_path, cfg_text))
        out = tmp_path / "pk"
        assert run(cfg, out) == 0

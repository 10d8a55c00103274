import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pointwave.runner import run_scenario
from pointwave.scenario import ConfigError, TimesPastHorizonWarning, parse_config

MINIMAL = """
name = stationary_demo
nonlinearity.kind = cubic
data.kind = stationary
data.q = 1.0
ode.t_final = 5.0
"""

LINEAR_SHORT = """
name = linear_short
nonlinearity.kind = linear
data.kind = bump
data.zeta0 = 0.4
data.zeta_dot0 = 0.25
ode.t_final = 3.0
report.energy_times = 1, 2
report.csv_rows = 31
snapshot.times = 1.0
"""


class TestParse:
    def test_minimal_with_defaults(self):
        s = parse_config(MINIMAL)
        assert s.name == "stationary_demo"
        assert s.data_kind == "stationary"
        assert s.q == 1.0
        assert s.t_final == 5.0
        assert s.rel_tol == 1e-11  # default
        assert s.oracle_enabled is False

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'colour'"):
            parse_config("name = x\ncolour = red\n")

    def test_syntax_error_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("name = x\n# fine\nnot a key value\n")

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigError, match="t_final"):
            parse_config("name = x\node.t_final = -5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("name = x\nname = y\n")

    def test_missing_name(self):
        with pytest.raises(ConfigError, match="name"):
            parse_config("data.q = 1\n")

    def test_lists_and_bools(self):
        s = parse_config(MINIMAL + "report.energy_times = 1, 2.5, 4\noracle.enabled = true\n")
        assert s.energy_times == (1.0, 2.5, 4.0)
        assert s.oracle_enabled is True

    def test_missing_profile_file(self, tmp_path):
        text = "name = x\ndata.kind = spline\ndata.phi_file = nope.txt\n"
        with pytest.raises(ConfigError, match="nope.txt"):
            parse_config(text, base_dir=tmp_path)

    def test_velocity_tail_rejected(self):
        # psi_t ~ tail_pi/(4 pi r) is not square-integrable: infinite energy
        with pytest.raises(ConfigError, match="tail_pi = 0.5: .*infinite kinetic energy"):
            parse_config(MINIMAL + "data.tail_pi = 0.5\n")

    def test_times_past_horizon_warn(self):
        with pytest.warns(TimesPastHorizonWarning, match=r"energy_times: 9 past ode.t_final = 5,"):
            s = parse_config(MINIMAL + "report.energy_times = 1, 9\n")
        assert s.energy_times == (1.0, 9.0)
        with pytest.warns(TimesPastHorizonWarning, match=r"snapshot.times: 6, 7.5 past"):
            parse_config(MINIMAL + "snapshot.times = 2, 5, 6, 7.5\n")

    def test_default_times_past_horizon_silent(self):
        # the defaults 10 and 20 exceed T = 5 but the config did not ask for them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_config(MINIMAL).energy_times == (1.0, 5.0, 10.0, 20.0)

    def test_non_confining_poly_rejected(self):
        # U = -z^2 / 2 and U = z^3 / 3 have no bounded sublevel sets
        for coeffs in ("0, -1", "0, 0, 1"):
            text = MINIMAL + f"nonlinearity.kind = poly\nnonlinearity.coefficients = {coeffs}\n"
            with pytest.raises(ConfigError, match=f"coefficients = {coeffs}: U is not confining"):
                parse_config(text.replace("nonlinearity.kind = cubic\n", ""))

    def test_reversed_negates_velocities(self):
        s = parse_config(LINEAR_SHORT)
        r = s.reversed()
        assert r.zeta_dot0 == -s.zeta_dot0
        assert r.pi_amplitude == -s.pi_amplitude
        assert r.tail_pi == -s.tail_pi


class TestRunScenario:
    def test_stationary_report(self, tmp_path):
        s = parse_config(MINIMAL)
        result = run_scenario(s, tmp_path / "out")
        assert result.ok, result.failures
        rep = result.report
        assert rep.q_plus == pytest.approx(1.0, abs=1e-9)
        assert rep.converged
        assert rep.energy_drift_rel <= 1e-10
        assert rep.lambda_margin > 0.0
        assert rep.huygens_max_abs == 0.0

    def test_artifacts_written(self, tmp_path):
        s = parse_config(LINEAR_SHORT)
        run_scenario(s, tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "zeta.csv").exists()
        assert (out / "field_t1.csv").exists()
        assert (out / "report.json").exists()

    def test_csv_format(self, tmp_path):
        s = parse_config(LINEAR_SHORT)
        run_scenario(s, tmp_path / "out")
        lines = (tmp_path / "out" / "zeta.csv").read_text().splitlines()
        assert lines[0] == "t,zeta,zeta_dot,lambda,F,H"
        assert len(lines) == 1 + 31
        num = r"-?\d\.\d{16}e[+-]\d{2}"
        assert re.fullmatch(",".join([num] * 6), lines[1])

    def test_json_schema_keys(self, tmp_path):
        s = parse_config(MINIMAL)
        run_scenario(s, tmp_path / "out")
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(data.keys()) == {
            "scenario",
            "q_plus",
            "converged",
            "F_residual",
            "energy_drift_rel",
            "huygens_max_abs",
            "lambda_margin",
            "oracle_rel_l2",
            "oracle_rel_l2_cone_excluded",
            "wall_seconds",
        }
        assert data["oracle_rel_l2"] is None

    def test_determinism(self, tmp_path):
        s = parse_config(LINEAR_SHORT)
        run_scenario(s, tmp_path / "a")
        run_scenario(s, tmp_path / "b")
        assert (tmp_path / "a" / "zeta.csv").read_bytes() == (
            tmp_path / "b" / "zeta.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "field_t1.csv").read_bytes() == (
            tmp_path / "b" / "field_t1.csv"
        ).read_bytes()
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        ra.pop("wall_seconds")
        rb.pop("wall_seconds")
        assert ra == rb

    def test_failed_check_reported(self, tmp_path):
        # far-too-short horizon: the amplitude cannot have settled yet
        text = """
name = too_short
nonlinearity.kind = cubic
data.kind = bump
data.zeta0 = 0.5
data.zeta_dot0 = 0.3
ode.t_final = 0.5
report.energy_times = 0.25
report.csv_rows = 5
"""
        result = run_scenario(parse_config(text), tmp_path / "out")
        assert not result.ok
        assert any("settle" in f for f in result.failures)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None, **env):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "pointwave", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


# a summary row of a scenario that ran, as perfbench/workload.py reads it
REPORT_ROW = re.compile(r"^(\S+): q_plus=.* \[(PASS|FAIL)\]$")
# F(zeta0) = 0.4, so phi_c(0) = 0.3 breaks the origin compatibility condition
BAD_AMPLITUDE = LINEAR_SHORT.replace("linear_short", "bad_amplitude") + "data.amplitude = 0.3\n"


class TestCli:
    def test_run_exit_zero(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(MINIMAL)
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "PASS" in proc.stdout
        assert (tmp_path / "out" / "stationary_demo" / "report.json").exists()

    def test_run_bad_config_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("name = x\nwhat = ever\n")
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "unknown key" in proc.stderr

    def test_run_velocity_tail_exit_two(self, tmp_path):
        cfg = tmp_path / "tail.cfg"
        cfg.write_text(LINEAR_SHORT + "data.tail_pi = -0.2\n")
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "config error: data.tail_pi = -0.2" in proc.stderr

    def test_run_non_confining_poly_exit_two(self, tmp_path):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(
            MINIMAL.replace("kind = cubic", "kind = poly") + "nonlinearity.coefficients = 0, -1\n"
        )
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "config error: nonlinearity.coefficients = 0, -1: U is not confining" in proc.stderr

    def test_run_domain_error_exit_three(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BAD_AMPLITUDE)
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3, proc.stderr + proc.stdout
        assert "Traceback" not in proc.stderr
        assert re.search(r"^bad_amplitude: ERROR CompatibilityError: phi_c\(0\) = 0\.3", proc.stderr)

    def test_time_reversal_flag(self, tmp_path):
        cfg = tmp_path / "fwd.cfg"
        cfg.write_text(LINEAR_SHORT)
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "rev"), "--T", "-3")
        assert proc.returncode == 0, proc.stderr + proc.stdout

        # the reversed run equals the forward run with negated velocity data
        manual = LINEAR_SHORT.replace("data.zeta_dot0 = 0.25", "data.zeta_dot0 = -0.25")
        cfg2 = tmp_path / "neg.cfg"
        cfg2.write_text(manual)
        proc2 = run_cli("run", str(cfg2), "--out", str(tmp_path / "neg"))
        assert proc2.returncode == 0
        a = (tmp_path / "rev" / "linear_short" / "zeta.csv").read_bytes()
        b = (tmp_path / "neg" / "linear_short" / "zeta.csv").read_bytes()
        assert a == b

    def test_suite(self, tmp_path):
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a_stationary.cfg").write_text(MINIMAL)
        (d / "b_linear.cfg").write_text(LINEAR_SHORT)
        proc = run_cli("suite", str(d), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "2/2 passed" in proc.stdout

    def test_suite_survives_refused_oracle(self, tmp_path):
        # cubic F' reaches -1 < -3/(8 pi h) at h = 0.25: the oracle refuses the
        # grid, which fails that scenario alone and names the step it needs
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a_stationary.cfg").write_text(MINIMAL)
        (d / "b_coarse.cfg").write_text(
            MINIMAL.replace("stationary_demo", "coarse_oracle")
            + "oracle.enabled = true\noracle.h = 0.25\n"
        )
        proc = run_cli("suite", str(d), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1, proc.stderr + proc.stdout
        assert "Traceback" not in proc.stderr
        assert "1/2 passed" in proc.stdout
        assert re.search(r"coarse_oracle: .*\[FAIL\]", proc.stdout)
        assert re.search(r"oracle failed: .*h < 1\.194e-01", proc.stdout)

    def test_suite_survives_domain_error(self, tmp_path):
        # the raising scenario gets an ERROR row, the other one still runs in
        # the pool and the summary is printed
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a_stationary.cfg").write_text(MINIMAL)
        (d / "b_bad.cfg").write_text(BAD_AMPLITUDE)
        proc = run_cli("suite", str(d), "--out", str(tmp_path / "out"), PW_THREADS="2")
        assert proc.returncode == 3, proc.stderr + proc.stdout
        assert "Traceback" not in proc.stderr
        rows = proc.stdout.splitlines()
        assert REPORT_ROW.match(rows[0]) and rows[0].startswith("stationary_demo: ")
        assert rows[1].startswith("bad_amplitude: ERROR CompatibilityError: phi_c(0) = 0.3")
        assert not REPORT_ROW.match(rows[1])
        assert rows[2] == "suite: 1/2 passed"

    def test_suite_reports_config_error(self, tmp_path):
        d = tmp_path / "suite"
        d.mkdir()
        (d / "a_stationary.cfg").write_text(MINIMAL)
        (d / "b_unknown.cfg").write_text("name = x\nwhat = ever\n")
        proc = run_cli("suite", str(d), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr + proc.stdout
        assert "b_unknown: ERROR ConfigError: line 2: unknown key 'what'" in proc.stdout
        assert "suite: 1/2 passed" in proc.stdout

    def test_suite_empty_dir(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        proc = run_cli("suite", str(d))
        assert proc.returncode == 2

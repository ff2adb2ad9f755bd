import argparse
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hermite_decay
from hermite_decay import cli_report, oscillator
from hermite_decay.cli_report import (
    DEFAULT_T_GRID,
    MODES,
    GridSpec,
    SweepConfig,
    SweepReport,
    build_parser,
    calibrate,
    compare_to_fixture,
    fixture_path,
    main,
    render,
    run,
    to_csv,
    to_json,
)
from hermite_decay.decay_sum import SumParams, envelope, find_nmax
from hermite_decay.hermite_core import hermite_exact
from oracles import naive_weighted_sum


def sum_config(**overrides):
    base = dict(
        mode="sum",
        x_grid=GridSpec(1.0, 5.0, 5),
        kappa=1.0,
        beta=0.25,
        y=0.5,
    )
    base.update(overrides)
    return SweepConfig(**base)


def config_echoes(config: SweepConfig) -> list[dict]:
    """The config echo of the JSON and of the CSV rendering of a report."""
    report = SweepReport(config, "0", config.fixture_id(), ("x", "error"), ())
    line = next(l for l in to_csv(report).splitlines() if l.startswith("# config="))
    return [json.loads(to_json(report))["config"], json.loads(line[len("# config="):])]


def field_values(config: SweepConfig) -> dict:
    """Every SweepConfig field with its value, as a JSON echo spells it."""
    want = {f.name: getattr(config, f.name) for f in fields(SweepConfig)}
    want["x_grid"] = {f.name: getattr(config.x_grid, f.name) for f in fields(GridSpec)}
    want["t_grid"] = list(config.t_grid)
    return want


def parse_csv(text: str):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader)
    return header, list(reader)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 5, log=True)
        with pytest.raises(ValueError):
            GridSpec(math.nan, 1.0, 5)

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf, True, "5", 1])
    def test_count_must_be_a_whole_number(self, count):
        # one rule for counts, hermite_core._whole_number: 2.5 used to pass
        # here and fail later in points()
        with pytest.raises(ValueError, match="x_grid.count must be a whole number >= 2"):
            GridSpec(1.0, 2.0, count)

    def test_takes_a_whole_float_count(self):
        spec = GridSpec(1.0, 2.0, 3.0)
        assert spec.count == 3 and isinstance(spec.count, int)
        assert np.allclose(spec.points(), [1.0, 1.5, 2.0])

    def test_points(self):
        lin = GridSpec(0.0, 1.0, 5).points()
        assert np.allclose(lin, [0.0, 0.25, 0.5, 0.75, 1.0])
        log = GridSpec(1.0, 100.0, 3, log=True).points()
        assert np.allclose(log, [1.0, 10.0, 100.0])

    def test_round_trip(self):
        # the config echo holds every grid field with its value
        spec = GridSpec(2.0, 50.0, 11, log=True)
        for echo in config_echoes(sum_config(x_grid=spec)):
            assert echo["x_grid"] == {"start": 2.0, "stop": 50.0, "count": 11, "log": True}


class TestSweepConfig:
    def test_mode_required_parameters(self):
        with pytest.raises(ValueError, match="kappa"):
            SweepConfig(mode="sum", x_grid=GridSpec(1.0, 2.0, 3), beta=0.0, y=1.0)
        with pytest.raises(ValueError, match="order"):
            SweepConfig(mode="eval", x_grid=GridSpec(1.0, 2.0, 3))
        with pytest.raises(ValueError, match="alpha"):
            SweepConfig(mode="oscillator", x_grid=GridSpec(1.0, 2.0, 3), n_terms=10,
                        t_grid=(0.0,))
        with pytest.raises(ValueError, match="t_grid"):
            SweepConfig(mode="oscillator", x_grid=GridSpec(1.0, 2.0, 3), alpha=0.5,
                        n_terms=10)
        with pytest.raises(ValueError, match="mode"):
            SweepConfig(mode="plot", x_grid=GridSpec(1.0, 2.0, 3))
        with pytest.raises(ValueError, match="format"):
            sum_config(fmt="xml")
        with pytest.raises(ValueError, match="jobs"):
            sum_config(jobs=0)
        with pytest.raises(ValueError):
            sum_config(kappa=-2.0)

    def test_round_trip_field_for_field(self):
        configs = [
            sum_config(),
            sum_config(mode="sharpness", x_grid=GridSpec(15.0, 60.0, 40, log=True),
                       y=1.0, out="r.csv", fmt="json", jobs=3, force=True),
            SweepConfig(mode="eval", x_grid=GridSpec(-5.0, 5.0, 21), order=7),
            SweepConfig(mode="oscillator", x_grid=GridSpec(0.0, 8.0, 80), alpha=0.5,
                        n_terms=400, t_grid=DEFAULT_T_GRID, fixture="osc"),
        ]
        for config in configs:
            for echo in config_echoes(config):
                assert echo == field_values(config)

    def test_fixture_id_stable_and_output_independent(self):
        a = sum_config()
        b = sum_config(out="elsewhere.csv", fmt="json", jobs=7)
        c = sum_config(y=0.75)
        assert a.fixture_id() == b.fixture_id()
        assert a.fixture_id() != c.fixture_id()

    @pytest.mark.parametrize("extra", [
        {"kappa": 1.0, "beta": 0.25},
        {"alpha": -3.0},
        {"order": 0},
        {"t_grid": (0.0,)},
    ])
    def test_rejects_fields_the_mode_does_not_read(self, extra):
        # fixture_id hashes every field, so these once keyed an nmax sweep
        # by values that it never read; the ids of the sweeps that pass stay
        grid = GridSpec(20.0, 60.0, 5)
        assert SweepConfig(mode="nmax", x_grid=grid, y=0.5).fixture_id() == "40d9818304ed"
        name = next(iter(extra))
        with pytest.raises(ValueError, match=f"mode nmax does not read {name}"):
            SweepConfig(mode="nmax", x_grid=grid, y=0.5, **extra)


class TestRun:
    def test_eval_rows(self):
        config = SweepConfig(mode="eval", x_grid=GridSpec(-2.0, 2.0, 5), order=3)
        report = run(config)
        assert report.columns == ("x", "sign", "log_magnitude", "value", "error")
        assert len(report.rows) == 5
        assert not report.error_rows
        for row in report.rows:
            want = hermite_exact(3, row[0])
            assert row[1] == want.sign
            assert row[3] == pytest.approx(want.to_float(), rel=1e-14, abs=1e-300)

    def test_sum_matches_naive_oracle(self):
        report = run(sum_config(x_grid=GridSpec(1.0, 3.0, 3)))
        row = report.rows[-1]
        assert row[0] == 3.0
        assert row[1] == pytest.approx(naive_weighted_sum(3.0, 1.0, 0.25, 0.5), rel=1e-10)

    def test_envelope_power_column_vanishes_at_quarter_beta(self):
        config = sum_config(mode="envelope", x_grid=GridSpec(2.0, 40.0, 6))
        report = run(config)
        power = report.columns.index("x_power")
        assert all(row[power] == 0.0 for row in report.rows)
        value = report.columns.index("value")
        params = SumParams(1.0, 0.25, 0.5)
        for row in report.rows:
            assert row[value] == pytest.approx(
                envelope(row[0], params).to_float(), rel=1e-14, abs=1e-300
            )

    def test_nmax_rows_and_errors(self):
        config = SweepConfig(mode="nmax", x_grid=GridSpec(3.0, 30.0, 4), y=0.25)
        report = run(config)
        assert len(report.rows) == 4
        assert report.error_rows == [0]
        good = report.rows[-1]
        profile = find_nmax(30.0, 0.25)
        assert good[1] == pytest.approx(profile.n_max, rel=1e-12)
        assert "ValueError" in report.rows[0][-1]

    def test_sharpness_summary(self):
        config = sum_config(mode="sharpness", y=1.0,
                            x_grid=GridSpec(15.0, 40.0, 8, log=True))
        report = run(config)
        assert len(report.rows) == 8
        assert set(report.summary) == {"slope", "ratio_min", "ratio_max",
                                       "restricted_ratio_min"}
        assert abs(report.summary["slope"]) < 0.05

    def test_sharpness_bad_grid_raises(self):
        config = sum_config(mode="sharpness", y=0.25, x_grid=GridSpec(2.0, 6.0, 4))
        with pytest.raises(ValueError):
            run(config)

    def test_envelope_past_double_range_keeps_its_log(self):
        # ln envelope is about 709.9 here, just past ln(DBL_MAX): the value
        # reads inf, the log stays, and the row records no error
        config = sum_config(mode="envelope", beta=-140.0,
                            x_grid=GridSpec(15.1965, 15.1966, 2))
        report = run(config)
        assert not report.error_rows
        params = SumParams(1.0, -140.0, 0.5)
        for row in report.rows:
            assert row[1] == math.inf
            assert row[2] == envelope(row[0], params).logmag
            assert 709.78 < row[2] < 710.0

    def test_oscillator_grid_product(self, monkeypatch):
        builds = []
        original = oscillator.basis_values

        def counting(xs, n_top):
            builds.append(len(xs))
            return original(xs, n_top)

        monkeypatch.setattr(oscillator, "basis_values", counting)
        config = SweepConfig(mode="oscillator", x_grid=GridSpec(0.0, 2.0, 3),
                             alpha=0.5, n_terms=100, t_grid=(0.0, 0.25, 0.5))
        report = run(config)
        # one basis over the whole x grid serves every t
        assert builds == [3]
        assert len(report.rows) == 9
        # x outer, t inner ordering
        assert [(r[0], r[1]) for r in report.rows[:4]] == [
            (0.0, 0.0), (0.0, 0.25), (0.0, 0.5), (1.0, 0.0)]
        re_col = report.columns.index("phi_re")
        flip = {(r[0], r[1]): r[re_col] for r in report.rows}
        for x in (0.0, 1.0, 2.0):
            assert flip[(x, 0.5)] == pytest.approx(-flip[(x, 0.0)], rel=1e-12)
        assert report.summary["decay_constant"] > 0.0

    def test_oscillator_table_failure_marks_every_cell(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("table failed")

        monkeypatch.setattr(cli_report, "evolve_grid", failing)
        config = SweepConfig(mode="oscillator", x_grid=GridSpec(0.0, 2.0, 3),
                             alpha=0.5, n_terms=20, t_grid=(0.0, 0.5))
        report = run(config)
        assert report.error_rows == list(range(6))
        assert [(r[0], r[1]) for r in report.rows[:3]] == [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0)]
        for row in report.rows:
            assert row[-1] == "RuntimeError: table failed"
            assert all(math.isnan(v) for v in row[2:-1])

    def test_deterministic_and_jobs_invariant(self):
        config = sum_config(x_grid=GridSpec(1.0, 30.0, 12), jobs=1)
        text_serial = render(run(config))
        text_again = render(run(config))
        assert text_serial == text_again
        parallel = sum_config(x_grid=GridSpec(1.0, 30.0, 12), jobs=4)
        # jobs is execution detail: strip the config echo before comparing
        body = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
        assert body(render(run(parallel))) == body(text_serial)


class TestFormats:
    def test_csv_full_precision_round_trip(self):
        report = run(sum_config(x_grid=GridSpec(1.0, 7.0, 4)))
        header, rows = parse_csv(to_csv(report))
        value = header.index("value")
        for text_row, row in zip(rows, report.rows):
            assert float(text_row[value]) == row[1]

    def test_csv_uses_crlf_and_17_digits(self):
        report = run(sum_config(x_grid=GridSpec(1.0, 2.0, 2)))
        text = to_csv(report)
        assert "\r\n" in text
        header, rows = parse_csv(text)
        mantissa = rows[0][header.index("value")].split("e")[0]
        digits = mantissa.replace("-", "").replace(".", "")
        assert len(digits) == 17

    def test_log_column_survives_underflow(self):
        # at x = 60, y = 0.5 the sum is e^(-831): value column underflows
        # to 0, the log-magnitude column keeps the number readable
        report = run(sum_config(x_grid=GridSpec(59.0, 60.0, 2)))
        header, rows = parse_csv(to_csv(report))
        value = float(rows[1][header.index("value")])
        log_mag = float(rows[1][header.index("log_magnitude")])
        assert value == 0.0
        assert -840.0 < log_mag < -820.0

    def test_json_document(self):
        report = run(sum_config(fmt="json", x_grid=GridSpec(1.0, 4.0, 3)))
        doc = json.loads(to_json(report))
        assert doc["config"]["mode"] == "sum"
        assert doc["columns"] == ["x", "value", "log_magnitude", "error"]
        assert len(doc["rows"]) == 3
        assert doc["config"] == field_values(report.config)

    def test_json_handles_nonfinite(self):
        config = SweepConfig(mode="nmax", x_grid=GridSpec(3.0, 30.0, 3), y=0.25,
                             fmt="json")
        doc = json.loads(to_json(run(config)))
        assert doc["rows"][0][1] == "nan"


class TestFixtures:
    def fixture_config(self, **overrides):
        base = dict(mode="sharpness", y=1.0, x_grid=GridSpec(15.0, 40.0, 6, log=True))
        base.update(overrides)
        return sum_config(**base)

    def test_calibrate_writes_fixture(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HERMITE_DECAY_FIXTURE_DIR", str(tmp_path))
        path = calibrate(self.fixture_config())
        assert os.path.dirname(path) == str(tmp_path)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["mode"] == "sharpness"
        assert len(doc["data"]["ratio"]) == 6
        assert "slope" in doc["summary"]

    def test_calibrate_rejects_pointwise_modes(self):
        with pytest.raises(ValueError):
            calibrate(sum_config())

    def test_overwrite_protection(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HERMITE_DECAY_FIXTURE_DIR", str(tmp_path))
        calibrate(self.fixture_config())
        with pytest.raises(FileExistsError):
            calibrate(self.fixture_config())
        calibrate(self.fixture_config(force=True))

    def test_refreeze_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HERMITE_DECAY_FIXTURE_DIR", str(tmp_path))
        path = calibrate(self.fixture_config())
        first = Path(path).read_bytes()
        calibrate(self.fixture_config(force=True))
        assert Path(path).read_bytes() == first

    def test_compare_detects_perturbation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HERMITE_DECAY_FIXTURE_DIR", str(tmp_path))
        path = calibrate(self.fixture_config())
        with open(path) as handle:
            fixture = json.load(handle)
        clean = run(self.fixture_config())
        assert compare_to_fixture(clean, fixture) == []
        # a 1% envelope perturbation blows through the ratio band
        perturbed = run(self.fixture_config(y=1.01))
        problems = compare_to_fixture(perturbed, fixture)
        assert problems
        assert any("ratio" in p for p in problems)

    def test_compare_detects_grid_change(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HERMITE_DECAY_FIXTURE_DIR", str(tmp_path))
        path = calibrate(self.fixture_config())
        with open(path) as handle:
            fixture = json.load(handle)
        other = run(self.fixture_config(x_grid=GridSpec(16.0, 40.0, 6, log=True)))
        assert compare_to_fixture(other, fixture) == ["x grid differs from fixture"]

    def test_fixture_path_resolution(self, monkeypatch):
        monkeypatch.setenv("HERMITE_DECAY_FIXTURE_DIR", "/some/dir")
        assert fixture_path("band") == "/some/dir/band.json"
        assert fixture_path("explicit/file.json") == "explicit/file.json"
        monkeypatch.delenv("HERMITE_DECAY_FIXTURE_DIR")
        assert fixture_path("band") == os.path.join("fixtures", "band.json")


class TestMainExitCodes:
    def test_success(self, capsys):
        rc = main(["sum", "--x-min", "1", "--x-max", "3", "--x-count", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "x,value,log_magnitude,error" in out

    def test_config_error(self, capsys):
        rc = main(["sum", "--kappa", "-1", "--x-min", "1", "--x-max", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error" in err and "kappa" in err

    def test_sharpness_bad_grid_is_config_error(self, capsys):
        rc = main(["sharpness", "--y", "0.25", "--x-min", "2", "--x-max", "6",
                   "--x-count", "4"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_numeric_failure(self, capsys):
        rc = main(["nmax", "--y", "0.25", "--x-min", "3", "--x-max", "30",
                   "--x-count", "4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "numeric failure" in captured.err
        assert "ValueError" in captured.out  # embedded in the row, not hidden

    def test_nmax_infinite_y_is_config_error(self, capsys):
        # as for sum: y must be finite, not a row error at every point
        rc = main(["nmax", "--y", "inf", "--x-min", "20", "--x-max", "30",
                   "--x-count", "3"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error" in err and "y must be finite and positive" in err

    def test_sum_past_the_largest_order_is_a_row_error(self, capsys):
        rc = main(["sum", "--x-min", "1", "--x-max", "1e6", "--x-count", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        first, last = captured.out.splitlines()[-2:]
        assert first.endswith(",") and "ValueError" not in first
        assert "ValueError" in last and "analysis cutoff" in last

    def test_module_entry_point_runs_without_warnings(self):
        # `python -m hermite_decay.cli_report` must not find the module
        # already imported by the package, which runpy reports as a
        # RuntimeWarning
        src = os.path.dirname(os.path.dirname(hermite_decay.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hermite_decay.cli_report",
             "envelope", "--x-min", "2", "--x-max", "3", "--x-count", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "x,value,log_magnitude,x_power,error" in proc.stdout

    def test_eval_order_flag(self, capsys):
        rc = main(["eval", "--order", "3", "--x-min", "-1", "--x-max", "1",
                   "--x-count", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        want = hermite_exact(3, 1.0).to_float()
        assert f"{want:.16e}" in out

    def test_out_file_and_determinism(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        argv = ["sum", "--x-min", "1", "--x-max", "10", "--x-count", "6",
                "--out", str(target)]
        assert main(argv) == 0
        first = target.read_bytes()
        assert main(argv) == 0
        assert target.read_bytes() == first
        assert capsys.readouterr().out == ""

    def test_fixture_mismatch_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HERMITE_DECAY_FIXTURE_DIR", str(tmp_path))
        base = ["--kappa", "1", "--beta", "0.25", "--x-min", "15", "--x-max", "40",
                "--x-count", "6", "--x-log"]
        assert main(["calibrate", "sharpness", "--y", "1.0", *base]) == 0
        name = os.path.basename(capsys.readouterr().out.strip())[:-5]
        out = str(tmp_path / "run.csv")
        rc = main(["sharpness", "--y", "1.0", *base, "--fixture", name, "--out", out])
        assert rc == 0
        rc = main(["sharpness", "--y", "1.01", *base, "--fixture", name, "--out", out])
        assert rc == 3
        assert "fixture mismatch" in capsys.readouterr().err

    def test_calibrate_overwrite_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HERMITE_DECAY_FIXTURE_DIR", str(tmp_path))
        argv = ["calibrate", "nmax", "--y", "0.5", "--x-min", "20", "--x-max", "60",
                "--x-count", "5"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert "--force" in capsys.readouterr().err
        assert main([*argv, "--force"]) == 0

    @pytest.mark.parametrize("argv,message", [
        (["sum", "--x-min", "1"], "required: --x-max"),
        (["sum", "--x-min", "1", "--x-max", "2", "--alpha", "1"], "unrecognized arguments"),
        (["oscillator", "--x-min", "0", "--x-max", "1", "--t-grid", "0,x"], "bad t-grid"),
    ])
    def test_usage_error_is_config_error(self, argv, message, capsys):
        # exit 2 means a numeric failure, so a usage error exits 1
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error" in err and message in err

    def test_calibrate_rejects_fixture(self, tmp_path, capsys):
        # calibrate writes a fixture and compares against none
        out = tmp_path / "f.json"
        rc = main(["calibrate", "nmax", "--y", "0.5", "--x-min", "20", "--x-max", "60",
                   "--x-count", "5", "--fixture", "absent", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error" in err and "--fixture" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["calibrate", "nmax", "--y", "0.5", "--format", "json"], "--format"),
        (["nmax", "--y", "0.5", "--force"], "--force"),
        (["sum", "--force"], "--force"),
    ])
    def test_flags_that_would_act_nowhere_are_usage_errors(self, argv, flag, tmp_path, capsys):
        # calibrate always writes JSON, and only calibrate overwrites
        out = tmp_path / "f.out"
        rc = main([*argv, "--x-min", "20", "--x-max", "60", "--x-count", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error" in err and flag in err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["sum", "--help"], ["calibrate", "nmax", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            assert "usage:" in capsys.readouterr().out

    def test_oscillator_at_large_alpha(self, tmp_path):
        # tanh(2 alpha) rounds to 1 here; the coefficients need ln rho = -4 alpha
        argv = ["oscillator", "--alpha", "12", "--x-min", "0", "--x-max", "2",
                "--x-count", "3", "--out", str(tmp_path / "osc.csv")]
        assert main(argv) == 0

    def test_nmax_on_a_symmetric_grid_fails_only_at_zero(self, tmp_path):
        config = SweepConfig(mode="nmax", x_grid=GridSpec(-30.0, 30.0, 5), y=0.5)
        report = run(config)
        assert report.error_rows == [2]
        assert report.rows[0][1:] == report.rows[-1][1:]
        assert report.rows[1][1:] == report.rows[-2][1:]
        rc = main(["nmax", "--y", "0.5", "--x-min", "-30", "--x-max", "30", "--x-count", "5",
                   "--out", str(tmp_path / "nmax.csv")])
        assert rc == 2

    def test_missing_fixture_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HERMITE_DECAY_FIXTURE_DIR", str(tmp_path))
        rc = main(["sum", "--x-min", "1", "--x-max", "2", "--x-count", "2",
                   "--fixture", "absent", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "cannot read fixture" in capsys.readouterr().err


class TestCheckedInFixtures:
    """The calibration files under tests/fixtures reproduce on a fresh run.

    These are the frozen reference sweeps the package ships with; a
    mismatch means numerical behavior drifted since they were cut.
    """

    FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

    def test_sharpness_default_reproduces(self, tmp_path):
        rc = main([
            "sharpness", "--kappa", "1", "--beta", "0.25", "--y", "0.5",
            "--x-min", "15", "--x-max", "60", "--x-count", "40", "--x-log",
            "--fixture", os.path.join(self.FIXTURE_DIR, "sharpness-default.json"),
            "--out", str(tmp_path / "sharpness.csv"),
        ])
        assert rc == 0

    def test_nmax_y05_reproduces(self, tmp_path):
        rc = main([
            "nmax", "--y", "0.5",
            "--x-min", "20", "--x-max", "200", "--x-count", "46",
            "--fixture", os.path.join(self.FIXTURE_DIR, "nmax-y05.json"),
            "--out", str(tmp_path / "nmax.csv"),
        ])
        assert rc == 0


class TestModeTable:
    """Each mode's flags, calibrate's sub-parsers and fixture ids follow MODES."""

    # the flags besides the mode's own fields, per kind of parser
    GRID = {"help", "x_min", "x_max", "x_count", "x_log", "out", "jobs"}
    SWEEP = GRID | {"fmt", "fixture"}
    CALIBRATE = GRID | {"force"}
    FIELDS = {
        "eval": {"order"},
        "sum": {"kappa", "beta", "y"},
        "envelope": {"kappa", "beta", "y"},
        "nmax": {"y"},
        "sharpness": {"kappa", "beta", "y"},
        "oscillator": {"alpha", "n_terms", "t_grid"},
    }

    @staticmethod
    def subparsers(parser: argparse.ArgumentParser) -> dict:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_each_parser_offers_exactly_its_mode_fields(self):
        commands = self.subparsers(build_parser())
        frozen = self.subparsers(commands["calibrate"])
        assert set(commands) == set(self.FIELDS) | {"calibrate"}
        assert set(frozen) == {"nmax", "sharpness"}
        assert {name for name, mode in MODES.items() if mode.frozen} == set(frozen)
        for name, want in self.FIELDS.items():
            assert set(MODES[name].parameters) == want
            assert {a.dest for a in commands[name]._actions} == self.SWEEP | want
            if name in frozen:
                assert {a.dest for a in frozen[name]._actions} == self.CALIBRATE | want

    def test_calibrate_nmax_keeps_the_report_fixture_id(self, tmp_path):
        grid = ["--y", "0.5", "--x-min", "20", "--x-max", "200", "--x-count", "46"]
        fixture = tmp_path / "nmax.json"
        report = tmp_path / "nmax.csv"
        assert main(["calibrate", "nmax", *grid, "--out", str(fixture)]) == 0
        assert main(["nmax", *grid, "--out", str(report)]) == 0
        doc = json.loads(fixture.read_text())
        assert f"# fixture_id={doc['fixture_id']}" in report.read_text().splitlines()
        assert doc["config"]["kappa"] is None and doc["config"]["beta"] is None
        assert main(["nmax", *grid, "--fixture", str(fixture), "--out", str(report)]) == 0

    def test_calibrate_nmax_rejects_sum_flags(self, tmp_path, capsys):
        rc = main(["calibrate", "nmax", "--kappa", "1", "--y", "0.5", "--x-min", "20",
                   "--x-max", "60", "--x-count", "5", "--out", str(tmp_path / "f.json")])
        assert rc == 1
        assert "--kappa" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()


def readme_cli_commands() -> list[list[str]]:
    """The argument lists of the hermite-decay lines of the README's CLI block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cli = readme[readme.index("## CLI"):]
    block = cli[cli.index("```sh"):cli.index("```", cli.index("```sh") + 5)]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("hermite-decay ")]


def test_readme_cli_commands_run(tmp_path):
    """Every hermite-decay line of the README's CLI block runs and exits 0."""
    commands = readme_cli_commands()
    assert len(commands) >= 3
    for i, command in enumerate(commands):
        assert main([*command, "--out", str(tmp_path / f"readme-{i}.out")]) == 0, command


def test_readme_cli_commands_load_no_mpmath(tmp_path):
    """numpy is the only runtime dependency: in a fresh interpreter, the
    package and the README's sum, sharpness and oscillator runs leave
    mpmath unloaded (the benchmark's set-up and memory figures rely on it
    too)."""
    commands = [c for c in readme_cli_commands() if c[0] in ("sum", "sharpness", "oscillator")]
    assert sorted(c[0] for c in commands) == ["oscillator", "sharpness", "sum"]
    script = (
        "import json, sys\n"
        "import hermite_decay\n"
        "from hermite_decay import cli_report\n"
        "codes = [cli_report.main(c) for c in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'mpmath' in sys.modules]))\n"
    )
    argv = [[*c, "--out", str(tmp_path / f"{c[0]}.out")] for c in commands]
    src = os.path.dirname(os.path.dirname(hermite_decay.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0], False]

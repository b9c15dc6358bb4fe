import json
import math

import numpy as np
import pytest

from gravatom import cli, specfun
from gravatom.cli import main
from gravatom.lindblad import MAX_STEPS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRates:
    def test_basic_json(self, capsys):
        code, out, err = run_cli(
            capsys, "rates", "--omega", "2.0", "--phi", "-0.05", "--distance", "1.0"
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["omega_g"]) == pytest.approx(1.9, rel=1e-11)
        assert float(payload["ratio"]) == pytest.approx(1.0574229772770817, rel=1e-10)
        assert float(payload["gamma_plus"]) == 0.0

    def test_number_format(self, capsys):
        _, out, _ = run_cli(capsys, "rates", "--omega", "1.0", "--phi", "0.0")
        payload = json.loads(out)
        for value in payload.values():
            float(value)
            mantissa = value.split("e")[0]
            assert len(mantissa.replace("-", "").replace(".", "")) == 12

    def test_missing_omega(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--phi", "-0.01")
        assert code == 2
        assert "omega required" in err

    def test_phi_and_mass_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "rates", "--omega", "1.0", "--phi", "-0.01", "--mass", "0.01"
        )
        assert code == 2
        assert "not both" in err

    def test_mass_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--omega", "1.0", "--mass", "0.05", "--distance", "1.0"
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["omega_g"]) == pytest.approx(0.95, rel=1e-11)

    def test_deterministic(self, capsys):
        argv = ("rates", "--omega", "1.3", "--phi", "-0.02", "--temperature", "0.8")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_regime_gate_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--omega", "1.0", "--phi", "-0.5")
        assert code == 2
        assert "error:" in err


class TestSweep:
    def test_default_two_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--points", "50")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# phi=")
        assert lines[1] == "x,ratio_parallel,ratio_perpendicular"
        assert len(lines) == 52
        first = [float(v) for v in lines[2].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == pytest.approx(1e-2)
        assert last[0] == pytest.approx(1e2)
        # plateaus of the parallel ratio at phi = -0.05
        assert first[1] == pytest.approx(0.65, abs=5e-3)
        assert last[1] == pytest.approx(0.95, abs=5e-3)

    def test_angle_explicit_single_column(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--points", "10", "--angle", "0.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "x,ratio"

    def test_flat_space_is_unity(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--points", "20", "--phi", "0.0")
        for line in out.strip().splitlines()[2:]:
            _, par, perp = (float(v) for v in line.split(","))
            assert par == 1.0
            assert perp == 1.0

    def test_linear_grid(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--points", "3", "--linear", "--x-min", "1", "--x-max", "3"
        )
        xs = [float(line.split(",")[0]) for line in out.strip().splitlines()[2:]]
        assert xs == pytest.approx([1.0, 2.0, 3.0])

    def test_bad_grid(self, capsys):
        for grid in (
            ("--x-min", "5", "--x-max", "1"),
            ("--x-min", "0", "--x-max", "1"),
            ("--linear", "--x-min=-1", "--x-max", "1"),
        ):
            code, out, err = run_cli(capsys, "sweep", *grid)
            assert code == 2
            assert out == ""
            assert "x_min" in err

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "sweep.svg"
        code, out, _ = run_cli(
            capsys, "sweep", "--points", "30", "--format", "svg", "--out", str(target)
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert out == ""

    def test_out_file_csv(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--points", "5", "--out", str(target))
        assert code == 0
        assert target.read_text().splitlines()[1].startswith("x,")

    def test_huge_x_gives_finite_rows(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--x-max", "1e300", "--points", "3")
        assert code == 0
        assert err == ""
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[2:]]
        assert len(rows) == 3
        assert all(math.isfinite(v) for row in rows for v in row)
        # f1 -> 3 and f2 -> 0: the ratio plateau 1 + phi at phi = -0.05
        assert rows[-1][1:] == pytest.approx([0.95, 0.95], rel=1e-12)

    def test_one_rate_bracket_call_per_chunk(self, capsys, monkeypatch):
        calls = []
        f1 = specfun.f1

        def counting(x):
            calls.append(np.shape(x))
            return f1(x)

        monkeypatch.setattr(specfun, "f1", counting)
        points = 5000
        for extra in ((), ("--angle", "0.4"), ("--format", "svg")):
            calls.clear()
            code, out, _ = run_cli(capsys, "sweep", "--points", str(points), *extra)
            assert code == 0
            assert len(calls) <= -(-points // cli.SWEEP_CHUNK)
            assert sum(shape[0] for shape in calls) == points


class TestConfig:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 2.0, "phi": -0.05}))
        code, out, _ = run_cli(capsys, "rates", "--config", str(cfg))
        assert code == 0
        assert float(json.loads(out)["omega_g"]) == pytest.approx(1.9, rel=1e-11)

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 2.0, "phi": -0.05}))
        _, out, _ = run_cli(capsys, "rates", "--config", str(cfg), "--omega", "1.0")
        assert float(json.loads(out)["omega_g"]) == pytest.approx(0.95, rel=1e-11)

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 1.0, "frobnicate": True}))
        code, _, err = run_cli(capsys, "rates", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--omega", "1.0", "--config", "/no/such.json")
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for text in (
            "{not json",
            '{"omega": "1"}',
            '{"omega": true}',
            '{"distance": null}',
            '{"distance": 1e999999}',
            '{"omega": 1' + "0" * 400 + "}",
            '{"steps": 2.5}',
            '{"log_grid": 1}',
            "[1, 2]",
        ):
            cfg.write_text(text)
            code, out, _ = run_cli(capsys, "rates", "--omega", "1.0", "--config", str(cfg))
            assert code == 2, text
            assert out == ""

    def test_integer_config_value_is_a_float(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 2, "phi": -0.05}))
        _, from_config, _ = run_cli(capsys, "rates", "--config", str(cfg))
        _, from_flags, _ = run_cli(capsys, "rates", "--omega", "2", "--phi", "-0.05")
        assert from_config == from_flags


class TestOverflow:
    def test_rates_huge_omega_is_a_usage_error(self, capsys):
        for flags in (("--omega", "1e300"), ("--omega", "1.0", "--dipole", "1e200")):
            code, out, err = run_cli(capsys, "rates", *flags)
            assert code == 2
            assert out == ""
            assert "flat rate overflows" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--omega", "1e100", "--temperature", "1e300"),  # n_B gamma_g
            ("--omega", "1e-300", "--temperature", "1e10"),  # n_B itself
            ("--omega", "1.0", "--dipole", "4.3e150", "--temperature", "1e8"),  # Gamma
        ],
    )
    def test_rates_thermal_overflow_is_a_usage_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "rates", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "overflows" in err
        assert "Traceback" not in err

    def test_evolve_steps_cap(self, capsys):
        for steps in (10**20, MAX_STEPS + 1):
            code, out, err = run_cli(
                capsys, "evolve", "--omega", "1.0", "--steps", str(steps)
            )
            assert code == 2
            assert out == ""
            assert str(MAX_STEPS) in err


class TestEvolve:
    def test_trajectory_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--omega", "1.0", "--phi", "-0.02", "--steps", "100"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,rho_ee,rho_gg,abs_rho_eg,trace_error,analytic_rho_ee"
        assert len(lines) == 102
        final = [float(v) for v in lines[-1].split(",")]
        # default span is 5 relaxation times from the excited state
        assert final[1] == pytest.approx(math.exp(-5.0), rel=1e-6)
        assert final[1] == pytest.approx(final[5], abs=1e-8)
        trace_errors = [abs(float(line.split(",")[4])) for line in lines[1:]]
        assert max(trace_errors) <= 1e-12

    def test_initial_mixed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evolve", "--omega", "1.0", "--phi", "0.0",
            "--initial", "mixed:0.3", "--t-max", "0.5", "--steps", "50",
        )
        assert code == 0
        first = [float(v) for v in out.strip().splitlines()[1].split(",")]
        assert first[1] == pytest.approx(0.3)

    def test_bad_initial(self, capsys):
        for initial, message in (
            ("sideways", "unknown initial state"),
            ("mixed:abc", "mixed:p needs a number"),
            ("mixed:nan", "p_excited"),
        ):
            code, out, err = run_cli(
                capsys, "evolve", "--omega", "1.0", "--initial", initial
            )
            assert code == 2
            assert out == ""
            assert message in err


# Command line for each flag; `--flag=value` so that argparse does not read
# "-inf" as an option.
NONFINITE_FLAGS = [
    ("omega", ("rates",)),
    ("phi", ("rates", "--omega=1.0")),
    ("temperature", ("rates", "--omega=1.0")),
    ("distance", ("rates", "--omega=1.0")),
    ("dipole", ("rates", "--omega=1.0")),
    ("mass", ("rates", "--omega=1.0")),
    ("angle", ("rates", "--omega=1.0")),
    ("t-max", ("evolve", "--omega=1.0")),
    ("x-max", ("sweep",)),
    ("x-min", ("sweep", "--linear")),
    ("angle", ("sweep",)),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag, argv", NONFINITE_FLAGS)
def test_nonfinite_input_is_a_usage_error(capsys, flag, argv, value):
    code, out, err = run_cli(capsys, *argv, f"--{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.fixture(scope="module")
def verify_output():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify"])
    return code, buf.getvalue()


class TestVerify:
    def test_passes(self, verify_output):
        code, out = verify_output
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True

    def test_record_schema(self, verify_output):
        _, out = verify_output
        for rec in json.loads(out)["checks"]:
            assert set(rec) >= {
                "name", "paper_ref", "computed", "reference", "tolerance", "pass",
            }

    def test_fault_injection(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--f1-offset", "0.05")
        assert code == 1
        assert json.loads(out)["all_pass"] is False

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravatom import cli, rates, specfun
from gravatom.cli import MAX_STEPS, main
from gravatom.errors import RegimeError
from gravatom.lindblad import DensityMatrix2, relaxation
from gravatom.model import NUMBER, AtomSpec, GravityEnv
from gravatom.rates import build_rate_set, rate_bracket
from gravatom.rows import EVOLVE_BLOCK, ROW_CHUNK, SWEEP_BLOCK, sweep_chunks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_flags(settings):
    """The command-line flags for ``settings`` keyed by namespace dest."""
    argv = []
    for key, value in settings.items():
        if key == "log_grid":
            argv.append("--log" if value else "--linear")
        else:
            # `--flag=value`, so that argparse does not read "-0.02" as an option.
            argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def parser_actions(mode):
    """The actions of ``mode``'s subparser, less ``--help``."""
    (subparsers,) = (a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    return [a for a in subparsers.choices[mode]._actions if a.dest != "help"]


def setting_keys(mode):
    """The settings of ``mode``: its subparser's dests, less ``out``."""
    return {a.dest for a in parser_actions(mode)} - {"out"}


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
        assert err == "error: the following arguments are required: --omega\n"

    def test_phi_and_mass_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "rates", "--omega", "1.0", "--phi", "-0.01", "--mass", "0.01"
        )
        assert code == 2
        assert err == "error: argument --mass: not allowed with argument --phi\n"

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

    @pytest.mark.filterwarnings("ignore:.*first-order corrections are no longer small")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("rates", "--omega", "1e-3", "--phi", "-0.15"), "bracket"),
            (("evolve", "--omega", "1e-3", "--phi", "-0.2"), "bracket"),
            (("rates", "--omega", "1", "--dipole", "0"), "no dissipation"),
            (("rates", "--omega", "1e200", "--distance", "1e200"), "requires finite x"),
        ],
        ids=["negative-bracket", "evolve-negative-bracket", "no-dissipation", "x-overflow"],
    )
    def test_refused_generator(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--omega", "1"],
        ["sweep", "--points", "5"],
        ["evolve", "--omega", "1", "--t-max", "1", "--steps", "100"],
    ],
    ids=["rates", "sweep", "evolve"],
)
def test_soft_phi_gate_warns_once(capsys, argv):
    # Every call that warns is recorded, not only the first per location.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(capsys, *argv, "--phi", "-0.2")
    assert code == 0
    soft = [w for w in caught if "first-order corrections are no longer small" in str(w.message)]
    assert len(soft) == 1


def test_soft_phi_gate_warning_names_cli_on_the_mass_route(capsys):
    # As with --phi, the warning names the line in `cli` that builds the
    # environment, not a line inside `model`.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(capsys, "rates", "--omega", "1", "--mass", "0.2")
    assert code == 0
    assert [w.filename for w in caught] == [cli.__file__]


@pytest.mark.parametrize("source", [("--phi", "-0.15"), ("--mass", "0.15")], ids=["phi", "mass"])
def test_soft_phi_gate_prints_one_warning_line(capsys, source):
    # A fresh interpreter, as the console script runs: in process, pytest
    # records the warning instead of printing it.
    argv = ["rates", "--omega", "1", *source]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gravatom.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: |phi| = 0.15 > 0.1: first-order corrections are no longer small\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert proc.stdout == run_cli(capsys, *argv)[1]


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

    def test_angle_must_lie_in_0_pi(self, capsys):
        # The rule `rates` and `evolve` apply to the dipole angle.
        for angle in ("5", "-1"):
            code, out, err = run_cli(capsys, "sweep", "--points", "3", f"--angle={angle}")
            assert (code, out) == (2, "")
            assert err == f"error: angle must lie in [0, pi], got {float(angle)}\n"
        for angle in ("0", repr(math.pi)):
            code, out, err = run_cli(capsys, "sweep", "--points", "3", "--angle", angle)
            assert (code, err) == (0, "")
            assert out.splitlines()[1] == "x,ratio"

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
        for grid, message in (
            (("--x-min", "5", "--x-max", "1"), "x_min"),
            (("--x-min", "0", "--x-max", "1"), "x_min"),
            (("--linear", "--x-min=-1", "--x-max", "1"), "x_min"),
            (("--points", "1"), "points must be >= 2"),
            (("--points", str(cli.MAX_POINTS + 1)), f"points must be <= {cli.MAX_POINTS}"),
            # Refused before the grid step (x_max - x_min) / (n - 1) overflows.
            (("--points", "1" + "0" * 400), f"points must be <= {cli.MAX_POINTS}"),
        ):
            code, out, err = run_cli(capsys, "sweep", *grid)
            assert code == 2
            assert out == ""
            assert message in err

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

    @pytest.mark.parametrize("log_grid", [True, False], ids=["log", "linear"])
    def test_x_column_bit_for_bit(self, log_grid):
        # Several chunks: the array-built grid equals the per-point Python
        # floats exactly, with math.exp (not np.exp) on the log grid.
        points, x_min, x_max = 5000, 0.03, 70.0
        args = SimpleNamespace(points=points, x_min=x_min, x_max=x_max, log_grid=log_grid)
        chunks = list(sweep_chunks(cli._sweep_grid(args), log_grid, -0.05, (0.0, 1.0)))
        assert len(chunks) == -(-points // ROW_CHUNK)
        xs = np.concatenate([xs for xs, _ in chunks]).tolist()
        if log_grid:
            log_min = math.log(x_min)
            step = (math.log(x_max) - log_min) / (points - 1)
            expected = [math.exp(log_min + i * step) for i in range(points)]
        else:
            step = (x_max - x_min) / (points - 1)
            expected = [x_min + i * step for i in range(points)]
        assert xs == expected

    def test_svg_of_a_linear_grid(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--format", "svg", "--linear", "--x-min", "0", "--x-max", "1",
            "--points", "3",
        )
        assert (code, err) == (0, "")
        assert "x = RΩ (linear scale)" in out
        # Equally spaced points sit at equal distances on a linear axis.
        first = re.search(r'<polyline points="([^"]*)"', out).group(1)
        assert [float(p.split(",")[0]) for p in first.split()] == [60.0, 320.0, 580.0]

    def test_svg_of_a_grid_too_narrow_to_resolve(self, capsys):
        # log(x_max) - log(x_min) rounds to 0: every point is the same x.
        code, out, err = run_cli(
            capsys, "sweep", "--format", "svg", "--x-min", "1e300",
            "--x-max", "1.0000000000000002e300", "--points", "3",
        )
        assert (code, err) == (0, "")
        assert out.startswith("<svg")

    def test_one_rate_bracket_call_per_block(self, capsys, monkeypatch):
        calls = []
        f1 = specfun.f1

        def counting(x):
            calls.append(np.shape(x))
            return f1(x)

        monkeypatch.setattr(specfun, "f1", counting)
        points = 5000
        # The SVG plot reads the blocks once for its ranges and once per curve.
        for extra, passes in (((), 1), (("--angle", "0.4"), 1), (("--format", "svg"), 3),
                              (("--format", "svg", "--angle", "0.4"), 2)):
            calls.clear()
            code, out, _ = run_cli(capsys, "sweep", "--points", str(points), *extra)
            assert code == 0
            assert len(calls) == passes * -(-points // SWEEP_BLOCK)
            assert sum(shape[0] for shape in calls) == passes * points

    # Fewer SVG points: each costs ~30 us under tracemalloc, and a plot that
    # gathers the whole grid holds ~200 bytes a point, which 18_000 more show.
    @pytest.mark.parametrize("fmt, points", [("csv", 20_000), ("svg", 2_000)], ids=["csv", "svg"])
    def test_memory_is_flat_in_points(self, tmp_path, fmt, points):
        # Blocks of points are built, written and freed in turn, so ten times
        # the points may not raise the traced peak by more than 1.5 MB.
        def peak(points):
            tracemalloc.start()
            try:
                argv = ["sweep", "--format", fmt, "--points", str(points)]
                assert main(argv + ["--out", str(tmp_path / f"sweep.{fmt}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(points // 10)  # warm-up: builds the formatter's tables
        assert peak(10 * points) - peak(points) <= 1.5 * 2**20


# Settings every run below has besides the setting under test.
BASE_SETTINGS = {
    "rates": {"omega": 1.0},
    "sweep": {"points": 20},
    "evolve": {"omega": 1.0, "steps": 60},
    "verify": {},
}
SOURCE_VALUES = {
    "phi": (-0.02, -0.03),
    "mass": (0.02, 0.03),
    "distance": (2.0, 1.5),
}
ATOM_VALUES = {
    "omega": (1.5, 2.0),
    "dipole": (0.5, 2.0),
    "angle": (0.7, 0.2),
    "temperature": (0.5, 0.3),
}
# Every setting of every subcommand, with a value and another value;
# `verify` has none.
SETTING_VALUES = {
    "rates": dict(SOURCE_VALUES, **ATOM_VALUES),
    "sweep": dict(
        SOURCE_VALUES, angle=ATOM_VALUES["angle"], format=("svg", "csv"), x_min=(0.1, 0.2),
        x_max=(20.0, 30.0), points=(7, 9), log_grid=(False, True),
    ),
    "evolve": dict(
        SOURCE_VALUES, **ATOM_VALUES, t_max=(2.0, 3.0), steps=(70, 80),
        initial=("ground", "mixed:0.3"),
    ),
    "verify": {},
}
SETTING_CASES = [(mode, key) for mode in sorted(SETTING_VALUES) for key in sorted(SETTING_VALUES[mode])]


class TestConfig:
    """Each setting of each subcommand, given by its flag."""

    @pytest.mark.parametrize("mode", sorted(SETTING_VALUES))
    def test_cases_cover_every_key(self, mode):
        assert set(SETTING_VALUES[mode]) == setting_keys(mode)

    @pytest.mark.parametrize("mode, key", SETTING_CASES, ids=[f"{m}-{k}" for m, k in SETTING_CASES])
    def test_every_setting_changes_the_output(self, capsys, mode, key):
        settings = dict(BASE_SETTINGS[mode])
        if key in ("angle", "distance"):
            # R and psi enter only the first-order terms, which vanish at
            # phi = 0; `sweep` reads R only through phi = -M/R.
            settings["mass"] = 0.02
        base = [mode] + as_flags(settings)
        runs = [run_cli(capsys, *base, *as_flags({key: v})) for v in SETTING_VALUES[mode][key]]
        assert [code for code, _, _ in runs] == [0, 0], runs
        assert runs[0][1] != runs[1][1]


# Each subcommand with a valid input, the formats it takes a --format for,
# and formats it does not write.  Only `sweep` writes more than one format,
# so only it has a --format flag.
FORMAT_CASES = {
    "rates": (["rates", "--omega", "1.0"], (), ("json", "csv", "svg", "xml")),
    "sweep": (["sweep", "--points", "5"], ("csv", "svg"), ("json", "xml")),
    "evolve": (["evolve", "--omega", "1.0", "--steps", "60"], (), ("csv", "json", "svg", "xml")),
    "verify": (["verify"], (), ("json", "csv", "svg", "xml")),
}


class TestFormat:
    @pytest.mark.parametrize("mode", [m for m in sorted(FORMAT_CASES) if FORMAT_CASES[m][1]])
    def test_own_formats(self, capsys, mode):
        argv, formats, _ = FORMAT_CASES[mode]
        code, default, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--format", formats[0]) == (0, default, "")
        for other in formats[1:]:
            code, out, _ = run_cli(capsys, *argv, "--format", other)
            assert code == 0 and out != default

    @pytest.mark.parametrize("mode", sorted(FORMAT_CASES))
    def test_flag_refuses_a_format_the_subcommand_does_not_write(self, capsys, mode):
        argv, _, wrong = FORMAT_CASES[mode]
        for fmt in wrong:
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, out) == (2, ""), fmt
            assert err.startswith("error:") and err.count("\n") == 1


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [[], ["rates", "--bogus"], ["rates", "--omega", "one"], ["sweep", "--points", "2.5"],
         ["sweep", "--omega", "1"], ["sweep", "--dipole", "1"], ["sweep", "--temperature", "0"],
         ["rates"], ["evolve", "--steps", "10"]],
        ids=["no-subcommand", "unknown-flag", "bad-float", "bad-int",
             "sweep-omega", "sweep-dipole", "sweep-temperature",
             "rates-no-omega", "evolve-no-omega"],
    )
    def test_parser_error_returns_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "usage:" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["rates", "--omega", "1", "--phi", "0.0", "--mass", "0.01"],
         ["evolve", "--omega", "1", "--mass", "0.01", "--phi", "0.0"],
         ["sweep", "--phi", "-0.05", "--mass", "0.01"]],
        ids=["rates", "evolve-mass-first", "sweep"],
    )
    def test_phi_at_its_default_conflicts_with_mass(self, capsys, argv):
        # A --phi typed on the command line counts as given, even when it
        # equals the default.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: argument --(phi|mass): not allowed with argument "
                            r"--(phi|mass)\n", err)

    @pytest.mark.parametrize(
        "mode, phi, base",
        [("rates", 0.0, ["--omega", "1"]), ("evolve", 0.0, ["--omega", "1", "--steps", "20"]),
         ("sweep", -0.05, ["--points", "20"])],
        ids=["rates", "evolve", "sweep"],
    )
    def test_phi_default(self, capsys, mode, phi, base):
        (default,) = (a.default for a in parser_actions(mode) if a.dest == "phi")
        assert default == phi
        assert run_cli(capsys, mode, *base) == run_cli(capsys, mode, *base, f"--phi={phi}")

    def test_settable_dests(self):
        # Every dest a subcommand's flags set, --out included.
        counts = {mode: len({a.dest for a in parser_actions(mode)}) for mode in SUBCOMMANDS}
        assert counts == {"evolve": 11, "rates": 8, "sweep": 10, "verify": 1}

    @pytest.mark.parametrize("mode", sorted(BASE_SETTINGS))
    def test_config_file_is_refused(self, capsys, tmp_path, mode):
        """Settings come from flags alone: there is no ``--config``."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 2.0}))
        argv = [mode, *as_flags(BASE_SETTINGS[mode]), "--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: unrecognized arguments: --config") and err.count("\n") == 1


class TestOverflow:
    def test_evolve_huge_span_reaches_the_steady_state(self, capsys):
        # t_max = 1e308 relaxation times: every row after t = 0 is the
        # ground state, and no time or population overflows.
        code, out, err = run_cli(capsys, "evolve", "--omega", "1000", "--t-max", "1e308")
        assert (code, err) == (0, "")
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 501
        assert all(math.isfinite(v) for row in rows for v in row)
        assert rows[0][1:] == [1.0, 0.0, 0.0, 0.0, 1.0]
        assert all(row[1:] == [0.0, 1.0, 0.0, 0.0, 0.0] for row in rows[1:])

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
    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--steps", "0"), "steps must lie in"),
            (("--steps", str(MAX_STEPS + 1)), "steps must lie in"),
            (("--t-max=nan",), "t_max must be finite and positive, got nan\n"),
            (("--initial", "mixed:2"), "p_excited must lie in [0, 1]"),
            # The span as given, not t_max / Gamma.
            (("--t-max=-1",), "t_max must be finite and positive, got -1.0\n"),
            # Finite, but t_max / Gamma overflows.
            (("--omega", "1e-3", "--t-max", "1e308", "--steps", "10"),
             "t_max / Gamma is out of range for t_max = 1e+308, Gamma = "),
        ],
        ids=["no-steps", "steps-cap", "nan-t-max", "bad-initial",
             "negative-t-max", "overflowing-t-max"],
    )
    def test_refused_before_out_is_opened(self, capsys, tmp_path, flags, message):
        path = tmp_path / "evolve.csv"
        code, out, err = run_cli(capsys, "evolve", "--omega", "1.0", *flags, "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err, err
        assert not path.exists()

    def test_any_step_count_runs(self, capsys):
        # With no step gate, ten intervals over five relaxation times run.
        code, out, err = run_cli(capsys, "evolve", "--omega", "1", "--t-max", "5", "--steps", "10")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 11

    def test_vanishing_absorption_rate(self, capsys, gksl_reference):
        # T = 0.0014 gives Gamma_+ = 1.0e-296: the relaxation is still exact.
        code, out, err = run_cli(
            capsys, "evolve", "--omega", "1", "--phi", "-0.05", "--temperature", "0.0014"
        )
        assert (code, err) == (0, "")
        rateset = build_rate_set(
            AtomSpec(omega=1.0, dipole_mag=1.0, dipole_angle=0.0),
            GravityEnv(phi=-0.05, distance=1.0),
            0.0014,
        )
        assert 0.0 < rateset.gamma_plus < 1e-295
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 501
        for row in rows[::50]:
            ee, gg, eg = gksl_reference(
                DensityMatrix2.mixed(1.0), rateset.gamma_plus, rateset.gamma_minus, row[0]
            )
            assert row[1] == pytest.approx(ee, rel=1e-11)
            assert row[2] == pytest.approx(gg, rel=1e-11)
            assert row[3] == eg == 0.0
            assert row[5] == row[1]

    def test_memory_is_flat_in_steps(self, tmp_path):
        # Blocks of rows are built, written and freed in turn, so ten times
        # the steps may not raise the traced peak by more than 1.5 MB.
        def peak(steps):
            tracemalloc.start()
            try:
                argv = ["evolve", "--omega", "1.0", "--steps", str(steps)]
                assert main(argv + ["--out", str(tmp_path / "evolve.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2_000)  # warm-up: builds the formatter's tables
        assert peak(200_000) - peak(20_000) <= 1.5 * 2**20

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
        assert final[1] == pytest.approx(math.exp(-5.0), rel=1e-11)
        # Every state is the exact one: rho_ee is analytic_rho_ee.
        assert all(line.split(",")[1] == line.split(",")[5] for line in lines[1:])
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


VERIFY_GRID = ("0.3", "0.5", "1", "2", "3.14159", "5", "8")
VERIFY_RECORD_NAMES = [
    *(f"B1 quadrature vs closed form, x={x}" for x in VERIFY_GRID),
    *(f"B2 quadrature vs closed form, x={x}" for x in VERIFY_GRID),
    "flat rate d^2 Omega^3/(6 pi) against the mode sum",
    "energy balance |(P/omega_g)/(gamma_g/4) - 1| <= K*phi^2",
    "energy balance slope of log |deviation| against log |phi|",
    "rate-ratio plateau at x=0.0001",
    "rate-ratio plateau at x=1000",
    "f2 small-x coefficient resolution",
    "distance-kernel reading resolution",
    "detailed balance Gamma+/Gamma- = exp(-omega_g/T)",
    "redshift |omega_g/omega - sqrt(1 + 2 phi)| <= K*phi^2",
]


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

    def test_fault_injection(self, capsys, shift_f1):
        shift_f1(0.05)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert json.loads(out)["all_pass"] is False

    def test_small_fault_fails_the_energy_balance(self, capsys, shift_f1):
        shift_f1(1e-3)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        failing = [r["name"] for r in json.loads(out)["checks"] if not r["pass"]]
        assert any(name.startswith("energy balance") for name in failing)

    @pytest.mark.parametrize(
        "exc", [RegimeError("bracket is negative"), ZeroDivisionError("float division")],
        ids=["regime", "zero-division"],
    )
    def test_library_error_is_a_verification_failure(
        self, capsys, verify_output, raise_in_bracket, exc
    ):
        # Not exit 2: verify takes no input, so an error is a fault of the code.
        # Each check that calls the bracket is one failing record; the checks
        # before the first of them print what the clean run prints.
        clean = json.loads(verify_output[1])["checks"]
        raise_in_bracket(exc)
        code, out, err = run_cli(capsys, "verify")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["all_pass"] is False
        checks = report["checks"]
        assert checks[:15] == clean[:15]  # the 14 radial records and the flat-rate record
        aborted = [r for r in checks if r["computed"] is None]
        assert [r["name"] for r in aborted] == [f"{check} aborted by an error" for check in (
            "energy balance", "rate-ratio plateaus", "detailed balance", "redshift",
        )]
        for rec in aborted:
            assert rec["pass"] is False
            assert rec["note"] == f"{type(exc).__name__}: {exc}"
        assert checks[-1] == aborted[-1]

    def test_record_names(self, verify_output):
        # Pinned so that a renamed, added or dropped record is a visible change.
        _, out = verify_output
        names = [r["name"] for r in json.loads(out)["checks"]]
        assert names == VERIFY_RECORD_NAMES

    def test_strict_json(self, verify_output):
        # RFC 8259 has no NaN or Infinity, and every record of a clean report
        # is a check: its computed, reference and tolerance are numbers.
        _, out = verify_output
        checks = json.loads(out, parse_constant=refuse_constant)["checks"]
        for rec in checks:
            for key in ("computed", "reference", "tolerance"):
                assert type(rec[key]) in (int, float), (rec["name"], key)

    @pytest.mark.parametrize("fault", ["f1", "bracket"])
    def test_non_finite_fault_fails_in_strict_json(self, capsys, monkeypatch, fault):
        # f1 NaN above x = 2, or the bracket NaN near x = pi only, which the
        # energy balance alone reaches: build_rate_set refuses the NaN
        # bracket, so the check aborts with a note that names it, and every
        # record with a NaN field prints null numbers and fails.
        if fault == "f1":
            f1 = specfun.f1
            monkeypatch.setattr(specfun, "f1", lambda x: math.nan if x > 2.0 else f1(x))
        else:
            bracket = rates.rate_bracket
            monkeypatch.setattr(rates, "rate_bracket", lambda x, phi, sin2psi: (
                math.nan if abs(x - math.pi) < 0.1 else bracket(x, phi, sin2psi)))
        code, out, err = run_cli(capsys, "verify")
        assert (code, err) == (1, "")
        checks = json.loads(out, parse_constant=refuse_constant)["checks"]
        failing = {r["name"]: r for r in checks if not r["pass"]}
        balance = failing["energy balance aborted by an error"]
        assert balance["note"].startswith("RegimeError: first-order rate bracket ")
        assert " = nan is not a number at " in balance["note"]
        if fault == "bracket":
            assert list(failing) == ["energy balance aborted by an error"]
        for rec in checks:
            if rec["computed"] is None:
                assert (rec["reference"], rec["tolerance"], rec["pass"]) == (None, None, False)


def refuse_constant(token):
    """``parse_constant`` hook of ``json.loads`` that refuses NaN and Infinity."""
    raise ValueError(f"non-standard JSON constant {token}")


def _rows(*columns) -> str:
    """Reference rendering: one `%` template per row."""
    row = ",".join([NUMBER] * len(columns)) + "\n"
    return "".join(row % values for values in zip(*columns))


class TestMultiChunkOutput:
    """Runs longer than one `ROW_CHUNK` print what per-row `%` printed."""

    def test_evolve(self, capsys):
        # One `relaxation` call over the whole grid is the reference for
        # the command's blocks.  Row counts: inside one block, and block - 1,
        # block, block + 1 and 2 block + 5.
        rateset = build_rate_set(
            AtomSpec(omega=1.0, dipole_mag=1.0, dipole_angle=0.0),
            GravityEnv(phi=-0.02, distance=1.0),
            0.5,
        )
        rho0 = DensityMatrix2.mixed(0.3)
        assert 3000 > 2 * ROW_CHUNK
        for rows in (3001, EVOLVE_BLOCK - 1, EVOLVE_BLOCK, EVOLVE_BLOCK + 1, 2 * EVOLVE_BLOCK + 5):
            steps = rows - 1
            code, out, _ = run_cli(
                capsys, "evolve", "--omega", "1.0", "--phi", "-0.02", "--steps", str(steps),
                "--initial", "mixed:0.3", "--temperature", "0.5",
            )
            assert code == 0
            times = (5.0 / rateset.gamma_total / steps) * np.arange(steps + 1)
            ee, eg = relaxation(rho0, rateset, times)
            gg = 1.0 - ee
            expected = "t,rho_ee,rho_gg,abs_rho_eg,trace_error,analytic_rho_ee\n" + _rows(
                times, ee, gg, abs(eg), ee + gg - 1.0, ee
            )
            assert out == expected, rows

    @pytest.mark.parametrize("angle", [None, 0.4])
    def test_sweep(self, capsys, angle):
        points, phi = 3000, cli._build_parser().parse_args(["sweep"]).phi
        extra = () if angle is None else ("--angle", str(angle))
        code, out, _ = run_cli(capsys, "sweep", "--points", str(points), *extra)
        assert code == 0
        log_min = math.log(1e-2)
        step = (math.log(1e2) - log_min) / (points - 1)
        xs = np.array([math.exp(log_min + i * step) for i in range(points)])
        if angle is None:
            header = "x,ratio_parallel,ratio_perpendicular"
            ratios = [rate_bracket(xs, phi, sin2) for sin2 in (0.0, 1.0)]
        else:
            header = "x,ratio"
            ratios = [rate_bracket(xs, phi, math.sin(angle) ** 2)]
        expected = f"# phi={NUMBER % phi}\n{header}\n" + _rows(xs, *ratios)
        assert out == expected


SUBCOMMANDS = ["evolve", "rates", "sweep", "verify"]


def float_flags(mode):
    """The flags of ``mode`` that take a float, read from its subparser."""
    floats = {a.dest for a in parser_actions(mode) if a.type is float}
    return tuple(key.replace("_", "-") for key in sorted(floats))


# Numeric flags per subcommand, and arbitrary floats for them: NaN, +-inf,
# +-0, subnormals and values near the ends of the double range.
NUMERIC_FLAGS = {mode: flags for mode in SUBCOMMANDS if (flags := float_flags(mode))}
ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e300, -1e300, 1.0,
         math.nan, math.inf, -math.inf]
    ),
)
# Values a valid run can have (omega, distance, temperature, ... and a weak
# phi), so that the exit-0 path is exercised too.
FLAG_VALUE = st.one_of(ANY_FLOAT, st.floats(0.0, 3.0), st.floats(-0.1, 0.0))
# Grid and step counts stay small, so that nothing large is allocated.
SMALL_COUNT = st.integers(-3, 2000)


@st.composite
def invocations(draw):
    mode = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    # A valid omega that the drawn flags may override, so that most draws
    # fail on one input and the rest reach the numerics.
    flags = {} if mode == "sweep" else {"omega": draw(st.floats(0.01, 3.0))}
    flags |= draw(st.dictionaries(st.sampled_from(NUMERIC_FLAGS[mode]), FLAG_VALUE, max_size=3))
    # `--flag=value`, so that argparse does not read "-inf" as an option.
    argv = [mode] + [f"--{flag}={value!r}" for flag, value in flags.items()]
    if mode == "sweep":
        argv += draw(st.sampled_from([[], ["--linear"]]))
        argv += draw(st.sampled_from([[], ["--format=svg"]]))
        argv += draw(st.sampled_from([[], [f"--points={draw(SMALL_COUNT)}"]]))
    if mode == "evolve":
        argv += draw(st.sampled_from([[], [f"--steps={draw(SMALL_COUNT)}"]]))
        argv += draw(st.sampled_from([[], [f"--initial=mixed:{draw(FLAG_VALUE)!r}"]]))
    return argv


# A printed number, in any of the formats (JSON strings, CSV, SVG coordinates).
PRINTED_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def run_main(argv):
    """``main(argv)``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_input_contract(argv):
    """Exit 0 with finite numbers, or exit 2 with nothing on stdout."""
    code, out, err = run_main(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == ""
    else:
        assert not re.search("nan|inf", out, re.IGNORECASE), argv
        assert all(math.isfinite(float(n)) for n in PRINTED_NUMBER.findall(out))


@st.composite
def workload_invocations(draw):
    """Valid `rates`, `sweep` and `evolve` inputs in the ranges real runs use.

    Returns (argv, shape): ``shape`` is (format, data rows, columns) of the
    output; a JSON object counts its keys as rows and an SVG plot its curves
    as columns.
    """
    mode = draw(st.sampled_from(["rates", "sweep", "evolve"]))
    phi = draw(st.floats(-0.1, -1e-3))
    values = {"distance": draw(st.floats(0.2, 5.0))}
    if draw(st.booleans()):
        values["phi"] = phi
    else:
        values["mass"] = -phi * values["distance"]
    if mode != "sweep" or draw(st.booleans()):
        values["angle"] = draw(st.floats(0.0, math.pi))
    if mode != "sweep":
        values["omega"] = draw(st.floats(0.1, 5.0))
        values["temperature"] = draw(st.one_of(st.just(0.0), st.floats(0.05, 5.0)))
    if mode == "rates":
        shape = ("json", 8, None)
    elif mode == "sweep":
        values["points"] = draw(st.integers(2, 2000))
        values["log_grid"] = draw(st.booleans())
        low = 1e-3 if values["log_grid"] else 0.0
        values["x_min"] = draw(st.floats(low, 1.0))
        values["x_max"] = values["x_min"] + draw(st.floats(0.01, 100.0))
        values["format"] = draw(st.sampled_from(["csv", "svg"]))
        curves = 1 if "angle" in values else 2
        columns = curves if values["format"] == "svg" else 1 + curves
        shape = (values["format"], values["points"], columns)
    else:
        values["t_max"] = draw(st.floats(0.1, 50.0))
        values["steps"] = draw(st.integers(1, 2000))
        p = draw(st.floats(0.0, 1.0))
        values["initial"] = draw(st.sampled_from(["excited", "ground", f"mixed:{p!r}"]))
        shape = ("csv", values["steps"] + 1, 6)
    return [mode] + as_flags(values), shape


@pytest.mark.filterwarnings("ignore:.*first-order corrections are no longer small")
@settings(max_examples=200, deadline=None)
@given(workload_invocations())
def test_workload_inputs_succeed(invocation):
    """Valid workload-shaped input: exit 0, finite numbers, every row printed."""
    argv, (kind, n_rows, n_columns) = invocation
    code, out, err = run_main(argv)
    assert code == 0, (argv, err)
    numbers = PRINTED_NUMBER.findall(out)
    assert numbers and all(math.isfinite(float(n)) for n in numbers)
    if kind == "json":
        assert len(json.loads(out)) == n_rows
    elif kind == "svg":
        curves = re.findall(r'<polyline points="([^"]*)"', out)
        assert [len(curve.split()) for curve in curves] == [n_rows] * n_columns
    else:
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + n_rows  # the header and the data rows
        assert {len(row) for row in rows} == {n_columns}

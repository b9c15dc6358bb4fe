"""Byte-for-byte CLI corpus: refactors must leave these outputs unchanged.

Each case runs one small ``rates``/``sweep``/``evolve`` invocation and
compares its stdout with ``tests/golden/<name>.txt``.  ``verify`` is left
out on purpose: its quadrature values may move in the last digits when the
oracle's numerics improve.  `test_goldens_agree_with_mpmath` recomputes
every number of the non-SVG files from closed forms in mpmath, so that a
regenerated file cannot hold a wrong number that merely replays.

To regenerate the expected files after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and list the change in
CHANGES.md.
"""

import io
import itertools
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from mpmath import mp

from gravatom.cli import _build_parser, _environment, _initial_excited, main
from gravatom.model import AtomSpec
from gravatom.rates import build_rate_set

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "rates_phi_temperature": (
        "rates", "--omega", "1.3", "--phi", "-0.02", "--temperature", "0.8",
    ),
    "rates_mass": ("rates", "--omega", "1.0", "--mass", "0.05", "--distance", "1.5"),
    # x = R*Omega in every branch of f1 and f2 (the two cases above sit on the
    # series, 1 < x <= 2), each with sin^2(psi) > 0 so that f2 shows: the
    # series, the one Chebyshev fit above x = 2 (x = 5, 20 and 200; the names
    # are those of the octave and asymptotic pieces the fit replaced) and the
    # flat 3.0 beyond x = 1e17.
    "rates_series": ("rates", "--omega", "0.5", "--phi", "-0.03", "--angle", "0.9"),
    "rates_chebyshev_x5": (
        "rates", "--omega", "2.5", "--distance", "2", "--phi", "-0.01", "--angle", "1.2",
        "--temperature", "0.3",
    ),
    "rates_chebyshev_x20": (
        "rates", "--omega", "4", "--distance", "5", "--mass", "0.1", "--angle", "0.5",
    ),
    "rates_asymptotic": ("rates", "--omega", "2", "--distance", "100", "--phi", "-0.05",
                         "--angle", "1.5"),
    "rates_plateau": ("rates", "--omega", "1", "--distance", "1e18", "--phi", "-0.02",
                      "--angle", "0.6"),
    "sweep_default": ("sweep", "--points", "25"),
    "sweep_angle_linear": ("sweep", "--angle", "0.7", "--linear", "--points", "25"),
    "sweep_chunk_boundary": ("sweep", "--points", "1030"),
    "sweep_three_digit_exponents": (
        "sweep", "--angle", "0.3", "--x-min", "1e-200", "--x-max", "1e300", "--points", "40",
    ),
    "sweep_linear_from_zero": (
        "sweep", "--linear", "--x-min", "0", "--x-max", "30", "--points", "20",
    ),
    "sweep_svg": ("sweep", "--format", "svg", "--points", "50"),
    "sweep_svg_angle": ("sweep", "--format", "svg", "--angle", "0.7", "--points", "50"),
    # Two `SWEEP_BLOCK`s and two curves.
    "sweep_svg_two_blocks": ("sweep", "--format", "svg", "--points", "4097"),
    # One curve across a `ROW_CHUNK` edge, from x = 0.
    "sweep_svg_chunk_boundary_linear": (
        "sweep", "--format", "svg", "--linear", "--x-min", "0", "--x-max", "30",
        "--points", "1030", "--angle", "1.0",
    ),
    # A grid one ulp wide: three points, two of them the same double.
    "sweep_svg_collapsed_grid": (
        "sweep", "--format", "svg", "--points", "3", "--x-min", "1",
        "--x-max", "1.0000000000000002",
    ),
    "evolve_default": ("evolve", "--omega", "1.0", "--phi", "-0.02", "--steps", "60"),
    "evolve_mixed_thermal": (
        "evolve", "--omega", "1.0", "--phi", "-0.02",
        "--initial", "mixed:0.3", "--temperature", "0.5", "--steps", "60",
    ),
    "evolve_ground_thermal_angle": (
        "evolve", "--omega", "1.0", "--phi", "-0.02", "--initial", "ground",
        "--temperature", "1.5", "--angle", "1.1", "--distance", "1.8", "--steps", "60",
    ),
    # 8193 rows: one past the first block of `evolve` rows.
    "evolve_block_boundary": (
        "evolve", "--omega", "1.3", "--phi", "-0.03", "--initial", "mixed:0.6",
        "--temperature", "0.7", "--t-max", "3", "--steps", "8192",
    ),
}


def _run(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue()


def _first_difference(got: str, expected: str) -> str:
    """The first line where two unequal outputs differ, with both lines.

    A whole-string diff of a long output takes pytest minutes; this takes
    one pass.  A missing line shows as None.
    """
    pairs = itertools.zip_longest(got.splitlines(True), expected.splitlines(True))
    for number, (got_line, expected_line) in enumerate(pairs, 1):
        if got_line != expected_line:
            return f"line {number}: got {got_line!r}, expected {expected_line!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    got = _run(CASES[name])
    if got != expected:
        pytest.fail(f"{name}: {_first_difference(got, expected)}", pytrace=False)


def test_first_difference_names_the_first_differing_line():
    expected = "a\nb\nc\n"
    assert _first_difference("a\nx\nc\n", expected) == "line 2: got 'x\\n', expected 'b\\n'"
    assert _first_difference("a\nb\n", expected) == "line 3: got None, expected 'c\\n'"
    assert _first_difference("a\nb\nc", expected) == "line 3: got 'c', expected 'c\\n'"


# A printed number is its double rounded to 12 significant digits, so it lies
# within 0.5 units of the 12th digit of the double; the double in turn lies a
# few ulps, about 1e-4 units, from the exact value.  0.501 allows both.
AUDIT_UNITS = 0.501


def _dps(x: float) -> int:
    """Working digits at x: f1 and f2 cancel O(1) terms to O(x^2) below 1 and
    O(x^3) terms to O(x^2) above, so 2 |log10 x| digits go to cancellation."""
    return 40 + int(2 * abs(math.log10(x))) + 20 if x > 0.0 else 60


def _mp_bracket(x: float, phi, sin2psi):
    """1 + 7 phi - 2 phi f1(x) + 3 phi sin^2(psi) f2(x), f1 and f2 from their closed forms."""
    if x == 0.0:
        return 1 + 7 * phi
    x = mp.mpf(x)
    x2 = x * x
    s2, c2 = mp.sin(2 * x), mp.cos(2 * x)
    f1 = (1 + x2 * (mp.pi * x + 3) - (1 + x2) * c2 - 2 * x * s2 - 2 * x * x2 * mp.si(2 * x)) / x2
    f2 = (1 - x * s2 - c2) / x2
    return 1 + 7 * phi - 2 * phi * f1 + 3 * phi * sin2psi * f2


def _mp_phi(args):
    """The potential of a parsed command line: --phi, or -M/R from --mass."""
    if args.mass is None:
        return mp.mpf(args.phi)
    return -mp.mpf(args.mass) / mp.mpf(args.distance)


def _mp_rates(args) -> dict:
    """Every field `gravatom rates` prints, from the closed forms at the given inputs."""
    phi, omega = _mp_phi(args), mp.mpf(args.omega)
    omega_g = (1 + phi) * omega
    gamma = mp.mpf(args.dipole) ** 2 * omega**3 / (6 * mp.pi)
    ratio = _mp_bracket(args.distance * args.omega, phi, mp.sin(mp.mpf(args.angle)) ** 2)
    n_b = 1 / mp.expm1(omega_g / mp.mpf(args.temperature)) if args.temperature else mp.mpf(0)
    gamma_g = gamma * ratio
    return {"omega_g": omega_g, "gamma_flat": gamma, "gamma_g": gamma_g, "ratio": ratio,
            "gamma_plus": n_b * gamma_g, "gamma_minus": (n_b + 1) * gamma_g,
            "gamma_total": (2 * n_b + 1) * gamma_g, "steady_excited": n_b / (2 * n_b + 1)}


def _units_off(text: str, reference) -> float:
    """|printed - reference| in units of the 12th significant digit of the printed number."""
    return float(abs(mp.mpf(text) - reference) / mp.mpf(10) ** (int(text.split("e")[1]) - 11))


def _audit_rates(args, lines):
    payload = json.loads("".join(lines))
    with mp.workdps(_dps(args.distance * args.omega)):
        reference = _mp_rates(args)
        assert sorted(payload) == sorted(reference)
        for key, text in payload.items():
            yield key, _units_off(text, reference[key])


def _audit_sweep(args, lines):
    # The grid as `cli._sweep_grid` and `rows.sweep_chunks` build it.
    n = args.points
    if args.log_grid:
        start = math.log(args.x_min)
        step = (math.log(args.x_max) - start) / (n - 1)
        xs = [math.exp(start + i * step) for i in range(n)]
    else:
        start, step = args.x_min, (args.x_max - args.x_min) / (n - 1)
        xs = [start + i * step for i in range(n)]
    assert lines[0].startswith("# phi=") and len(lines) == n + 2
    with mp.workdps(60):
        yield "phi", _units_off(lines[0][len("# phi="):], _mp_phi(args))
    for row, x in enumerate(xs, 2):
        with mp.workdps(_dps(x)):
            phi = _mp_phi(args)
            sin2s = (0, 1) if args.angle is None else (mp.sin(mp.mpf(args.angle)) ** 2,)
            x_text, *ratios = lines[row].split(",")
            assert len(ratios) == len(sin2s)
            yield f"line {row + 1} x", _units_off(x_text, mp.mpf(x))
            for sin2psi, text in zip(sin2s, ratios):
                yield f"line {row + 1} ratio", _units_off(text, _mp_bracket(x, phi, sin2psi))


def _audit_evolve(args, lines):
    # Row n is the state at t = h n, with h from the library's own Gamma.
    atom = AtomSpec(args.omega, args.dipole, args.angle)
    h = args.t_max / build_rate_set(atom, _environment(args), args.temperature).gamma_total
    h /= args.steps
    p = _initial_excited(args.initial)
    assert len(lines) == args.steps + 2
    with mp.workdps(_dps(args.distance * args.omega)):
        reference = _mp_rates(args)
        total, steady = reference["gamma_total"], reference["steady_excited"]
        for row, line in enumerate(lines[1:], 2):
            t_text, ee_text, gg_text, eg_text, trace_text, analytic_text = line.split(",")
            t = h * (row - 2)
            ee = (p - steady) * mp.exp(-total * t) + steady
            yield f"line {row} t", _units_off(t_text, mp.mpf(t))
            yield f"line {row} rho_ee", _units_off(ee_text, ee)
            yield f"line {row} rho_gg", _units_off(gg_text, 1 - ee)
            # The state stays diagonal; rho_ee + rho_gg - 1 can only show
            # rounding; analytic_rho_ee repeats rho_ee.
            assert eg_text == "0.00000000000e+00", f"line {row}: abs_rho_eg {eg_text}"
            assert abs(float(trace_text)) <= 2.0**-52, f"line {row}: trace_error {trace_text}"
            assert analytic_text == ee_text, f"line {row}: analytic_rho_ee {analytic_text}"


AUDITS = {"rates": _audit_rates, "sweep": _audit_sweep, "evolve": _audit_evolve}


def test_goldens_agree_with_mpmath():
    """Every number of the non-SVG goldens within AUDIT_UNITS of its closed form in mpmath."""
    worst = []
    for name, argv in sorted(CASES.items()):
        if "svg" in name:
            continue
        lines = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8").splitlines()
        for where, units in AUDITS[argv[0]](_build_parser().parse_args(argv), lines):
            if units > AUDIT_UNITS:
                worst.append(f"{name} {where}: {units:.6f} units")
    assert not worst, worst[:10]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (GOLDEN_DIR / f"{case}.txt").write_text(_run(argv), encoding="utf-8")
        print(f"wrote {case}.txt", file=sys.stderr)

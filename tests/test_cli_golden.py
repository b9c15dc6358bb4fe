"""Byte-for-byte CLI corpus: refactors must leave these outputs unchanged.

Each case runs one small ``rates``/``sweep``/``evolve`` invocation and
compares its stdout with ``tests/golden/<name>.txt``.  ``verify`` is left
out on purpose: its quadrature values may move in the last digits when the
oracle's numerics improve.

To regenerate the expected files after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and list the change in
CHANGES.md.
"""

import io
import itertools
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gravatom.cli import main

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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (GOLDEN_DIR / f"{case}.txt").write_text(_run(argv), encoding="utf-8")
        print(f"wrote {case}.txt", file=sys.stderr)

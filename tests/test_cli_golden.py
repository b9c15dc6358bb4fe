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
    "evolve_default": ("evolve", "--omega", "1.0", "--phi", "-0.02", "--steps", "60"),
    "evolve_mixed_thermal": (
        "evolve", "--omega", "1.0", "--phi", "-0.02",
        "--initial", "mixed:0.3", "--temperature", "0.5", "--steps", "60",
    ),
    "evolve_ground_thermal_angle": (
        "evolve", "--omega", "1.0", "--phi", "-0.02", "--initial", "ground",
        "--temperature", "1.5", "--angle", "1.1", "--distance", "1.8", "--steps", "60",
    ),
}


def _run(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (GOLDEN_DIR / f"{case}.txt").write_text(_run(argv), encoding="utf-8")
        print(f"wrote {case}.txt", file=sys.stderr)

"""`rows.format_rows` against Python's `%` formatting, byte for byte."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravatom.rows import NUMBER, format_rows

# An overflow or invalid value inside the formatter is a failure, even where
# the fallback would hide it in the output.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def percent_rows(values: np.ndarray) -> str:
    """Reference: each row of a 2-d array rendered with `%`, one number at a time."""
    return "".join(",".join(NUMBER % v for v in row) + "\n" for row in values.tolist())


def assert_matches_percent(values):
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    assert format_rows(values.T) == percent_rows(values)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=24), st.integers(1, 4))
def test_hypothesis_floats(floats, ncols):
    floats += [0.0] * (-len(floats) % ncols)
    assert_matches_percent(np.array(floats).reshape(-1, ncols))


def test_special_values():
    tiny = 5e-324
    assert_matches_percent(
        [0.0, -0.0, math.nan, math.inf, -math.inf, tiny, -tiny, sys.float_info.max,
         -sys.float_info.max, sys.float_info.min, 1e-290, 1e290, 1.0, 0.1, 1e22, 1e23]
    )


@pytest.mark.parametrize("c", ["999999999999.5", "99999999999.5", "1000000000000", "100000000000"])
def test_rounding_boundaries(c):
    """c * 10**k and the doubles either side, for k over the whole double range.

    The first two sit on the tie that decides the exponent (9.99999999999e+05
    or 1.00000000000e+06 for 999999.9999995), the last two on a power of ten.
    """
    centres = np.array([float(f"{c}e{k}") for k in range(-340, 310)])
    centres = centres[(centres > 0.0) & np.isfinite(centres)]
    values = np.concatenate(
        [np.nextafter(centres, 0.0), centres, np.nextafter(centres, np.inf)]
    )
    values = values[np.isfinite(values)]
    assert_matches_percent(np.concatenate([values, -values]))


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    for _ in range(10):
        bits = rng.integers(0, 2**64, size=(25_000, 4), dtype=np.uint64, endpoint=False)
        assert_matches_percent(bits.view(np.float64))


def test_column_shapes():
    """1-d columns and 2-d blocks stack into the same rows."""
    x = np.array([1.0, 2.5e-3, -7.0])
    block = np.array([[0.5, -0.25], [1e100, 3.0], [math.pi, 0.0]])
    expected = percent_rows(np.column_stack((x, block)))
    assert format_rows((x, block)) == expected
    assert format_rows([x, block[:, 0], block[:, 1]]) == expected
    assert format_rows([np.array([42.0])]) == "4.20000000000e+01\n"

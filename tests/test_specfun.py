import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from gravatom import _specfun_tables, specfun
from gravatom.errors import DomainError

# Any overflow or invalid-value warning from the array core is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Reference values, each within an ulp of the closed forms in mpmath.
F1_AT_1 = 2.9444655194273249
F1_AT_2 = 4.0742297727708174
F2_AT_01 = 0.0066489079252247330
F2_AT_2 = 0.7918121528698671

# Two ulps of a value in [1, 2): the most a switch may move a function by.
SWITCH_TOL = 4.5e-16


class TestF1:
    def test_zero(self):
        assert specfun.f1(0.0) == 0.0

    def test_small_x_leading_term(self):
        assert specfun.f1(0.01) == pytest.approx(math.pi * 0.01, rel=1e-4)

    def test_reference_value(self):
        assert specfun.f1(1.0) == pytest.approx(F1_AT_1, rel=1e-12)

    def test_large_x_plateau_example(self):
        assert specfun.f1(50.0) == pytest.approx(3.0, abs=0.05)

    def test_plateau_band(self):
        for x in np.linspace(40.0, 400.0, 60):
            assert 2.8 <= specfun.f1(float(x)) <= 3.2

    def test_linear_remainder_bound(self):
        # |f1(x) - pi*x| <= K x^3 near zero; K frozen from the series
        # expansion, whose first correction is -(2/9) x^4.
        K = 0.03
        for x in np.linspace(1e-3, 0.1, 100):
            assert abs(specfun.f1(float(x)) - math.pi * x) <= K * x**3

    def test_branch_agreement_at_cut(self):
        # y = 2x lies in [3.996, 4.004], at the left end of the fit, y >= 4.
        cut = specfun.SMALL_CUT
        for x in (cut * 0.999, cut, cut * 1.001):
            series = specfun.f1_series(x)
            assert abs(series - specfun._f1_large(x)) <= SWITCH_TOL * abs(series)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            specfun.f1(-0.5)


class TestF2:
    def test_zero(self):
        assert specfun.f2(0.0) == 0.0

    def test_vanishes_at_pi(self):
        assert specfun.f2(math.pi) == pytest.approx(0.0, abs=1e-14)

    def test_reference_values(self):
        assert specfun.f2(0.1) == pytest.approx(F2_AT_01, rel=1e-10)
        assert specfun.f2(2.0) == pytest.approx(F2_AT_2, rel=1e-12)

    def test_small_x_coefficient_is_two_thirds(self):
        # leading term (2/3) x^2, not (4/3) x^2
        x = 1e-3
        assert specfun.f2(x) / x**2 == pytest.approx(2.0 / 3.0, rel=1e-5)

    def test_oscillatory_envelope(self):
        for x in np.linspace(5.0, 100.0, 80):
            assert abs(specfun.f2(float(x))) <= 2.0 / x

    def test_branch_agreement_at_cut(self):
        cut = specfun.SMALL_CUT
        for x in (cut * 0.999, cut, cut * 1.001):
            series = specfun.f2_series(x)
            assert abs(series - specfun._f2_large(x)) <= SWITCH_TOL * abs(series)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            specfun.f2(-0.5)


class TestBoseOccupation:
    def test_unit_occupation(self):
        T = 2.7
        assert specfun.bose_occupation(T * math.log(2.0), T) == pytest.approx(1.0, rel=1e-14)

    def test_zero_temperature(self):
        assert specfun.bose_occupation(1.0, 0.0) == 0.0

    def test_energy_equal_temperature(self):
        assert specfun.bose_occupation(3.0, 3.0) == pytest.approx(
            0.58197670686932642, rel=1e-14
        )

    def test_overflow_safe(self):
        assert specfun.bose_occupation(1e6, 1.0) == 0.0  # underflows cleanly
        n = specfun.bose_occupation(600.0, 1.0)
        assert n == pytest.approx(math.exp(-600.0), rel=1e-12)
        assert n > 0.0

    def test_occupation_overflow_rejected(self):
        # E/T underflows to 0, or is so small that 1/(e^(E/T) - 1) > DBL_MAX.
        for energy, temperature in ((1e-300, 1e300), (1e-300, 1e10)):
            with pytest.raises(DomainError, match="overflows"):
                specfun.bose_occupation(energy, temperature)
        assert specfun.bose_occupation(1e-300, 1e7) == pytest.approx(1e307, rel=1e-15)

    @pytest.mark.parametrize("energy, temperature", [
        (math.nan, 0.0), (math.nan, 1.0), (1.0, math.nan),
    ])
    def test_nan_rejected_by_its_own_guard(self, energy, temperature):
        name = "energy" if math.isnan(energy) else "temperature"
        with pytest.raises(DomainError, match=f"^{name} must be"):
            specfun.bose_occupation(energy, temperature)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(DomainError):
            specfun.bose_occupation(0.0, 1.0)
        with pytest.raises(DomainError):
            specfun.bose_occupation(-1.0, 1.0)

    @given(
        energy=st.floats(min_value=1e-3, max_value=500.0),
        temperature=st.floats(min_value=1e-3, max_value=500.0),
    )
    def test_detailed_balance_identity(self, energy, temperature):
        n = specfun.bose_occupation(energy, temperature)
        lhs = n / (n + 1.0)
        rhs = math.exp(-energy / temperature)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)


# Points in every branch of f1 and f2, both sides of each switch.
SWITCHES = [upper for upper, _ in specfun._F1_PIECES[:-1]]
BRANCH_POINTS = [0.0, 1e-300, 1e-8, 0.05, 0.3, 3.7, 50.0, 1e3, 1e16, 1e300, 1.7e308] + [
    float(x) for cut in SWITCHES for x in (np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf))
]


class TestArrayCore:
    FUNCS = (specfun.f1, specfun.f2)

    @pytest.mark.parametrize("fn", FUNCS)
    def test_zero_dim_returns_float(self, fn):
        for x in (0.7, np.float64(0.7), np.array(0.7), 7):
            assert type(fn(x)) is float

    @pytest.mark.parametrize("fn", FUNCS)
    def test_elements_equal_scalar_calls_bit_for_bit(self, fn):
        xs = np.array(BRANCH_POINTS + np.geomspace(1e-3, 60.0, 97).tolist())
        scalars = [fn(x) for x in xs.tolist()]
        values = fn(xs)
        assert values.shape == xs.shape
        assert values.tolist() == scalars
        # A column, the shape `rate_bracket` gets from `sweep_chunks`.
        column = fn(xs[:, None])
        assert column.shape == (xs.size, 1)
        assert column[:, 0].tolist() == scalars

    @pytest.mark.parametrize("fn", FUNCS)
    def test_shapes_and_broadcasting(self, fn):
        xs = np.geomspace(1e-2, 1e2, 12)
        flat = fn(xs)
        assert np.array_equal(fn(xs.reshape(3, 4)), flat.reshape(3, 4))
        assert np.array_equal(fn(xs[:, None]), flat[:, None])
        assert fn(xs[::-2]).tolist() == flat[::-2].tolist()  # strided input

    @pytest.mark.parametrize("fn", FUNCS)
    def test_empty_array(self, fn):
        assert fn(np.array([])).shape == (0,)
        assert fn(np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("fn", FUNCS)
    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
    def test_bad_element_rejected(self, fn, bad):
        with pytest.raises(DomainError):
            fn(np.array([0.5, bad, 2.0]))
        with pytest.raises(DomainError):
            fn(bad)

    def test_f1_flat_beyond_cut(self):
        # 3.0 is f1 rounded to double beyond the flat cut; the large-x form
        # agrees there to an ulp.
        at = np.array([specfun._F1_FLAT_CUT])
        assert specfun._f1_large(at)[0] == pytest.approx(3.0, abs=4.5e-16)
        assert specfun.f1(1.7e308) == 3.0


class TestSwitchContinuity:
    """The branches on either side of every switch agree at the switch.

    The kernels meet at ``SMALL_CUT`` (``test_branch_agreement_at_cut`` of f1
    and f2); this test bounds each public step across it.
    """

    @pytest.mark.parametrize("fn, cut", [
        (specfun.f1, specfun.SMALL_CUT), (specfun.f2, specfun.SMALL_CUT),
    ])
    def test_public_function_steps_by_an_ulp_at_most(self, fn, cut):
        at = fn(cut)
        for side in (0.0, math.inf):
            assert abs(fn(float(np.nextafter(cut, side))) - at) <= SWITCH_TOL * abs(at)


# float.hex of f1(x) an ulp below, at and an ulp above the switch x = 2, where
# the fit of the auxiliary functions starts at y = 2x = 4; each an ulp or less
# from mpmath's correctly rounded value.
F1_AT_SWITCH = ("0x1.04c02e3b9c2bcp+2", "0x1.04c02e3b9c2bcp+2", "0x1.04c02e3b9c2bcp+2")


class TestLargeArgumentForms:
    """The forms above SMALL_CUT: f1 pinned bit for bit at the switch, and a
    float call equal to an array call up to the flat cut."""

    def test_f1_at_switch_bit_for_bit(self):
        cut = specfun.SMALL_CUT
        xs = [math.nextafter(cut, 0.0), cut, math.nextafter(cut, math.inf)]
        assert [specfun.f1(x).hex() for x in xs] == list(F1_AT_SWITCH)
        assert [v.hex() for v in specfun.f1(np.array(xs)).tolist()] == list(F1_AT_SWITCH)

    @pytest.mark.parametrize("fn", [specfun.f1, specfun.f2])
    def test_float_path_equals_array_path(self, fn):
        rng = np.random.default_rng(20261019)
        xs = np.exp(rng.uniform(math.log(2.0), math.log(specfun._F1_FLAT_CUT), 2000))
        assert [fn(x) for x in xs.tolist()] == fn(xs).tolist()


def _mp_dps(x):
    # f1/f2 cancel to O(x^3)/O(x^4) of O(1) terms at small x and to O(x^2)
    # of O(x^3) terms at large x: carry 4 guard digits per decade.
    return 30 + int(4 * abs(math.log10(x)))


def _mp_reference(x):
    """(f1(x), f2(x)) from the closed forms in mpmath."""
    with mp.workdps(_mp_dps(x)):
        x = mp.mpf(x)
        x2 = x * x
        s2, c2 = mp.sin(2 * x), mp.cos(2 * x)
        f1 = (1 + x2 * (mp.pi * x + 3) - (1 + x2) * c2 - 2 * x * s2
              - 2 * x * x2 * mp.si(2 * x)) / x2
        f2 = (1 - x * s2 - c2) / x2
        return float(f1), float(f2)


def _f2_envelope(x):
    """min(x^2, 1/x), the scale f2 oscillates within, written not to overflow."""
    return np.minimum(x, 1.0) * np.minimum(x, 1.0 / x)


def _errors(fn, xs, ref):
    """|fn(xs) - ref| / |ref| for fn = f1 or f2, f2's over its envelope at least."""
    scale = np.abs(ref)
    if fn is specfun.f2:  # f2 oscillates through zero
        scale = np.maximum(scale, _f2_envelope(xs))
    return np.abs(fn(xs) - ref) / scale


# Log grid over [1e-8, 1e300], denser where the branches switch.
MP_GRID = np.unique(np.concatenate([np.geomspace(1e-8, 1e300, 400),
                                    np.geomspace(1e-3, 1e3, 600)]))

# Worst errors measured on MP_GRID: f1 2.2e-16 (x <= 1), 2.3e-16 (1, 2],
# 1.7e-16 beyond (the one fit of the auxiliary functions, then 3.0); f2
# 1.9e-16 (x <= 1), 4.0e-16 (1, 2], 3.1e-16 beyond.  On DENSE: f1 4.4e-16,
# f2 5.5e-16.  Every band holds 1e-15.
MP_BANDS = ((0.1, 1e-15), (0.5, 1e-15), (1.0, 1e-15), (2.0, 1e-15), (math.inf, 1e-15))

# 2000 points of (1, 2], the top of the series' range, where it cancels most.
DENSE = np.linspace(1.0, 2.0, 2001)[1:]


class TestAgainstMpmath:
    @pytest.fixture(scope="class")
    def reference(self):
        return dict(zip(("f1", "f2"), np.array([_mp_reference(x) for x in MP_GRID.tolist()]).T))

    @pytest.fixture(scope="class")
    def dense_reference(self):
        return dict(zip(("f1", "f2"), np.array([_mp_reference(x) for x in DENSE.tolist()]).T))

    @pytest.mark.parametrize("name, fn", [("f1", specfun.f1), ("f2", specfun.f2)])
    def test_one_array_call(self, reference, name, fn):
        err = _errors(fn, MP_GRID, reference[name])
        lower = 0.0
        for upper, tol in MP_BANDS:
            band = (MP_GRID > lower) & (MP_GRID <= upper)
            assert band.any()
            worst = float(err[band].max())
            assert worst <= tol, f"{name} on ({lower}, {upper}]: {worst:.2e} > {tol:.0e}"
            lower = upper

    @pytest.mark.parametrize("name, fn", [("f1", specfun.f1), ("f2", specfun.f2)])
    def test_dense_between_one_and_two(self, dense_reference, name, fn):
        err = _errors(fn, DENSE, dense_reference[name])
        assert err.max() <= 1e-15, f"{name}: {err.max():.2e} at x = {DENSE[err.argmax()]}"


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(
    st.floats(min_value=1e-8, max_value=1e300),
    st.floats(min_value=-8.0, max_value=300.0).map(lambda e: min(10.0**e, 1e300)),
))
def test_against_mpmath_anywhere(x):
    """f1 and f2 within 1e-15 of mpmath (f2 of its envelope) at any x."""
    f1, f2 = _mp_reference(x)
    for fn, ref, scale in (
        (specfun.f1, f1, abs(f1)),
        (specfun.f2, f2, max(abs(f2), _f2_envelope(x))),
    ):
        value = fn(x)
        assert abs(value - ref) <= 1e-15 * scale, (fn.__name__, x, value, ref)
        assert fn(np.array([x]))[0] == value


def _load_generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_specfun_tables.py"
    spec = importlib.util.spec_from_file_location("gen_specfun_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGeneratedTables:
    @pytest.fixture(scope="class")
    def generator(self):
        return _load_generator()

    @pytest.fixture(scope="class")
    def fresh(self, generator):
        return generator.tables()

    def test_committed_tables_equal_a_fresh_run_bit_for_bit(self, fresh):
        def bits(value):
            if isinstance(value, tuple):
                return tuple(bits(v) for v in value)
            return value.hex() if isinstance(value, float) else value

        committed = {name: getattr(_specfun_tables, name) for name in fresh}
        assert {name: bits(v) for name, v in committed.items()} == {
            name: bits(v) for name, v in fresh.items()
        }

    def test_check_mode(self, generator, monkeypatch, tmp_path):
        text = generator.TARGET.read_text()
        monkeypatch.setattr(generator, "render", lambda: text)
        monkeypatch.setattr(generator, "TARGET", tmp_path / "tables.py")
        assert generator.main(["--check"]) == 1  # missing
        generator.TARGET.write_text(text.replace("SMALL_CUT = ", "SMALL_CUT = 1 + "))
        assert generator.main(["--check"]) == 1  # differs
        generator.TARGET.write_text(text)
        assert generator.main(["--check"]) == 0

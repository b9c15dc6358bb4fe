import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from gravatom import _specfun_tables, oracle, specfun
from gravatom.errors import DomainError

# Any overflow or invalid-value warning from the array core is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Independent quadrature references, frozen from adaptive integration of
# sin(y)/y (cross-checked against the asymptotic expansion at large x).
SI_PI = 1.8519370519824665
SI_100 = 1.5622254668890563
F1_AT_1 = 2.9444655194273249
F1_AT_2 = 4.0742297727708174
F2_AT_01 = 0.0066489079252247330
F2_AT_2 = 0.7918121528698671


def quad_si(x, monkeypatch):
    def sinc(y):
        return np.sinc(y / np.pi)

    monkeypatch.setattr(oracle, "ABS_TOL", 1e-13)
    monkeypatch.setattr(oracle, "REL_TOL", 1e-13)
    return oracle.integrate_adaptive(sinc, 0.0, x)


class TestSineIntegral:
    def test_zero(self):
        assert specfun.sine_integral(0.0) == 0.0

    def test_at_pi(self):
        assert specfun.sine_integral(math.pi) == pytest.approx(SI_PI, abs=1e-12)

    def test_large_argument_against_asymptotics(self):
        x = 100.0
        asym = math.pi / 2 - math.cos(x) / x - math.sin(x) / x**2
        assert specfun.sine_integral(x) == pytest.approx(SI_100, abs=1e-12)
        assert specfun.sine_integral(x) == pytest.approx(asym, abs=1e-3)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, math.pi, 5.0, 10.0, 20.0])
    def test_matches_quadrature_oracle(self, x, monkeypatch):
        assert specfun.sine_integral(x) == pytest.approx(quad_si(x, monkeypatch), abs=1e-10)

    def test_limit_at_infinity(self):
        for x in (1e2, 1e3):
            assert abs(specfun.sine_integral(x) - math.pi / 2) < 2.0 / x

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            specfun.sine_integral(-1.0)

    def test_branch_continuity(self):
        # Taylor series/auxiliary-function switch at x = 4
        at_switch = np.array([4.0])
        assert specfun._si_taylor(at_switch)[0] == pytest.approx(
            specfun._si_large(functools.partial(specfun._aux_chebyshev, 0), at_switch)[0],
            abs=1e-13,
        )


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
        cut = specfun.SMALL_CUT
        for x in (cut * 0.999, cut, cut * 1.001):
            closed = specfun.f1_closed(x)
            series = specfun.f1_series(x)
            assert abs(series - closed) / abs(closed) <= 2e-15

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
            closed = specfun.f2_closed(x)
            series = specfun.f2_series(x)
            assert abs(series - closed) / abs(closed) <= 2e-15

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


# Points in every branch of Si, f1 and f2, both sides of each switch.
SWITCHES = [specfun.SMALL_CUT, specfun.LARGE_CUT, 4.0, 8.0, 16.0, 32.0, 64.0, 1e17]
BRANCH_POINTS = [0.0, 1e-300, 1e-8, 0.05, 0.3, 3.7, 50.0, 1e3, 1e16, 1e300, 1.7e308] + [
    float(x) for cut in SWITCHES for x in (np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf))
]


class TestArrayCore:
    FUNCS = (specfun.sine_integral, specfun.f1, specfun.f2)

    @pytest.mark.parametrize("fn", FUNCS)
    def test_zero_dim_returns_float(self, fn):
        for x in (0.7, np.float64(0.7), np.array(0.7), 7):
            assert type(fn(x)) is float

    @pytest.mark.parametrize("fn", FUNCS)
    def test_elements_equal_scalar_calls_bit_for_bit(self, fn):
        xs = np.array(BRANCH_POINTS + np.geomspace(1e-3, 60.0, 97).tolist())
        values = fn(xs)
        assert values.shape == xs.shape
        assert values.tolist() == [fn(x) for x in xs.tolist()]

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

    def test_large_branch_agreement_at_cut(self):
        cut = specfun.LARGE_CUT
        for x in (cut * 0.999, cut, cut * 1.001):
            at = np.array([x])
            # y = 2x lies in (3.996, 4.004]: the first octave's fit, [4, 8].
            f1_large = specfun._f1_large(functools.partial(specfun._aux_chebyshev, 0), at)[0]
            assert f1_large == pytest.approx(specfun.f1_closed(x), rel=1e-14)
            assert specfun._f2_large(at)[0] == pytest.approx(specfun.f2_closed(x), rel=1e-13)

    def test_f1_flat_beyond_cut(self):
        # 3.0 is f1 rounded to double beyond the flat cut; the large-x form
        # agrees there to an ulp.
        at = np.array([specfun._F1_FLAT_CUT])
        assert specfun._f1_large(specfun._aux_asymptotic, at)[0] == pytest.approx(3.0, abs=4.5e-16)
        assert specfun.f1(1.7e308) == 3.0


# Two ulps of a value in [1, 2): the most a switch may move a function by.
SWITCH_TOL = 4.5e-16


class TestSwitchContinuity:
    """The branches on either side of every switch agree at the switch.

    The kernels meet at ``SMALL_CUT`` (``test_branch_agreement_at_cut`` of f1
    and f2) and at Si's x = 4 (``TestSineIntegral.test_branch_continuity``);
    the last test bounds each public step across every switch.
    """

    @pytest.mark.parametrize("octave", [0, 1, 2])
    def test_chebyshev_octaves_meet(self, octave):
        # y = 8, 16, 32 is s = -1 on one octave and s = 1 on the next.
        for table in (_specfun_tables.AUX_F_CHEBYSHEV, _specfun_tables.AUX_G_CHEBYSHEV):
            below = specfun._clenshaw(table[octave], -1.0)
            above = specfun._clenshaw(table[octave + 1], 1.0)
            assert abs(above - below) <= SWITCH_TOL

    def test_chebyshev_meets_asymptotic_at_64(self):
        at = np.array([specfun.ASYMPTOTIC_CUT])
        for fit, series in zip(specfun._aux_chebyshev(3, at), specfun._aux_asymptotic(at)):
            assert abs(fit[0] - series[0]) <= SWITCH_TOL

    @pytest.mark.parametrize("fn, cut", [
        (specfun.f1, specfun.SMALL_CUT), (specfun.f2, specfun.SMALL_CUT),
        (specfun.f1, specfun.LARGE_CUT),
        *((specfun.sine_integral, cut) for cut in (4.0, 8.0, 16.0, 32.0, 64.0)),
        *((specfun.f1, cut / 2) for cut in (8.0, 16.0, 32.0, 64.0)),
    ])
    def test_public_function_steps_by_an_ulp_at_most(self, fn, cut):
        at = fn(cut)
        for side in (0.0, math.inf):
            assert abs(fn(float(np.nextafter(cut, side))) - at) <= SWITCH_TOL * abs(at)


# float.hex of Si(x) at x = y^-, y, y^+ (an ulp below, at and an ulp above
# each Chebyshev octave end y = 4, 8, 16, 32, 64), and of f1 at x/2.  Recorded
# from the evaluation that gathered each element's octave coefficients, which
# the per-octave pieces replaced.
SI_AT_OCTAVE_ENDS = {
    4.0: ("0x1.c21999d582bf1p+0", "0x1.c21999d582bf0p+0", "0x1.c21999d582befp+0"),
    8.0: ("0x1.92fde85506871p+0", "0x1.92fde85506871p+0", "0x1.92fde85506872p+0"),
    16.0: ("0x1.a19d06841c43dp+0", "0x1.a19d06841c43dp+0", "0x1.a19d06841c43cp+0"),
    32.0: ("0x1.8b536dd995ffep+0", "0x1.8b536dd995ffep+0", "0x1.8b536dd995fffp+0"),
    64.0: ("0x1.907ff152d074ap+0", "0x1.907ff152d074ap+0", "0x1.907ff152d074bp+0"),
}
F1_AT_OCTAVE_ENDS = {
    4.0: ("0x1.04c02e3b9c2bdp+2", "0x1.04c02e3b9c2bcp+2", "0x1.04c02e3b9c2bcp+2"),
    8.0: ("0x1.58ff4927f8ed3p+1", "0x1.58ff4927f8ed4p+1", "0x1.58ff4927f8ed5p+1"),
    16.0: ("0x1.8bcadf57a61edp+1", "0x1.8bcadf57a61eep+1", "0x1.8bcadf57a61f0p+1"),
    32.0: ("0x1.793f354bf2cc1p+1", "0x1.793f354bf2cc1p+1", "0x1.793f354bf2cc0p+1"),
    64.0: ("0x1.7a875cc6e00c3p+1", "0x1.7a875cc6e00c3p+1", "0x1.7a875cc6e00c3p+1"),
}


class TestOctavePieces:
    """Each Chebyshev octave is a piece of its own; the values are pinned bit for bit."""

    @pytest.mark.parametrize("fn, scale, table", [
        (specfun.sine_integral, 1.0, SI_AT_OCTAVE_ENDS),
        (specfun.f1, 0.5, F1_AT_OCTAVE_ENDS),
    ], ids=["sine_integral", "f1"])
    @pytest.mark.parametrize("end", [4.0, 8.0, 16.0, 32.0, 64.0])
    def test_octave_ends_bit_for_bit(self, fn, scale, table, end):
        ys = [math.nextafter(end, 0.0), end, math.nextafter(end, math.inf)]
        xs = [scale * y for y in ys]  # exact: scale is a power of two
        assert [fn(x).hex() for x in xs] == list(table[end])
        assert [v.hex() for v in fn(np.array(xs)).tolist()] == list(table[end])

    @pytest.mark.parametrize("fn", [specfun.sine_integral, specfun.f1, specfun.f2])
    def test_float_path_equals_array_path(self, fn):
        rng = np.random.default_rng(20261019)
        xs = np.exp(rng.uniform(math.log(2.0), math.log(64.0), 2000))
        assert [fn(x) for x in xs.tolist()] == fn(xs).tolist()


def _mp_dps(x):
    # f1/f2 cancel to O(x^3)/O(x^4) of O(1) terms at small x and to O(x^2)
    # of O(x^3) terms at large x: carry 4 guard digits per decade.
    return 30 + int(4 * abs(math.log10(x)))


def _mp_reference(x):
    """(Si(x), f1(x), f2(x)) from the closed forms in mpmath."""
    with mp.workdps(_mp_dps(x)):
        x = mp.mpf(x)
        x2 = x * x
        s2, c2 = mp.sin(2 * x), mp.cos(2 * x)
        f1 = (1 + x2 * (mp.pi * x + 3) - (1 + x2) * c2 - 2 * x * s2
              - 2 * x * x2 * mp.si(2 * x)) / x2
        f2 = (1 - x * s2 - c2) / x2
        return float(mp.si(x)), float(f1), float(f2)


# Log grid over [1e-8, 1e300], denser where the branches switch.
MP_GRID = np.unique(np.concatenate([np.geomspace(1e-8, 1e300, 400),
                                    np.geomspace(1e-3, 1e3, 600)]))

# Worst errors measured on MP_GRID: Si 4.1e-16; f1 2.2e-16 (series,
# x <= 1), 6.5e-16 (1, 2] (closed form), 1.7e-16 beyond; f2 1.9e-16 (series),
# 1.5e-16 (1, 2], 3.1e-16 beyond.  Every band holds 2e-15 (the closed forms
# on (1, 2]); the others hold 1e-15.
MP_BANDS = {
    "si": ((math.inf, 1e-15),),
    "f1": ((0.1, 1e-15), (0.5, 1e-15), (1.0, 1e-15), (2.0, 2e-15), (math.inf, 1e-15)),
    "f2": ((0.1, 1e-15), (0.5, 1e-15), (1.0, 1e-15), (2.0, 2e-15), (math.inf, 1e-15)),
}


class TestAgainstMpmath:
    @pytest.fixture(scope="class")
    def reference(self):
        return dict(zip(("si", "f1", "f2"),
                        np.array([_mp_reference(x) for x in MP_GRID.tolist()]).T))

    @pytest.mark.parametrize("name, fn", [
        ("si", specfun.sine_integral), ("f1", specfun.f1), ("f2", specfun.f2),
    ])
    def test_one_array_call(self, reference, name, fn):
        ref = reference[name]
        # f2 oscillates through zero: measure it against its envelope
        # min(x^2, 1/x), written so that nothing overflows.
        scale = np.abs(ref)
        if name == "f2":
            envelope = np.where(MP_GRID < 1.0, MP_GRID, 1.0) * np.minimum(MP_GRID, 1.0 / MP_GRID)
            scale = np.maximum(scale, envelope)
        err = np.abs(fn(MP_GRID) - ref) / scale
        lower = 0.0
        for upper, tol in MP_BANDS[name]:
            band = (MP_GRID > lower) & (MP_GRID <= upper)
            assert band.any()
            worst = float(err[band].max())
            assert worst <= tol, f"{name} on ({lower}, {upper}]: {worst:.2e} > {tol:.0e}"
            lower = upper


def _f2_envelope(x):
    """min(x^2, 1/x), the scale f2 oscillates within, written not to overflow."""
    return x * x if x < 1.0 else 1.0 / x


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(
    st.floats(min_value=1e-8, max_value=1e300),
    st.floats(min_value=-8.0, max_value=300.0).map(lambda e: min(10.0**e, 1e300)),
))
def test_against_mpmath_anywhere(x):
    """Si, f1 and f2 within 2e-15 of mpmath (f2 of its envelope) at any x."""
    si, f1, f2 = _mp_reference(x)
    for fn, ref, scale in (
        (specfun.sine_integral, si, abs(si)),
        (specfun.f1, f1, abs(f1)),
        (specfun.f2, f2, max(abs(f2), _f2_envelope(x))),
    ):
        value = fn(x)
        assert abs(value - ref) <= 2e-15 * scale, (fn.__name__, x, value, ref)
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
        generator.TARGET.write_text(text.replace("SI_TERMS = ", "SI_TERMS = 1 + "))
        assert generator.main(["--check"]) == 1  # differs
        generator.TARGET.write_text(text)
        assert generator.main(["--check"]) == 0

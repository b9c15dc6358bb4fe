import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from gravatom import specfun
from gravatom.errors import DomainError
from gravatom.oracle import QuadratureSpec, integrate_adaptive

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


def quad_si(x):
    def sinc(y):
        return np.sinc(y / np.pi)

    return integrate_adaptive(sinc, 0.0, x, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))


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
    def test_matches_quadrature_oracle(self, x):
        assert specfun.sine_integral(x) == pytest.approx(quad_si(x), abs=1e-10)

    def test_limit_at_infinity(self):
        for x in (1e2, 1e3):
            assert abs(specfun.sine_integral(x) - math.pi / 2) < 2.0 / x

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            specfun.sine_integral(-1.0)

    def test_odd_extension(self):
        assert specfun.sine_integral(-2.0, odd_extension=True) == pytest.approx(
            -specfun.sine_integral(2.0), rel=1e-15
        )

    def test_branch_continuity(self):
        # series/continued-fraction switch at x = 4
        at_switch = np.array([4.0])
        assert specfun._si_series(at_switch)[0] == pytest.approx(
            specfun._si_continued_fraction(at_switch)[0], abs=1e-13
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
            assert abs(series - closed) / abs(closed) <= 1e-10

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
            assert abs(series - closed) / abs(closed) <= 1e-10

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
BRANCH_POINTS = [
    0.0, 1e-300, 1e-8, 0.05, specfun.SMALL_CUT, 0.10000000000000002, 0.3, 1.0,
    specfun.LARGE_CUT, 2.0000000000000004, 3.7, 4.0, 4.000000000000001, 50.0,
    1e3, 1e16, 1e17, 1.0000000000000002e17, 1e300, 1.7e308,
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

    def test_odd_extension_on_arrays(self):
        xs = np.array([-50.0, -2.0, 0.0, 2.0, 50.0])
        values = specfun.sine_integral(xs, odd_extension=True)
        assert values.tolist() == (-values[::-1]).tolist()
        assert values[3] == specfun.sine_integral(2.0)

    def test_large_branch_agreement_at_cut(self):
        cut = specfun.LARGE_CUT
        for x in (cut * 0.999, cut, cut * 1.001):
            at = np.array([x])
            assert specfun._f1_large(at)[0] == pytest.approx(specfun.f1_closed(x), rel=1e-14)
            assert specfun._f2_large(at)[0] == pytest.approx(specfun.f2_closed(x), rel=1e-13)

    def test_f1_flat_beyond_cut(self):
        # 3.0 is f1 rounded to double beyond the flat cut; the large-x form
        # agrees there to an ulp.
        at = np.array([specfun._F1_FLAT_CUT])
        assert specfun._f1_large(at)[0] == pytest.approx(3.0, abs=4.5e-16)
        assert specfun.f1(1.7e308) == 3.0


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

# Worst errors measured on MP_GRID: Si 4.1e-16; f1 2.8e-16 (series),
# 5.7e-14 (0.1, 0.5], 1.2e-15 (0.5, 2], 6.1e-16 beyond; f2 3.0e-16 (series),
# 7.2e-13 (0.1, 0.5], 1.1e-15 (0.5, 2], 3.1e-16 beyond.  The (0.1, 0.5]
# closed-form band is the known weak spot; the other bands hold ~1 ulp.
MP_BANDS = {
    "si": ((math.inf, 1e-15),),
    "f1": ((0.1, 1e-15), (0.5, 1e-13), (2.0, 3e-15), (math.inf, 1e-15)),
    "f2": ((0.1, 1e-15), (0.5, 2e-12), (2.0, 3e-15), (math.inf, 1e-15)),
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

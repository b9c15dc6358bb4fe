import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gravatom import specfun
from gravatom.errors import DomainError
from gravatom.oracle import QuadratureSpec, integrate_adaptive

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
        assert specfun._si_series(4.0) == pytest.approx(
            specfun._si_continued_fraction(4.0), abs=1e-13
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

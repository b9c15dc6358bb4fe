import math

import pytest
from hypothesis import given, strategies as st

from gravatom import specfun
from gravatom.errors import DomainError, RegimeError
from gravatom.model import AtomSpec, GravityEnv
from gravatom.rates import build_rate_set, flat_rate, rate_bracket
from gravatom.specfun import bose_occupation, f1, f2

F1_AT_2 = 4.0742297727708174  # frozen quadrature reference


def rate_set(omega=1.0, phi=0.0, distance=1.0, angle=0.0, dipole=1.0, temperature=0.0):
    """``build_rate_set`` for the atom, environment and distant temperature given."""
    atom = AtomSpec(omega=omega, dipole_mag=dipole, dipole_angle=angle)
    env = GravityEnv(phi=phi, distance=distance)
    return build_rate_set(atom, env, temperature)


def ratio(x, phi, angle=0.0):
    """gamma_g / gamma at x = R * Omega (Omega = 1)."""
    rs = rate_set(phi=phi, distance=x, angle=angle)
    return rs.gamma_g / rs.gamma_flat


class TestRedshiftedFrequency:
    def test_flat(self):
        assert rate_set(omega=1.0).omega_g == 1.0

    def test_substitution(self):
        assert rate_set(omega=1.0, phi=-0.01).omega_g == pytest.approx(0.99, rel=1e-15)
        assert rate_set(omega=2.0, phi=-0.05).omega_g == pytest.approx(1.9, rel=1e-15)

    def test_bad_omega(self):
        # Refused at the model boundary, before any rate is formed.
        with pytest.raises(DomainError):
            AtomSpec(omega=-1.0)


class TestFlatRate:
    def test_unit(self):
        assert flat_rate(1.0, 1.0) == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-15)

    def test_cubic_scaling(self):
        assert flat_rate(1.0, 2.0) == pytest.approx(8.0 / (6.0 * math.pi), rel=1e-15)

    def test_no_coupling(self):
        assert flat_rate(0.0, 5.0) == 0.0

    def test_overflow_rejected(self):
        for dipole, omega in ((1.0, 1e300), (1e200, 1.0), (1e150, 1e100)):
            with pytest.raises(DomainError, match="overflows"):
                flat_rate(dipole, omega)


class TestEmissionRate:
    def test_flat_space_identity(self):
        for x, angle in ((0.1, 0.0), (3.0, math.pi / 2), (10.0, math.pi / 4)):
            rs = rate_set(distance=x, angle=angle, dipole=0.37)
            assert rs.gamma_g == rs.gamma_flat

    def test_low_frequency_plateau(self):
        assert ratio(1e-4, -0.05) == pytest.approx(0.65, rel=1e-3)

    def test_high_frequency_plateau(self):
        assert ratio(50.0, -0.05) == pytest.approx(0.95, rel=5e-3)

    def test_enhancement_point(self):
        expected = 1.0 + (-0.05) * (7.0 - 2.0 * F1_AT_2)
        assert ratio(2.0, -0.05) == pytest.approx(expected, rel=1e-12)
        assert ratio(2.0, -0.05) == pytest.approx(1.0574, abs=1e-4)

    @given(
        phi=st.floats(min_value=-0.05, max_value=-1e-4),
        x=st.floats(min_value=1e-3, max_value=100.0),
        angle=st.floats(min_value=0.0, max_value=math.pi),
    )
    def test_affine_in_phi(self, phi, x, angle):
        r1 = rate_set(phi=phi, distance=x, angle=angle)
        r2 = rate_set(phi=2.0 * phi, distance=x, angle=angle)
        gamma = r1.gamma_flat
        assert (r2.gamma_g - gamma) == pytest.approx(2.0 * (r1.gamma_g - gamma), rel=1e-12)

    @given(psi=st.floats(min_value=0.0, max_value=math.pi / 2))
    def test_psi_symmetry(self, psi):
        env = GravityEnv(phi=-0.05, distance=2.0)
        a1 = AtomSpec(omega=1.0, dipole_angle=psi)
        a2 = AtomSpec(omega=1.0, dipole_angle=math.pi - psi)
        r1 = build_rate_set(a1, env)
        r2 = build_rate_set(a2, env)
        assert r1.gamma_g == pytest.approx(r2.gamma_g, rel=1e-14)

    def test_enhancement_window(self):
        # parallel ratio exceeds 1 somewhere around x ~ 2
        best = max(ratio(1.5 + 0.05 * i, -0.05) for i in range(31))
        assert best > 1.0

    @pytest.mark.filterwarnings("ignore:.*first-order corrections are no longer small")
    def test_negative_bracket_rejected(self):
        # |phi| > 1/7 at small x: 1 + 7 phi - ... < 0.
        with pytest.raises(RegimeError, match="bracket .* is negative"):
            rate_set(omega=1e-3, phi=-0.15)

    def test_nan_bracket_rejected(self, monkeypatch):
        # Refused where it arises, not later as an overflow of n_B * gamma_g.
        monkeypatch.setattr(specfun, "f1", lambda x: math.nan)
        with pytest.raises(RegimeError, match="bracket .* = nan is not a number"):
            rate_set(phi=-0.01)

    def test_overflowed_x_rejected(self):
        # R * Omega overflows while Omega^3 does not: refused by specfun.
        with pytest.raises(DomainError, match="requires finite x"):
            rate_set(omega=1e100, distance=1e250)


class TestThermalRates:
    def test_vacuum(self):
        rs = rate_set(dipole=1.2)
        assert rs.gamma_plus == 0.0
        assert rs.gamma_minus == rs.gamma_g

    def test_unit_occupation(self):
        rs = rate_set(omega=1.0, temperature=1.0 / math.log(2.0))
        assert rs.gamma_plus == pytest.approx(rs.gamma_g, rel=1e-13)
        assert rs.gamma_minus == pytest.approx(2.0 * rs.gamma_g, rel=1e-13)

    def test_detailed_balance(self):
        for T in (0.3, 1.0, 7.0):
            rs = rate_set(omega=1.3, phi=-0.04, temperature=T)
            assert rs.gamma_plus / rs.gamma_minus == pytest.approx(
                math.exp(-rs.omega_g / T), rel=1e-12
            )

    @pytest.mark.parametrize("T, message", [
        (-1.0, r"temperature must be >= 0, got -1\.0"),
        (math.nan, "temperature must be finite, got nan"),
        (math.inf, "temperature must be finite, got inf"),
        (-math.inf, "temperature must be finite, got -inf"),
    ], ids=["negative", "nan", "inf", "-inf"])
    def test_bad_temperature_rejected(self, T, message):
        with pytest.raises(DomainError, match=message):
            rate_set(omega=1.3, phi=-0.04, temperature=T)

    def test_overflow_rejected(self):
        # n_B * gamma_g overflows, and n_B itself overflows as omega/T -> 0.
        for omega, T, message in (
            (1e100, 1e300, r"thermal rate n_B \* gamma_g overflows"),
            (1e-300, 1e10, "occupation overflows"),
        ):
            with pytest.raises(DomainError, match=message):
                rate_set(omega=omega, temperature=T)

    def test_tolman_invariance(self):
        # n_B(omega_g; T) equals n_B(omega; T_local), T_local = T / (1 + phi).
        omega, phi, T = 1.7, -0.08, 0.9
        rs = rate_set(omega=omega, phi=phi, temperature=T)
        n_local = bose_occupation(omega, T / (1.0 + phi))
        assert bose_occupation(rs.omega_g, T) == pytest.approx(n_local, rel=1e-14)
        assert rs.gamma_plus == pytest.approx(n_local * rs.gamma_g, rel=1e-14)


class TestTotalAndSteady:
    def test_vacuum(self):
        rs = rate_set(dipole=0.8)
        assert (rs.gamma_total, rs.steady_excited) == (rs.gamma_g, 0.0)

    def test_unit_occupation_case(self):
        rs = rate_set(omega=1.0, temperature=1.0 / math.log(2.0))
        assert rs.gamma_total == pytest.approx(3.0 * rs.gamma_g)
        assert rs.steady_excited == pytest.approx(1.0 / 3.0)

    def test_degenerate(self):
        with pytest.raises(DomainError, match="no dissipation"):
            rate_set(dipole=0.0)

    def test_overflow_rejected(self):
        # n_B gamma_g and (n_B + 1) gamma_g are finite; their sum is not.
        for omega, dipole, T in ((1e100, 1.0, 1.8e109), (1.0, 4.3e150, 1e8)):
            with pytest.raises(DomainError, match="total rate overflows"):
                rate_set(omega=omega, dipole=dipole, temperature=T)

    def test_two_nb_plus_one_identity(self):
        for T in (0.0, 0.5, 2.0):
            rs = rate_set(omega=1.1, dipole=0.3, angle=0.7, temperature=T)
            n = bose_occupation(rs.omega_g, T)
            assert rs.gamma_total == pytest.approx((2.0 * n + 1.0) * rs.gamma_g, rel=1e-14)


class TestRateSet:
    def test_invariants(self):
        atom = AtomSpec(omega=1.0, dipole_mag=1.0, dipole_angle=0.3)
        env = GravityEnv(phi=-0.05, distance=2.0)
        rs = build_rate_set(atom, env, 0.7)
        assert rs.gamma_minus >= rs.gamma_plus >= 0.0
        assert rs.gamma_total == rs.gamma_plus + rs.gamma_minus
        assert 0.0 <= rs.steady_excited < 0.5
        assert rs.gamma_plus / rs.gamma_minus == pytest.approx(
            math.exp(-rs.omega_g / 0.7), rel=1e-12
        )

    def test_flat_vacuum_reduces_to_flat_rate(self):
        atom = AtomSpec(omega=1.0)
        rs = build_rate_set(atom, GravityEnv(phi=0.0, distance=1.0))
        assert rs.gamma_g == pytest.approx(rs.gamma_flat, rel=1e-15)
        assert rs.gamma_flat == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-15)


def _bisect(g, a, b):
    """The sign change of g on [a, b], to the last bit."""
    g_a = g(a)
    while a < (m := 0.5 * (a + b)) < b:
        if (g(m) > 0.0) == (g_a > 0.0):
            a = m
        else:
            b = m
    return m


class TestEnhancementRegime:
    """At phi = -0.1 and psi = 0 the corrected rate exceeds the flat one for
    f1(x) > 7/2, between two edges; off that axis it does so for sin^2(psi)
    below s_c = (2 f1 - 7) / (3 f2), whose maximum is at x*.  References are
    the 30-digit roots and maximum of the closed forms in mpmath.
    """

    @pytest.mark.parametrize("a, b, edge", [
        (1.0, 1.5, 1.26263232760493459477620119886),
        (2.5, 3.0, 2.67193705638053537102817124953),
    ], ids=["lower", "upper"])
    def test_window_edge(self, a, b, edge):
        x = _bisect(lambda x: (rate_bracket(x, -0.1, 0.0) - 1.0) / -0.1, a, b)
        assert abs(x - edge) <= 1e-13 * edge

    def test_critical_angle_maximum(self):
        def s_c(x):
            return (2.0 * f1(x) - 7.0) / (3.0 * f2(x))

        x_star, s_max = 1.99979024768187874815808210353, 0.483473094086886247894532631629
        assert abs(s_c(x_star) - s_max) <= 1e-13 * s_max
        assert s_c(x_star - 1e-4) < s_c(x_star) > s_c(x_star + 1e-4)

import math

import pytest
from hypothesis import given, strategies as st

from gravatom.errors import DegenerateError, DomainError
from gravatom.model import AtomSpec, DimensionlessPoint, GravityEnv, ThermalSpec
from gravatom.rates import (
    build_rate_set,
    emission_rate,
    flat_rate,
    redshifted_frequency,
    thermal_rates,
    tolman_local_temperature,
    total_and_steady,
)
from gravatom.specfun import bose_occupation

F1_AT_2 = 4.0742297727708174  # frozen quadrature reference


class TestRedshiftedFrequency:
    def test_flat(self):
        assert redshifted_frequency(1.0, 0.0) == 1.0

    def test_substitution(self):
        assert redshifted_frequency(1.0, -0.01) == pytest.approx(0.99, rel=1e-15)
        assert redshifted_frequency(2.0, -0.05) == pytest.approx(1.9, rel=1e-15)

    def test_bad_omega(self):
        with pytest.raises(DomainError):
            redshifted_frequency(-1.0, 0.0)


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
        gamma = 0.37
        for x, s2 in ((0.1, 0.0), (3.0, 1.0), (10.0, 0.5)):
            p = DimensionlessPoint(x=x, phi=0.0, sin2psi=s2)
            assert emission_rate(p, gamma) == gamma

    def test_low_frequency_plateau(self):
        p = DimensionlessPoint(x=1e-4, phi=-0.05, sin2psi=0.0)
        assert emission_rate(p, 1.0) == pytest.approx(0.65, rel=1e-3)

    def test_high_frequency_plateau(self):
        p = DimensionlessPoint(x=50.0, phi=-0.05, sin2psi=0.0)
        assert emission_rate(p, 1.0) == pytest.approx(0.95, rel=5e-3)

    def test_enhancement_point(self):
        p = DimensionlessPoint(x=2.0, phi=-0.05, sin2psi=0.0)
        expected = 1.0 + (-0.05) * (7.0 - 2.0 * F1_AT_2)
        assert emission_rate(p, 1.0) == pytest.approx(expected, rel=1e-12)
        assert emission_rate(p, 1.0) == pytest.approx(1.0574, abs=1e-4)

    @given(
        phi=st.floats(min_value=-0.05, max_value=-1e-4),
        x=st.floats(min_value=1e-3, max_value=100.0),
        s2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_affine_in_phi(self, phi, x, s2):
        gamma = 1.0
        g1 = emission_rate(DimensionlessPoint(x=x, phi=phi, sin2psi=s2), gamma)
        g2 = emission_rate(DimensionlessPoint(x=x, phi=2.0 * phi, sin2psi=s2), gamma)
        assert (g2 - gamma) == pytest.approx(2.0 * (g1 - gamma), rel=1e-12)

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
        best = max(
            emission_rate(DimensionlessPoint(x=x, phi=-0.05, sin2psi=0.0), 1.0)
            for x in [1.5 + 0.05 * i for i in range(31)]
        )
        assert best > 1.0


class TestThermalRates:
    def test_vacuum(self):
        gp, gm = thermal_rates(0.2, 1.0, ThermalSpec.vacuum())
        assert gp == 0.0
        assert gm == 0.2

    def test_unit_occupation(self):
        omega_g = 1.0
        T = omega_g / math.log(2.0)
        gp, gm = thermal_rates(0.5, omega_g, ThermalSpec.from_distant(T, 0.0))
        assert gp == pytest.approx(0.5, rel=1e-13)
        assert gm == pytest.approx(1.0, rel=1e-13)

    def test_detailed_balance(self):
        for T in (0.3, 1.0, 7.0):
            gp, gm = thermal_rates(0.2, 1.3, ThermalSpec.from_distant(T, 0.0))
            assert gp / gm == pytest.approx(math.exp(-1.3 / T), rel=1e-12)

    def test_overflow_rejected(self):
        # n_B * gamma_g overflows, and n_B itself overflows as omega/T -> 0.
        for gamma_g, omega_g, T in ((5e298, 1e100, 1e300), (1.0, 1e-300, 1e10)):
            with pytest.raises(DomainError, match="overflows"):
                thermal_rates(gamma_g, omega_g, ThermalSpec.from_distant(T, 0.0))

    def test_tolman_invariance(self):
        # n_B(omega_g; T) equals n_B(omega; T_local) identically
        omega, phi, T = 1.7, -0.08, 0.9
        omega_g = redshifted_frequency(omega, phi)
        thermal = ThermalSpec.from_distant(T, phi)
        n_distant = bose_occupation(omega_g, thermal.temperature_distant)
        n_local = bose_occupation(omega, thermal.temperature_local)
        assert n_distant == pytest.approx(n_local, rel=1e-14)


class TestTotalAndSteady:
    def test_vacuum(self):
        assert total_and_steady(0.0, 0.4) == (0.4, 0.0)

    def test_unit_occupation_case(self):
        total, steady = total_and_steady(0.3, 0.6)
        assert total == pytest.approx(0.9)
        assert steady == pytest.approx(1.0 / 3.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            total_and_steady(0.0, 0.0)

    def test_overflow_rejected(self):
        for gp, gm in ((1e308, 1e308), (math.inf, 0.5), (0.5, math.nan)):
            with pytest.raises(DomainError):
                total_and_steady(gp, gm)

    def test_two_nb_plus_one_identity(self):
        for T in (0.0, 0.5, 2.0):
            omega_g, gamma_g = 1.1, 0.07
            thermal = ThermalSpec.from_distant(T, 0.0)
            gp, gm = thermal_rates(gamma_g, omega_g, thermal)
            total, _ = total_and_steady(gp, gm)
            n = bose_occupation(omega_g, T)
            assert total == pytest.approx((2.0 * n + 1.0) * gamma_g, rel=1e-14)


class TestTolmanLocalTemperature:
    def test_flat(self):
        assert tolman_local_temperature(1.0, 0.0) == 1.0

    def test_substitution(self):
        assert tolman_local_temperature(1.0, -0.1) == pytest.approx(1.0 / 0.9, rel=1e-14)


class TestRateSet:
    def test_invariants(self):
        atom = AtomSpec(omega=1.0, dipole_mag=1.0, dipole_angle=0.3)
        env = GravityEnv(phi=-0.05, distance=2.0)
        thermal = ThermalSpec.from_distant(0.7, env.phi)
        rs = build_rate_set(atom, env, thermal)
        assert rs.gamma_minus >= rs.gamma_plus >= 0.0
        assert rs.gamma_total == rs.gamma_plus + rs.gamma_minus
        assert 0.0 <= rs.steady_excited < 0.5
        assert rs.gamma_plus / rs.gamma_minus == pytest.approx(
            math.exp(-rs.omega_g / 0.7), rel=1e-12
        )

    def test_flat_vacuum_reduces_to_flat_rate(self):
        atom = AtomSpec(omega=1.0)
        rs = build_rate_set(atom, GravityEnv.flat())
        assert rs.gamma_g == pytest.approx(rs.gamma_flat, rel=1e-15)
        assert rs.gamma_flat == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-15)

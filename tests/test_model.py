import math

import pytest

from gravatom.errors import DomainError, RegimeError
from gravatom.model import AtomSpec, GravityEnv, ThermalSpec, potential_from_source


class TestPotentialFromSource:
    def test_no_source(self):
        assert potential_from_source(0.0, 1.0) == 0.0

    def test_direct_substitution(self):
        assert potential_from_source(0.01, 1.0) == pytest.approx(-0.01, rel=1e-15)

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            potential_from_source(1.0, 2.0)

    def test_bad_distance(self):
        with pytest.raises(DomainError):
            potential_from_source(1.0, 0.0)

    def test_explicit_G(self):
        assert potential_from_source(1.0, 100.0, G=2.0) == pytest.approx(-0.02)

    def test_round_trip(self):
        phi = -0.037
        R = 4.2
        mass = -phi * R  # G = 1
        assert potential_from_source(mass, R) == pytest.approx(phi, rel=1e-14)


class TestAtomSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            AtomSpec(omega=0.0)
        with pytest.raises(DomainError):
            AtomSpec(omega=1.0, dipole_mag=-1.0)
        with pytest.raises(DomainError):
            AtomSpec(omega=1.0, dipole_angle=4.0)

    def test_sin2psi(self):
        assert AtomSpec(omega=1.0, dipole_angle=math.pi / 2).sin2psi == pytest.approx(1.0)
        assert AtomSpec(omega=1.0, dipole_angle=math.pi / 4).sin2psi == pytest.approx(0.5)


class TestGravityEnv:
    def test_positive_phi_rejected(self):
        with pytest.raises(DomainError):
            GravityEnv(phi=0.01, distance=1.0)

    def test_hard_gate(self):
        with pytest.raises(RegimeError):
            GravityEnv(phi=-0.5, distance=1.0)

    def test_warning_band(self):
        with pytest.warns(UserWarning):
            GravityEnv(phi=-0.2, distance=1.0)

    def test_from_source(self):
        env = GravityEnv.from_source(mass=0.05, distance=1.0)
        assert env.phi == pytest.approx(-0.05)
        assert env.distance == 1.0


class TestThermalSpec:
    def test_tolman_relation(self):
        phi = -0.1
        t = ThermalSpec.from_distant(1.0, phi)
        assert t.temperature_local == pytest.approx(1.0 / 0.9, rel=1e-15)
        assert t.temperature_local * (1.0 + phi) == pytest.approx(
            t.temperature_distant, rel=1e-14
        )

    def test_involution(self):
        # From the local temperature back to the distant one: T_local * (1 + phi).
        phi = -0.07
        t1 = ThermalSpec.from_distant(2.5, phi)
        t2 = ThermalSpec.from_distant(t1.temperature_local * (1.0 + phi), phi)
        assert t2.temperature_distant == pytest.approx(2.5, rel=1e-14)
        assert t2.temperature_local == pytest.approx(t1.temperature_local, rel=1e-14)

    def test_negative_temperature_rejected(self):
        with pytest.raises(DomainError, match="temperatures must be >= 0"):
            ThermalSpec.from_distant(-1.0, -0.01)

    def test_vacuum(self):
        t = ThermalSpec.vacuum()
        assert t.temperature_distant == 0.0
        assert t.temperature_local == 0.0


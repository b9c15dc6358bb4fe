import copy
import math
import pickle

import pytest

from gravatom.errors import DomainError, RegimeError
from gravatom.lindblad import DensityMatrix2
from gravatom.model import AtomSpec, GravityEnv, potential_from_source
from gravatom.rates import RateSet


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

    @pytest.mark.parametrize(
        "build",
        [lambda: GravityEnv(phi=-0.2, distance=1.0),
         lambda: GravityEnv(potential_from_source(0.4, 2.0), 2.0)],
        ids=["phi", "source"],
    )
    def test_warning_band(self, build):
        with pytest.warns(UserWarning) as caught:
            env = build()
        assert env.phi == pytest.approx(-0.2, rel=1e-15)
        # The warning names the line that built the environment.
        assert [w.filename for w in caught] == [__file__]


# Each read-only record with valid arguments for every field, in field order.
RECORDS = {
    "AtomSpec": (AtomSpec, (1.3, 2.0, 0.5)),
    "GravityEnv": (GravityEnv, (-0.05, 2.0)),
    "RateSet": (RateSet, (0.95, 0.1, 0.12, 0.01, 0.13, 0.14, 0.01 / 0.14)),
    "DensityMatrix2": (DensityMatrix2, (0.6, 0.4, 0.2j)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecords:
    def test_read_only(self, name):
        cls, args = RECORDS[name]
        record = cls(*args)
        for field, value in zip(cls.__slots__, args):
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1.0
        assert not hasattr(record, "__dict__")
        assert tuple(getattr(record, field) for field in cls.__slots__) == args

    def test_positional_and_keyword_construction(self, name):
        cls, args = RECORDS[name]
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(cls.__slots__, args)))
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert repr(by_position) == repr(by_keyword)
        assert repr(by_position).startswith(f"{name}(")

    def test_pickle_and_copy(self, name):
        cls, args = RECORDS[name]
        record = cls(*args)
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record


def test_record_defaults():
    assert AtomSpec(1.0) == AtomSpec(omega=1.0, dipole_mag=1.0, dipole_angle=0.0)
    assert DensityMatrix2(1.0, 0.0).eg == 0j


def test_record_classes_stay_patchable(monkeypatch):
    # Instances are read-only, classes are not: wrappers patch methods in place.
    monkeypatch.setattr(AtomSpec, "sin2psi", property(lambda self: "patched"))
    assert AtomSpec(1.0).sin2psi == "patched"

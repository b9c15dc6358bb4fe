"""Domain types: atom and gravitational environment, and the input rules.

Natural units throughout (hbar = c = 1); Newton's constant G is an explicit
input with default 1.  All closed forms downstream depend only on the
dimensionless triple (phi, x = R*Omega, sin^2 psi).  ``NUMBER`` is the
format of every number the command line prints.  ``Record`` is the base of
every read-only record in the package.
"""

from __future__ import annotations

import math
import warnings

from .errors import DomainError, RegimeError

#: Hard gate: beyond this the first-order-in-phi expansion is rejected.
PHI_HARD_LIMIT = 0.3
#: Soft gate: a warning is issued above this.
PHI_WARN_LIMIT = 0.1

#: Every number printed: 12 significant digits, scientific notation.
NUMBER = "%.11e"


class Record:
    """Read-only record whose fields are the ``__slots__`` of its class.

    A subclass validates its arguments in ``__init__`` and then passes them,
    in ``__slots__`` order, to ``Record.__init__``, the one place fields are
    set.  An instance has no ``__dict__`` and refuses every later assignment
    or deletion; the class itself stays open to ``setattr``.  Equality, hash,
    repr and pickling go by the field values.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # Pickle and copy rebuild through ``__init__``: the default slot
        # state would be restored by ``setattr``, which refuses.
        return type(self), self._values()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def _check_angle(name: str, angle: float) -> None:
    """The dipole angle psi is finite and lies in [0, pi]."""
    _check_finite(name, angle)
    if not 0.0 <= angle <= math.pi:
        raise DomainError(f"{name} must lie in [0, pi], got {angle}")


def _check_temperature(temperature: float) -> None:
    """The distant observer's temperature is finite and >= 0; NaN fails."""
    _check_finite("temperature", temperature)
    if temperature < 0.0:
        raise DomainError(f"temperature must be >= 0, got {temperature}")


def _check_probability(name: str, p: float) -> None:
    """A probability lies in [0, 1]; NaN fails."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {p}")


def _check_phi(phi: float) -> None:
    """The hard gates on phi; only ``GravityEnv`` applies the soft one."""
    _check_finite("phi", phi)
    if phi > 0.0:
        raise DomainError(f"phi must be <= 0 (attractive source), got {phi}")
    if abs(phi) >= PHI_HARD_LIMIT:
        raise RegimeError(
            f"|phi| = {abs(phi)} >= {PHI_HARD_LIMIT}: weak-field expansion invalid"
        )


class AtomSpec(Record):
    """Two-level atom: proper splitting, dipole magnitude and orientation.

    ``dipole_angle`` is the angle psi between the effective dipole and the
    radial direction; the rates depend on it only through sin^2 psi.
    """

    __slots__ = ("omega", "dipole_mag", "dipole_angle")

    def __init__(self, omega: float, dipole_mag: float = 1.0, dipole_angle: float = 0.0):
        _check_finite("omega", omega)
        _check_finite("dipole_mag", dipole_mag)
        if omega <= 0.0:
            raise DomainError(f"omega must be positive, got {omega}")
        if dipole_mag < 0.0:
            raise DomainError(f"dipole_mag must be >= 0, got {dipole_mag}")
        _check_angle("dipole_angle", dipole_angle)
        super().__init__(omega, dipole_mag, dipole_angle)

    @property
    def sin2psi(self) -> float:
        return math.sin(self.dipole_angle) ** 2


class GravityEnv(Record):
    """Newtonian potential phi <= 0 at the atom and the source distance R."""

    __slots__ = ("phi", "distance")

    def __init__(self, phi: float, distance: float):
        _check_finite("distance", distance)
        if distance <= 0.0:
            raise DomainError(f"distance must be positive, got {distance}")
        _check_phi(phi)
        # Warned here only, where the environment is built, so that a command
        # passing phi on to further checks warns once.  Level 2 is the line
        # that constructs the environment.
        if abs(phi) > PHI_WARN_LIMIT:
            warnings.warn(
                f"|phi| = {abs(phi)} > {PHI_WARN_LIMIT}: first-order corrections "
                "are no longer small",
                stacklevel=2,
            )
        super().__init__(phi, distance)

    @classmethod
    def from_source(cls, mass: float, distance: float, G: float = 1.0) -> "GravityEnv":
        phi = potential_from_source(mass, distance, G=G)
        return cls(phi=phi, distance=distance)


def potential_from_source(mass: float, distance: float, G: float = 1.0) -> float:
    """phi = -G*M/R, gated to the weak-field regime."""
    _check_finite("mass", mass)
    _check_finite("distance", distance)
    _check_finite("G", G)
    if distance <= 0.0:
        raise DomainError(f"distance must be positive, got {distance}")
    if mass < 0.0:
        raise DomainError(f"mass must be >= 0, got {mass}")
    phi = -G * mass / distance
    _check_phi(phi)
    return phi

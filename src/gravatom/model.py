"""Domain types: atom and gravitational environment, and the input rules.

Natural units throughout (hbar = c = G = 1), so a source of mass M at
distance R has phi = -M/R.  All closed forms downstream depend only on the
dimensionless triple (phi, x = R*Omega, sin^2 psi).  ``NUMBER`` is the
format of every number the command line prints.  The read-only records of
the package are ``collections.namedtuple`` classes; those that validate do
so in ``__new__``, which ``_make``, ``_replace``, copy and pickle (protocol
2 and later) also call.
"""

import math
import warnings
from collections import namedtuple

from .errors import DomainError, RegimeError

#: Hard gate: beyond this the first-order-in-phi expansion is rejected.
PHI_HARD_LIMIT = 0.3
#: Soft gate: a warning is issued above this.
PHI_WARN_LIMIT = 0.1

#: Every number printed: 12 significant digits, scientific notation.
NUMBER = "%.11e"


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


def _check_distance(distance: float) -> None:
    """The source distance R is finite and positive."""
    _check_finite("distance", distance)
    if distance <= 0.0:
        raise DomainError(f"distance must be positive, got {distance}")


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


class AtomSpec(namedtuple("AtomSpec", ("omega", "dipole_mag", "dipole_angle"))):
    """Two-level atom: proper splitting, dipole magnitude and orientation.

    ``dipole_angle`` is the angle psi between the effective dipole and the
    radial direction; the rates depend on it only through sin^2 psi.
    """

    __slots__ = ()
    # namedtuple's own _make, which _replace calls, would skip __new__.
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, omega: float, dipole_mag: float = 1.0, dipole_angle: float = 0.0):
        _check_finite("omega", omega)
        _check_finite("dipole_mag", dipole_mag)
        if omega <= 0.0:
            raise DomainError(f"omega must be positive, got {omega}")
        if dipole_mag < 0.0:
            raise DomainError(f"dipole_mag must be >= 0, got {dipole_mag}")
        _check_angle("dipole_angle", dipole_angle)
        return super().__new__(cls, omega, dipole_mag, dipole_angle)

    @property
    def sin2psi(self) -> float:
        return math.sin(self.dipole_angle) ** 2


class GravityEnv(namedtuple("GravityEnv", ("phi", "distance"))):
    """Newtonian potential phi <= 0 at the atom and the source distance R."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, phi: float, distance: float):
        _check_distance(distance)
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
        return super().__new__(cls, phi, distance)


def potential_from_source(mass: float, distance: float) -> float:
    """phi = -M/R (G = 1), gated to the weak-field regime."""
    _check_finite("mass", mass)
    _check_distance(distance)
    if mass < 0.0:
        raise DomainError(f"mass must be >= 0, got {mass}")
    phi = -mass / distance
    _check_phi(phi)
    return phi

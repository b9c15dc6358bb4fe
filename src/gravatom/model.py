"""Domain types: atom, gravitational environment, thermal state.

Natural units throughout (hbar = c = 1); Newton's constant G is an explicit
input with default 1.  All closed forms downstream depend only on the
dimensionless triple (phi, x = R*Omega, sin^2 psi).  ``NUMBER`` is the
format of every number the command line prints.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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


def _check_phi(phi: float) -> None:
    """The hard gates on phi; only ``GravityEnv`` applies the soft one."""
    _check_finite("phi", phi)
    if phi > 0.0:
        raise DomainError(f"phi must be <= 0 (attractive source), got {phi}")
    if abs(phi) >= PHI_HARD_LIMIT:
        raise RegimeError(
            f"|phi| = {abs(phi)} >= {PHI_HARD_LIMIT}: weak-field expansion invalid"
        )


@dataclass(frozen=True)
class AtomSpec:
    """Two-level atom: proper splitting, dipole magnitude and orientation.

    ``dipole_angle`` is the angle psi between the effective dipole and the
    radial direction; the rates depend on it only through sin^2 psi.
    """

    omega: float
    dipole_mag: float = 1.0
    dipole_angle: float = 0.0

    def __post_init__(self):
        _check_finite("omega", self.omega)
        _check_finite("dipole_mag", self.dipole_mag)
        _check_finite("dipole_angle", self.dipole_angle)
        if self.omega <= 0.0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if self.dipole_mag < 0.0:
            raise DomainError(f"dipole_mag must be >= 0, got {self.dipole_mag}")
        if not 0.0 <= self.dipole_angle <= math.pi:
            raise DomainError(
                f"dipole_angle must lie in [0, pi], got {self.dipole_angle}"
            )

    @property
    def sin2psi(self) -> float:
        return math.sin(self.dipole_angle) ** 2


@dataclass(frozen=True)
class GravityEnv:
    """Newtonian potential phi <= 0 at the atom and the source distance R."""

    phi: float
    distance: float

    def __post_init__(self):
        _check_finite("distance", self.distance)
        if self.distance <= 0.0:
            raise DomainError(f"distance must be positive, got {self.distance}")
        _check_phi(self.phi)
        # Warned here only, where the environment is built, so that a command
        # passing phi on to further checks warns once.
        if abs(self.phi) > PHI_WARN_LIMIT:
            warnings.warn(
                f"|phi| = {abs(self.phi)} > {PHI_WARN_LIMIT}: first-order corrections "
                "are no longer small",
                stacklevel=3,
            )

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


@dataclass(frozen=True)
class ThermalSpec:
    """Environment temperature, distant-observer and local values.

    The two are tied by the Tolman relation T_local = T / (1 + phi);
    construct through ``from_distant``, the one place it is written.
    """

    temperature_distant: float
    temperature_local: float

    def __post_init__(self):
        _check_finite("temperature_distant", self.temperature_distant)
        _check_finite("temperature_local", self.temperature_local)
        if self.temperature_distant < 0.0 or self.temperature_local < 0.0:
            raise DomainError("temperatures must be >= 0")

    @classmethod
    def from_distant(cls, temperature: float, phi: float) -> "ThermalSpec":
        _check_phi(phi)
        return cls(
            temperature_distant=temperature,
            temperature_local=temperature / (1.0 + phi),
        )

    @classmethod
    def vacuum(cls) -> "ThermalSpec":
        return cls(temperature_distant=0.0, temperature_local=0.0)

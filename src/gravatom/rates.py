"""Closed-form generator data for the dissipative two-level atom.

Redshifted splitting, flat and gravity-corrected spontaneous emission
rates, thermal absorption/emission rates, total rate and steady-state
excited population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun
from .errors import DegenerateError, DomainError
from .model import (
    AtomSpec,
    DimensionlessPoint,
    GravityEnv,
    ThermalSpec,
    _check_phi,
    dimensionless_point,
)


@dataclass(frozen=True)
class RateSet:
    """Complete generator data for the thermal dissipative evolution."""

    omega_g: float
    gamma_flat: float
    gamma_g: float
    gamma_plus: float
    gamma_minus: float
    gamma_total: float
    steady_excited: float

    def as_dict(self) -> dict:
        return {
            "omega_g": self.omega_g,
            "gamma_flat": self.gamma_flat,
            "gamma_g": self.gamma_g,
            "gamma_plus": self.gamma_plus,
            "gamma_minus": self.gamma_minus,
            "gamma_total": self.gamma_total,
            "steady_excited": self.steady_excited,
        }


def redshifted_frequency(omega: float, phi: float) -> float:
    """Splitting seen by the distant observer: (1 + phi) * omega."""
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    _check_phi(phi)
    return (1.0 + phi) * omega


def flat_rate(dipole_mag: float, omega: float) -> float:
    """Flat-space spontaneous emission rate d^2 Omega^3 / (6 pi)."""
    if dipole_mag < 0.0:
        raise DomainError(f"dipole_mag must be >= 0, got {dipole_mag}")
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    try:
        rate = dipole_mag**2 * omega**3 / (6.0 * math.pi)
    except OverflowError:  # float ** raises where float * returns inf
        rate = math.inf
    if not math.isfinite(rate):
        raise DomainError(f"flat rate overflows for dipole_mag={dipole_mag}, omega={omega}")
    return rate


def rate_bracket(x, phi, sin2psi):
    """Rate ratio gamma_g / gamma = 1 + 7 phi - 2 phi f1(x) + 3 phi sin^2(psi) f2(x).

    First order in phi; the one place the bracket is written.  Arguments are
    floats or broadcasting arrays, and f1/f2 are evaluated once on ``x``:
    an (n, 1) column of x with a row of k sin^2(psi) values gives an (n, k)
    table.  Inputs are not validated here: callers pass a validated point
    or grid.
    """
    return 1.0 + 7.0 * phi - 2.0 * phi * specfun.f1(x) + 3.0 * phi * sin2psi * specfun.f2(x)


def emission_rate(point: DimensionlessPoint, gamma_flat: float) -> float:
    """Gravity-corrected spontaneous emission rate gamma * rate_bracket.

    Reduces to gamma in flat space.
    """
    if gamma_flat < 0.0:
        raise DomainError(f"gamma_flat must be >= 0, got {gamma_flat}")
    return gamma_flat * rate_bracket(point.x, point.phi, point.sin2psi)


def thermal_rates(
    gamma_g: float, omega_g: float, thermal: ThermalSpec
) -> tuple[float, float]:
    """(absorption, emission) rates: (n_B gamma_g, (n_B + 1) gamma_g).

    The occupation is evaluated at (omega_g, T_distant); by the Tolman
    relation this is identical to evaluating at the proper splitting and the
    local temperature.
    """
    if gamma_g < 0.0:
        raise DomainError(f"gamma_g must be >= 0, got {gamma_g}")
    if omega_g <= 0.0:
        raise DomainError(f"omega_g must be positive, got {omega_g}")
    n_b = specfun.bose_occupation(omega_g, thermal.temperature_distant)
    absorption, emission = n_b * gamma_g, (n_b + 1.0) * gamma_g
    if not (math.isfinite(absorption) and math.isfinite(emission)):
        raise DomainError(f"thermal rate n_B * gamma_g overflows for gamma_g={gamma_g}, n_B={n_b}")
    return absorption, emission


def total_and_steady(gamma_plus: float, gamma_minus: float) -> tuple[float, float]:
    """Total rate Gamma and steady excited population Gamma_+ / Gamma."""
    if gamma_plus < 0.0 or gamma_minus < 0.0:
        raise DomainError("rates must be >= 0")
    total = gamma_plus + gamma_minus
    if not math.isfinite(total):
        raise DomainError(
            f"total rate overflows for gamma_plus={gamma_plus}, gamma_minus={gamma_minus}"
        )
    if total == 0.0:
        raise DegenerateError("no dissipation: steady state undefined")
    return total, gamma_plus / total


def tolman_local_temperature(temperature: float, phi: float) -> float:
    """Local equilibrium temperature T / (1 + phi)."""
    if temperature < 0.0:
        raise DomainError(f"temperature must be >= 0, got {temperature}")
    _check_phi(phi)
    return temperature / (1.0 + phi)


def build_rate_set(
    atom: AtomSpec, env: GravityEnv, thermal: ThermalSpec | None = None
) -> RateSet:
    """Assemble the full generator for an atom in a given environment."""
    if thermal is None:
        thermal = ThermalSpec.vacuum()
    point = dimensionless_point(atom, env)
    omega_g = redshifted_frequency(atom.omega, env.phi)
    gamma = flat_rate(atom.dipole_mag, atom.omega)
    gamma_g = emission_rate(point, gamma)
    gamma_plus, gamma_minus = thermal_rates(gamma_g, omega_g, thermal)
    gamma_total, steady = total_and_steady(gamma_plus, gamma_minus)
    return RateSet(
        omega_g=omega_g,
        gamma_flat=gamma,
        gamma_g=gamma_g,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        gamma_total=gamma_total,
        steady_excited=steady,
    )

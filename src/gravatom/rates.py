"""Closed-form generator data for the dissipative two-level atom.

Redshifted splitting, flat and gravity-corrected spontaneous emission
rates, thermal absorption/emission rates, total rate and steady-state
excited population, all assembled by `build_rate_set` from the validated
model types.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import specfun
from .errors import DegenerateError, DomainError, RegimeError
from .model import AtomSpec, GravityEnv, _check_temperature


#: Complete generator data for the thermal dissipative evolution; ``gravatom
#: rates`` prints each field.
RateSet = namedtuple("RateSet", (
    "omega_g", "gamma_flat", "gamma_g", "gamma_plus", "gamma_minus",
    "gamma_total", "steady_excited",
))


def flat_rate(dipole_mag: float, omega: float) -> float:
    """Flat-space spontaneous emission rate d^2 Omega^3 / (6 pi).

    Arguments are those of a validated ``AtomSpec``; a rate too large for a
    double is a DomainError.
    """
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


def build_rate_set(atom: AtomSpec, env: GravityEnv, temperature: float = 0.0) -> RateSet:
    """Assemble the full generator for an atom in a given environment.

    The splitting seen by the distant observer is (1 + phi) omega, the
    corrected rate gamma_g = gamma * rate_bracket at x = R omega, and the
    thermal rates are (n_B gamma_g, (n_B + 1) gamma_g) with n_B taken at
    (omega_g, T), T the distant observer's temperature; by the Tolman
    relation T_local = T / (1 + phi) this equals n_B at the proper splitting
    and the local temperature.  A negative or non-finite temperature or a
    rate too large for a double is a DomainError, a negative or NaN
    bracket a RegimeError, and no dissipation at all a DegenerateError.
    """
    _check_temperature(temperature)
    x = env.distance * atom.omega
    bracket = rate_bracket(x, env.phi, atom.sin2psi)  # specfun refuses an overflowed x
    if not bracket >= 0.0:  # a NaN too, so that a faulty f1 or f2 is named here
        verdict = "is negative" if bracket < 0.0 else "is not a number"
        raise RegimeError(
            f"first-order rate bracket 1 + 7 phi - 2 phi f1 + 3 phi sin^2(psi) f2 = {bracket:.3g} "
            f"{verdict} at phi={env.phi}, x={x:.3g}: weak-field expansion invalid"
        )
    omega_g = (1.0 + env.phi) * atom.omega
    gamma = flat_rate(atom.dipole_mag, atom.omega)
    gamma_g = gamma * bracket
    n_b = specfun.bose_occupation(omega_g, temperature)
    gamma_plus, gamma_minus = n_b * gamma_g, (n_b + 1.0) * gamma_g
    if not math.isfinite(gamma_minus):  # the larger of the two, as gamma_g >= 0
        raise DomainError(f"thermal rate n_B * gamma_g overflows for gamma_g={gamma_g}, n_B={n_b}")
    gamma_total = gamma_plus + gamma_minus
    if not math.isfinite(gamma_total):
        raise DomainError(
            f"total rate overflows for gamma_plus={gamma_plus}, gamma_minus={gamma_minus}"
        )
    if gamma_total == 0.0:
        raise DegenerateError("no dissipation: steady state undefined")
    return RateSet(
        omega_g=omega_g,
        gamma_flat=gamma,
        gamma_g=gamma_g,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        gamma_total=gamma_total,
        steady_excited=gamma_plus / gamma_total,
    )

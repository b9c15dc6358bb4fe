"""Cancellation-safe special functions.

Provides the sine integral Si, the two correction functions ``f1`` and
``f2`` entering the gravity-corrected spontaneous emission rate, and the
Bose-Einstein occupation number.  Both correction functions are O(x^3)/O(x^4)
differences of O(1) trigonometric terms, so each carries a Taylor-series
branch below ``SMALL_CUT`` where the closed form loses precision to
cancellation.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

# Closed-form/series crossover.  Chosen by a one-time sweep against
# extended-precision evaluation: at x = 0.1 the closed forms are still good
# to ~1e-13 relative while the frozen series are converged to well below
# 1e-14, so both branches overlap comfortably.
SMALL_CUT = 0.1

# Si: power series below, continued fraction above.
_SI_SWITCH = 4.0


def sine_integral(x: float, odd_extension: bool = False) -> float:
    """Si(x) = integral of sin(y)/y from 0 to x.

    Power series for x <= 4, auxiliary continued-fraction evaluation for
    x > 4; absolute error below 1e-12 for x <= 1e3.  Negative arguments are
    rejected unless ``odd_extension`` is set, in which case Si(-x) = -Si(x).
    """
    if x < 0.0:
        if not odd_extension:
            raise DomainError(f"sine_integral requires x >= 0, got {x}")
        return -sine_integral(-x)
    if x == 0.0:
        return 0.0
    if x <= _SI_SWITCH:
        return _si_series(x)
    return _si_continued_fraction(x)


def _si_series(x: float) -> float:
    # Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!)
    x2 = x * x
    term = x
    total = x
    k = 0
    while True:
        k += 1
        n = 2 * k + 1
        term *= -x2 / ((n - 1) * n)
        total += term / n
        if abs(term) < 1e-18 * abs(total):
            return total
        if k > 60:  # unreachable for x <= 4
            return total


def _si_continued_fraction(x: float) -> float:
    # Si(x) = pi/2 + Im[E1(ix)], E1 evaluated by the modified Lentz
    # continued fraction e^{-z}/(z+1- 1/(z+3- 4/(z+5- ...))).
    z = 1j * x
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    e1 = cmath.exp(-z) * h
    return 0.5 * math.pi + e1.imag


# Frozen Taylor coefficients (exact rationals of the expansions about 0).
_F1_SERIES = (
    (4, -2.0 / 9.0),
    (6, 2.0 / 75.0),
    (8, -2.0 / 1225.0),
    (10, 8.0 / 127575.0),
    (12, -4.0 / 2401245.0),
    (14, 2.0 / 61486425.0),
)

_F2_SERIES = (
    (2, 2.0 / 3.0),
    (4, -8.0 / 45.0),
    (6, 2.0 / 105.0),
    (8, -16.0 / 14175.0),
    (10, 4.0 / 93555.0),
    (12, -16.0 / 14189175.0),
)


def f1_series(x: float) -> float:
    """Small-argument expansion of f1; leading term pi*x."""
    total = math.pi * x
    for power, coeff in _F1_SERIES:
        total += coeff * x**power
    return total


def f1_closed(x: float) -> float:
    """Closed form of f1 in terms of Si; cancels badly as x -> 0."""
    x2 = x * x
    bracket = (
        1.0
        + x2 * (math.pi * x + 3.0)
        - (1.0 + x2) * math.cos(2.0 * x)
        - 2.0 * x * math.sin(2.0 * x)
        - 2.0 * x * x2 * sine_integral(2.0 * x)
    )
    return bracket / x2


def f1(x: float) -> float:
    """First rate-correction function; f1(0) = 0, f1 -> 3 as x -> infinity."""
    if x < 0.0:
        raise DomainError(f"f1 requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x <= SMALL_CUT:
        return f1_series(x)
    return f1_closed(x)


def f2_series(x: float) -> float:
    """Small-argument expansion of f2; leading term (2/3) x^2."""
    total = 0.0
    for power, coeff in _F2_SERIES:
        total += coeff * x**power
    return total


def f2_closed(x: float) -> float:
    """Closed form of f2; cancels badly as x -> 0."""
    x2 = x * x
    return (1.0 - x * math.sin(2.0 * x) - math.cos(2.0 * x)) / x2


def f2(x: float) -> float:
    """Second rate-correction function; f2(0) = 0, decays like -sin(2x)/x."""
    if x < 0.0:
        raise DomainError(f"f2 requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x <= SMALL_CUT:
        return f2_series(x)
    return f2_closed(x)


def bose_occupation(energy: float, temperature: float) -> float:
    """Mean thermal occupation 1/(e^(E/T) - 1).

    ``temperature`` and ``energy`` share units.  T = 0 returns exactly 0;
    for E/T >> 1 the overflow-free asymptote e^(-E/T) is returned.
    """
    if energy <= 0.0:
        raise DomainError(f"energy must be positive, got {energy}")
    if temperature < 0.0:
        raise DomainError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    ratio = energy / temperature
    if ratio > 700.0:
        return math.exp(-ratio)
    return 1.0 / math.expm1(ratio)

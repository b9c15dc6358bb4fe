"""Cancellation-safe special functions on floats and arrays.

Provides the sine integral Si, the two correction functions ``f1`` and
``f2`` entering the gravity-corrected spontaneous emission rate, and the
Bose-Einstein occupation number.

``sine_integral``, ``f1`` and ``f2`` take a float or an ndarray of any shape
through one code path: every element goes to the branch its value selects,
each branch runs as ufunc arithmetic on its own subset only, and a float
(0-d) argument returns a float.  Iterative branches stop each element at
its own convergence test.

Both correction functions are O(x^3)/O(x^4) differences of O(1)
trigonometric terms, so each carries a Taylor-series branch below
``SMALL_CUT`` where the closed form loses precision to cancellation, and a
large-argument form above ``LARGE_CUT`` that neither cancels nor forms x^2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Closed-form/series crossover.  Chosen by a one-time sweep against
# extended-precision evaluation: at x = 0.1 the closed forms are still good
# to ~1e-13 relative while the frozen series are converged to well below
# 1e-14, so both branches overlap comfortably.
SMALL_CUT = 0.1

# Si: power series below, continued fraction above.
_SI_SWITCH = 4.0

_EPS = float(np.finfo(float).eps)

# Closed-form/large-argument crossover of f1 and f2: above it Si(2x) comes
# from the continued fraction, which also gives pi/2 - Si(2x) directly.
LARGE_CUT = 0.5 * _SI_SWITCH

# Beyond this x, |f1(x) - 3| < 1.5/x is below half an ulp of 3, so f1 is
# 3.0 in double precision (and 2x would overflow near the top of the range).
_F1_FLAT_CUT = 1e17


def _piecewise(name: str, x, pieces) -> np.ndarray:
    """Evaluate a function of finite x >= 0 that vanishes at 0, branch by branch.

    ``pieces`` is a sequence of (upper, kernel) with increasing ``upper``;
    each kernel receives the 1-d array of elements in (previous upper,
    upper] and nothing else, and is not called for an empty subset.
    """
    x = np.asarray(x, dtype=float)
    ok = (x >= 0.0) & (x < math.inf)  # NaN fails both
    if not ok.all():
        raise DomainError(f"{name} requires finite x >= 0, got {x[~ok].flat[0]}")
    flat = x.reshape(-1)
    out = np.zeros_like(flat)
    lower = 0.0
    for upper, kernel in pieces:
        mask = (flat > lower) & (flat <= upper)
        if np.count_nonzero(mask):
            out[mask] = kernel(flat[mask])
        lower = upper
    return out.reshape(x.shape)


def _result(values: np.ndarray):
    """A 0-d result as a Python float, any other shape as the array."""
    return float(values) if values.ndim == 0 else values


def sine_integral(x, odd_extension: bool = False):
    """Si(x) = integral of sin(y)/y from 0 to x, elementwise.

    Power series for x <= 4, auxiliary continued-fraction evaluation for
    x > 4; relative error below 1e-15 against mpmath on [1e-8, 1e300].
    Negative arguments are rejected unless ``odd_extension`` is set, in
    which case Si(-x) = -Si(x).
    """
    if odd_extension:
        x = np.asarray(x, dtype=float)
        sign = np.where(x < 0.0, -1.0, 1.0)
        return _result(sign * _piecewise("sine_integral", np.abs(x), _SI_PIECES))
    return _result(_piecewise("sine_integral", x, _SI_PIECES))


def _si_series(x: np.ndarray) -> np.ndarray:
    # Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!), each element summed
    # until its own term falls below 1e-18 of its total (k <= 61; x <= 4).
    minus_x2 = -(x * x)
    term = x.copy()
    total = x.copy()
    out = np.empty_like(x)
    live = np.arange(x.size)
    k = 0
    while live.size:
        k += 1
        n = 2 * k + 1
        term *= minus_x2 / ((n - 1) * n)
        total += term / n
        done = np.abs(term) < 1e-18 * np.abs(total)
        if k > 60:  # unreachable for x <= 4
            done[:] = True
        if np.count_nonzero(done):
            out[live[done]] = total[done]
            keep = ~done
            live, minus_x2, term, total = live[keep], minus_x2[keep], term[keep], total[keep]
    return out


def _e1_continued_fraction(x: np.ndarray) -> np.ndarray:
    """h = e^z E1(z) at z = ix, for x > 4.

    Modified Lentz evaluation of 1/(z+1- 1/(z+3- 4/(z+5- ...))); each
    element stops once its own correction factor is within one machine
    epsilon of 1, or after 399 terms.  (The double just below 1 is 1 - eps/2,
    so a bound under eps/2 is never met by a factor that rounds to it, and
    each extra term then shrinks h by one more ulp.)
    """
    tiny = 1e-300
    b = 1j * x + 1.0
    c = np.full(x.shape, 1.0 / tiny, dtype=complex)
    d = 1.0 / b
    h = d.copy()
    out = np.empty_like(h)
    live = np.arange(x.size)
    for i in range(1, 400):
        a = -float(i * i)
        # Out of place: numpy's in-place complex multiply rounds differently
        # on arrays than on single elements.
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) <= _EPS
        if np.count_nonzero(done):
            out[live[done]] = h[done]
            keep = ~done
            live, b, c, d, h = live[keep], b[keep], c[keep], d[keep], h[keep]
            if not live.size:
                return out
    out[live] = h
    return out


def _si_continued_fraction(x: np.ndarray) -> np.ndarray:
    # Si(x) = pi/2 + Im[E1(ix)] = pi/2 + Im[e^{-ix} h].
    h = _e1_continued_fraction(x)
    return 0.5 * math.pi + (np.cos(x) * h.imag - np.sin(x) * h.real)


_SI_PIECES = ((_SI_SWITCH, _si_series), (math.inf, _si_continued_fraction))


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


def f1_series(x):
    """Small-argument expansion of f1; leading term pi*x."""
    total = math.pi * x
    for power, coeff in _F1_SERIES:
        total = total + coeff * x**power
    return total


def f1_closed(x):
    """Closed form of f1 in terms of Si; cancels badly as x -> 0 and as x grows."""
    x2 = x * x
    bracket = (
        1.0
        + x2 * (math.pi * x + 3.0)
        - (1.0 + x2) * np.cos(2.0 * x)
        - 2.0 * x * np.sin(2.0 * x)
        - 2.0 * x * x2 * sine_integral(2.0 * x)
    )
    return bracket / x2


def _f1_large(x: np.ndarray) -> np.ndarray:
    # f1 = 3 + 1/x^2 - (1 + 1/x^2) cos 2x - 2 sin 2x / x + 2x (pi/2 - Si(2x)),
    # with pi/2 - Si(2x) = -Im E1(2ix) read off the continued fraction, so
    # no x^3 (pi - 2 Si) cancellation and no x^2 is formed.
    y = 2.0 * x
    h = _e1_continued_fraction(y)
    sin_y, cos_y = np.sin(y), np.cos(y)
    tail = sin_y * h.real - cos_y * h.imag
    inv = 1.0 / x
    inv2 = inv * inv
    return 3.0 + inv2 - (1.0 + inv2) * cos_y - 2.0 * sin_y * inv + y * tail


_F1_PIECES = (
    (SMALL_CUT, f1_series),
    (LARGE_CUT, f1_closed),
    (_F1_FLAT_CUT, _f1_large),
    (math.inf, lambda x: np.full_like(x, 3.0)),
)


def f1(x):
    """First rate-correction function; f1(0) = 0, f1 -> 3 as x -> infinity."""
    return _result(_piecewise("f1", x, _F1_PIECES))


def f2_series(x):
    """Small-argument expansion of f2; leading term (2/3) x^2."""
    total = 0.0
    for power, coeff in _F2_SERIES:
        total = total + coeff * x**power
    return total


def f2_closed(x):
    """Closed form of f2; cancels badly as x -> 0, x^2 overflows for x > ~1e154."""
    x2 = x * x
    return (1.0 - x * np.sin(2.0 * x) - np.cos(2.0 * x)) / x2


def _f2_large(x: np.ndarray) -> np.ndarray:
    # f2 = (2 sin^2 x / x - 2 sin x cos x) / x: the closed form with
    # 1 - cos 2x = 2 sin^2 x and sin 2x = 2 sin x cos x, finite for every x.
    sin_x = np.sin(x)
    return 2.0 * sin_x * (sin_x / x - np.cos(x)) / x


_F2_PIECES = ((SMALL_CUT, f2_series), (LARGE_CUT, f2_closed), (math.inf, _f2_large))


def f2(x):
    """Second rate-correction function; f2(0) = 0, decays like -sin(2x)/x."""
    return _result(_piecewise("f2", x, _F2_PIECES))


def bose_occupation(energy: float, temperature: float) -> float:
    """Mean thermal occupation 1/(e^(E/T) - 1).

    ``temperature`` and ``energy`` share units.  T = 0 returns exactly 0;
    for E/T >> 1 the overflow-free asymptote e^(-E/T) is returned.  An
    occupation too large for a double (E/T below ~1e-308) is a DomainError.
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
    occupation = 1.0 / math.expm1(ratio) if ratio > 0.0 else math.inf
    if math.isinf(occupation):
        raise DomainError(f"occupation overflows for energy={energy}, temperature={temperature}")
    return occupation

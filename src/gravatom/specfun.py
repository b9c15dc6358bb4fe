"""Cancellation-safe special functions on floats and arrays.

Provides the two correction functions ``f1`` and ``f2`` entering the
gravity-corrected spontaneous emission rate, and the Bose-Einstein
occupation number.

``f1`` and ``f2`` take a float or an ndarray of any shape through one set of
kernels: every value goes to the branch it selects.  A float (or int, numpy
scalar, 0-d array) returns a float, and its kernel runs on Python floats with
``math.sin``/``math.cos``, so float calls never import numpy.  An array runs
each branch as ufunc arithmetic on its own subset of elements; numpy is
imported on the first array call.  Every branch is a fixed sequence of
operations -- a closed form, or a series of fixed length -- so the work per
element is bounded and nothing iterates to a convergence test.

Both correction functions are O(x^3)/O(x^4) differences of O(1)
trigonometric terms, so both switch once, at ``SMALL_CUT`` (x = 2): a Taylor
series below it, where their closed forms lose precision to cancellation,
and above it a large-argument form that neither cancels nor forms x^2.
That of f1 takes pi/2 - Si(2x) from the auxiliary functions f and g of the
sine integral (Abramowitz & Stegun 5.2.8-5.2.9): one Chebyshev series each
over the whole half-line 2x > 4, in 8/(2x) - 1.  Beyond ``_F1_FLAT_CUT``
f1 is 3.0.  The series coefficients are generated by
``tools/gen_specfun_tables.py`` into ``_specfun_tables``.
"""

import math

from . import _specfun_tables as _tables
from .errors import DomainError

#: Taylor-series/large-argument crossover of f1 and f2: above it f1 takes
#: the auxiliary functions at 2x > 4, the left end of their fit.  The
#: series are cut where what they leave out is 1/16 ulp at this x.
SMALL_CUT = _tables.SMALL_CUT

# Beyond this x, |f1(x) - 3| < 1.5/x is below half an ulp of 3, so f1 is
# 3.0 in double precision (and 2x would overflow near the top of the range).
_F1_FLAT_CUT = 1e17


def _piecewise(name: str, x, pieces):
    """Evaluate a function of finite x >= 0 that vanishes at 0, branch by branch.

    ``pieces`` is a sequence of (upper, kernel) with increasing ``upper``;
    a float x goes, as a Python float, to the kernel of the first ``upper``
    at or above it, and a float is returned.  An int, a numpy scalar or a
    0-d array is taken as that float.  An array with dimensions goes through
    ``numpy.piecewise``: each kernel gets the 1-d array of its elements in
    (previous upper, upper] and nothing else (a kernel is not called for an
    empty subset), zeros stay 0, and an array of x's shape is returned.
    """
    if not isinstance(x, (float, int)):
        import numpy as np

        x = np.asarray(x, dtype=float)
        if x.ndim:
            ok = (x >= 0.0) & (x < math.inf)  # NaN fails both
            if not ok.all():
                raise DomainError(f"{name} requires finite x >= 0, got {x[~ok].flat[0]}")
            uppers = [upper for upper, _ in pieces]
            conditions = [(x > lo) & (x <= hi) for lo, hi in zip([0.0] + uppers, uppers)]
            return np.piecewise(x, conditions, [kernel for _, kernel in pieces])
    value = float(x)
    if not 0.0 <= value < math.inf:  # NaN fails
        raise DomainError(f"{name} requires finite x >= 0, got {value}")
    if value == 0.0:
        return 0.0
    return next(kernel for upper, kernel in pieces if value <= upper)(value)


def _trig(x):
    """The module whose ``sin`` and ``cos`` take x: ``math`` for a float, numpy for an array."""
    if isinstance(x, float):
        return math
    import numpy

    return numpy


def _exp(x):
    """``math.exp`` of a float or of each element of a 1-d array: numpy's ``exp`` varies by CPU."""
    if isinstance(x, float):
        return math.exp(x)
    import numpy

    return numpy.fromiter(map(math.exp, x.tolist()), float, x.size)


def _horner(coeffs, t):
    """sum_k coeffs[k] t^k."""
    total = coeffs[-1]
    for c in coeffs[-2::-1]:
        total = total * t + c
    return total


def _clenshaw(coeffs, s):
    """sum_k coeffs[k] T_k(s), by Clenshaw's recurrence; ``coeffs`` indexes terms first."""
    two_s = 2.0 * s
    b1, b2 = coeffs[-1], 0.0
    for c in coeffs[-2:0:-1]:
        b1, b2 = two_s * b1 - b2 + c, b1
    return s * b1 - b2 + coeffs[0]


def _aux(y):
    """(y f(y), y^2 g(y)) for y >= 2 SMALL_CUT, from the fits in s = 4 SMALL_CUT / y - 1."""
    s = 4.0 * SMALL_CUT / y - 1.0
    return _clenshaw(_tables.AUX_F_CHEBYSHEV, s), _clenshaw(_tables.AUX_G_CHEBYSHEV, s)


def f1_series(x):
    """Small-argument expansion of f1; leading term pi*x."""
    x2 = x * x
    return math.pi * x + x2 * x2 * _horner(_tables.F1_TAYLOR, x2)


def _f1_large(x):
    # f1 = 3 + 1/x^2 - (1 + 1/x^2) cos y - 2 sin y / x + y (pi/2 - Si(y)) at
    # y = 2x, with y (pi/2 - Si(y)) = F cos y + (G / y) sin y from the
    # auxiliary functions: no x^3 (pi - 2 Si) cancellation, no x^2 formed.
    y = 2.0 * x
    big_f, big_g = _aux(y)
    inv = 1.0 / x
    inv2 = inv * inv
    trig = _trig(y)
    return 3.0 + inv2 + (big_f - 1.0 - inv2) * trig.cos(y) + (big_g / y - 2.0 * inv) * trig.sin(y)


_F1_PIECES = (
    (SMALL_CUT, f1_series),
    (_F1_FLAT_CUT, _f1_large),
    (math.inf, lambda x: 0.0 * x + 3.0),  # 3.0 as a float, or an array like x
)


def f1(x):
    """First rate-correction function; f1(0) = 0, f1 -> 3 as x -> infinity."""
    return _piecewise("f1", x, _F1_PIECES)


def f2_series(x):
    """Small-argument expansion of f2; leading term (2/3) x^2."""
    x2 = x * x
    return x2 * _horner(_tables.F2_TAYLOR, x2)


def _f2_large(x):
    # f2 = (2 sin^2 x / x - 2 sin x cos x) / x: the closed form with
    # 1 - cos 2x = 2 sin^2 x and sin 2x = 2 sin x cos x, finite for every x.
    trig = _trig(x)
    sin_x = trig.sin(x)
    return 2.0 * sin_x * (sin_x / x - trig.cos(x)) / x


_F2_PIECES = ((SMALL_CUT, f2_series), (math.inf, _f2_large))


def f2(x):
    """Second rate-correction function; f2(0) = 0, decays like -sin(2x)/x."""
    return _piecewise("f2", x, _F2_PIECES)


def bose_occupation(energy: float, temperature: float) -> float:
    """Mean thermal occupation 1/(e^(E/T) - 1).

    ``temperature`` and ``energy`` share units.  T = 0 returns exactly 0;
    for E/T >> 1 the overflow-free asymptote e^(-E/T) is returned.  An
    occupation too large for a double (E/T below ~1e-308) is a DomainError.
    """
    if not energy > 0.0:  # NaN fails
        raise DomainError(f"energy must be positive, got {energy}")
    if not temperature >= 0.0:  # NaN fails
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

"""Write ``src/gravatom/_specfun_tables.py``: every coefficient of ``gravatom.specfun``.

    python tools/gen_specfun_tables.py           # rewrite the module
    python tools/gen_specfun_tables.py --check   # exit 1 if the committed module differs

Taylor coefficients are exact rationals (``fractions``), each rounded once to
a double.  The auxiliary functions of the sine integral (Abramowitz & Stegun
5.2.6-5.2.9),

    f(y) = Ci(y) sin y - (Si(y) - pi/2) cos y,
    g(y) = -Ci(y) cos y - (Si(y) - pi/2) sin y,

are fitted as one Chebyshev series each of F = y f(y) and G = y^2 g(y) over
the half-line y >= 2 ``SMALL_CUT``, in s = 4 ``SMALL_CUT`` / y - 1, by
interpolation at ``NODES`` Chebyshev points in 40-digit ``mpmath``.

Every series is cut where what it leaves out is below ``TAIL`` of its value
over its whole interval; the script fails if a cut cannot meet that.  The
output depends on nothing but this file, so a fresh run reproduces the
committed module byte for byte.
"""

import argparse
import math
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

from mpmath import mp

TARGET = Path(__file__).resolve().parents[1] / "src" / "gravatom" / "_specfun_tables.py"

#: f1 and f2: Taylor series on [0, SMALL_CUT], large-argument forms above.
#: That of f1 takes F and G at y = 2x, so their fit starts at y = 2 SMALL_CUT.
SMALL_CUT = 2.0
#: Chebyshev interpolation points; far more than the kept degrees, so
#: aliasing leaves the kept coefficients exact to ~1e-30.
NODES = 96
#: Largest omitted part of any series, relative to its value: 1/16 ulp.
TAIL = 2.0**-56
DIGITS = 40


def _f1_f2_taylor() -> tuple[list[Fraction], list[Fraction]]:
    """Coefficients a_k, b_k of f1 = pi x + x^4 sum a_k x^(2k), f2 = x^2 sum b_k x^(2k).

    From the closed forms, as even power series in x (index j is x^(2j)):
    x^2 f1 - pi x^3 = 1 + 3x^2 - (1 + x^2) cos 2x - 2x sin 2x - 2x^3 Si(2x),
    x^2 f2 = 1 - x sin 2x - cos 2x.
    """
    n = 64
    cos2 = [Fraction((-4) ** j, math.factorial(2 * j)) for j in range(n)]
    x_sin2 = [Fraction(0)] + [Fraction((-1) ** j * 2 ** (2 * j + 1), math.factorial(2 * j + 1))
                              for j in range(n - 1)]
    x3_si2 = [Fraction(0)] * 2 + [Fraction((-1) ** j * 2 ** (2 * j + 1),
                                           (2 * j + 1) * math.factorial(2 * j + 1))
                                  for j in range(n - 2)]
    f1_num = [-cos2[j] - (cos2[j - 1] if j else 0) - 2 * x_sin2[j] - 2 * x3_si2[j] for j in range(n)]
    f1_num[0] += 1
    f1_num[1] += 3
    f2_num = [-x_sin2[j] - cos2[j] for j in range(n)]
    f2_num[0] += 1
    # Dividing by x^2 shifts by one; f1 then starts at x^4, f2 at x^2.
    assert f1_num[:3] == [0, 0, 0] and f2_num[:2] == [0, 0]
    return f1_num[3:], f2_num[2:]


def _cut(coeffs: list[Fraction], x: float, value, lead: int) -> tuple[float, ...]:
    """The leading terms of sum c_k x^(lead + 2k) down to a TAIL of ``value`` at x.

    The terms past the cut alternate and shrink, so the first omitted term
    bounds the rest.
    """
    x = Fraction(x)
    for n, c in enumerate(coeffs):
        if abs(c) * x ** (lead + 2 * n) <= Fraction(TAIL) * abs(Fraction(float(value))):
            return tuple(float(c) for c in coeffs[:n])
    raise SystemExit(f"series does not reach {TAIL:.1e} at x = {float(x)}")


def _auxiliary(y):
    """(F, G) = (y f(y), y^2 g(y)) in mpmath."""
    y = mp.mpf(y)
    si_tail = mp.si(y) - mp.pi / 2
    ci = mp.ci(y)
    sin_y, cos_y = mp.sin(y), mp.cos(y)
    return y * (ci * sin_y - si_tail * cos_y), y * y * (-ci * cos_y - si_tail * sin_y)


def _chebyshev() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Chebyshev coefficients of F and G in s = 4 SMALL_CUT / y - 1 on y >= 2 SMALL_CUT.

    s runs from 1 at the left end to -1 as y -> infinity, where F and G tend
    to 1.  Each series keeps the least degree that meets TAIL.
    """
    angles = [mp.pi * (k + mp.mpf(1) / 2) / NODES for k in range(NODES)]
    samples = [_auxiliary(4 * mp.mpf(SMALL_CUT) / (mp.cos(t) + 1)) for t in angles]
    fits = []
    for which in (0, 1):
        coeffs = [2 * mp.fsum(v[which] * mp.cos(j * t) for v, t in zip(samples, angles)) / NODES
                  for j in range(NODES)]
        coeffs[0] /= 2
        # F and G rise towards 1 from their least values, 0.92 and 0.79, at the left end.
        floor = TAIL * min(v[which] for v in samples)
        degree = next((d for d in range(NODES // 2)
                       if mp.fsum(abs(c) for c in coeffs[d + 1:]) <= floor), None)
        if degree is None:
            raise SystemExit(f"Chebyshev fit does not reach {TAIL:.1e}")
        fits.append(tuple(float(c) for c in coeffs[:degree + 1]))
    return tuple(fits)


def tables() -> dict:
    """Every constant of the generated module, by name, in module order."""
    with mp.workdps(DIGITS):
        f1_coeffs, f2_coeffs = _f1_f2_taylor()
        x = mp.mpf(SMALL_CUT)
        f1_cut = (1 + x * x * (mp.pi * x + 3) - (1 + x * x) * mp.cos(2 * x)
                  - 2 * x * mp.sin(2 * x) - 2 * x ** 3 * mp.si(2 * x)) / (x * x)
        f2_cut = (1 - x * mp.sin(2 * x) - mp.cos(2 * x)) / (x * x)
        f1 = _cut(f1_coeffs, SMALL_CUT, f1_cut, lead=4)
        f2 = _cut(f2_coeffs, SMALL_CUT, f2_cut, lead=2)
        aux_f, aux_g = _chebyshev()
    return {
        "SMALL_CUT": SMALL_CUT,
        "F1_TAYLOR": f1,
        "F2_TAYLOR": f2,
        "AUX_F_CHEBYSHEV": aux_f,
        "AUX_G_CHEBYSHEV": aux_g,
    }


_HEADER = '''\
"""Coefficient tables of ``gravatom.specfun``.

Written by ``tools/gen_specfun_tables.py``; do not edit by hand.  Plain
floats and tuples: importing this module computes nothing.
"""

'''

_DOCS = {
    "SMALL_CUT": "f1 = pi x + x^4 sum_k F1_TAYLOR[k] x^(2k) and "
                 "f2 = x^2 sum_k F2_TAYLOR[k] x^(2k) on 0 <= x <= SMALL_CUT.",
    "AUX_F_CHEBYSHEV": "AUX_F_CHEBYSHEV and AUX_G_CHEBYSHEV are the Chebyshev coefficients "
                       "(T_0 first) of y f(y) and y^2 g(y) in s = 4 SMALL_CUT / y - 1 "
                       "on y >= 2 SMALL_CUT.",
}


def _literal(value, indent: str = "") -> str:
    if isinstance(value, (int, float)):
        return repr(value)
    inner = indent + "    "
    return "(\n" + "".join(f"{inner}{_literal(v, inner)},\n" for v in value) + indent + ")"


def render() -> str:
    """The text of the generated module."""
    parts = [_HEADER]
    for name, value in tables().items():
        if name in _DOCS:
            parts.extend(f"#: {line}\n" for line in textwrap.wrap(_DOCS[name], 76))
        parts.append(f"{name} = {_literal(value)}\n")
        if name == "F2_TAYLOR":
            parts.append("\n")
    return "".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the committed module differs from a fresh run")
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        if not TARGET.exists() or TARGET.read_text() != text:
            print(f"{TARGET} is out of date; rerun {Path(__file__).name}", file=sys.stderr)
            return 1
        return 0
    TARGET.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

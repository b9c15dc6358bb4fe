"""The CSV rows of ``sweep`` and ``evolve``.

Every number the command line prints is ``model.NUMBER`` (``%.11e``: 12
significant digits, scientific notation, no locale dependence).  CSV rows
come from one vectorised formatter, `format_rows`, which renders a chunk of
rows in a few array passes, is byte-identical to ``NUMBER % x`` and falls
back to ``%`` itself for the few numbers near a rounding tie.
`sweep_chunks` builds the ``sweep`` grid and its rate ratios one
`SWEEP_BLOCK` of points at a time, `evolve_chunks` the ``evolve``
trajectory one `EVOLVE_BLOCK` of rows at a time; both yield ``ROW_CHUNK``
rows at a time, each formatted and written as it comes.  `evolve_chunks`
imports ``lindblad`` when it runs, so ``sweep`` never loads it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import NUMBER
from .rates import rate_bracket

#: Rows per chunk in `sweep` and `evolve`: each chunk is one `format_rows`
#: call and one write.  Enough rows to amortise the per-call cost of the
#: array code, few enough to keep the peak memory of a long run flat.
ROW_CHUNK = 1024

#: Points per `sweep` block: one grid and one `rate_bracket` call, formatted
#: and written ``ROW_CHUNK`` rows at a time.  An f1/f2 call costs mostly per
#: call, not per point (it builds a mask per branch), so one call per block
#: does the work of four per-chunk calls for much less.  Larger blocks only
#: raise the peak (8192-point blocks: +0.4 MB RSS at 1e5 points).
SWEEP_BLOCK = 4 * ROW_CHUNK

#: Rows per `evolve` block: one array `lindblad.relaxation` call (plain
#: columns, no state record), formatted and written ``ROW_CHUNK`` rows at a
#: time, so that memory does not grow with ``--steps``.  Smaller blocks are
#: slower: freeing a block's temporaries at the top of the heap trims it, and
#: the next block faults the pages back in (1024-row blocks took 3x the page
#: faults and 14% more time at 1e5 steps).  For the same reason
#: `evolve_chunks`, unlike `sweep_chunks`, holds a block until the next
#: replaces it: freeing it first doubled the page faults.  Larger blocks only
#: raise the peak (+2 MB at 16384 rows).
EVOLVE_BLOCK = 8 * ROW_CHUNK


# `format_rows` renders each number into a 20-byte slot of five 4-byte words,
#   [sign d0 . d1] [d2 d3 d4 d5] [d6 d7 d8 d9] [d10 d11 e esign] [e e e sep],
# where d0..d11 are the digits of the mantissa m = round(|x| * 10**(11 - e))
# and e is the decimal exponent.  Bytes left NUL (the sign of a positive
# number, the hundreds digit of an exponent below 100) are dropped at the
# end.  The word tables are indexed by digit groups of m and e.


def _digits(n: int, width: int) -> np.ndarray:
    """ASCII digits of 0..n-1, ``width`` bytes each, most significant first."""
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int32)
    return (np.arange(n, dtype=np.int32)[:, None] // powers % 10 + ord("0")).astype(np.uint8)


def _words(table: np.ndarray) -> np.ndarray:
    """Rows of 4 bytes as one uint32 word each."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint32).ravel()


#: |x| outside [_EXACT_MIN, _EXACT_MAX) is left to `%`: there 10**(11 - e)
#: would leave the normal double range.
_EXACT_MIN, _EXACT_MAX = 1e-290, 1e290

#: The power-of-ten table holds 10**k for k = 11 - e at index k + _POW10_BIAS.
#: Over the exact range log10 gives e in [-290, 290], so k lies in [-279, 301].
_POW10_BIAS = 279

#: |x| * 10**(11 - e) carries two roundings, so the scaled mantissa is within
#: ~2.3e-4 of exact; closer than this to a rounding tie, `%` decides.
_TIE_MARGIN = 1e-3


@functools.cache
def _tables():
    """Correctly rounded powers of ten and the four word tables.

    Built on first use, so that importing the module costs no table memory.
    """
    pow10 = np.array([float("1e%d" % k) for k in range(-_POW10_BIAS, 302)])
    pairs = _digits(100, 2)
    head = np.zeros((200, 4), np.uint8)  # [sign d0 . d1], index 100*negative + m // 10**10
    head[100:, 0] = ord("-")
    head[:, 1] = np.tile(pairs[:, 0], 2)
    head[:, 2] = ord(".")
    head[:, 3] = np.tile(pairs[:, 1], 2)
    quad = np.hstack([np.repeat(pairs, 100, axis=0), np.tile(pairs, (100, 1))])  # 0000..9999
    tail = np.zeros((200, 4), np.uint8)  # [d10 d11 e esign], index 100*(e < 0) + m % 100
    tail[:, :2] = np.tile(pairs, (2, 1))
    tail[:, 2] = ord("e")
    tail[:100, 3] = ord("+")
    tail[100:, 3] = ord("-")
    exponent = np.zeros((300, 4), np.uint8)  # [e e e sep], index |e|
    exponent[:, :3] = _digits(300, 3)
    exponent[:100, 0] = 0
    return pow10, _words(head), _words(quad), _words(tail), _words(exponent)


def format_rows(columns) -> str:
    """CSV text of the rows of ``np.column_stack(columns)``, each number ``NUMBER % x``.

    The output is byte-identical to ``%`` formatting.  Each number's
    decimal exponent and 12-digit mantissa come from a few array passes;
    an element whose rounding this cannot prove (a scaled mantissa within
    ``_TIE_MARGIN`` of a rounding tie or rounding outside [1e11, 1e12), a
    non-finite value, |x| outside [1e-290, 1e290)) is formatted by ``%``
    itself.
    """
    values = np.column_stack(columns).astype(float, copy=False)
    # The array temporaries are gone once `_slots` returns, before the text is
    # made: this keeps them out of the peak memory of a chunk.
    slots = _slots(values.ravel()).reshape(values.shape + (20,))
    slots[..., 19] = ord(",")
    slots[:, -1, 19] = ord("\n")
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def _scientific(x):
    """(m, e, ok) of the 1-d float array ``x``: |x| = m * 10**(e - 11), rounded.

    ``ok`` marks the elements whose 12-digit mantissa m is proven right;
    elsewhere m is 0 and e is 0 or the exponent of a number left to `%`.
    """
    pow10 = _tables()[0]
    ax = np.abs(x)
    exact = (ax >= _EXACT_MIN) & (ax < _EXACT_MAX)  # False for 0, NaN and inf
    np.copyto(ax, 1.0, where=~exact)  # e = 0 there, so zero renders as 0e+00
    e = np.log10(ax)
    e = np.floor(e, out=e).astype(np.intp)
    y = pow10.take(_POW10_BIAS + 11 - e)
    y *= ax
    m = np.rint(y)
    # log10 can put e one off next to a power of ten, and rounding can carry m
    # up to 10**12: those elements fall back, like the near-ties.
    y -= m
    ok = np.abs(y, out=y) <= 0.5 - _TIE_MARGIN
    ok &= exact
    ok &= m >= 1e11
    ok &= m < 1e12
    np.copyto(m, 0.0, where=~ok)
    return m, e, ok


def _slots(x) -> np.ndarray:
    """The 20-byte slots of the 1-d float array ``x``, one row each, separators left NUL."""
    _, head, quad, tail, exponent = _tables()
    m, e, ok = _scientific(x)
    # Digit groups of the integer m < 10**12 by floor division in floats:
    # n / 10**k for an integer n < 10**12 lies at least 10**-k from the next
    # integer, far more than its rounding error, so each floor is exact.
    high = np.floor(m / 1e6)  # d0..d5
    m -= 1e6 * high  # d6..d11
    lead = np.floor(high / 1e4)  # d0 d1
    high -= 1e4 * lead  # d2..d5
    lead += 100.0 * np.signbit(x)  # the minus sign's half of the head table
    low = np.floor(m / 100.0)  # d6..d9
    m -= 100.0 * low  # d10 d11
    m += 100.0 * (e < 0)  # the negative exponents' half of the tail table
    words = np.empty((x.size, 5), np.uint32)
    words[:, 0] = head.take(lead.astype(np.intp))
    words[:, 1] = quad.take(high.astype(np.intp))
    words[:, 2] = quad.take(low.astype(np.intp))
    words[:, 3] = tail.take(m.astype(np.intp))
    words[:, 4] = exponent.take(np.abs(e))
    slots = words.view(np.uint8).reshape(-1, 20)
    fallback = np.flatnonzero(~ok & (x != 0.0))  # zero renders as 0e+00
    if fallback.size:
        text = b"".join((NUMBER % v).encode().rjust(19, b"\0") for v in x[fallback].tolist())
        slots[fallback, :19] = np.frombuffer(text, np.uint8).reshape(-1, 19)
    return slots


def sweep_chunks(grid, log_grid, phi, sin2s):
    """Build the grid ``SWEEP_BLOCK`` points at a time; yield (xs, ratios) per ``ROW_CHUNK`` rows.

    ``grid`` is (start, step, n): point i is ``start + i * step`` on a linear
    grid and ``math.exp`` of that on a log grid.  One ``rate_bracket`` call
    per block: the x column against the row of sin^2(psi) values, so f1/f2
    are evaluated once per x.
    """
    start, step, n = grid
    sin2s = np.array(sin2s)
    for i in range(0, n, SWEEP_BLOCK):
        # Bit for bit ``start + i * step`` in Python floats.
        xs = start + np.arange(i, min(i + SWEEP_BLOCK, n)) * step
        if log_grid:
            # math.exp, not np.exp: the two differ by an ulp on some points.
            xs = np.fromiter(map(math.exp, xs.tolist()), float, xs.size)
        ratios = rate_bracket(xs[:, None], phi, sin2s)
        for j in range(0, xs.size, ROW_CHUNK):
            yield xs[j:j + ROW_CHUNK], ratios[j:j + ROW_CHUNK]
        # Freed here, not when the next block rebinds the names: the next
        # rate_bracket call is the peak of a sweep's memory.
        del xs, ratios


#: The ``evolve`` CSV header: one name for each column `evolve_chunks` yields.
EVOLVE_HEADER = "t,rho_ee,rho_gg,abs_rho_eg,trace_error,analytic_rho_ee\n"


def evolve_chunks(rho0, rates, t_max, steps):
    """Build the trajectory ``EVOLVE_BLOCK`` rows at a time; yield six columns per ``ROW_CHUNK`` rows.

    Row n, for n = 0 to ``steps``, is the exact state at t = h n with
    h = ``t_max / steps``, from one array `lindblad.relaxation` call per
    block; no state record is built.  A row is formed from n alone, so the
    chunks are bit for bit the rows of one call over the whole grid.  The
    columns: t, rho_ee, rho_gg = 1 - rho_ee, |rho_eg|, the trace error
    rho_ee + rho_gg - 1 and rho_ee again (``evolve``'s ``analytic_rho_ee``).
    """
    from .lindblad import relaxation

    h = t_max / steps
    for i in range(0, steps + 1, EVOLVE_BLOCK):
        times = h * np.arange(i, min(i + EVOLVE_BLOCK, steps + 1))
        ee, eg = relaxation(rho0, rates, times)
        gg = 1.0 - ee
        columns = (times, ee, gg, abs(eg), ee + gg - 1.0, ee)
        for j in range(0, times.size, ROW_CHUNK):
            yield [column[j:j + ROW_CHUNK] for column in columns]

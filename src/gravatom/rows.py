"""The CSV rows of ``sweep`` and ``evolve``.

Every number the command line prints is ``model.NUMBER`` (``%.11e``: 12
significant digits, scientific notation, no locale dependence).  CSV rows
come from one vectorised formatter, `format_rows`, which renders a chunk of
rows in a few array passes, is byte-identical to ``NUMBER % x`` and falls
back to ``%`` itself for the few numbers near a rounding tie.
`sweep_chunks` builds the ``sweep`` grid and its rate ratios one chunk of
rows at a time; ``evolve`` builds its trajectory one `EVOLVE_BLOCK` of rows
at a time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import NUMBER
from .rates import rate_bracket

#: Rows per chunk in `sweep` and `evolve`: each chunk is one `rate_bracket`
#: call (sweep), one `format_rows` call and one write.  Enough rows to
#: amortise the per-call cost of the array code, few enough to keep the peak
#: memory of a long run flat.
ROW_CHUNK = 1024

#: Rows per `evolve` block: one `evolve_numeric` and one `analytic_state` call,
#: formatted and written ``ROW_CHUNK`` rows at a time, so that memory does not
#: grow with ``--steps``.  Smaller blocks are slower: freeing a block's
#: temporaries at the top of the heap trims it, and the next block faults the
#: pages back in (1024-row blocks took 3x the page faults and 14% more time at
#: 1e5 steps).  Larger blocks only raise the peak (+2 MB at 16384 rows).
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
    pow10, head, quad, tail, exponent = _tables()
    values = np.column_stack(columns).astype(float, copy=False)
    x = values.ravel()
    ax = np.abs(x)
    zero = ax == 0.0
    exact = (ax >= _EXACT_MIN) & (ax < _EXACT_MAX)  # False for NaN and inf
    ax = np.where(exact, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    y = ax * pow10[_POW10_BIAS + 11 - e]
    m = np.rint(y)
    # log10 can put e one off next to a power of ten, and rounding can carry m
    # up to 10**12: those elements fall back, like the near-ties.
    ok = exact & (np.abs(y - np.floor(y) - 0.5) >= _TIE_MARGIN) & (m >= 1e11) & (m < 1e12)
    m = np.where(ok, m, 0.0).astype(np.int64)  # zero and fallbacks render as 0e+00
    e = np.where(ok, e, 0)

    words = np.empty((x.size, 5), np.uint32)
    words[:, 0] = head[100 * np.signbit(x) + m // 10**10]
    words[:, 1] = quad[m // 10**6 % 10**4]
    words[:, 2] = quad[m // 100 % 10**4]
    words[:, 3] = tail[100 * (e < 0) + m % 100]
    words[:, 4] = exponent[np.abs(e)]
    slots = words.view(np.uint8).reshape(values.shape + (20,))
    slots[..., 19] = ord(",")
    slots[:, -1, 19] = ord("\n")
    fallback = np.flatnonzero(~(ok | zero))
    if fallback.size:
        text = b"".join((NUMBER % v).encode().rjust(19, b"\0") for v in x[fallback].tolist())
        slots.reshape(-1, 20)[fallback, :19] = np.frombuffer(text, np.uint8).reshape(-1, 19)
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def sweep_chunks(grid, log_grid, phi, sin2s):
    """Build the grid ``ROW_CHUNK`` points at a time; yield (xs, ratios) per chunk.

    ``grid`` is (start, step, n): point i is ``start + i * step`` on a linear
    grid and ``math.exp`` of that on a log grid.  One ``rate_bracket`` call
    per chunk: the x column against the row of sin^2(psi) values, so f1/f2
    are evaluated once per x.
    """
    start, step, n = grid
    sin2s = np.array(sin2s)
    for i in range(0, n, ROW_CHUNK):
        # Bit for bit ``start + i * step`` in Python floats.
        xs = start + np.arange(i, min(i + ROW_CHUNK, n)) * step
        if log_grid:
            # math.exp, not np.exp: the two differ by an ulp on some points.
            xs = np.fromiter(map(math.exp, xs.tolist()), float, xs.size)
        yield xs, rate_bracket(xs[:, None], phi, sin2s)

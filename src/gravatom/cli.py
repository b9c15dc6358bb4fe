"""Command-line front end.

Subcommands: ``rates`` (one generator as JSON), ``sweep`` (ratio curves as
CSV/SVG), ``evolve`` (trajectory CSV), ``verify`` (full oracle report).

Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
Outputs are deterministic: every number is ``%.11e`` (12 significant
digits, scientific notation), with no locale dependence.  CSV rows come
from one vectorised formatter, `_format_rows`, which renders a chunk of
rows in a few array passes, is byte-identical to ``%.11e`` and falls back
to ``%`` itself for the few numbers near a rounding tie.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import oracle
from .errors import GravatomError
from .lindblad import DensityMatrix2, analytic_state, evolve_numeric
from .model import AtomSpec, GravityEnv, ThermalSpec, _check_finite, potential_from_source
from .rates import build_rate_set, rate_bracket


#: Every number printed: 12 significant digits, scientific notation.
_NUMBER = "%.11e"


def _fmt(value: float) -> str:
    return _NUMBER % value


# `_format_rows` renders each number into a 20-byte slot of five 4-byte words,
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

    Built on first use, so that ``rates`` and ``verify``, which print no CSV
    rows, do not pay for them in memory.
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


def _format_rows(columns) -> str:
    """CSV text of the rows of ``np.column_stack(columns)``, each number ``_NUMBER % x``.

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
        text = b"".join((_NUMBER % v).encode().rjust(19, b"\0") for v in x[fallback].tolist())
        slots.reshape(-1, 20)[fallback, :19] = np.frombuffer(text, np.uint8).reshape(-1, 19)
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravatom",
        description="Dissipation of a two-level atom in a weak gravitational field",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_physics(p):
        p.add_argument("--phi", type=float, default=None, help="Newtonian potential (<= 0)")
        p.add_argument("--mass", type=float, default=None, help="source mass (G = 1)")
        p.add_argument("--distance", type=float, default=None, help="distance R to the source")
        p.add_argument("--omega", type=float, default=None, help="proper energy splitting")
        p.add_argument("--dipole", type=float, default=None, help="effective dipole magnitude")
        p.add_argument("--angle", type=float, default=None, help="dipole angle psi in radians")
        p.add_argument("--temperature", type=float, default=None, help="distant-observer temperature")

    def add_output(p):
        p.add_argument("--format", choices=("csv", "json", "svg"), default=None)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--config", default=None, help="JSON config file mirroring flag names")

    p_rates = sub.add_parser("rates", help="compute one full rate set")
    add_physics(p_rates)
    add_output(p_rates)

    p_sweep = sub.add_parser("sweep", help="ratio curve over a grid of x = R*Omega")
    add_physics(p_sweep)
    add_output(p_sweep)
    p_sweep.add_argument("--x-min", dest="x_min", type=float, default=None)
    p_sweep.add_argument("--x-max", dest="x_max", type=float, default=None)
    p_sweep.add_argument("--points", type=int, default=None)
    grid = p_sweep.add_mutually_exclusive_group()
    grid.add_argument("--log", dest="log_grid", action="store_true", default=None)
    grid.add_argument("--linear", dest="log_grid", action="store_false")

    p_evolve = sub.add_parser("evolve", help="evolve a density matrix")
    add_physics(p_evolve)
    add_output(p_evolve)
    p_evolve.add_argument("--t-max", dest="t_max", type=float, default=None,
                          help="evolution span in units of 1/Gamma")
    p_evolve.add_argument("--steps", type=int, default=None)
    p_evolve.add_argument("--initial", default=None,
                          help="excited, ground, or mixed:p")

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    add_output(p_verify)
    p_verify.add_argument("--f1-offset", dest="f1_offset", type=float, default=0.0,
                          help=argparse.SUPPRESS)

    return parser


_DEFAULTS = {
    "phi": None,
    "mass": None,
    "distance": 1.0,
    "omega": None,
    "dipole": 1.0,
    "angle": 0.0,
    "temperature": 0.0,
    "format": "csv",
    "x_min": 1e-2,
    "x_max": 1e2,
    "points": 200,
    "log_grid": True,
    "t_max": 5.0,
    "steps": 500,
    "initial": "excited",
}

#: Documented default used by `sweep` when no potential is given.
SWEEP_DEFAULT_PHI = -0.05

#: Rows per chunk in `sweep` and `evolve`: each chunk is one `rate_bracket`
#: call (sweep), one `_format_rows` call and one write.  Enough rows to
#: amortise the per-call cost of the array code, few enough to keep the peak
#: memory of a long run flat.
ROW_CHUNK = 1024


class UsageError(Exception):
    pass


def _config_value(key: str, value):
    """A config-file value, checked against the type of its flag.

    Keys whose default is None take numbers; ints are accepted where floats
    are expected, bools never stand in for numbers.
    """
    default = _DEFAULTS[key]
    expected = float if default is None else type(default)
    if expected is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise UsageError(f"config value {key!r} is out of range") from None
    if type(value) is not expected:
        raise UsageError(
            f"config value {key!r} must be {expected.__name__}, got {value!r}"
        )
    return value


def _resolve(args) -> tuple[dict, set]:
    """Merge flag > config-file > default; also report explicitly set keys."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(config) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        config = {key: _config_value(key, value) for key, value in config.items()}
    merged = {}
    explicit = set()
    for key, default in _DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
            explicit.add(key)
        elif key in config:
            merged[key] = config[key]
            explicit.add(key)
        else:
            merged[key] = default
    return merged, explicit


def _environment(cfg, default_phi=0.0) -> GravityEnv:
    distance = cfg["distance"]
    if cfg["phi"] is not None and cfg["mass"] is not None:
        raise UsageError("give either --phi or --mass, not both")
    if cfg["mass"] is not None:
        phi = potential_from_source(cfg["mass"], distance)
        return GravityEnv(phi=phi, distance=distance, provenance="source")
    phi = cfg["phi"] if cfg["phi"] is not None else default_phi
    return GravityEnv(phi=phi, distance=distance)


def _atom(cfg) -> AtomSpec:
    if cfg["omega"] is None:
        raise UsageError("omega required")
    return AtomSpec(
        omega=cfg["omega"], dipole_mag=cfg["dipole"], dipole_angle=cfg["angle"]
    )


def _write(lines, out: str | None) -> None:
    """Write an iterable of text chunks, as they are produced, to ``out``."""
    if out is None:
        sys.stdout.writelines(lines)
    else:
        with open(out, "w") as fh:
            fh.writelines(lines)


def cmd_rates(args) -> int:
    cfg, _ = _resolve(args)
    atom = _atom(cfg)
    env = _environment(cfg)
    thermal = ThermalSpec.from_distant(cfg["temperature"], env.phi)
    rateset = build_rate_set(atom, env, thermal)
    payload = {k: _fmt(v) for k, v in rateset.as_dict().items()}
    payload["ratio"] = _fmt(rateset.gamma_g / rateset.gamma_flat)
    _write([json.dumps(payload, indent=2, sort_keys=True) + "\n"], args.out)
    return 0


def _sweep_grid(cfg) -> tuple[float, float, int]:
    """Validate the grid settings; return (start, step, n).

    Point i is ``start + i * step`` on a linear grid and ``math.exp`` of
    that on a log grid.
    """
    n = cfg["points"]
    if n < 2:
        raise UsageError("points must be >= 2")
    x_min, x_max = cfg["x_min"], cfg["x_max"]
    _check_finite("x_min", x_min)
    _check_finite("x_max", x_max)
    if not x_min < x_max:
        raise UsageError("need x_min < x_max")
    if cfg["log_grid"]:
        if x_min <= 0.0:
            raise UsageError("x_min must be positive for a log grid")
        log_min = math.log(x_min)
        return log_min, (math.log(x_max) - log_min) / (n - 1), n
    if x_min < 0.0:
        raise UsageError("x_min must be >= 0")
    return x_min, (x_max - x_min) / (n - 1), n


def _sweep_chunks(grid, log_grid, phi, sin2s):
    """Build the grid ``ROW_CHUNK`` points at a time; yield (xs, ratios) per chunk.

    One ``rate_bracket`` call per chunk: the x column against the row of
    sin^2(psi) values, so f1/f2 are evaluated once per x.
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


def cmd_sweep(args) -> int:
    cfg, explicit = _resolve(args)
    env = _environment(cfg, default_phi=SWEEP_DEFAULT_PHI)
    grid = _sweep_grid(cfg)
    phi = env.phi

    if "angle" in explicit:
        _check_finite("angle", cfg["angle"])
        sin2s = (math.sin(cfg["angle"]) ** 2,)
        header = "x,ratio"
        labels = ("ratio",)
    else:
        sin2s = (0.0, 1.0)
        header = "x,ratio_parallel,ratio_perpendicular"
        labels = ("parallel", "perpendicular")

    chunks = _sweep_chunks(grid, cfg["log_grid"], phi, sin2s)
    if cfg["format"] == "svg":
        rows = [row for xs, ratios in chunks for row in zip(xs.tolist(), ratios.tolist())]
        _write([_render_svg(rows, labels, phi, cfg["log_grid"])], args.out)
        return 0

    # Each chunk is formatted and written as it is computed: no row list is held.
    lines = (_format_rows((xs, ratios)) for xs, ratios in chunks)
    _write(itertools.chain([f"# phi={_fmt(phi)}\n", header + "\n"], lines), args.out)
    return 0


def _render_svg(rows, labels, phi, log_x: bool) -> str:
    width, height, margin = 640, 420, 60
    axis = math.log10 if log_x else float
    xs = [axis(r[0]) for r in rows]
    ys = [v for _, values in rows for v in values]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    # A grid too narrow to resolve collapses to one x: draw it at the left.
    x_span = x_hi - x_lo or 1.0

    def px(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    colors = ("#1f6fb4", "#c23b22")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">x = RΩ ({"log" if log_x else "linear"} scale), Φ = {phi:g}</text>',
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.0f})">γ_g/γ</text>',
    ]
    for i, label in enumerate(labels):
        points = " ".join(
            f"{px(axis(x)):.2f},{py(values[i]):.2f}" for x, values in rows
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{colors[i % 2]}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin - 5}" y="{margin + 18 * (i + 1)}" '
            f'text-anchor="end" font-size="12" fill="{colors[i % 2]}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _initial_state(name: str) -> DensityMatrix2:
    if name == "excited":
        return DensityMatrix2.excited()
    if name == "ground":
        return DensityMatrix2.ground()
    if name.startswith("mixed:"):
        value = name.split(":", 1)[1]
        try:
            p_excited = float(value)
        except ValueError:
            raise UsageError(f"mixed:p needs a number p, got {value!r}") from None
        return DensityMatrix2.mixed(p_excited)
    raise UsageError(f"unknown initial state {name!r}")


def cmd_evolve(args) -> int:
    cfg, _ = _resolve(args)
    atom = _atom(cfg)
    env = _environment(cfg)
    thermal = ThermalSpec.from_distant(cfg["temperature"], env.phi)
    rateset = build_rate_set(atom, env, thermal)
    rho0 = _initial_state(cfg["initial"])
    t_max = cfg["t_max"] / rateset.gamma_total
    trajectory = evolve_numeric(rho0, rateset, t_max, cfg["steps"])
    states = trajectory.states
    reference = analytic_state(rho0, rateset, trajectory.times)
    columns = (
        trajectory.times,
        states.ee,
        states.gg,
        abs(states.eg),
        states.trace - 1.0,
        reference.ee,
    )
    lines = (
        _format_rows([column[i:i + ROW_CHUNK] for column in columns])
        for i in range(0, len(trajectory.times), ROW_CHUNK)
    )
    header = "t,rho_ee,rho_gg,abs_rho_eg,trace_error,analytic_rho_ee\n"
    _write(itertools.chain([header], lines), args.out)
    return 0


def cmd_verify(args) -> int:
    spec = oracle.QuadratureSpec()
    records = oracle.verification_report(spec, f1_offset=args.f1_offset)
    all_pass = all(r["pass"] for r in records)
    report = {"all_pass": all_pass, "checks": records}
    _write([json.dumps(report, indent=2, sort_keys=True) + "\n"], args.out)
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "rates": cmd_rates,
        "sweep": cmd_sweep,
        "evolve": cmd_evolve,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.mode](args)
    except (UsageError, GravatomError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

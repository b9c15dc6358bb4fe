"""Command-line front end.

Subcommands: ``rates`` (one generator as JSON), ``sweep`` (ratio curves as
CSV/SVG), ``evolve`` (trajectory CSV), ``verify`` (full oracle report).
``--format`` takes only the formats its subcommand writes (``FORMATS``).

Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
Outputs are deterministic: every number is ``model.NUMBER`` (``%.11e``), and
CSV rows come from the vectorised formatter ``rows.format_rows``.  ``sweep``
computes and writes its rows ``rows.ROW_CHUNK`` at a time, ``evolve`` its
trajectory ``rows.EVOLVE_BLOCK`` rows at a time, so neither holds its whole
output; ``evolve`` builds its first block before writing anything, so every
gate refuses bad input before ``--out`` is opened.

Importing this module loads only the standard library, ``errors`` and
``model``.  Each handler validates its inputs with ``model`` first and then
imports the layers it runs: ``rates`` imports ``rates`` (and with it
``specfun``, which evaluates one point on Python floats without numpy),
``sweep`` and ``evolve`` import ``rows`` and ``rates`` (and with them
numpy), ``evolve`` also ``lindblad``, and ``verify`` imports ``oracle``.
So ``--help``, input that fails validation and ``rates`` never load numpy,
and only ``verify`` loads the oracle.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings

from .errors import GravatomError
from .model import (
    NUMBER,
    AtomSpec,
    GravityEnv,
    ThermalSpec,
    _check_finite,
)

#: The output formats each subcommand writes; the first is its default.
FORMATS = {
    "rates": ("json",),
    "sweep": ("csv", "svg"),
    "evolve": ("csv",),
    "verify": ("json",),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``UsageError``, like every other usage error."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    def add_output(p, formats):
        p.add_argument("--format", choices=formats, default=None)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--config", default=None, help="JSON config file mirroring flag names")

    p_rates = sub.add_parser("rates", help="compute one full rate set")
    add_physics(p_rates)
    add_output(p_rates, FORMATS["rates"])

    p_sweep = sub.add_parser("sweep", help="ratio curve over a grid of x = R*Omega")
    add_physics(p_sweep)
    add_output(p_sweep, FORMATS["sweep"])
    p_sweep.add_argument("--x-min", dest="x_min", type=float, default=None)
    p_sweep.add_argument("--x-max", dest="x_max", type=float, default=None)
    p_sweep.add_argument("--points", type=int, default=None)
    grid = p_sweep.add_mutually_exclusive_group()
    grid.add_argument("--log", dest="log_grid", action="store_true", default=None)
    grid.add_argument("--linear", dest="log_grid", action="store_false")

    p_evolve = sub.add_parser("evolve", help="evolve a density matrix")
    add_physics(p_evolve)
    add_output(p_evolve, FORMATS["evolve"])
    p_evolve.add_argument("--t-max", dest="t_max", type=float, default=None,
                          help="evolution span in units of 1/Gamma")
    p_evolve.add_argument("--steps", type=int, default=None)
    p_evolve.add_argument("--initial", default=None,
                          help="excited, ground, or mixed:p")

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    add_output(p_verify, FORMATS["verify"])
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


def _config_value(key: str, value, default):
    """A config-file value, checked against the type of its flag's ``default``.

    Keys whose default is None take numbers; ints are accepted where floats
    are expected, bools never stand in for numbers.
    """
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
    """Merge flag > config-file > default; also report explicitly set keys.

    Only the subcommand's own flags are resolved, and a config key for any
    other is refused.  The default format is the subcommand's first; a
    format it does not write is refused.
    """
    formats = FORMATS[args.mode]
    defaults = {
        key: default
        for key, default in dict(_DEFAULTS, format=formats[0]).items()
        if key in vars(args)
    }
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(config) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        config = {key: _config_value(key, value, defaults[key]) for key, value in config.items()}
    merged = {}
    explicit = set()
    for key, default in defaults.items():
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
            explicit.add(key)
        elif key in config:
            merged[key] = config[key]
            explicit.add(key)
        else:
            merged[key] = default
    if merged["format"] not in formats:
        raise UsageError(
            f"{args.mode} writes format {' or '.join(formats)}, got {merged['format']!r}"
        )
    return merged, explicit


def _environment(cfg, default_phi=0.0) -> GravityEnv:
    distance = cfg["distance"]
    if cfg["phi"] is not None and cfg["mass"] is not None:
        raise UsageError("give either --phi or --mass, not both")
    if cfg["mass"] is not None:
        return GravityEnv.from_source(cfg["mass"], distance)
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
    from .rates import RateSet, build_rate_set

    rateset = build_rate_set(atom, env, thermal)
    payload = {k: NUMBER % getattr(rateset, k) for k in RateSet.__slots__}
    payload["ratio"] = NUMBER % (rateset.gamma_g / rateset.gamma_flat)
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

    from .rows import format_rows, sweep_chunks

    chunks = sweep_chunks(grid, cfg["log_grid"], phi, sin2s)
    if cfg["format"] == "svg":
        import numpy as np

        xs, ratios = (np.concatenate(parts) for parts in zip(*chunks))
        _write([_render_svg(xs, ratios, labels, phi, cfg["log_grid"])], args.out)
        return 0

    # Each chunk is formatted and written as it is computed: no row list is held.
    lines = (format_rows((xs, ratios)) for xs, ratios in chunks)
    _write(itertools.chain([f"# phi={NUMBER % phi}\n", header + "\n"], lines), args.out)
    return 0


def _render_svg(xs, ratios, labels, phi, log_x: bool) -> str:
    """One polyline per column of ``ratios`` (n, k) over the x column ``xs``.

    Coordinates are computed on Python floats with ``math.log10``: numpy's
    log10 can differ in the last bit, and the printed digits with it.
    """
    width, height, margin = 640, 420, 60
    axis = math.log10 if log_x else float
    plot_xs = [axis(x) for x in xs.tolist()]
    x_lo, x_hi = min(plot_xs), max(plot_xs)
    y_lo, y_hi = float(ratios.min()), float(ratios.max())
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
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(plot_xs, ratios[:, i].tolist())
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


def _initial_excited(name: str) -> float:
    """Excited population of the named initial state (``DensityMatrix2.mixed``)."""
    if name == "excited":
        return 1.0
    if name == "ground":
        return 0.0
    if name.startswith("mixed:"):
        value = name.split(":", 1)[1]
        try:
            return float(value)
        except ValueError:
            raise UsageError(f"mixed:p needs a number p, got {value!r}") from None
    raise UsageError(f"unknown initial state {name!r}")


def cmd_evolve(args) -> int:
    cfg, _ = _resolve(args)
    atom = _atom(cfg)
    env = _environment(cfg)
    thermal = ThermalSpec.from_distant(cfg["temperature"], env.phi)
    p_excited = _initial_excited(cfg["initial"])
    from .lindblad import DensityMatrix2, analytic_state, evolve_numeric
    from .rates import build_rate_set
    from .rows import EVOLVE_BLOCK, ROW_CHUNK, format_rows

    rateset = build_rate_set(atom, env, thermal)
    rho0 = DensityMatrix2.mixed(p_excited)
    t_max = cfg["t_max"] / rateset.gamma_total
    steps = cfg["steps"]

    def block(start):
        return evolve_numeric(rho0, rateset, t_max, steps, start, start + EVOLVE_BLOCK)

    # Block 0 is built before anything is written, so that every gate of
    # `evolve_numeric` refuses bad input before --out is opened.
    blocks = itertools.chain([block(0)], map(block, range(EVOLVE_BLOCK, steps + 1, EVOLVE_BLOCK)))

    def lines():
        for times, states in blocks:
            reference = analytic_state(rho0, rateset, times)
            columns = (
                times,
                states.ee,
                states.gg,
                abs(states.eg),
                states.trace - 1.0,
                reference.ee,
            )
            for i in range(0, len(times), ROW_CHUNK):
                yield format_rows([column[i:i + ROW_CHUNK] for column in columns])

    header = "t,rho_ee,rho_gg,abs_rho_eg,trace_error,analytic_rho_ee\n"
    _write(itertools.chain([header], lines()), args.out)
    return 0


def cmd_verify(args) -> int:
    _resolve(args)  # refuses a bad --config or --format before the oracle loads
    _check_finite("f1_offset", args.f1_offset)
    from . import oracle

    spec = oracle.QuadratureSpec()
    records = oracle.verification_report(spec, f1_offset=args.f1_offset)
    all_pass = all(r["pass"] for r in records)
    report = {"all_pass": all_pass, "checks": records}
    _write([json.dumps(report, indent=2, sort_keys=True) + "\n"], args.out)
    return 0 if all_pass else 1


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A library warning as one ``warning: ...`` line, like the ``error: ...`` lines."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    handlers = {
        "rates": cmd_rates,
        "sweep": cmd_sweep,
        "evolve": cmd_evolve,
        "verify": cmd_verify,
    }
    # Only the formatting changes: the filters still decide whether a
    # warning shows, and a caller recording warnings still records it.
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.mode](args)
    except (UsageError, GravatomError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``rates`` (one generator as JSON), ``sweep`` (ratio curves as
CSV/SVG), ``evolve`` (trajectory CSV), ``verify`` (full oracle report).
Each takes only the settings its output reads: ``sweep``'s ratio depends
on phi, x = R*Omega and the angle alone, so it takes the source flags and
its own ``--angle`` (default: both curves), not the atom flags of ``rates``
and ``evolve``.  Only ``sweep`` writes two formats, so only it takes
``--format``; ``verify`` has no settings and takes only ``--out``.

Every setting is a flag, and the parser holds each default and each rule
between flags: ``--phi`` defaults to 0 (``sweep``: -0.05), ``--phi`` and
``--mass`` exclude each other, and ``rates`` and ``evolve`` require
``--omega``.  The handlers read the parsed namespace alone and check only
values.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
Outputs are deterministic: every number is ``model.NUMBER`` (``%.11e``), and
CSV rows come from the vectorised formatter ``rows.format_rows``.  ``sweep``
and ``evolve`` take the same path: a generator in ``rows``
(``sweep_chunks``, ``evolve_chunks``) computes ``rows.SWEEP_BLOCK`` points
or ``rows.EVOLVE_BLOCK`` rows at a time and yields ``rows.ROW_CHUNK`` rows
at a time, each formatted and written as it comes, so neither holds its
whole output.  The SVG plot of ``sweep`` streams too: it restarts
``sweep_chunks`` once for its plot ranges and once per curve.  Every check
runs before the first write, so bad input is refused before ``--out`` is
opened.

Importing this module loads only the standard library, ``errors`` and
``model``; this module never imports numpy itself.  Each handler validates
its inputs with ``model`` first and then imports the layers it runs
(``rates.build_rate_set`` checks the temperature by ``model``'s rule):
``rates`` imports ``rates`` (and with it ``specfun``, which evaluates one
point on Python floats without numpy), ``sweep`` and ``evolve`` import
``rows`` (and with it numpy), ``evolve`` only once its rate set, ``--steps``
and ``mixed:p`` (by ``lindblad``, which loads no numpy) are checked, and
``verify`` imports ``oracle``.  Only ``rates`` and ``verify``, which print JSON, import
``json``.  So ``--help``, input that fails validation (a refused rate set,
the ``--points`` and ``--steps`` caps and the ``mixed:p`` range included)
and ``rates`` never load numpy, and only ``verify`` loads the oracle.

``main(argv)`` is the in-process entry and returns the exit code.  Both
process entries, the ``gravatom`` script and ``python -m gravatom.cli``, go
through ``run``, which freezes the heap once ``main`` returns, so that the
interpreter's collections at exit skip the objects that refcount teardown
frees anyway.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import math
import sys
import warnings

from .errors import DomainError, GravatomError
from .model import (
    NUMBER,
    AtomSpec,
    GravityEnv,
    _check_angle,
    _check_finite,
    potential_from_source,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``UsageError``, like every other usage error."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    """The parser; every flag carries its real default."""
    parser = _Parser(
        prog="gravatom",
        description="Dissipation of a two-level atom in a weak gravitational field",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_source(p, phi=0.0):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--phi", type=float, default=phi,
                            help="Newtonian potential (<= 0, default %(default)s)")
        source.add_argument("--mass", type=float, default=None,
                            help="source mass (G = 1): phi = -mass/distance")
        p.add_argument("--distance", type=float, default=1.0, help="distance R to the source")

    def add_atom(p):
        p.add_argument("--omega", type=float, required=True, help="proper energy splitting")
        p.add_argument("--dipole", type=float, default=1.0, help="effective dipole magnitude")
        p.add_argument("--angle", type=float, default=0.0, help="dipole angle psi in radians")
        p.add_argument("--temperature", type=float, default=0.0, help="distant-observer temperature")

    def add_output(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_rates = sub.add_parser("rates", help="compute one full rate set")
    add_source(p_rates)
    add_atom(p_rates)
    add_output(p_rates)

    p_sweep = sub.add_parser("sweep", help="ratio curve over a grid of x = R*Omega",
                             description="--distance matters only with --mass.")
    add_source(p_sweep, phi=-0.05)
    p_sweep.add_argument("--angle", type=float, default=None,
                         help="dipole angle psi in radians (default: the psi = 0 and pi/2 curves)")
    p_sweep.add_argument("--format", choices=("csv", "svg"), default="csv")
    add_output(p_sweep)
    p_sweep.add_argument("--x-min", dest="x_min", type=float, default=1e-2)
    p_sweep.add_argument("--x-max", dest="x_max", type=float, default=1e2)
    p_sweep.add_argument("--points", type=int, default=200)
    grid = p_sweep.add_mutually_exclusive_group()
    grid.add_argument("--log", dest="log_grid", action="store_true", default=True)
    grid.add_argument("--linear", dest="log_grid", action="store_false")

    p_evolve = sub.add_parser("evolve", help="evolve a density matrix")
    add_source(p_evolve)
    add_atom(p_evolve)
    add_output(p_evolve)
    p_evolve.add_argument("--t-max", dest="t_max", type=float, default=5.0,
                          help="evolution span in units of 1/Gamma")
    p_evolve.add_argument("--steps", type=int, default=500)
    p_evolve.add_argument("--initial", default="excited",
                          help="excited, ground, or mixed:p")

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    add_output(p_verify)

    return parser


#: Largest grid `sweep` accepts and largest step count `evolve` accepts.
#: Both compute and write their rows in blocks, so the caps bound the output
#: (about 54 bytes of CSV per `sweep` row, 540 MB at the cap; about 108 per
#: `evolve` row, 1.1 GB), not memory.
MAX_POINTS = 10_000_000
MAX_STEPS = 10_000_000


def _environment(args) -> GravityEnv:
    if args.mass is not None:
        return GravityEnv(potential_from_source(args.mass, args.distance), args.distance)
    return GravityEnv(args.phi, args.distance)


def _write(lines, out: str | None) -> None:
    """Write an iterable of text chunks, as they are produced, to ``out``."""
    if out is None:
        sys.stdout.writelines(lines)
    else:
        with open(out, "w") as fh:
            fh.writelines(lines)


def cmd_rates(args) -> int:
    atom = AtomSpec(args.omega, args.dipole, args.angle)
    env = _environment(args)
    import json

    from .rates import RateSet, build_rate_set

    rateset = build_rate_set(atom, env, args.temperature)
    payload = {k: NUMBER % getattr(rateset, k) for k in RateSet.__slots__}
    payload["ratio"] = NUMBER % (rateset.gamma_g / rateset.gamma_flat)
    _write([json.dumps(payload, indent=2, sort_keys=True) + "\n"], args.out)
    return 0


def _sweep_grid(args) -> tuple[float, float, int]:
    """Validate the grid settings; return (start, step, n).

    Point i is ``start + i * step`` on a linear grid and ``math.exp`` of
    that on a log grid.
    """
    n = args.points
    if n < 2:
        raise UsageError("points must be >= 2")
    if n > MAX_POINTS:
        raise UsageError(f"points must be <= {MAX_POINTS}")
    x_min, x_max = args.x_min, args.x_max
    _check_finite("x_min", x_min)
    _check_finite("x_max", x_max)
    if not x_min < x_max:
        raise UsageError("need x_min < x_max")
    if args.log_grid:
        if x_min <= 0.0:
            raise UsageError("x_min must be positive for a log grid")
        log_min = math.log(x_min)
        return log_min, (math.log(x_max) - log_min) / (n - 1), n
    if x_min < 0.0:
        raise UsageError("x_min must be >= 0")
    return x_min, (x_max - x_min) / (n - 1), n


def cmd_sweep(args) -> int:
    env = _environment(args)
    grid = _sweep_grid(args)
    phi = env.phi

    if args.angle is not None:
        _check_angle("angle", args.angle)
        sin2s = (math.sin(args.angle) ** 2,)
        header = "x,ratio"
        labels = ("ratio",)
    else:
        sin2s = (0.0, 1.0)
        header = "x,ratio_parallel,ratio_perpendicular"
        labels = ("parallel", "perpendicular")

    from .rows import format_rows, sweep_chunks

    chunks = functools.partial(sweep_chunks, grid, args.log_grid, phi, sin2s)
    if args.format == "svg":
        _write(_render_svg(chunks, labels, phi, args.log_grid), args.out)
        return 0

    # Each chunk is formatted and written as it is computed: no row list is
    # held, nor the last chunk while the next is computed.
    lines = map(format_rows, chunks())
    _write(itertools.chain([f"# phi={NUMBER % phi}\n", header + "\n"], lines), args.out)
    return 0


def _render_svg(chunks, labels, phi, log_x: bool):
    """Yield the SVG text: one polyline per ratio column of the ``chunks()`` stream.

    ``chunks`` restarts the (xs, ratios) chunks of `rows.sweep_chunks`; each
    pass holds one chunk.  The first finds the plot ranges, the min and max of
    ``axis(x)`` over Python floats and of each chunk's ratios: a min or max is
    exact, so these are the whole grid's doubles.  Then one pass per curve
    yields its points.  ``math.log10`` is used, not numpy's log10, which can
    differ in the last bit, and the printed digits with it.
    """
    width, height, margin = 640, 420, 60
    axis = math.log10 if log_x else float
    x_lo, x_hi, y_lo, y_hi = math.inf, -math.inf, math.inf, -math.inf
    for xs, ratios in chunks():
        plot_xs = [axis(x) for x in xs.tolist()]
        x_lo, x_hi = min(x_lo, *plot_xs), max(x_hi, *plot_xs)
        y_lo, y_hi = min(y_lo, float(ratios.min())), max(y_hi, float(ratios.max()))
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    # A grid too narrow to resolve collapses to one x: draw it at the left.
    x_span = x_hi - x_lo or 1.0

    def px(x):
        return margin + (axis(x) - x_lo) / x_span * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    colors = ("#1f6fb4", "#c23b22")
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'<text x="{width / 2:.0f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">x = RΩ ({"log" if log_x else "linear"} scale), Φ = {phi:g}</text>\n'
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.0f})">γ_g/γ</text>\n'
    )
    for i, label in enumerate(labels):
        separator = '<polyline points="'
        for xs, ratios in chunks():
            points = zip(map(px, xs.tolist()), map(py, ratios[:, i].tolist()))
            yield separator + " ".join("%.2f,%.2f" % point for point in points)
            separator = " "
        yield (f'" fill="none" stroke="{colors[i % 2]}" stroke-width="1.5"/>\n'
               f'<text x="{width - margin - 5}" y="{margin + 18 * (i + 1)}" '
               f'text-anchor="end" font-size="12" fill="{colors[i % 2]}">{label}</text>\n')
    yield "</svg>\n"


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
    """The exact GKSL trajectory, written as `rows.evolve_chunks` builds it."""
    atom = AtomSpec(args.omega, args.dipole, args.angle)
    env = _environment(args)
    p_excited = _initial_excited(args.initial)
    # Checked as given, in units of 1/Gamma: the library sees t_max / Gamma.
    if not (math.isfinite(args.t_max) and args.t_max > 0.0):
        raise DomainError(f"t_max must be finite and positive, got {args.t_max}")
    from .rates import build_rate_set

    rateset = build_rate_set(atom, env, args.temperature)
    t_max = args.t_max / rateset.gamma_total
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"t_max / Gamma is out of range for t_max = {args.t_max}, "
                          f"Gamma = {rateset.gamma_total}")
    steps = args.steps
    if not 1 <= steps <= MAX_STEPS:
        raise DomainError(f"steps must lie in [1, {MAX_STEPS}], got {steps}")
    from .lindblad import DensityMatrix2

    rho0 = DensityMatrix2.mixed(p_excited)  # the mixed:p range, before numpy loads
    from .rows import EVOLVE_HEADER, evolve_chunks, format_rows

    chunks = evolve_chunks(rho0, rateset, t_max, steps)
    _write(itertools.chain([EVOLVE_HEADER], map(format_rows, chunks)), args.out)
    return 0


def cmd_verify(args) -> int:
    import json

    from . import oracle

    records = oracle.verification_report()
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
    except (UsageError, GravatomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


def run():
    """The process entry of ``python -m gravatom.cli`` and the ``gravatom`` script.

    Exits with the code of ``main()``.  ``gc.freeze()`` first moves every
    object the collector tracks into its permanent generation, which the
    interpreter's collections at shutdown skip: they would only find the
    objects that refcount teardown frees anyway.  Teardown, ``atexit``
    handlers and the flushing of stdout and stderr run as before.  In a
    process that goes on, call ``main``: a frozen heap pins its garbage.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

"""Correctness gates, independent of the code they check.

Every reference here is computed with ``mpmath`` at 40 digits straight from
the paper's closed forms, or with the benchmark's own relaxation formula;
nothing imports ``gravatom``.  A gate returns a ``Verdict``:

* ``ok`` -- the invocation met the CLI contract and matched the reference.
* ``known_defect`` -- it failed, but exactly as documented for its input
  class in NOTES.md (the ``rates`` NaN/inf defects, probed outside the
  timed mix).  A run is only flagged incorrect by failures outside this
  list.
* ``err`` -- the worst normalised error of the numbers compared.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass

import mpmath
import numpy as np

from workloads import KNOWN_DEFECTS, Invocation

mp = mpmath.mp

RATIO_TOL = 1e-9     # sweep/rates ratio; output carries 12 digits
ORACLE_TOL = 1e-6    # the report's own stated B1/B2 tolerance
# B2 vanishes at x = pi, so oracle errors are relative to max(|ref|, 1e-2).
ORACLE_FLOOR = 1e-2
POP_TOL = 1e-9       # evolve populations, absolute
TRACE_TOL = 1e-12    # the library's unit-trace tolerance
GRID_TOL = 1e-10     # sweep x column against a geometric grid

RATES_KEYS = {"gamma_flat", "gamma_g", "gamma_minus", "gamma_plus",
              "gamma_total", "omega_g", "ratio", "steady_excited"}
EVOLVE_HEADER = "t,rho_ee,rho_gg,abs_rho_eg,trace_error,analytic_rho_ee"
ORACLE_GRID = (0.3, 0.5, 1.0, 2.0, math.pi, 5.0, 8.0)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    known_defect: bool = False
    err: float = 0.0
    reason: str = ""


def _fail(reason: str, err: float = 0.0) -> Verdict:
    return Verdict(False, False, err, reason)


# ---------------------------------------------------------------------------
# mpmath references
# ---------------------------------------------------------------------------


def mp_f1(x):
    x = mp.mpf(x)
    x2 = x * x
    return (1 + x2 * (mp.pi * x + 3) - (1 + x2) * mp.cos(2 * x)
            - 2 * x * mp.sin(2 * x) - 2 * x * x2 * mp.si(2 * x)) / x2


def mp_f2(x):
    x = mp.mpf(x)
    return (1 - x * mp.sin(2 * x) - mp.cos(2 * x)) / (x * x)


def mp_bracket(x, phi, sin2psi):
    """gamma_g / gamma = 1 + 7 phi - 2 phi f1(x) + 3 phi sin^2(psi) f2(x)."""
    phi = mp.mpf(phi)
    return 1 + 7 * phi - 2 * phi * mp_f1(x) + 3 * phi * mp.mpf(sin2psi) * mp_f2(x)


def mp_sin2(angle):
    return mp.sin(mp.mpf(angle)) ** 2


def mp_thermal(omega, phi, distance, angle, temperature):
    """(ratio, Gamma, steady excited population) for unit dipole."""
    with mp.workdps(40):
        omega, phi, temperature = mp.mpf(omega), mp.mpf(phi), mp.mpf(temperature)
        ratio = mp_bracket(mp.mpf(distance) * omega, phi, mp_sin2(angle))
        gamma_g = omega**3 / (6 * mp.pi) * ratio
        omega_g = (1 + phi) * omega
        n = 0 if temperature == 0 else 1 / mp.expm1(omega_g / temperature)
        return float(ratio), float(gamma_g * (2 * n + 1)), float(n / (2 * n + 1))


@functools.cache
def oracle_references() -> dict[tuple[str, float], float]:
    """B1(R=1, omega=x) and B2(R=1, omega=x) on the report's grid."""
    refs = {}
    with mp.workdps(40):
        for x in ORACLE_GRID:
            refs[("B1", x)] = float(-(mp.pi * x / 3) * mp_f1(x))
            refs[("B2", x)] = float(-(mp.pi * x / 2) * mp_f2(x))
    return refs


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if ref else abs(value)


def _has_traceback(err: str) -> bool:
    return "Traceback (most recent call last)" in err


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


_ORACLE_NAME = re.compile(r"^(B[12]) quadrature vs closed form, x=(\S+)$")


def gate_verify(inv: Invocation, code: int, out: str, err: str) -> Verdict:
    if code != 0 or _has_traceback(err):
        return _fail(f"exit {code}")
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return _fail("stdout is not JSON")
    if report.get("all_pass") is not True or not report.get("checks"):
        return _fail("report does not pass")
    refs = oracle_references()
    seen, worst = set(), 0.0
    for record in report["checks"]:
        match = _ORACLE_NAME.match(record.get("name", ""))
        if not match:
            continue
        x = float(match.group(2))
        key = next((k for k in refs if k[0] == match.group(1)
                    and math.isclose(k[1], x, rel_tol=1e-5)), None)
        if key is None:
            return _fail(f"unexpected oracle record {record['name']!r}")
        ref = refs[key]
        worst = max(worst, abs(float(record["computed"]) - ref)
                    / max(abs(ref), ORACLE_FLOOR))
        seen.add(key)
    if seen != set(refs):
        return _fail(f"missing oracle records: {sorted(set(refs) - seen)}")
    if not worst <= ORACLE_TOL:
        return _fail("B1/B2 off the mpmath closed form", worst)
    return Verdict(True, err=worst)


def _csv_block(lines: list[str], ncols: int) -> np.ndarray | None:
    if not lines:
        return None
    try:
        flat = np.array(",".join(lines).split(","), dtype=float)
    except ValueError:
        return None
    if flat.size != len(lines) * ncols:
        return None
    return flat.reshape(len(lines), ncols)


def sample_rows(x: np.ndarray, seed: int) -> list[int]:
    """Seeded rows plus the rows on either side of each branch switch."""
    rng = np.random.default_rng(seed)
    rows = set(rng.choice(len(x), size=24, replace=False).tolist())
    for cut in (0.1, 2.0):
        i = int(np.searchsorted(x, cut, side="right"))
        rows.update(j for j in range(i - 2, i + 6) if 0 <= j < len(x))
    return sorted(rows)


def gate_sweep(inv: Invocation, code: int, out: str, err: str) -> Verdict:
    p = inv.params
    if code != 0 or err:
        return _fail(f"exit {code}, stderr {err[-200:]!r}")
    lines = out.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# phi="):
        return _fail("missing phi line")
    if _rel(float(lines[0][6:]), p["phi"]) > 1e-11:
        return _fail("wrong phi line")
    angle = p["angle"]
    header = "x,ratio" if angle is not None else "x,ratio_parallel,ratio_perpendicular"
    if lines[1] != header:
        return _fail(f"wrong header {lines[1]!r}")
    ncols = header.count(",") + 1
    if len(lines) - 2 != p["points"]:
        return _fail(f"{len(lines) - 2} rows, expected {p['points']}")
    data = _csv_block(lines[2:], ncols)
    if data is None or not np.all(np.isfinite(data)):
        return _fail("malformed or non-finite rows")
    x = data[:, 0]
    grid = np.geomspace(p["x_min"], p["x_max"], p["points"])
    worst = float(np.max(np.abs(x - grid) / grid))
    if not worst <= GRID_TOL:
        return _fail("x column off the log grid", worst)
    with mp.workdps(40):
        sin2 = [mp_sin2(angle)] if angle is not None else [0, 1]
        for row in sample_rows(grid, p["sample_seed"]):
            for col, s2 in enumerate(sin2, start=1):
                ref = float(mp_bracket(x[row], p["phi"], s2))
                worst = max(worst, _rel(data[row, col], ref))
    if not worst <= RATIO_TOL:
        return _fail("ratio off the mpmath bracket", worst)
    return Verdict(True, err=worst)


def gate_evolve(inv: Invocation, code: int, out: str, err: str) -> Verdict:
    p = inv.params
    if code != 0 or err:
        return _fail(f"exit {code}, stderr {err[-200:]!r}")
    lines = out.splitlines()
    if not lines or lines[0] != EVOLVE_HEADER:
        return _fail("wrong header")
    if len(lines) - 1 != p["steps"] + 1:
        return _fail(f"{len(lines) - 1} rows, expected {p['steps'] + 1}")
    data = _csv_block(lines[1:], 6)
    if data is None or not np.all(np.isfinite(data)):
        return _fail("malformed or non-finite rows")
    t, ee, gg, eg, trace_err, analytic = data.T
    _, total, steady = mp_thermal(p["omega"], p["phi"], p["distance"],
                                  p["angle"], p["temperature"])
    h = p["t_max"] / total / p["steps"]
    times = h * np.arange(p["steps"] + 1)
    worst_t = float(np.max(np.abs(t - times)) / times[-1])
    if not worst_t <= GRID_TOL:
        return _fail("time column off the uniform grid", worst_t)
    # The benchmark's own relaxation: rho_ee -> steady at rate Gamma.
    ref = (p["ee0"] - steady) * np.exp(-total * times) + steady
    worst = max(float(np.max(np.abs(col - target)))
                for col, target in ((ee, ref), (analytic, ref), (gg, 1.0 - ref)))
    if not worst <= POP_TOL:
        return _fail("populations off the exponential relaxation", worst)
    if np.max(np.abs(trace_err)) > TRACE_TOL or np.max(np.abs(eg)) > TRACE_TOL:
        return _fail("trace error or spurious coherence")
    return Verdict(True, err=max(worst, worst_t))


def gate_rates(inv: Invocation, code: int, out: str, err: str) -> Verdict:
    if inv.cls != "valid":
        if code == 2 and out == "" and not _has_traceback(err):
            return Verdict(True)
        seen = ("traceback" if code == 1 and _has_traceback(err)
                else "nan_json" if code == 0 and "nan" in out else None)
        known = seen is not None and KNOWN_DEFECTS.get(inv.cls) == seen
        return Verdict(False, known, 0.0, f"{inv.cls}: exit {code}")
    p = inv.params
    if code != 0 or err:
        return _fail(f"exit {code}, stderr {err[-200:]!r}")
    try:
        payload = json.loads(out)
        values = {k: float(v) for k, v in payload.items()}
    except (json.JSONDecodeError, TypeError, ValueError):
        return _fail("stdout is not a JSON object of numbers")
    if set(values) != RATES_KEYS:
        return _fail(f"keys {sorted(values)}")
    if not all(math.isfinite(v) for v in values.values()):
        return _fail("non-finite value")
    phi = p["phi"] if "phi" in p else -p["mass"] / p["distance"]
    ratio, _, steady = mp_thermal(p["omega"], phi, p["distance"], p["angle"],
                                  p["temperature"])
    worst = max(_rel(values["ratio"], ratio), abs(values["steady_excited"] - steady))
    if not worst <= RATIO_TOL:
        return _fail("ratio or steady population off the mpmath reference", worst)
    return Verdict(True, err=worst)


GATES = {
    "verify": gate_verify,
    "sweep": gate_sweep,
    "evolve": gate_evolve,
    "rates": gate_rates,
}

"""Seeded invocation schedules for the four benchmark workloads.

A workload is an endless sequence of schedule cycles.  Each cycle is a
fixed mix of invocation kinds whose parameters are drawn from one
``random.Random`` seeded with ``--seed``, so the same seed always yields
the same argv sequence.  The program only ever sees the generated argv.

Every invocation carries two tags:

* ``kind`` groups invocations whose cost should be alike (two-column vs
  single-column sweeps, valid vs invalid ``rates`` input).  Timings and
  memory are reduced per kind and weighted by the kind's share of a cycle,
  so the reported figure does not depend on where in a cycle the deadline
  fell.
* ``cls`` is the outcome class the correctness gate judges.  For ``rates``
  each documented class of invalid input is its own ``cls``.

The invalid ``rates`` classes that the program mishandles (``KNOWN_DEFECTS``)
are not in the timed mix, so that no timed operation fails; each run probes
them once on the side (``defect_probes``) and reports how many still fail.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

SWEEP_POINTS = 100_000
EVOLVE_STEPS = 100_000

# One cycle of `rates` holds every timed invalid class once, after each pair
# of valid invocations, so invalid input is a fixed third of the mix.
RATES_VALID_PER_INVALID = 2

# Documented invalid-input classes for `rates`: (cls, flag, value).  A
# value of None is drawn from the class's finite out-of-range interval.
INVALID_CLASSES = (
    ("phi_positive", "phi", None),
    ("phi_strong", "phi", None),
    ("omega_nonpositive", "omega", None),
    ("omega_nan", "omega", "nan"),
    ("omega_posinf", "omega", "inf"),
    ("omega_neginf", "omega", "-inf"),
    ("phi_nan", "phi", "nan"),
    ("phi_posinf", "phi", "inf"),
    ("phi_neginf", "phi", "-inf"),
    ("temperature_nan", "temperature", "nan"),
    ("temperature_posinf", "temperature", "inf"),
    ("temperature_neginf", "temperature", "-inf"),
)

# Seed outcome of each mishandled invalid-input class (see NOTES.md).
KNOWN_DEFECTS = {
    "omega_nan": "nan_json",
    "phi_nan": "nan_json",
    "temperature_nan": "nan_json",
    "omega_posinf": "traceback",
    "temperature_posinf": "traceback",
}
TIMED_INVALID = tuple(c for c in INVALID_CLASSES if c[0] not in KNOWN_DEFECTS)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: ``gravatom <argv...>`` plus what its gate needs."""

    argv: tuple[str, ...]
    kind: str
    cls: str
    params: dict = field(default_factory=dict, compare=False)


def _num(value: float) -> str:
    return repr(float(value))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _weak_phi(rng: random.Random) -> float:
    # |phi| <= 0.1 keeps every valid run clear of the regime warning.
    return -rng.uniform(1e-3, 0.1)


def verify_cycle(rng: random.Random) -> list[Invocation]:
    return [Invocation(("verify",), "verify", "verify")]


def _sweep(rng: random.Random, angle: float | None) -> Invocation:
    phi = _weak_phi(rng)
    # The grid always covers the f1/f2 series branch (x <= 0.1), the Si
    # power series (2x <= 4) and the Si continued fraction beyond, with
    # dense points just above the 2x = 4 switch where it converges slowest.
    x_min = _log_uniform(rng, 5e-4, 2e-3)
    x_max = _log_uniform(rng, 40.0, 60.0)
    argv = ["sweep", "--phi", _num(phi), "--x-min", _num(x_min),
            "--x-max", _num(x_max), "--points", str(SWEEP_POINTS), "--log"]
    if angle is not None:
        argv += ["--angle", _num(angle)]
    kind = "two_column" if angle is None else "angle"
    params = {"phi": phi, "x_min": x_min, "x_max": x_max,
              "points": SWEEP_POINTS, "angle": angle,
              "sample_seed": rng.getrandbits(32)}
    return Invocation(tuple(argv), kind, kind, params)


def sweep_cycle(rng: random.Random) -> list[Invocation]:
    return [_sweep(rng, None), _sweep(rng, rng.uniform(0.0, math.pi))]


def _evolve(rng: random.Random, temperature: float) -> Invocation:
    omega = rng.uniform(0.5, 3.0)
    phi = _weak_phi(rng)
    distance = rng.uniform(0.5, 2.0)
    angle = rng.uniform(0.0, math.pi)
    t_max = rng.uniform(2.0, 8.0)
    pick = rng.randrange(3)
    if pick == 0:
        initial, ee0 = "excited", 1.0
    elif pick == 1:
        initial, ee0 = "ground", 0.0
    else:
        ee0 = rng.uniform(0.05, 0.95)
        initial = f"mixed:{_num(ee0)}"
    argv = ("evolve", "--omega", _num(omega), "--phi", _num(phi),
            "--distance", _num(distance), "--angle", _num(angle),
            "--temperature", _num(temperature), "--t-max", _num(t_max),
            "--steps", str(EVOLVE_STEPS), "--initial", initial)
    params = {"omega": omega, "phi": phi, "distance": distance, "angle": angle,
              "temperature": temperature, "t_max": t_max,
              "steps": EVOLVE_STEPS, "ee0": ee0}
    return Invocation(argv, "evolve", "evolve", params)


def evolve_cycle(rng: random.Random) -> list[Invocation]:
    return [_evolve(rng, 0.0), _evolve(rng, rng.uniform(0.2, 3.0))]


def _rates_valid(rng: random.Random) -> Invocation:
    omega = rng.uniform(0.1, 5.0)
    distance = rng.uniform(0.2, 5.0)
    angle = rng.uniform(0.0, math.pi)
    temperature = 0.0 if rng.random() < 1.0 / 3.0 else rng.uniform(0.05, 5.0)
    argv = ["rates", "--omega", _num(omega), "--distance", _num(distance),
            "--angle", _num(angle), "--temperature", _num(temperature)]
    if rng.random() < 0.5:
        phi = _weak_phi(rng)
        argv += ["--phi", _num(phi)]
        params = {"phi": phi}
    else:
        mass = -_weak_phi(rng) * distance
        argv += ["--mass", _num(mass)]
        params = {"mass": mass}
    params.update(omega=omega, distance=distance, angle=angle,
                  temperature=temperature)
    return Invocation(tuple(argv), "valid", "valid", params)


def rates_invalid(rng: random.Random, cls: str, flag: str, value) -> Invocation:
    args = {"omega": _num(rng.uniform(0.1, 5.0)), "phi": _num(_weak_phi(rng)),
            "temperature": _num(rng.uniform(0.0, 5.0))}
    if value is None:
        value = {
            "phi_positive": lambda: rng.uniform(1e-6, 0.2),
            "phi_strong": lambda: -rng.uniform(0.3, 0.9),
            "omega_nonpositive": lambda: -rng.uniform(0.0, 5.0),
        }[cls]()
        value = _num(value)
    args[flag] = value
    # `--flag=value` so that argparse does not read "-inf" as an option.
    argv = ("rates",) + tuple(f"--{k}={v}" for k, v in args.items())
    return Invocation(argv, "invalid", cls)


def rates_cycle(rng: random.Random) -> list[Invocation]:
    order = list(TIMED_INVALID)
    rng.shuffle(order)
    cycle = []
    for cls, flag, value in order:
        cycle += [_rates_valid(rng) for _ in range(RATES_VALID_PER_INVALID)]
        cycle.append(rates_invalid(rng, cls, flag, value))
    return cycle


def defect_probes(seed: int) -> list[Invocation]:
    """One ``rates`` invocation per known-defect class, drawn from ``seed``."""
    rng = random.Random(f"defects:{seed}")
    return [rates_invalid(rng, cls, flag, value)
            for cls, flag, value in INVALID_CLASSES if cls in KNOWN_DEFECTS]


CYCLES = {
    "verify": verify_cycle,
    "sweep": sweep_cycle,
    "evolve": evolve_cycle,
    "rates": rates_cycle,
}


def shares(cycle: list[Invocation], attr: str) -> dict[str, float]:
    """Share of each ``kind`` or ``cls`` value within one cycle."""
    counts = Counter(getattr(inv, attr) for inv in cycle)
    return {key: n / len(cycle) for key, n in counts.items()}


def stream(workload: str, seed: int):
    """Yield (cycle_index, invocation) forever for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = CYCLES[workload]
    index = 0
    while True:
        for inv in make(rng):
            yield index, inv
        index += 1

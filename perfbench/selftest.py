"""Prove that every correctness gate can fail.

    python3 perfbench/selftest.py

Each case runs the real CLI (as a child process, like the benchmark) on a
seeded input, optionally corrupts the output, and checks that the gate
accepts clean output and rejects corrupted output.  Exit 0 when every case
behaves as expected, 1 otherwise.  Takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import numpy as np

from gates import GATES, sample_rows
from run import SRC, WORK, Child
from workloads import CYCLES, INVALID_CLASSES, rates_invalid

SMALL = 2000


def _shrink(inv, flag: str, key: str):
    """Same invocation with SMALL points/steps, so the self-test is quick."""
    argv = list(inv.argv)
    argv[argv.index(flag) + 1] = str(SMALL)
    return dataclasses.replace(inv, argv=tuple(argv), params={**inv.params, key: SMALL})


def _perturb(out: str, line_index: int, col: int, change) -> str:
    lines = out.splitlines()
    cells = lines[line_index].split(",")
    cells[col] = f"{change(float(cells[col])):.11e}"
    lines[line_index] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _first_sampled_row(inv) -> int:
    p = inv.params
    grid = np.geomspace(p["x_min"], p["x_max"], p["points"])
    return sample_rows(grid, p["sample_seed"])[0]


def main() -> int:
    if not (SRC / "gravatom" / "cli.py").is_file():
        print(f"selftest: no gravatom package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    child = Child()
    cases = []  # (name, verdict, expect_ok)

    def case(name, workload, inv, expect_ok, corrupt=None):
        code, out, err = child.run(["-m", "gravatom.cli", *inv.argv])[:3]
        if corrupt is not None:
            out = corrupt(out)
        cases.append((name, GATES[workload](inv, code, out, err), expect_ok))

    try:
        rng = random.Random(0)
        verify = CYCLES["verify"](rng)[0]
        case("verify clean", "verify", verify, True)
        offset = dataclasses.replace(verify, argv=verify.argv + ("--f1-offset", "1e-3"))
        case("verify --f1-offset 1e-3 (exit 1)", "verify", offset, False)

        for inv in CYCLES["sweep"](rng):
            inv = _shrink(inv, "--points", "points")
            row = 2 + _first_sampled_row(inv)
            case(f"sweep {inv.kind} clean", "sweep", inv, True)
            case(f"sweep {inv.kind}, a sampled ratio off by 1e-7", "sweep", inv, False,
                 lambda out: _perturb(out, row, 1, lambda v: v * (1.0 + 1e-7)))
            case(f"sweep {inv.kind}, last row dropped", "sweep", inv, False,
                 lambda out: out[: out.rstrip("\n").rfind("\n") + 1])

        for inv in CYCLES["evolve"](rng):
            inv = _shrink(inv, "--steps", "steps")
            start = inv.argv[inv.argv.index("--initial") + 1]
            case(f"evolve {start} clean", "evolve", inv, True)
            case(f"evolve {start}, one rho_ee off by 1e-6", "evolve", inv, False,
                 lambda out: _perturb(out, SMALL // 2, 1, lambda v: v + 1e-6))

        valid = next(i for i in CYCLES["rates"](rng) if i.cls == "valid")
        case("rates valid clean", "rates", valid, True)
        case("rates valid, ratio replaced by NaN", "rates", valid, False,
             lambda out: json.dumps({**json.loads(out), "ratio": "nan"}))
        for cls, flag, value in INVALID_CLASSES:
            if cls in ("phi_positive", "omega_nan", "omega_posinf"):
                case(f"rates {cls}", "rates", rates_invalid(rng, cls, flag, value),
                     cls == "phi_positive")
    finally:
        child.close()

    bad = 0
    for name, verdict, expect_ok in cases:
        good = verdict.ok == expect_ok
        bad += not good
        want = "accept" if expect_ok else "reject"
        got = "accepted" if verdict.ok else f"rejected ({verdict.reason})"
        print(f"[{'PASS' if good else 'FAIL'}] {name}: want {want}, {got}")
    print(f"{len(cases) - bad}/{len(cases)} gate self-tests behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

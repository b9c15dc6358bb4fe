"""Run ``gravatom verify`` against one-line source mutants; it must fail each.

    python tools/mutants.py

Each entry of ``MUTANTS`` is (file under ``src/gravatom``, old text, new
text): a one-line fault in a closed form that ``verify`` re-derives, or in
the oracle quadrature that re-derives it.  For each, ``src/`` is copied to a
temporary directory (without ``__pycache__``), the old text is replaced
there, and ``gravatom.cli`` runs ``verify`` as
``python -m gravatom.cli verify`` does, with ``PYTHONPATH`` set to the copy.
A mutant is caught when ``verify`` exits 1 without a traceback and prints
strict JSON (no NaN or Infinity).  The unmutated copy runs first and must
exit 0.

One line is printed per run; a caught mutant's line ends with the names of
the records that failed.  Exit 0 when every mutant is caught, 1 when
any is missed, 2 when an old text does not occur exactly once in ``src/``
(the table is out of date), the unmutated copy does not pass, or a child
imported ``gravatom`` from outside its copy.

A mutant that ``verify`` misses joins the table together with the record
that catches it, never with an allowance.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: (file under src/gravatom, old text, new text); each old text occurs once.
MUTANTS = (
    # The rate bracket's coefficients of phi and of phi sin^2(psi) f2.
    ("rates.py", "7.0 * phi", "7.07 * phi"),
    ("rates.py", "3.0 * phi * sin2psi", "3.03 * phi * sin2psi"),
    # The redshift power of the radiated power per quantum.
    ("oracle.py", "(1.0 + phi) ** 3", "(1.0 + phi) ** 2"),
    # Every oscillatory tail skips its first half-period; the B1/B2 records
    # then miss by 15% or more.
    ("oracle.py", "[a + h * i for i", "[a + h + h * i for i"),
    # B2's prefactor 3 pi / R^2 read as 3 pi / R^3: the grid has R = 1 only,
    # so the B2 record at R = 3 fails.
    ("oracle.py", "3.0 * math.pi, r_power=2", "3.0 * math.pi, r_power=3"),
    # f1 off by 1e-3, 1e-6 and 1e-9 above x = 2, NaN and infinite there, and
    # its Taylor series below.  A NaN or infinite field prints as null.
    ("specfun.py", "return 3.0 + inv2", "return 3.001 + inv2"),
    ("specfun.py", "return 3.0 + inv2", "return 3.000001 + inv2"),
    ("specfun.py", "return 3.0 + inv2", "return 3.000000001 + inv2"),
    ("specfun.py", "return 3.0 + inv2", "return math.nan + inv2"),
    ("specfun.py", "return 3.0 + inv2", "return math.inf + inv2"),
    ("specfun.py", "math.pi * x", "3.1416 * x"),
    # The argument map of the auxiliary functions' fit, and its leading
    # coefficient of y f(y) off by 1e-9 (f1 above x = 2).
    ("specfun.py", "SMALL_CUT / y - 1.0", "SMALL_CUT / y - 1.000001"),
    ("_specfun_tables.py", "0.9657882803518518,", "0.9657882813176402,"),
    # Absorption and emission rates swapped, and n_B taken at the local
    # temperature T / (1 + phi) instead of the distant one.
    ("rates.py", "n_b * gamma_g, (n_b + 1.0) * gamma_g", "(n_b + 1.0) * gamma_g, n_b * gamma_g"),
    ("rates.py", "bose_occupation(omega_g, temperature)",
     "bose_occupation(omega_g, temperature / (1.0 + env.phi))"),
    # The sign of the f1 term of the bracket: the energy balance and the
    # x = 1000 plateau fail, and `build_rate_set` raises on the negative
    # bracket, which turns the detailed-balance check into one failing
    # record, not a refused input (exit 2); the redshift check after it
    # still runs.
    ("rates.py", "- 2.0 * phi * specfun.f1(x)", "+ 2.0 * phi * specfun.f1(x)"),
    # The redshift's sign: omega_g misses sqrt(1 + 2 phi) by O(phi).  And
    # omega_g = (1 + phi) / omega, which the redshift record, at omega = 1.7,
    # sees as an O(1) miss.
    ("rates.py", "omega_g = (1.0 + env.phi) * atom.omega", "omega_g = (1.0 - env.phi) * atom.omega"),
    ("rates.py", "omega_g = (1.0 + env.phi) * atom.omega", "omega_g = (1.0 + env.phi) / atom.omega"),
    # The flat rate's prefactor d^2 Omega^3 / (3 pi), d^2 Omega^3 6 pi, and
    # its powers d^3 and Omega^2: the flat-rate record, against the mode
    # sum, fails.  So does the mode sum's octahedron weight 4 pi / 5.
    ("rates.py", "(6.0 * math.pi)", "(3.0 * math.pi)"),
    ("rates.py", "omega**3 / (6.0", "omega**3 * (6.0"),
    ("rates.py", "dipole_mag**2", "dipole_mag**3"),
    ("rates.py", "* omega**3", "* omega**2"),
    ("oracle.py", "4.0 * math.pi / 6.0", "4.0 * math.pi / 5.0"),
    # sin^2(psi) read as cos^2(psi), x = R / Omega, and gamma_g = gamma /
    # bracket: the energy balance, whose power side builds sin^2(psi) from
    # the dipole vector, fails at O(phi).
    ("model.py", "return math.sin(self.dipole_angle) ** 2", "return math.cos(self.dipole_angle) ** 2"),
    ("rates.py", "x = env.distance * atom.omega", "x = env.distance / atom.omega"),
    ("rates.py", "gamma_g = gamma * bracket", "gamma_g = gamma / bracket"),
)

# Runs the command line as ``python -m gravatom.cli`` does, once ``gravatom``
# is known to come from the copy whose root is the first argument; exit 3,
# which the command line never returns, says it does not.
CHILD = """
import os, runpy, sys
root = sys.argv.pop(1)
import gravatom
if not gravatom.__file__.startswith(root + os.sep):
    print(f"imported {gravatom.__file__}", file=sys.stderr)
    sys.exit(3)
runpy.run_module("gravatom.cli", run_name="__main__", alter_sys=True)
"""


def occurrences(name: str, old: str, src: Path = SRC) -> int:
    """How often ``old`` occurs in ``src/gravatom/<name>``."""
    return (src / "gravatom" / name).read_text().count(old)


def strict_json(text: str) -> bool:
    """Whether ``text`` parses as JSON without the constants NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    try:
        json.loads(text, parse_constant=refuse)
    except ValueError:  # JSONDecodeError is a ValueError too
        return False
    return True


def run_verify(mutant=None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``verify`` on a fresh copy of ``src/``
    with ``mutant`` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "src"
        shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            name, old, new = mutant
            path = root / "gravatom" / name
            path.write_text(path.read_text().replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(root), "verify"],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=str(root)),
            capture_output=True, text=True, timeout=300,
        )
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    stale = [(name, old, count) for name, old, _ in MUTANTS
             if (count := occurrences(name, old)) != 1]
    for name, old, count in stale:
        print(f"error: {old!r} occurs {count} times in {name}, not once", file=sys.stderr)
    if stale:
        return 2

    missed = 0
    for mutant in (None, *MUTANTS):
        start = time.perf_counter()
        code, out, err = run_verify(mutant)
        elapsed = time.perf_counter() - start
        if code == 3:
            print(f"error: {err.strip()}, not the copy", file=sys.stderr)
            return 2
        if mutant is None:
            print(f"unmutated  exit {code}  {elapsed:.2f} s")
            if code != 0:
                print(f"error: verify fails on the unmutated copy\n{err}", file=sys.stderr)
                return 2
            continue
        caught = code == 1 and "Traceback" not in err and strict_json(out)
        missed += not caught
        name, old, new = mutant
        line = f"exit {code}  {elapsed:.2f} s  {name}: {old!r} -> {new!r}"
        if caught:
            failing = [r["name"] for r in json.loads(out)["checks"] if not r["pass"]]
            print(f"caught  {line}  [{'; '.join(failing)}]")
        else:
            print(f"MISSED  {line}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

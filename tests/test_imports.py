"""Each command loads only the layers it runs.

Every case starts a fresh interpreter, runs the command through
``gravatom.cli.main`` (which the ``gravatom`` console script's ``run`` calls),
or calls ``specfun`` on floats, and records ``sys.modules`` at the end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gravatom

SRC = Path(gravatom.__file__).resolve().parents[1]

# The modules are listed before the probe imports `json` to write them.
PROBE = """
import sys
out, argv = sys.argv[1], sys.argv[2:]
import gravatom.cli
code = None
if argv:
    try:
        code = gravatom.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
modules = sorted(sys.modules)
import json
with open(out, "w") as fh:
    json.dump({"result": code, "modules": modules}, fh)
"""

# Every branch of f1 and f2, on a float and on an int.
FLOAT_PROBE = """
import json, sys
out = sys.argv[1]
from gravatom import specfun
values = [fn(x) for fn in (specfun.f1, specfun.f2)
          for x in (0.0, 0.5, 1.5, 3.0, 5.0, 10.0, 20.0, 40.0, 200.0, 1e18, 7)]
with open(out, "w") as fh:
    json.dump({"result": sorted({type(v).__name__ for v in values}),
               "modules": sorted(sys.modules)}, fh)
"""

# One state and the closed form at a float time.
LINDBLAD_PROBE = """
import json, sys
out = sys.argv[1]
from gravatom.lindblad import DensityMatrix2, analytic_state
from gravatom.model import AtomSpec, GravityEnv
from gravatom.rates import build_rate_set
rates = build_rate_set(AtomSpec(1.0), GravityEnv(-0.05, 1.0), 0.5)
states = [DensityMatrix2.mixed(0.3), DensityMatrix2.superposition(0.4)]
values = [analytic_state(rho0, rates, 0.7).ee for rho0 in states]
with open(out, "w") as fh:
    json.dump({"result": sorted({type(v).__name__ for v in values}),
               "modules": sorted(sys.modules)}, fh)
"""

NUMERIC = (
    "numpy",
    "gravatom._specfun_tables",
    "gravatom.specfun",
    "gravatom.rates",
    "gravatom.rows",
    "gravatom.lindblad",
    "gravatom.oracle",
)

# The records are plain classes: no command loads `dataclasses`, and the
# commands that never load numpy (which imports it) never load `inspect`.
STARTUP = ("dataclasses", "inspect")

# Only `rates` and `verify` print JSON, so only they load `json`.
JSON = ("json", "json.decoder", "json.scanner", "json.encoder")

# (argv, exit code, modules that must be loaded, modules that must not be)
CASES = {
    "import": ([], None, ("gravatom.cli", "gravatom.model"), NUMERIC + STARTUP + JSON),
    "help": (["--help"], 0, ("argparse",), NUMERIC + STARTUP + JSON),
    "invalid rates": (["rates", "--omega=-1"], 2, ("gravatom.model",), NUMERIC + STARTUP + JSON),
    "invalid sweep": (["sweep", "--angle", "5"], 2, ("gravatom.model",), NUMERIC + STARTUP + JSON),
    "invalid evolve": (["evolve", "--omega", "1", "--t-max", "-1"], 2, ("gravatom.model",),
                       NUMERIC + STARTUP + JSON),
    # The --steps range is checked beside the rate set, before numpy is loaded.
    "evolve without steps": (["evolve", "--omega", "1", "--steps", "0"], 2, ("gravatom.rates",),
                             ("numpy", "gravatom.rows", "gravatom.lindblad") + STARTUP + JSON),
    "evolve past the steps cap": (["evolve", "--omega", "1", "--steps", "10000001"], 2,
                                  ("gravatom.rates",),
                                  ("numpy", "gravatom.rows", "gravatom.lindblad")
                                  + STARTUP + JSON),
    # `DensityMatrix2.mixed` checks the mixed:p range, before numpy is loaded.
    "evolve with mixed:p out of range": (["evolve", "--omega", "1", "--initial", "mixed:2"], 2,
                                         ("gravatom.rates", "gravatom.lindblad"),
                                         ("numpy", "gravatom.rows") + STARTUP + JSON),
    # The rate set is refused after `rates` is loaded, before numpy is.
    "refused evolve rate set": (["evolve", "--omega", "1e-3", "--phi", "-0.2"], 2,
                                ("gravatom.rates",),
                                ("numpy", "gravatom.rows", "gravatom.lindblad", "gravatom.oracle")
                                + STARTUP + JSON),
    "rates": (["rates", "--omega", "1.3", "--phi", "-0.05"], 0,
              ("gravatom.rates", "gravatom.specfun", "json"),
              ("numpy", "gravatom.rows", "gravatom.oracle", "gravatom.lindblad") + STARTUP),
    "sweep": (["sweep", "--points", "50"], 0,
              ("gravatom.rows",), ("gravatom.oracle", "gravatom.lindblad", "dataclasses") + JSON),
    "evolve": (["evolve", "--omega", "1.0", "--steps", "500"], 0,
               ("gravatom.lindblad", "gravatom.rows"), ("gravatom.oracle", "dataclasses") + JSON),
    "verify": (["verify"], 0, ("gravatom.oracle", "gravatom.rates", "gravatom.specfun", "json"),
               ("numpy", "gravatom.rows", "gravatom.lindblad") + STARTUP),
    # The parser refuses a missing --omega and --phi with --mass.
    "rates without omega": (["rates"], 2, ("argparse",),
                            ("numpy", "gravatom.rates") + STARTUP + JSON),
    "sweep with phi and mass": (["sweep", "--phi", "-0.05", "--mass", "0.01"], 2, ("argparse",),
                                ("numpy", "gravatom.rates") + STARTUP + JSON),
    # verify has no fault-injection flag: the argument is refused by the parser.
    "verify with an unknown flag": (["verify", "--f1-offset", "1e-3"], 2, ("argparse",),
                                    ("numpy", "gravatom.oracle") + STARTUP + JSON),
}


def _probe(tmp_path, script, *argv):
    """Run ``script`` in a fresh interpreter; return its result and loaded modules."""
    out = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(out.read_text())
    return probe["result"], set(probe["modules"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_loaded_modules(case, tmp_path):
    argv, code, loaded, absent = CASES[case]
    got, modules = _probe(tmp_path, PROBE, *argv)
    assert got == code
    assert set(loaded) <= modules
    assert not set(absent) & modules


def test_float_calls_never_import_numpy(tmp_path):
    types, modules = _probe(tmp_path, FLOAT_PROBE)
    assert types == ["float"]
    assert "gravatom.specfun" in modules
    assert "numpy" not in modules


def test_one_state_never_imports_numpy(tmp_path):
    types, modules = _probe(tmp_path, LINDBLAD_PROBE)
    assert types == ["float"]
    assert "gravatom.lindblad" in modules
    assert "numpy" not in modules

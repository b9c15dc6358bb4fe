"""Each command loads only the layers it runs.

Every case starts a fresh interpreter, runs the command as the ``gravatom``
console script does (``gravatom.cli.main``) and records ``sys.modules`` at
the end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gravatom

SRC = Path(gravatom.__file__).resolve().parents[1]

PROBE = """
import json, sys
out, argv = sys.argv[1], sys.argv[2:]
import gravatom.cli
code = None
if argv:
    try:
        code = gravatom.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
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

# (argv, exit code, modules that must be loaded, modules that must not be)
CASES = {
    "import": ([], None, ("gravatom.cli", "gravatom.model"), NUMERIC),
    "help": (["--help"], 0, ("argparse",), NUMERIC),
    "invalid rates": (["rates", "--omega=-1"], 2, ("gravatom.model",), NUMERIC),
    "rates": (["rates", "--omega", "1.3", "--phi", "-0.05"], 0,
              ("gravatom.rates", "gravatom.rows"), ("gravatom.oracle", "gravatom.lindblad")),
    "sweep": (["sweep", "--points", "50"], 0,
              ("gravatom.rows",), ("gravatom.oracle", "gravatom.lindblad")),
    "evolve": (["evolve", "--omega", "1.0", "--steps", "500"], 0,
               ("gravatom.lindblad", "gravatom.rows"), ("gravatom.oracle",)),
    "verify": (["verify"], 0, ("gravatom.oracle",), ("numpy.random",)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_loaded_modules(case, tmp_path):
    argv, code, loaded, absent = CASES[case]
    out = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(out.read_text())
    assert probe["code"] == code, proc.stderr
    modules = set(probe["modules"])
    assert set(loaded) <= modules
    assert not set(absent) & modules

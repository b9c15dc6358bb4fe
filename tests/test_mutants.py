"""The table of ``tools/mutants.py`` matches the source.

``python tools/mutants.py`` runs ``gravatom verify`` on every mutant; here
each old text is only looked up, so a change that moves or rewrites a
mutated line fails the test suite too.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _load_tool()


@pytest.mark.parametrize("name, old, new", mutants.MUTANTS,
                         ids=[f"{name}: {new}" for name, _, new in mutants.MUTANTS])
def test_old_text_occurs_once(name, old, new):
    assert mutants.occurrences(name, old) == 1


def test_stale_entry_exits_2_before_any_run(monkeypatch, capsys):
    def no_run(mutant=None):
        raise AssertionError("ran verify with a stale table")

    monkeypatch.setattr(mutants, "run_verify", no_run)
    monkeypatch.setattr(mutants, "MUTANTS", mutants.MUTANTS + (("rates.py", "8.0 * phi", "9.0"),))
    assert mutants.main() == 2
    assert "'8.0 * phi' occurs 0 times in rates.py" in capsys.readouterr().err

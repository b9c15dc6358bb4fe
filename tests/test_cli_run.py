"""The process entry ``gravatom.cli.run``.

In process, ``gc.freeze`` is always replaced, so that the test process itself
is never frozen.  The process cases run ``python -m gravatom.cli``, which goes
through ``run``, and hold its bytes to those of in-process ``main``: the
frozen heap must not keep stdout or an ``--out`` file from being flushed and
closed at exit.
"""

import gc
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gravatom import cli
from gravatom.rows import EVOLVE_BLOCK, SWEEP_BLOCK

SRC = Path(cli.__file__).resolve().parents[1]
ROOT = SRC.parent


@pytest.fixture
def events(monkeypatch):
    """The calls of ``gc.freeze`` (as ``"freeze"``), which is replaced by a recorder."""
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    return calls


def run_main(argv):
    """In-process ``main(argv)``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_process(*args):
    """A fresh interpreter running ``args`` with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


class TestRun:
    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_exits_with_the_code_of_main(self, monkeypatch, events, code):
        def main():
            events.append("main")
            return code

        monkeypatch.setattr(cli, "main", main)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == code
        assert events == ["main", "freeze"]

    def test_error_in_main_propagates_without_freezing(self, monkeypatch, events):
        def main():
            raise ZeroDivisionError("in main")

        monkeypatch.setattr(cli, "main", main)
        with pytest.raises(ZeroDivisionError, match="in main"):
            cli.run()
        assert events == []

    def test_reads_the_command_line(self, monkeypatch, events, capsys):
        argv = ["rates", "--omega", "1", "--phi", "-0.02"]
        monkeypatch.setattr(sys, "argv", ["gravatom", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0
        assert events == ["freeze"]
        assert capsys.readouterr().out == run_main(argv)[1]


# Runs the module as `python -m gravatom.cli` does, with `gc.freeze` wrapped
# so that each call writes "freeze" to stderr.
TRACE_FREEZE = """
import gc, runpy, sys
freeze = gc.freeze
def traced():
    sys.stderr.write("freeze\\n")
    freeze()
gc.freeze = traced
runpy.run_module("gravatom.cli", run_name="__main__", alter_sys=True)
"""


class TestProcess:
    def test_main_block_goes_through_run(self):
        proc = run_process("-c", TRACE_FREEZE, "rates", "--omega", "1", "--temperature", "-1")
        assert proc.returncode == 2
        assert proc.stdout == b""
        # The error line comes from `main`; the freeze follows it.
        error, freeze = proc.stderr.decode().splitlines()
        assert error.startswith("error: ")
        assert freeze == "freeze"

    def test_multi_block_sweep_stdout(self):
        points = 5000
        assert points > SWEEP_BLOCK
        argv = ["sweep", "--points", str(points)]
        proc = run_process("-m", "gravatom.cli", *argv)
        code, out, err = run_main(argv)
        assert (proc.returncode, code) == (0, 0)
        assert proc.stdout == out.encode()
        assert proc.stderr == err.encode() == b""

    def test_multi_block_evolve_stdout(self):
        steps = 9000
        assert steps + 1 > EVOLVE_BLOCK
        argv = ["evolve", "--omega", "1", "--phi", "-0.02", "--temperature", "0.5",
                "--steps", str(steps)]
        proc = run_process("-m", "gravatom.cli", *argv)
        code, out, _ = run_main(argv)
        assert (proc.returncode, code) == (0, 0)
        assert proc.stdout == out.encode()
        assert out.count("\n") == steps + 2  # the header and every row

    def test_multi_block_evolve_out_file(self, tmp_path):
        argv = ["evolve", "--omega", "1", "--steps", "9000"]
        proc = run_process("-m", "gravatom.cli", *argv, "--out", str(tmp_path / "process.csv"))
        code, out, _ = run_main([*argv, "--out", str(tmp_path / "main.csv")])
        assert (proc.returncode, code) == (0, 0)
        assert proc.stdout == out.encode() == b""
        written = (tmp_path / "process.csv").read_bytes()
        assert written == (tmp_path / "main.csv").read_bytes()
        assert written.count(b"\n") == 9002

    def test_refused_input(self):
        argv = ["rates", "--omega", "1", "--temperature", "-1"]
        proc = run_process("-m", "gravatom.cli", *argv)
        code, out, err = run_main(argv)
        assert (proc.returncode, code) == (2, 2)
        assert proc.stdout == out.encode() == b""
        assert proc.stderr == err.encode()
        (line,) = proc.stderr.decode().splitlines()
        assert line.startswith("error: ")


def test_console_script_is_run():
    # Read as text: `tomllib` is not in Python 3.10.
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.strip().splitlines() == ['gravatom = "gravatom.cli:run"']

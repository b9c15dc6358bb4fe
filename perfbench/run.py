"""Benchmark runner for the ``gravatom`` CLI.

    python3 perfbench/run.py --workload {verify,sweep,evolve,rates} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is taken from ``src/``
next to this directory.  With ``--trace 0`` a single closed-loop client
spawns ``python -m gravatom.cli <argv>`` one child at a time for
``--seconds`` (and at least one full schedule cycle), times each child from
spawn to exit, reads its peak RSS from ``os.wait4`` and gates its output.
The benchmark and its children run on one CPU, and child times are scaled
to a reference speed by yardstick kernels timed around and during each
child on that CPU (see NOTES.md).
With ``--trace 1`` the same generated argv are replayed in-process, each
once plain and once under the span tracer, to get per-layer figures.

Stdout: one ``host`` line, one ``detail`` line, then the result object as
the last line.  Exit 0 when every output was correct, 1 when not, 2 when the
benchmark could not run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gates import GATES
from spawn import yardstick
from tracer import MAIN, Tracer, call_main
from workloads import CYCLES, defect_probes, shares, stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

IMPORT_ARGV = ("-c", "import gravatom.cli")
WARMUP_PROBES = 2
SETUP_PROBES = 16
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 100.0
# Kernel times of the reference speed that child times are scaled to.
YARD_REF_S = {"alloc": 0.010, "calls": 0.001, "format": 0.006}
# The kernels whose speed a child's time follows: interpreter start and
# imports follow the allocator-heavy kernel, long runs of interpreted
# numerics follow all three (measured on the development host, NOTES.md).
STARTUP = ("alloc",)
COMPUTE = ("alloc", "calls", "format")
SCALE_BY = {"verify": COMPUTE, "sweep": COMPUTE, "evolve": COMPUTE, "rates": STARTUP}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Host state
# ---------------------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Keep this process and every child on one CPU; return its number.

    The CPUs of a shared host change speed independently of each other, so
    the yardstick only tracks a child's speed when both run on the same CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_state(cpu: int) -> dict:
    times = [yardstick() for _ in range(5)]
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "load1": os.getloadavg()[0],
        "calib_s": {name: statistics.median(t[name] for t in times)
                    for name in YARD_REF_S},
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Child:
    """Runs the interpreter on ``src/`` one child at a time, via spawn.py.

    The launcher blocks in ``os.wait4`` for each child and reports its exit
    code, wall time, peak RSS and the yardstick kernel times around it; the
    child's output goes to files that this process reads back.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        tag = f"child-{os.getpid()}"
        self.paths = (WORK / f"{tag}.out", WORK / f"{tag}.err")
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=CHILD_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            os.killpg(self.launcher.pid, signal.SIGKILL)
            self.launcher.wait()
        finally:
            self.launcher.stdout.close()
            for path in self.paths:
                path.unlink(missing_ok=True)

    def run(self, argv, kernels=STARTUP) -> tuple[int, str, str, float, float]:
        """(exit code, stdout, stderr, scaled seconds, peak RSS in MB).

        Scaled seconds are the wall time times the geometric mean, over
        ``kernels``, of each kernel's reference time over its measured
        time; the raw wall time is kept in ``self.last_wall_s``.
        """
        request = {"argv": [sys.executable, *argv], "timeout": CHILD_TIMEOUT_S,
                   "stdout": str(self.paths[0]), "stderr": str(self.paths[1])}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise BenchError("child launcher exited")
        reply = json.loads(line)
        out, err = (p.read_text(encoding="utf-8", errors="replace") for p in self.paths)
        self.last_wall_s = reply["wall_s"]
        speed = math.prod(YARD_REF_S[k] / reply["yard_s"][k] for k in kernels)
        scaled = reply["wall_s"] * speed ** (1.0 / len(kernels))
        return reply["code"], out, err, scaled, reply["maxrss_kb"] / 1024.0

    def probe(self, argv=IMPORT_ARGV) -> tuple[str, float]:
        code, _, err, elapsed, _ = self.run(argv)
        if code != 0:
            raise BenchError(f"cannot import gravatom.cli from {SRC}: {err[-500:]}")
        return err, elapsed


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _schedule(workload: str, seed: int, seconds: float, spent: dict):
    """Yield the workload's invocations for ``seconds``.

    The first schedule cycle always runs whole, so every kind and class is
    present.  After it, an invocation starts only if the median time spent
    so far on its kind (``spent``, filled by the caller) still fits.
    """
    deadline = time.perf_counter() + seconds
    for cycle_index, inv in stream(workload, seed):
        past = spent.get(inv.kind)
        cost = statistics.median(past) if past else 0.0
        if cycle_index >= 1 and time.perf_counter() + cost > deadline:
            return
        yield inv


def _weighted(values_by_key: dict, weights: dict, reduce) -> float:
    return sum(w * reduce(values_by_key[key]) for key, w in weights.items())


def _summary(verdicts) -> tuple[dict, list[str]]:
    unexpected = [f"{inv.cls}: {v.reason}" for inv, v in verdicts if not v.ok]
    result = {
        "correct": not unexpected,
        "attempted": len(verdicts),
        "failed": sum(not v.ok for _, v in verdicts),
    }
    return result, unexpected


def probe_defects(child: Child, seed: int) -> tuple[dict, list[str]]:
    """Run each known-defect ``rates`` class once, untimed.

    Returns the outcome per class ("ok" once fixed, else the gate's reason)
    and the failures that are not the documented defect.
    """
    outcomes, unexpected = {}, []
    for inv in defect_probes(seed):
        code, out, err, _, _ = child.run(["-m", "gravatom.cli", *inv.argv])
        verdict = GATES["rates"](inv, code, out, err)
        outcomes[inv.cls] = "ok" if verdict.ok else verdict.reason
        if not (verdict.ok or verdict.known_defect):
            unexpected.append(f"{inv.cls}: {verdict.reason}")
    return outcomes, unexpected


def run_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    child = Child()
    try:
        for _ in range(WARMUP_PROBES):
            child.probe()
        gate = GATES[workload]
        setup, rows, spent = [], [], {}
        t0 = time.perf_counter()
        for inv in _schedule(workload, seed, seconds, spent):
            # Import probes are spread over the run so that they sample the
            # same host drift as the workload.
            while len(setup) < min(SETUP_PROBES, SETUP_PROBES * (time.perf_counter() - t0) / seconds):
                setup.append(child.probe()[1])
            code, out, err, scaled, rss = child.run(["-m", "gravatom.cli", *inv.argv],
                                                     SCALE_BY[workload])
            spent.setdefault(inv.kind, []).append(child.last_wall_s)
            rows.append((inv, gate(inv, code, out, err), scaled, rss))
        while len(setup) < SETUP_PROBES:
            setup.append(child.probe()[1])
        defects, defect_unexpected = (probe_defects(child, seed) if workload == "rates"
                                      else ({}, []))
    finally:
        child.close()

    weights = shares(CYCLES[workload](random.Random(0)), "kind")
    by_kind = {}
    for inv, _, scaled, rss in rows:
        by_kind.setdefault(inv.kind, []).append((scaled, rss))
    result, unexpected = _summary([(r[0], r[1]) for r in rows])
    unexpected += defect_unexpected
    result["correct"] = not unexpected
    result["metrics"] = {
        "wall_s": {"value": _weighted(by_kind, weights,
                                      lambda v: statistics.median(e for e, _ in v)),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": _weighted(by_kind, weights,
                                           lambda v: statistics.median(r for _, r in v)),
                        "unit": "MB"},
    }
    detail = {
        "setup_s": sorted(round(e, 4) for e in setup),
        "kinds": {kind: {"n": len(v),
                         "wall_s": sorted(round(e, 4) for e, _ in v),
                         "raw_wall_s": statistics.median(spent[kind]),
                         "rss_mb": statistics.median(r for _, r in v)}
                  for kind, v in by_kind.items()},
        "max_rel_err": max((r[1].err for r in rows), default=0.0),
        "known_defects": defects,
        "unexpected_failures": unexpected[:10],
    }
    return result, detail


def import_profile(child: Child) -> dict[str, float]:
    """Median import costs from ``python -X importtime``, in seconds."""
    samples = []
    for _ in range(IMPORT_PROBES):
        err, _ = child.probe(("-X", "importtime", *IMPORT_ARGV))
        total = numpy = own = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            total += int(self_us)
            if name == "numpy":
                numpy = int(cumulative)
            if name == "gravatom" or name.startswith("gravatom."):
                own += int(self_us)
        samples.append((total, numpy, own))
    total, numpy, own = (statistics.median(col) / 1e6 for col in zip(*samples))
    return {"import.total_s": total, "import.numpy_s": numpy, "import.gravatom_s": own}


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    child = Child()
    try:
        child.probe()
        imports = import_profile(child)
        defects, defect_unexpected = probe_defects(child, seed)
    finally:
        child.close()
    sys.path.insert(0, str(SRC))
    import gravatom.cli

    cli_main = gravatom.cli.main
    tracer = Tracer()
    traced_main = tracer.wrap(MAIN, cli_main)
    gate = GATES[workload]
    verdicts = []
    plain_s = traced_s = 0.0
    out_bytes = out_rows = steps = 0
    mismatched, spent = [], {}
    for inv in _schedule(workload, seed, seconds, spent):
        n = len(verdicts)
        tracer.set_invocation(n)

        def under_tracer():
            with tracer.installed():
                return call_main(traced_main, inv.argv)

        # Alternate which side runs first so warm-up favours neither.
        if n % 2:
            traced_run = under_tracer()
            plain_run = call_main(cli_main, inv.argv)
        else:
            plain_run = call_main(cli_main, inv.argv)
            traced_run = under_tracer()
        code, out, err, elapsed = traced_run
        spent.setdefault(inv.kind, []).append(elapsed + plain_run[3])
        plain_s += plain_run[3]
        traced_s += elapsed
        if plain_run[:2] != traced_run[:2]:
            mismatched.append(inv.cls)
        verdicts.append((inv, gate(inv, code, out, err)))
        out_bytes += len(out.encode())
        out_rows += out.count("\n")
        if inv.argv[0] == "evolve":
            steps += inv.params["steps"]

    tracer.save(WORK / f"spans-{workload}.npz")
    spans = tracer.summarise()
    n = len(verdicts)

    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def layer_sum(prefix, key):
        return sum(v[key] for k, v in spans.items() if k.startswith(prefix))

    m = {}
    for fn in ("f1", "f2", "sine_integral"):
        m[f"specfun.{fn}.calls"] = get(f"specfun.{fn}", "calls") / n
        m[f"specfun.{fn}.self_s"] = get(f"specfun.{fn}", "self_s") / n
    m["specfun.bose_occupation.calls"] = get("specfun.bose_occupation", "calls") / n
    m["oracle.verification_report.s"] = get("oracle.verification_report", "s") / n
    for fn in ("b1_numeric", "b2_numeric", "integrate_adaptive", "oscillatory_tail",
               "angular_identities_check"):
        m[f"oracle.{fn}.calls"] = get(f"oracle.{fn}", "calls") / n
        m[f"oracle.{fn}.self_s"] = get(f"oracle.{fn}", "self_s") / n
    evals = tracer.evals
    integrals = get("oracle.integrate_adaptive", "calls") + get("oracle.oscillatory_tail", "calls")
    m["oracle.integrate_adaptive.evals"] = evals["oracle.integrate_adaptive"] / n
    m["oracle.oscillatory_tail.evals"] = evals["oracle.oscillatory_tail"] / n
    m["oracle.evals_per_integral"] = sum(evals.values()) / integrals if integrals else 0.0
    evolve_self = get("lindblad.evolve_numeric", "self_s")
    m["lindblad.evolve_numeric.self_s"] = evolve_self / n
    m["lindblad.us_per_step"] = 1e6 * evolve_self / steps if steps else 0.0
    m["lindblad.analytic_state.calls"] = get("lindblad.analytic_state", "calls") / n
    m["lindblad.analytic_state.self_s"] = get("lindblad.analytic_state", "self_s") / n
    main_self = get(MAIN, "self_s")
    m["cli.main.s"] = get(MAIN, "s") / n
    m["cli.self_s"] = main_self / n
    m["cli.stdout_bytes"] = out_bytes / n
    m["cli.us_per_row"] = 1e6 * main_self / out_rows if out_rows else 0.0
    m["model.calls"] = layer_sum("model.", "calls") / n
    m["model.self_s"] = layer_sum("model.", "self_s") / n
    m["rates.build_rate_set.calls"] = get("rates.build_rate_set", "calls") / n
    m["rates.self_s"] = layer_sum("rates.", "self_s") / n
    m["rates.defect_classes"] = sum(v != "ok" for v in defects.values())
    m.update(imports)
    m["check.max_rel_err"] = max((v.err for _, v in verdicts), default=0.0)
    m["trace.overhead_frac"] = (traced_s - plain_s) / plain_s

    result, unexpected = _summary(verdicts)
    unexpected += defect_unexpected
    result["correct"] = not unexpected
    if mismatched:
        result["correct"] = False
        unexpected.append(f"tracing changed the output of: {sorted(set(mismatched))}")
    units = {"calls": "count", "evals": "count", "s": "s", "self_s": "s",
             "total_s": "s", "numpy_s": "s", "gravatom_s": "s",
             "us_per_step": "us", "us_per_row": "us", "stdout_bytes": "B",
             "evals_per_integral": "count", "max_rel_err": "rel",
             "overhead_frac": "frac", "defect_classes": "count"}
    result["metrics"] = {k: {"value": v, "unit": units[k.rsplit(".", 1)[1]]}
                         for k, v in m.items()}
    detail = {"invocations": n, "spans": len(tracer.start),
              "plain_s": plain_s, "traced_s": traced_s, "known_defects": defects,
              "unexpected_failures": unexpected[:10]}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "gravatom" / "cli.py").is_file():
            raise BenchError(f"no gravatom package under {SRC}")
        WORK.mkdir(exist_ok=True)
        host = host_state(pin_to_one_cpu())
        run = run_traced if args.trace else run_end_to_end
        result, detail = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in detail.get("unexpected_failures", []):
        print(f"perfbench: unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

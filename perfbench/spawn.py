"""Small launcher that runs the benchmark's child processes.

Reads one JSON request per line on stdin::

    {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}

spawns ``argv`` with its output sent to the two files, waits for it with
``os.wait4`` and answers with one JSON line: exit code, wall seconds from
spawn to exit, the child's peak RSS in KiB, and the mean time of each
yardstick kernel sampled before, during and after the child.  Exits at end
of input.

Linux carries the peak RSS of the memory image a process was spawned from
into the child's ``ru_maxrss``.  Spawning from this process, which imports
almost nothing, keeps that figure the child's own instead of the size of
the benchmark process with its outputs and references loaded.
"""

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

SAMPLE_EVERY_S = 0.3


def _alloc() -> None:
    # Allocates floats and strings, sorts a list and fills a dict: like
    # interpreter start and imports, it leans on memory and the allocator.
    rng = random.Random(1)
    values = sorted(rng.random() for _ in range(20_000))
    table = {str(i): v for i, v in enumerate(values[::3])}
    sum(table.values())


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(f, a, m, fa, flm, fm, left, tol / 2, depth - 1)
            + _simpson(f, m, b, fm, frm, fb, right, tol / 2, depth - 1))


def _calls() -> None:
    # Recursive adaptive quadrature of a scalar function: calls and floats.
    def f(x):
        return math.sin(7.0 * x) * math.exp(-x) / (1.0 + x * x)

    fa, fm, fb = f(0.0), f(3.0), f(6.0)
    _simpson(f, 0.0, 6.0, fa, fm, fb, (fa + 4.0 * fm + fb), 1e-9, 12)


@dataclass(frozen=True)
class _Point:
    a: float
    b: complex


def _format() -> None:
    # Small frozen dataclasses, math calls and float formatting, row by row.
    acc, parts = 0.0, []
    for i in range(1500):
        x = 0.001 * i + 0.5
        p = _Point(math.sin(x) * math.exp(-x), complex(math.cos(x), x))
        acc += p.a + (p.b * p.b).real / (1.0 + x * x)
        parts.append(f"{acc:.12g},{x:.12g}")
    "\n".join(parts)


KERNELS = {"alloc": _alloc, "calls": _calls, "format": _format}


def yardstick() -> dict[str, float]:
    """CPU seconds each fixed kernel of Python work takes: the CPU's speed.

    On a shared host the speed of interpreted Python moves with that of
    these kernels.  Sampled on the same CPU as each child, they let the
    runner scale child times to one speed.  They are timed in thread CPU
    time, so sharing the CPU with the child does not count.
    """
    times = {}
    for name, kernel in KERNELS.items():
        t0 = time.thread_time()
        kernel()
        times[name] = time.thread_time() - t0
    return times


def _sample(done: threading.Event, samples: list) -> None:
    while not done.wait(SAMPLE_EVERY_S):
        samples.append(yardstick())


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        samples = [yardstick(), yardstick()]
        done = threading.Event()
        sampler = threading.Thread(target=_sample, args=(done, samples))
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            killer = threading.Timer(request["timeout"], proc.kill)
            killer.start()
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                done.set()
            elapsed = time.perf_counter() - t0
            sampler.join()
        samples += [yardstick(), yardstick()]
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": elapsed, "maxrss_kb": usage.ru_maxrss,
                 "yard_s": {name: sum(s[name] for s in samples) / len(samples)
                            for name in KERNELS}}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

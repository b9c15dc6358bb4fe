"""In-process span tracer wrapped around the public calls of each layer.

The tracer patches the public callables of ``gravatom`` from outside, so
the package itself carries no tracing code.  Each wrapped call records a
span: name, start, end, parent span, and invocation id.  Spans stay in
flat in-memory arrays for the whole run; ``summarise`` derives call counts
and self times from them (a span's self time is its duration minus that of
its direct children) and ``save`` writes them out at the end.

The integrand handed to ``integrate_adaptive`` and ``oscillatory_tail`` is
wrapped too, to count integrand evaluations (array calls count one per
element).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import time
import traceback
from array import array

import numpy as np

# (module, public callable) pairs, grouped by layer.  Dataclass constructors
# are traced through their validating ``__post_init__``.
TARGETS = {
    "specfun": ("f1", "f2", "sine_integral", "bose_occupation"),
    "model": ("potential_from_source", "dimensionless_point",
              "AtomSpec.__post_init__", "GravityEnv.__post_init__",
              "ThermalSpec.__post_init__", "ThermalSpec.from_distant",
              "DimensionlessPoint.__post_init__"),
    "rates": ("build_rate_set", "redshifted_frequency", "flat_rate",
              "emission_rate", "thermal_rates", "total_and_steady"),
    "lindblad": ("evolve_numeric", "analytic_state"),
    "oracle": ("verification_report", "b1_numeric", "b2_numeric",
               "integrate_adaptive", "oscillatory_tail",
               "angular_identities_check"),
}
COUNTED_INTEGRANDS = ("oracle.integrate_adaptive", "oracle.oscillatory_tail")
MAIN = "cli.main"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_name = array("i")
        self.inv = array("i")
        self.evals = {name: 0 for name in COUNTED_INTEGRANDS}
        self._stack: list[int] = []
        self._inv = [0]
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        start, end, parent, span_name, inv = (
            self.start, self.end, self.parent, self.span_name, self.inv)
        stack, current, clock = self._stack, self._inv, time.perf_counter
        evals = self.evals

        def counted(f):
            def integrand(x):
                evals[name] += getattr(x, "size", 1)
                return f(x)
            return integrand

        count = name in COUNTED_INTEGRANDS

        def traced(*args, **kwargs):
            if count and args and callable(args[0]):
                args = (counted(args[0]),) + args[1:]
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            span_name.append(nid)
            inv.append(current[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target wherever a ``gravatom`` module binds it."""
        package = importlib.import_module("gravatom")
        modules = [package] + [importlib.import_module(f"gravatom.{m}")
                               for m in ("specfun", "model", "rates", "lindblad",
                                         "oracle", "cli")]
        try:
            for layer, targets in TARGETS.items():
                home = importlib.import_module(f"gravatom.{layer}")
                for target in targets:
                    owner_name, _, attr = target.rpartition(".")
                    owner = getattr(home, owner_name, None) if owner_name else home
                    raw = vars(owner).get(attr) if owner is not None else None
                    if raw is None:
                        continue  # renamed or removed: its metrics read 0
                    name = f"{layer}.{target}"
                    if owner_name:
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(self.wrap(name, raw.__func__))
                        else:
                            wrapped = self.wrap(name, raw)
                        self._patch(owner, attr, raw, wrapped)
                        continue
                    wrapped = self.wrap(name, raw)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is raw:
                                self._patch(module, key, raw, wrapped)
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def _patch(self, owner, attr, original, replacement):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def set_invocation(self, inv_id: int) -> None:
        self._inv[0] = inv_id

    def summarise(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        return {self.names[i]: {"calls": int(calls[i]), "s": float(total[i]),
                                "self_s": float(own[i])} for i in range(n)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 inv=np.frombuffer(self.inv, dtype=np.int32))


def call_main(main, argv) -> tuple[int, str, str, float]:
    """Run ``main(argv)`` in-process as the console script would.

    Returns (exit code, stdout, stderr, seconds); an escaping exception
    becomes exit 1 with its traceback on stderr, as in a real process.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = 1
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed

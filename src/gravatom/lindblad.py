"""Dissipative evolution of the two-level density matrix.

The generator is the paper's GKSL master equation without the
environment-induced energy shift: the populations relax toward the thermal
steady state at Gamma and the coherence decays at Gamma/2, with no rotation
(interaction picture).  Reinstating the shift needs its closed form from
that master equation and a command-line path that sets it, not a free
frequency parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, StepSizeError
from .model import Record
from .rates import RateSet

_TRACE_TOL = 1e-12
_POSITIVITY_SLACK = 1e-12

#: Step gate for the fixed-step integrator: h * Gamma must not exceed this.
MAX_STEP_RATE = 0.1

#: Largest step count ``evolve_numeric`` accepts.  ``evolve`` builds and
#: writes the trajectory one block of rows at a time, so the cap bounds the
#: output (about 108 bytes of CSV per row, 1.1 GB at the cap), not memory.
MAX_STEPS = 10_000_000


class DensityMatrix2(Record):
    """2x2 density matrix: populations ``ee``/``gg`` and coherence ``eg``.

    ``ge`` is stored implicitly as the conjugate.  The fields are scalars
    (one state) or equal-length arrays (a column of states, one per row).
    Construction validates unit trace and positivity of every row; NaN
    fails every check.
    """

    __slots__ = ("ee", "gg", "eg")

    def __init__(
        self, ee: float | np.ndarray, gg: float | np.ndarray, eg: complex | np.ndarray = 0j
    ):
        if not np.shape(ee) == np.shape(gg) == np.shape(eg):
            raise DomainError("ee, gg and eg must have equal shapes")
        trace_error = np.abs(ee + gg - 1.0)
        if not np.all(trace_error <= _TRACE_TOL):
            raise DomainError(f"trace must be 1, off by up to {np.max(trace_error)}")
        if not np.all(-np.minimum(ee, gg) <= _TRACE_TOL):
            raise DomainError("populations must be non-negative")
        if not np.all(np.abs(eg) ** 2 - ee * gg <= _POSITIVITY_SLACK):
            raise DomainError("state is not positive semidefinite")
        super().__init__(ee, gg, eg)

    @classmethod
    def excited(cls) -> "DensityMatrix2":
        return cls(ee=1.0, gg=0.0)

    @classmethod
    def ground(cls) -> "DensityMatrix2":
        return cls(ee=0.0, gg=1.0)

    @classmethod
    def mixed(cls, p_excited: float) -> "DensityMatrix2":
        if not 0.0 <= p_excited <= 1.0:
            raise DomainError(f"p_excited must lie in [0, 1], got {p_excited}")
        return cls(ee=p_excited, gg=1.0 - p_excited)

    @classmethod
    def superposition(cls, p_excited: float = 0.5) -> "DensityMatrix2":
        """Pure superposition sqrt(p)|e> + sqrt(1-p)|g> with real coherence."""
        if not 0.0 <= p_excited <= 1.0:
            raise DomainError(f"p_excited must lie in [0, 1], got {p_excited}")
        c = math.sqrt(p_excited * (1.0 - p_excited))
        return cls(ee=p_excited, gg=1.0 - p_excited, eg=complex(c, 0.0))

    @property
    def trace(self) -> float:
        return self.ee + self.gg


def analytic_state(rho0: DensityMatrix2, rates: RateSet, t: float | np.ndarray) -> DensityMatrix2:
    """Closed-form state at time t; an array of times gives a column state.

    Populations relax exponentially toward the thermal steady state at rate
    Gamma; the coherence decays at Gamma/2.
    """
    if not np.all(np.asarray(t) >= 0.0):
        raise DomainError(f"t must be >= 0, got {np.min(t)}")
    total = rates.gamma_total
    a_s = rates.steady_excited
    decay = np.exp(-total * t)
    ee = (rho0.ee - a_s) * decay + a_s
    eg = rho0.eg * np.exp(-0.5 * total * t)
    return DensityMatrix2(ee=ee, gg=1.0 - ee, eg=eg)


def _rk4_log_step(z: float) -> float:
    """log R(z) for the RK4 stability polynomial R at a real z (R > 0 there).

    One RK4 step multiplies a mode of eigenvalue z/h by
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so n steps multiply it by
    exp(n log R).  The log is taken from w = R - 1 without forming R, as
    log1p(R^2 - 1) / 2, so it keeps full relative accuracy when |z| is
    tiny (R**n would carry the rounding of R into every power).
    """
    w = z * (1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0)
    return 0.5 * math.log1p(w * (2.0 + w))


def _suggested_steps(t_max: float, total: float) -> int | None:
    """The fewest steps that pass the gate, or None if that is not a float.

    n = ceil(t_max Gamma / MAX_STEP_RATE) is off by one either way when the
    quotient rounds across an integer: n - 1 when it rounds up past one and
    (t_max / (n - 1)) * Gamma still passes, n + 1 when (t_max / n) * Gamma
    lands one ulp above the gate.  The gate is monotone in the step count.
    A count above ``MAX_STEPS``, which no call accepts, is only a lower bound.
    """
    needed = t_max * total / MAX_STEP_RATE
    # `needed` overflows to inf for t_max * Gamma near the top of the range.
    if not math.isfinite(needed):
        return None

    def passes(n):
        return (t_max / n) * total <= MAX_STEP_RATE

    steps = max(1, math.ceil(needed))
    if steps > 1 and passes(steps - 1):
        return steps - 1
    return steps if passes(steps) else steps + 1


def evolve_numeric(
    rho0: DensityMatrix2, rates: RateSet, t_max: float, steps: int,
    start: int = 0, stop: int | None = None,
) -> tuple[np.ndarray, DensityMatrix2]:
    """Rows ``start`` to ``stop - 1`` of the fixed-step RK4 trajectory.

    Returns ``(times, states)``: the times h n, increasing by construction,
    and one column ``DensityMatrix2`` of the same length.  The trajectory
    has ``steps + 1`` rows, t = 0 to ``t_max``; the default range is all of
    them, and ``stop`` is clipped to ``steps + 1`` like a slice.  The generator is linear with constant coefficients, so the n-th
    RK4 iterate is exact in closed form: each mode is its initial amplitude
    times R(z)^n (Hairer & Wanner, Solving ODEs II, IV.2).  The populations
    relax toward ``steady_excited`` s with z = -h Gamma (``ee`` around s,
    ``gg`` around 1 - s, each from its own mode); the coherence decays with
    z = -h Gamma / 2.  Both z are real, and the energy shift is dropped, so
    nothing rotates the coherence.  Row n is formed from n alone, as
    exp(n log R(z)) at time h n, elementwise with no loop over steps, so a
    range is bit for bit that slice of the whole trajectory.

    Every call checks (``t_max``, ``steps``) in full.  The step must satisfy
    h * Gamma <= ``MAX_STEP_RATE`` (0.1), where both z lie well inside the
    RK4 stability interval; a larger step raises ``StepSizeError`` with a
    step count that passes.  ``steps`` may not exceed ``MAX_STEPS``; the
    check comes before any allocation.
    """
    if not 1 <= steps <= MAX_STEPS:
        raise DomainError(f"steps must lie in [1, {MAX_STEPS}], got {steps}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise DomainError(f"t_max must be finite and positive, got {t_max}")
    stop = steps + 1 if stop is None else min(stop, steps + 1)
    if not 0 <= start < stop:
        raise DomainError(f"row range [{start}, {stop}) is empty or outside [0, {steps + 1})")
    total = rates.gamma_total
    h = t_max / steps
    if not h * total <= MAX_STEP_RATE:  # also refuses NaN
        suggested = _suggested_steps(t_max, total)
        raise StepSizeError(
            f"h*Gamma = {h * total} exceeds {MAX_STEP_RATE}; use at least "
            f"{'inf' if suggested is None else suggested} steps",
            suggested_steps=suggested,
        )

    s = rates.steady_excited
    n = np.arange(float(start), float(stop))
    decay = np.exp(n * _rk4_log_step(-h * total))
    states = DensityMatrix2(
        ee=s + (float(rho0.ee) - s) * decay,
        gg=(1.0 - s) + (float(rho0.gg) - (1.0 - s)) * decay,
        eg=complex(rho0.eg) * np.exp(n * _rk4_log_step(-0.5 * h * total)),
    )
    return h * n, states

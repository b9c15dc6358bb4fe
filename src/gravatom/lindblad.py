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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepSizeError
from .rates import RateSet

_TRACE_TOL = 1e-12
_POSITIVITY_SLACK = 1e-12

#: Step gate for the fixed-step integrator: h * Gamma must not exceed this.
MAX_STEP_RATE = 0.1

#: Largest step count ``evolve_numeric`` accepts.  The trajectory holds a time
#: column, two population columns and a complex coherence column: 40 bytes per
#: step (400 MB at the cap).
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 density matrix: populations ``ee``/``gg`` and coherence ``eg``.

    ``ge`` is stored implicitly as the conjugate.  The fields are scalars
    (one state) or equal-length arrays (a column of states, one per row).
    Construction validates unit trace and positivity of every row; NaN
    fails every check.
    """

    ee: float | np.ndarray
    gg: float | np.ndarray
    eg: complex | np.ndarray = 0j

    def __post_init__(self):
        ee, gg, eg = self.ee, self.gg, self.eg
        if not np.shape(ee) == np.shape(gg) == np.shape(eg):
            raise DomainError("ee, gg and eg must have equal shapes")
        trace_error = np.abs(ee + gg - 1.0)
        if not np.all(trace_error <= _TRACE_TOL):
            raise DomainError(f"trace must be 1, off by up to {np.max(trace_error)}")
        if not np.all(-np.minimum(ee, gg) <= _TRACE_TOL):
            raise DomainError("populations must be non-negative")
        if not np.all(np.abs(eg) ** 2 - ee * gg <= _POSITIVITY_SLACK):
            raise DomainError("state is not positive semidefinite")

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


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: strictly increasing times and one column state."""

    times: np.ndarray
    states: DensityMatrix2

    def __post_init__(self):
        if np.ndim(self.times) != 1 or np.shape(self.times) != np.shape(self.states.ee):
            raise DomainError("times and states must be columns of equal length")
        if not np.all(np.diff(self.times) > 0.0):
            raise DomainError("times must be strictly increasing")


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
    """A step count that passes the gate, or None if it is not a float.

    n = ceil(t_max Gamma / MAX_STEP_RATE), or n + 1 when rounding leaves
    (t_max / n) * Gamma one ulp above the gate.  A count above ``MAX_STEPS``,
    which no call accepts, is only a lower bound.
    """
    needed = t_max * total / MAX_STEP_RATE
    # `needed` overflows to inf for t_max * Gamma near the top of the range.
    if not math.isfinite(needed):
        return None
    steps = max(1, math.ceil(needed))
    return steps if (t_max / steps) * total <= MAX_STEP_RATE else steps + 1


def evolve_numeric(rho0: DensityMatrix2, rates: RateSet, t_max: float, steps: int) -> Trajectory:
    """Fixed-step RK4 trajectory of the population/coherence equations.

    The generator is linear with constant coefficients, so the n-th RK4
    iterate is exact in closed form: each mode is its initial amplitude
    times R(z)^n (Hairer & Wanner, Solving ODEs II, IV.2).  The populations
    relax toward ``steady_excited`` s with z = -h Gamma (``ee`` around s,
    ``gg`` around 1 - s, each from its own mode); the coherence decays with
    z = -h Gamma / 2.  Both z are real, and the energy shift is dropped, so
    nothing rotates the coherence.  Every step is computed at once, with no
    loop over steps.

    The step must satisfy h * Gamma <= ``MAX_STEP_RATE`` (0.1), where both z
    lie well inside the RK4 stability interval; a larger step raises
    ``StepSizeError`` with a step count that passes.  ``steps`` may not
    exceed ``MAX_STEPS``; the check comes before any allocation.
    """
    if not 1 <= steps <= MAX_STEPS:
        raise DomainError(f"steps must lie in [1, {MAX_STEPS}], got {steps}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise DomainError(f"t_max must be finite and positive, got {t_max}")
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
    n = np.arange(steps + 1.0)
    decay = np.exp(n * _rk4_log_step(-h * total))
    # Without a coherence the column is left as zeros, whose pages are never
    # written: powering the coherence mode anyway costs 16 bytes per step of
    # resident memory.
    if rho0.eg:
        eg = complex(rho0.eg) * np.exp(n * _rk4_log_step(-0.5 * h * total))
    else:
        eg = np.zeros(steps + 1, complex)
    states = DensityMatrix2(
        ee=s + (float(rho0.ee) - s) * decay,
        gg=(1.0 - s) + (float(rho0.gg) - (1.0 - s)) * decay,
        eg=eg,
    )
    return Trajectory(times=h * n, states=states)

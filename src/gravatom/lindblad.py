"""Dissipative evolution of the two-level density matrix.

Interaction picture throughout: no free rotation appears on the coherence,
so users comparing against Schroedinger-picture coherences must supply the
phase themselves (or pass ``frequency_offset``).  The environment-induced
energy shift is dropped from the generator; ``frequency_offset`` is the hook
for reinstating a real offset on the coherence and defaults to zero.
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

#: The same gate on the coherence rotation: with a nonzero initial coherence,
#: h * |frequency_offset| must not exceed this either.  RK4 stays stable up
#: to ~2.8, but there a step can halve the coherence (|R| ~ 0.51 at 2.5).  At
#: 0.1, |R| < 1, and per radian of phase the modulus of the coherence drifts
#: from the analytic one by ~7e-8 (relative) and the phase lags by ~8e-7.
MAX_STEP_OFFSET = 0.1

#: The coherence accuracy gate, in radians: the phase the RK4 iterate lags
#: behind the analytic coherence at t_max, t |delta| (h |delta|)^4 / 120 to
#: leading order (delta = frequency_offset), must not exceed this.  The step
#: gate alone does not bound it: the lag grows with t |delta| at a fixed
#: h |delta|.
MAX_PHASE_LAG = 1e-6

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

    @property
    def final(self) -> DensityMatrix2:
        s = self.states
        return DensityMatrix2(ee=float(s.ee[-1]), gg=float(s.gg[-1]), eg=complex(s.eg[-1]))


def analytic_state(
    rho0: DensityMatrix2,
    rates: RateSet,
    t: float | np.ndarray,
    frequency_offset: float = 0.0,
) -> DensityMatrix2:
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
    if frequency_offset:
        eg = eg * (np.cos(frequency_offset * t) - 1j * np.sin(frequency_offset * t))
    return DensityMatrix2(ee=ee, gg=1.0 - ee, eg=eg)


def _rk4_log_step(z: complex) -> complex:
    """log R(z) for the RK4 stability polynomial R.

    One RK4 step multiplies a mode of eigenvalue z/h by
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so n steps multiply it by
    exp(n log R).  The log is taken from w = R - 1 without forming R, as
    log|R| = log1p(|R|^2 - 1) / 2 and arg R, so it keeps full relative
    accuracy when |z| is tiny (R**n would carry the rounding of R into
    every power).
    """
    w = z * (1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0)
    log_modulus = 0.5 * math.log1p(w.real * (2.0 + w.real) + w.imag * w.imag)
    return complex(log_modulus, math.atan2(w.imag, 1.0 + w.real))


def evolve_numeric(
    rho0: DensityMatrix2,
    rates: RateSet,
    t_max: float,
    steps: int,
    frequency_offset: float = 0.0,
) -> Trajectory:
    """Fixed-step RK4 trajectory of the population/coherence equations.

    The generator is linear with constant coefficients, so the n-th RK4
    iterate is exact in closed form: each mode is its initial amplitude
    times R(z)^n (Hairer & Wanner, Solving ODEs II, IV.2).  The populations
    relax toward ``steady_excited`` s with z = -h Gamma (``ee`` around s,
    ``gg`` around 1 - s, each from its own mode); the coherence has
    z = h(-Gamma/2 - i frequency_offset).  Every step is computed at once,
    with no loop over steps.

    The step must satisfy h * Gamma <= 0.1 and, when the initial coherence
    is nonzero, h * |frequency_offset| <= 0.1 and a phase lag
    t_max |delta| (h |delta|)^4 / 120 <= ``MAX_PHASE_LAG``; violating any
    gate raises ``StepSizeError`` with a step count that passes all three.
    ``steps`` may not exceed ``MAX_STEPS``; the check comes before any
    allocation.
    """
    if not 1 <= steps <= MAX_STEPS:
        raise DomainError(f"steps must lie in [1, {MAX_STEPS}], got {steps}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise DomainError(f"t_max must be finite and positive, got {t_max}")
    if not math.isfinite(frequency_offset):
        raise DomainError(f"frequency_offset must be finite, got {frequency_offset}")
    h = t_max / steps
    total = rates.gamma_total
    coherent = bool(rho0.eg)
    turn = t_max * abs(frequency_offset)  # radians the coherence turns by t_max
    ok = h * total <= MAX_STEP_RATE  # False for NaN
    if coherent:
        ok = ok and h * abs(frequency_offset) <= MAX_STEP_OFFSET
        ok = ok and turn * (h * abs(frequency_offset)) ** 4 / 120.0 <= MAX_PHASE_LAG
    if not ok:
        needed = t_max * total / MAX_STEP_RATE
        if coherent:
            needed = max(
                needed,
                turn / MAX_STEP_OFFSET,
                turn * (turn / (120.0 * MAX_PHASE_LAG)) ** 0.25,
            )
        # `needed` overflows to inf for t_max * Gamma near the top of the range.
        suggested = math.ceil(needed) if math.isfinite(needed) else None
        raise StepSizeError(
            f"step {h} violates h*Gamma <= {MAX_STEP_RATE} or, with a coherence, "
            f"h*|frequency_offset| <= {MAX_STEP_OFFSET} or a phase lag <= "
            f"{MAX_PHASE_LAG} rad; use at least "
            f"{needed if suggested is None else suggested} steps",
            suggested_steps=suggested,
        )

    s = rates.steady_excited
    log_decay = _rk4_log_step(-h * total).real
    n = np.arange(steps + 1.0)
    decay = np.exp(n * log_decay)
    # An absent coherence stays exactly 0, even where |R| > 1 would overflow.
    if coherent:
        log_coherence = _rk4_log_step(complex(-0.5 * h * total, -h * frequency_offset))
        eg = complex(rho0.eg) * np.exp(n * log_coherence)
    else:
        eg = np.zeros(steps + 1, complex)
    states = DensityMatrix2(
        ee=s + (float(rho0.ee) - s) * decay,
        gg=(1.0 - s) + (float(rho0.gg) - (1.0 - s)) * decay,
        eg=eg,
    )
    return Trajectory(times=h * n, states=states)

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

#: Stability gate for the fixed-step integrator: h * Gamma must not exceed this.
MAX_STEP_RATE = 0.1


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


def _derivative(state, gamma_plus, gamma_minus, frequency_offset):
    ee, gg, re_eg, im_eg = state
    total = gamma_plus + gamma_minus
    d_ee = -gamma_minus * ee + gamma_plus * gg
    d_re = -0.5 * total * re_eg + frequency_offset * im_eg
    d_im = -0.5 * total * im_eg - frequency_offset * re_eg
    return (d_ee, -d_ee, d_re, d_im)


def evolve_numeric(
    rho0: DensityMatrix2,
    rates: RateSet,
    t_max: float,
    steps: int,
    frequency_offset: float = 0.0,
) -> Trajectory:
    """Integrate the population/coherence equations with fixed-step RK4.

    The step must satisfy h * Gamma <= 0.1; violating it raises
    ``StepSizeError`` with a suggested step count.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise DomainError(f"t_max must be finite and positive, got {t_max}")
    h = t_max / steps
    if h * rates.gamma_total > MAX_STEP_RATE:
        suggested = math.ceil(t_max * rates.gamma_total / MAX_STEP_RATE)
        raise StepSizeError(
            f"step {h} violates h*Gamma <= {MAX_STEP_RATE}; use at least "
            f"{suggested} steps",
            suggested_steps=suggested,
        )

    gp, gm = rates.gamma_plus, rates.gamma_minus
    y = (float(rho0.ee), float(rho0.gg), float(rho0.eg.real), float(rho0.eg.imag))
    # One row (ee, gg, Re eg, Im eg) per sample; no object per step.
    rows = np.empty((steps + 1, 4))
    rows[0] = y
    for n in range(steps):
        k1 = _derivative(y, gp, gm, frequency_offset)
        y2 = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
        k2 = _derivative(y2, gp, gm, frequency_offset)
        y3 = tuple(a + 0.5 * h * b for a, b in zip(y, k2))
        k3 = _derivative(y3, gp, gm, frequency_offset)
        y4 = tuple(a + h * b for a, b in zip(y, k3))
        k4 = _derivative(y4, gp, gm, frequency_offset)
        y = tuple(
            a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
        rows[n + 1] = y
    # (Re eg, Im eg) pairs viewed in place as one complex column.
    eg = rows[:, 2:].view(np.complex128)[:, 0]
    states = DensityMatrix2(ee=rows[:, 0], gg=rows[:, 1], eg=eg)
    return Trajectory(times=h * np.arange(steps + 1), states=states)

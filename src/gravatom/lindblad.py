"""Dissipative evolution of the two-level density matrix.

The generator is the paper's GKSL master equation without the
environment-induced energy shift: the populations relax toward the thermal
steady state at Gamma and the coherence decays at Gamma/2, with no rotation
(interaction picture).  `analytic_state` is the closed-form solution
(Lindblad, Commun. Math. Phys. 48 (1976) 119; Breuer and Petruccione, The
Theory of Open Quantum Systems (2002), 3.4) at one time or a column of
times; ``rows.evolve_chunks`` samples it on the ``evolve`` grid.
Reinstating the shift needs its closed form from that master equation and
a command-line path that sets it, not a free frequency parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import Record
from .rates import RateSet

_TRACE_TOL = 1e-12
_POSITIVITY_SLACK = 1e-12


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

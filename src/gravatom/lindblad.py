"""Dissipative evolution of the two-level density matrix.

The generator is the paper's GKSL master equation without the
environment-induced energy shift: the populations relax toward the thermal
steady state at Gamma and the coherence decays at Gamma/2, with no rotation
(interaction picture).  `relaxation` is the closed-form solution (Lindblad,
Commun. Math. Phys. 48 (1976) 119; Breuer and Petruccione, The Theory of
Open Quantum Systems (2002), 3.4) at a float time or an array of times, and
`analytic_state` the one state at a float time.  The module imports no
numpy.  Reinstating the shift needs its closed form from that master
equation and a command-line path that sets it, not a free frequency
parameter.
"""

import math
from collections import namedtuple

from .errors import DomainError
from .model import _check_probability
from .rates import RateSet
from .specfun import _exp

_TOL = 1e-12  # the rounding forgiven in the trace, the populations and positivity


class DensityMatrix2(namedtuple("DensityMatrix2", ("ee", "gg", "eg"))):
    """2x2 density matrix of one state: populations ``ee``/``gg`` and coherence ``eg``.

    ``ge`` is stored implicitly as the conjugate.  Construction validates
    unit trace and positivity; NaN fails every check.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, ee: float, gg: float, eg: complex = 0j):
        trace_error = abs(ee + gg - 1.0)
        if not trace_error <= _TOL:
            raise DomainError(f"trace must be 1, off by up to {trace_error}")
        if not min(ee, gg) >= -_TOL:
            raise DomainError("populations must be non-negative")
        if not abs(eg) ** 2 - ee * gg <= _TOL:
            raise DomainError("state is not positive semidefinite")
        return super().__new__(cls, ee, gg, eg)

    @classmethod
    def mixed(cls, p_excited: float) -> "DensityMatrix2":
        _check_probability("p_excited", p_excited)
        return cls(ee=p_excited, gg=1.0 - p_excited)

    @classmethod
    def superposition(cls, p_excited: float = 0.5) -> "DensityMatrix2":
        """Pure superposition sqrt(p)|e> + sqrt(1-p)|g> with real coherence."""
        _check_probability("p_excited", p_excited)
        c = math.sqrt(p_excited * (1.0 - p_excited))
        return cls(ee=p_excited, gg=1.0 - p_excited, eg=complex(c, 0.0))


def relaxation(rho0: DensityMatrix2, rates: RateSet, t):
    """(rho_ee, rho_eg) at time t, a float or a 1-d array of times, which is not checked.

    Populations relax exponentially toward the thermal steady state at rate
    Gamma; the coherence decays at Gamma/2.  rho_gg is 1 - rho_ee.  Both
    exponentials are `specfun._exp`, so an array's elements are the float
    calls bit for bit; a zero coherence stays zero without its exponential.
    """
    total = rates.gamma_total
    a_s = rates.steady_excited
    ee = (rho0.ee - a_s) * _exp(-total * t) + a_s
    decay = _exp(-0.5 * total * t) if rho0.eg else 0.0 * ee
    return ee, rho0.eg * decay


def analytic_state(rho0: DensityMatrix2, rates: RateSet, t: float) -> DensityMatrix2:
    """Closed-form state at the time t >= 0."""
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    ee, eg = relaxation(rho0, rates, float(t))
    return DensityMatrix2(ee=ee, gg=1.0 - ee, eg=eg)

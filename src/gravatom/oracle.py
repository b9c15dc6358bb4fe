"""Brute-force verification of the closed-form rates.

Everything here deliberately avoids the closed forms it checks: the radial
integrals behind the rate-correction functions are reduced analytically only
in the angular variable and then integrated numerically, the flat rate is
re-derived as a golden-rule sum over field modes, and the radiated power is
compared against the dissipation rate computed independently: the power is
built from f1 and f2 recovered from the radial quadratures and sin^2(psi)
from the dipole vector, the rate ratio gamma_g / gamma from
``rates.build_rate_set``, and the two must agree up to a remainder of second
order in phi.

The angular moments of the distance kernel 1/|y + R| are closed forms, the
terms of its multipole (Legendre) expansion.  Every radial integral is a
head on [0, R] and an infinite tail that decays like 1/y with oscillation
(conditionally convergent), summed half-period by half-period and
extrapolated by Levin's t-transform of the partial sums, each half-period
its own remainder estimate (D. Levin, Int. J. Comput. Math. B3 (1973) 371;
a Levin-type transform in the sense of Sidi's mW, Math. Comp. 51 (1988)
249); the half-period count doubles until the transforms of n and n/2
half-periods agree.  The Gauss-Legendre rules are built here, by Newton's
method on the Legendre recurrence.

Everything runs on Python floats, and the module imports no numpy: an
integrand is a scalar function ``f(y) -> float``, called once per node.
The mode sum's angular integrand is a quadratic, which the six octahedron
vertices +-x, +-y, +-z, each weighted 4 pi / 6, integrate exactly over the
sphere (Stroud, Approximate Calculation of Multiple Integrals, 1971, U3 3-1).

``verification_report`` runs the checks of ``CHECKS`` in turn, each a
function that returns its records.  A record passes when |computed -
reference| <= tolerance, where the tolerance is the absolute bound applied
(a relative one is printed as rel * |reference|).  A check that raises a
library or arithmetic error becomes one failing record, and the checks
after it still run.
"""

import functools
import math
from collections.abc import Callable
from itertools import accumulate
from operator import mul

from . import rates as rates_mod
from . import specfun
from .errors import ConvergenceError, DomainError, GravatomError
from .model import AtomSpec, GravityEnv


#: Accuracy targets and budgets of the numeric oracles.  ``integrate_adaptive``
#: stops once two successive levels agree to max(ABS_TOL, REL_TOL * |value|)
#: and gives up after MAX_DEPTH panel doublings (1, 2, 4, ... up to
#: 2**MAX_DEPTH panels); ``oscillatory_tail`` doubles its half-period chunks
#: (16, 32, 64, ...) until the extrapolated sums of n and n/2 chunks agree to
#: the same tolerance, and gives up at TAIL_PERIODS chunks.
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_DEPTH = 10
TAIL_PERIODS = 256


# ---------------------------------------------------------------------------
# Generic quadrature
# ---------------------------------------------------------------------------


def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], as lists.

    Newton's method on P_n, evaluated by the three-term recurrence, from
    Tricomi's estimates (1 - (n - 1) / (8 n^3)) cos(pi (k + 3/4) / (n + 1/2));
    it stops once no node would move by 1e-15, and the weights are then
    2 / ((1 - x^2) P_n'(x)^2).
    """
    scale = 1.0 - (n - 1.0) / (8.0 * n**3)
    nodes = [scale * math.cos(math.pi * (k + 0.75) / (n + 0.5)) for k in reversed(range(n))]
    for _ in range(100):
        slopes, steps = [], []
        for x in nodes:
            p_prev, p = 1.0, x
            for j in range(2, n + 1):
                p_prev, p = p, (2.0 - 1.0 / j) * x * p - (1.0 - 1.0 / j) * p_prev
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            slopes.append(dp)
            steps.append(p / dp)
        if max(map(abs, steps)) < 1e-15:
            return nodes, [2.0 / ((1.0 - x * x) * dp * dp) for x, dp in zip(nodes, slopes)]
        nodes = [x - step for x, step in zip(nodes, steps)]
    raise ConvergenceError(f"{n}-point Gauss-Legendre nodes did not converge")


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(24)


def _gauss_panels(f: Callable[[float], float], edges: list[float]) -> list[float]:
    """24-point Gauss-Legendre integral of ``f`` over each panel between ``edges``.

    ``f`` is called once per node; no node is a panel endpoint.
    """
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        panels.append(half * sum(map(mul, [f(mid + half * t) for t in _GL_NODES], _GL_WEIGHTS)))
    return panels


def integrate_adaptive(f: Callable[[float], float], a: float, b: float) -> float:
    """Composite Gauss-Legendre integration of ``f`` over [a, b].

    ``f`` takes one abscissa and returns the integrand there.  The panel
    count doubles (1, 2, 4, ...) until two successive levels agree to
    max(``ABS_TOL``, ``REL_TOL`` * |value|); after ``MAX_DEPTH`` doublings
    without agreement it raises ``ConvergenceError`` carrying the best
    estimate and the last difference as its error bound.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    previous = sum(_gauss_panels(f, [a, b]))
    for depth in range(1, MAX_DEPTH + 1):
        n = 2**depth
        step = (b - a) / n
        value = sum(_gauss_panels(f, [i * step + a for i in range(n)] + [b]))
        err = abs(value - previous)
        if err <= max(ABS_TOL, REL_TOL * abs(value)):
            return value
        previous = value
    raise ConvergenceError(
        f"adaptive quadrature did not converge on [{a}, {b}]",
        best_estimate=value,
        error_bound=err,
    )


def _levin_t(chunks: list[float]) -> float:
    """Levin's t-transform of the partial sums S_j = c_0 + ... + c_j of ``chunks``.

    Each chunk is its own remainder estimate: the transform is the limit A
    that S_j = A + c_j P(1 / (1 + j)) fits exactly for j = 0 .. k, k = n - 1,
    with P a polynomial of degree k - 1, in closed form
    sum w_j S_j / sum w_j for w_j = (-1)^j C(k, j) ((1 + j) / (1 + k))^(k - 1) / c_j.
    Where chunks alternate in sign the weights share one sign, so A is a
    weighted mean of the partial sums.  A chunk that is exactly 0 leaves no
    remainder to estimate, and the plain sum is returned.
    """
    if 0.0 in chunks:
        return sum(chunks)
    k = len(chunks) - 1
    num = den = 0.0
    for j, (c, s) in enumerate(zip(chunks, accumulate(chunks))):
        w = (-1) ** j * math.comb(k, j) * ((1 + j) / (1 + k)) ** (k - 1) / c
        num += w * s
        den += w
    return num / den


def oscillatory_tail(f: Callable[[float], float], a: float, period: float) -> float:
    """Integrate ``f`` from ``a`` to infinity for eventually oscillatory f.

    ``f`` is a scalar integrand, as for ``integrate_adaptive``.  ``period``
    is the asymptotic period of the oscillation.  The integral is summed in
    half-period chunks whose contributions eventually alternate in sign, and
    Levin's t-transform of the partial sums (``_levin_t``) extrapolates them
    to the limit.  The chunk count n doubles (16, 32, 64, ...), each level
    adding only its new chunks, until the transforms A(n) of all n chunks
    and A(n/2) of the first n/2 agree to max(``ABS_TOL``, ``REL_TOL`` *
    |value|).  If they still differ at ``TAIL_PERIODS`` chunks, it raises
    ``ConvergenceError`` carrying A(n) and, as its error bound, that
    difference plus the chunks' rounding floor: a node at y is rounded by
    eps * y, a fraction eps * y / h of the half-period h, so a chunk c_j
    ending at x_(j+1) carries a rounding of about eps |c_j| x_(j+1) / h.
    Chunk magnitudes that do not decay raise ``ConvergenceError`` at once.
    """
    if period <= 0.0:
        raise DomainError(f"period must be positive, got {period}")
    h = 0.5 * period
    chunks: list[float] = []
    n = 16
    while True:
        chunks += _gauss_panels(f, [a + h * i for i in range(len(chunks), n + 1)])
        quarter = n // 4
        head_mag = sum(map(abs, chunks[:quarter])) / quarter + ABS_TOL
        tail_mag = sum(map(abs, chunks[-quarter:])) / quarter
        if tail_mag >= head_mag and tail_mag > 10.0 * ABS_TOL:
            raise ConvergenceError(
                "tail contributions do not decay",
                best_estimate=sum(chunks),
                error_bound=tail_mag,
            )
        value = _levin_t(chunks)
        err = abs(value - _levin_t(chunks[: n // 2]))
        if err <= max(ABS_TOL, REL_TOL * abs(value)):
            return value
        if n >= TAIL_PERIODS:
            rounding = sum(abs(c) * (a / h + j + 1) for j, c in enumerate(chunks))
            raise ConvergenceError(
                f"oscillatory tail did not converge in {n} half-periods from {a}",
                best_estimate=value,
                error_bound=err + math.ulp(1.0) * rounding,
            )
        n *= 2


# ---------------------------------------------------------------------------
# Scalar-coefficient oracles
# ---------------------------------------------------------------------------


def _check_point(R, omega):
    if not (0.0 < R < math.inf and 0.0 < omega < math.inf):  # also refuses NaN
        raise DomainError(f"R and omega must be positive and finite, got {R}, {omega}")


def _head_and_tail(f, R, omega):
    """Integral of ``f`` over y > 0: an adaptive head on [0, R], the oscillatory tail beyond."""
    return integrate_adaptive(f, 0.0, R) + oscillatory_tail(f, R, math.pi / omega)


def _radial_integral(R, omega, prefactor, r_power=0, monopole=False):
    """(prefactor / R**r_power) * integral over y > 0 of p(y) w(y) / y^2.

    p(y) = (u cos u - sin u)(cos u + u sin u) at u = omega y, and ``w`` is
    the angular moment of the shifted kernel 1/|y + R| against mu^2 - 1/3,
    its l = 2 multipole term (4/15) r<^2 / r>^3 with r< = min(y, R) and
    r> = max(y, R); when ``monopole``, against mu^2, which adds the l = 0
    term 2 / (3 r>).  The conditionally convergent integral is split at
    y = R.  The integrand is called once per node, so it is one closure with
    the product and the moment written inline: with the prefactor,
    w(y) / y^2 is (a + b R^2 / y^2) / y^3 beyond R and a / (R y^2) + b / R^3
    inside, for a = 2/3 (monopole, else 0) and b = 4/15.
    """
    _check_point(R, omega)
    prefactor /= R**r_power  # after the check, so that R = 0 is a DomainError
    a = prefactor * (2.0 / 3.0) if monopole else 0.0
    b = prefactor * (4.0 / 15.0)
    b_out, a_in, b_in = b * R * R, a / R, b / R**3
    cos, sin = math.cos, math.sin

    def integrand(y):
        u = omega * y
        c, s = cos(u), sin(u)
        q = y * y
        if y > R:
            return (u * c - s) * (c + u * s) * (a + b_out / q) / (q * y)
        return (u * c - s) * (c + u * s) * (a_in / q + b_in)

    return _head_and_tail(integrand, R, omega)


def b1_numeric(R: float, omega: float) -> float:
    """First tensor coefficient by direct radial integration.

    The cos^2(theta)-weighted angular integral of the kernel 1/|y + R| =
    1/sqrt(y^2 + 2*y*R*cos(theta) + R^2) is its l = 0 and l = 2 multipole
    terms; matches -(pi*omega / 3R) * f1(R*omega).
    """
    return _radial_integral(R, omega, 2.0 * math.pi, monopole=True)


def b2_numeric(R: float, omega: float) -> float:
    """Second tensor coefficient by direct radial integration.

    Uses the (cos^2(theta) - 1/3) angular weight, the l = 2 multipole
    term alone; matches -(pi*omega / 2R^3) * f2(R*omega).
    """
    return _radial_integral(R, omega, 3.0 * math.pi, r_power=2)


def _b1_per_f1(R, omega):
    """B1 / f1(R*omega) = -pi*omega / 3R."""
    return -(math.pi * omega / (3.0 * R))


def _b2_per_f2(R, omega):
    """B2 / f2(R*omega) = -pi*omega / 2R^3."""
    return -(math.pi * omega / (2.0 * R**3))


# ---------------------------------------------------------------------------
# Flat-space rate by a mode sum
# ---------------------------------------------------------------------------


#: (khat, weight) of the six octahedron vertices: exact on the sphere for
#: polynomials of degree 3 in khat, not 4 (x^4 gives 4 pi / 3, not 4 pi / 5).
_OCTAHEDRON = tuple(
    (khat, 4.0 * math.pi / 6.0)
    for khat in ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                 (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0))
)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _mode_sum_rate(d, omega):
    """Golden-rule rate of the coupling d . grad(phi) to a massless scalar phi.

    Emission into a mode k, normalised by 1 / sqrt(2 omega_k V), has the
    matrix element k . d, so Gamma = 2 pi int d^3k / (2 pi)^3 (k . d)^2
    / (2 omega_k) delta(omega_k - omega).  With d^3k = k^2 dk dOmega_k and
    omega_k = k the delta sets k = omega: Gamma = omega^3 / (8 pi^2) times
    the sphere integral of (khat . d)^2, a quadratic that the six vertices of
    ``_OCTAHEDRON`` integrate exactly.  ``d`` is a 3-vector.
    """
    return omega**3 / (8.0 * math.pi**2) * sum(_dot(khat, d) ** 2 * w for khat, w in _OCTAHEDRON)


# ---------------------------------------------------------------------------
# Radiated power and energy balance
# ---------------------------------------------------------------------------


def power_per_quantum(phi, sin2psi, f1_g, f2_g):
    """Pre-truncation radiated power per quantum, 4 P / (omega_g gamma).

    (1 + phi)^3 [(1 + 4 phi) - phi (2 f1 - 3 sin^2(psi) f2)], with f1 and f2
    taken at the redshifted argument x_g = (1 + phi) x: the omega_g^4 lead
    of the dipole power over the flat rate gamma = d^2 Omega^3 / (6 pi).  It
    equals the rate ratio gamma_g / gamma to first order in phi.  Arguments
    are floats.
    """
    return (1.0 + phi) ** 3 * (
        (1.0 + 4.0 * phi) - phi * (2.0 * f1_g - 3.0 * sin2psi * f2_g)
    )


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

GRID_X = (0.3, 0.5, 1.0, 2.0, math.pi, 5.0, 8.0)

#: Energy-balance potentials and the bound K on |lhs/rhs - 1| / phi^2.  The
#: worst deviation must also fall as phi^2: for three log-spaced potentials
#: the endpoint slope is the least-squares one, and it must lie within 0.1
#: of 2.
BALANCE_PHIS = (-1e-4, -1e-3, -1e-2)
BALANCE_K = 10.0

#: Relative tolerance of the B1/B2 records and of the distance-kernel
#: records, and B2's absolute floor (B2 vanishes at x = pi).  Their errors
#: against 40-digit closed forms are below 1e-13 relative and 3e-15
#: absolute, so an f1 or f2 wrong in the tenth digit fails them.
RADIAL_REL_TOL = 1e-10
B2_ABS_FLOOR = 1e-12


def _record(name, ref, computed, reference, tolerance, note=None):
    """One report record; it passes when |computed - reference| <= tolerance.

    ``tolerance`` is the absolute bound applied, so a relative bound comes
    here multiplied by |reference|.  An aborted check's record, whose three
    numbers are None, fails.  So does a record with a NaN or infinite
    field: its three numbers print as null, to keep the report strict JSON,
    and move into ``note``.
    """
    if any(v is not None and not math.isfinite(v) for v in (computed, reference, tolerance)):
        note = (f"non-finite: computed {computed!r}, reference {reference!r}, "
                f"tolerance {tolerance!r}" + ("" if note is None else f"; {note}"))
        computed = reference = tolerance = None
    rec = {
        "name": name,
        "paper_ref": ref,
        "computed": computed,
        "reference": reference,
        "tolerance": tolerance,
        "pass": computed is not None and abs(computed - reference) <= tolerance,
    }
    if note is not None:
        rec["note"] = note
    return rec


def _worst(items, key=lambda item: item):
    """The item of largest ``key``; a NaN key wins, where ``max`` would skip it."""
    return max(items, key=lambda item: (math.isnan(k := key(item)), k))


# Each check takes ``grid``, which returns B1 and B2 at R = 1 on GRID_X,
# computed on the first call of the report, and returns its records.


def _grid_integrals():
    """B1 and B2 at R = 1 and each x of ``GRID_X``, as two lists."""
    return [b1_numeric(1.0, x) for x in GRID_X], [b2_numeric(1.0, x) for x in GRID_X]


def _radial_check(grid):
    """B1/B2 on the grid against the closed forms.  Their scaling in R is
    held by the distance-kernel records, B1 and B2 at R = 3."""
    b1_values, b2_values = grid()
    records = []
    for x, computed in zip(GRID_X, b1_values):
        reference = _b1_per_f1(1.0, x) * specfun.f1(x)
        records.append(_record(f"B1 quadrature vs closed form, x={x:g}",
                               "first radial coefficient against f1 closed form",
                               computed, reference, RADIAL_REL_TOL * abs(reference)))
    for x, computed in zip(GRID_X, b2_values):
        reference = _b2_per_f2(1.0, x) * specfun.f2(x)
        records.append(_record(f"B2 quadrature vs closed form, x={x:g}",
                               "second radial coefficient against f2 closed form",
                               computed, reference,
                               max(B2_ABS_FLOOR, RADIAL_REL_TOL * abs(reference))))
    return records


def _flat_rate_check(grid):
    """``rates.flat_rate(|d|, omega)`` against ``_mode_sum_rate(d, omega)`` at
    points with |d| != 1 and omega != 1, where a wrong power or prefactor
    shows.  The octahedron rule is exact on the mode sum's integrand, so the
    worst meets it to 1.7e-16 relative, against 1e-12."""
    points = (((0.0, 0.0, 0.8), 1.7), ((0.3, -0.4, 1.2), 0.7), ((2.0, 0.0, 0.5), 3.1))
    pairs = [(rates_mod.flat_rate(math.hypot(*d), omega), _mode_sum_rate(d, omega))
             for d, omega in points]
    rate, mode_sum = _worst(pairs, key=lambda pair: abs(pair[0] - pair[1]) / pair[1])
    return [_record("flat rate d^2 Omega^3/(6 pi) against the mode sum",
                    "spontaneous emission rate in flat space by the golden rule",
                    rate, mode_sum, 1e-12 * mode_sum,
                    note=f"worst of {len(points)} (d, omega) points")]


def _energy_balance_check(grid):
    """The pre-truncation power per quantum, from f1 and f2 recovered from
    the B1/B2 quadratures at x_g on the grid and sin^2(psi) from the dipole
    d = (sin psi, 0, cos psi) as |d x z|^2 / |d|^2 = 1 - (d . z)^2 / |d|^2,
    against gamma_g / gamma of ``build_rate_set`` at R = 1 and the proper
    splitting x_g / (1 + phi).  The two agree to first order in phi, so
    their deviation must fall as phi^2; a wrong bracket coefficient,
    sin^2(psi), x = R omega or gamma_g = gamma * bracket leaves O(phi)."""
    f_g = [(b1 / _b1_per_f1(1.0, x), b2 / _b2_per_f2(1.0, x))
           for x, b1, b2 in zip(GRID_X, *grid())]

    def deviation(phi, psi, x_g, f1_g, f2_g):
        d = (math.sin(psi), 0.0, math.cos(psi))
        power = power_per_quantum(phi, 1.0 - _dot(d, (0.0, 0.0, 1.0)) ** 2 / _dot(d, d), f1_g, f2_g)
        atom = AtomSpec(x_g / (1.0 + phi), dipole_angle=psi)
        rs = rates_mod.build_rate_set(atom, GravityEnv(phi, 1.0))
        return abs(power / (rs.gamma_g / rs.gamma_flat) - 1.0)

    worst = [_worst(deviation(phi, psi, x, *f) for psi in (0.0, math.pi / 4.0, math.pi / 2.0)
                    for x, f in zip(GRID_X, f_g))
             for phi in BALANCE_PHIS]
    k_max = _worst(w / phi**2 for w, phi in zip(worst, BALANCE_PHIS))
    slope = math.log(worst[-1] / worst[0]) / math.log(BALANCE_PHIS[-1] / BALANCE_PHIS[0])
    return [
        _record("energy balance |(P/omega_g)/(gamma_g/4) - 1| <= K*phi^2",
                "radiated power per quantum against the corrected emission rate",
                k_max, 0.0, BALANCE_K),
        _record("energy balance slope of log |deviation| against log |phi|",
                "the power and the corrected rate differ at second order in phi",
                slope, 2.0, 0.1),
    ]


def _plateau_check(grid):
    """Frequency-limit plateaus 1 + 7 phi and 1 + phi of the rate ratio at
    phi = -0.05, psi = 0.  Each tolerance is twice the bound on the leading
    omitted term -2 phi f1 or -2 phi (f1 - 3): 0 < f1 < pi x at x = 1e-4
    (the x^4 coefficient of f1 is -2/9), and |f1 - 3| < 1.5 / x at x = 1e3,
    the bound stated at ``specfun._F1_FLAT_CUT``."""
    phi = -0.05
    return [
        _record(f"rate-ratio plateau at x={x:g}", "low/high-frequency limits of the corrected rate",
                rates_mod.rate_bracket(x, phi, 0.0), target, 2.0 * abs(2.0 * phi) * bound)
        for x, target, bound in ((1e-4, 0.65, math.pi * 1e-4), (1e3, 0.95, 1.5 / 1e3))
    ]


def _f2_coefficient_check(grid):
    """Small-argument coefficient of f2: ``specfun.f2(x) / x^2`` at x = 1e-4
    against 2/3, not the 4/3 printed in the large/small-argument summary.
    f2 = (2/3) x^2 - (8/45) x^4 + ..., so the truncation 1.8e-9 lies 3.7
    times below the tolerance 1e-8 * 2/3."""
    x, coefficient = 1e-4, 2.0 / 3.0
    return [_record("f2 small-x coefficient resolution",
                    "leading quadratic coefficient of f2 near zero",
                    specfun.f2(x) / x**2, coefficient, 1e-8 * coefficient,
                    note="the quoted small-argument approximation 4/3 x^2 "
                    "is inconsistent with the definition; direct expansion gives 2/3 x^2")]


def _distance_kernel_check(grid):
    """B1 and B2 at R = 3, omega = 1/3 with the shifted kernel 1/|y + R|
    (cross term 2 y R cos) against the closed forms, where a wrong power of R
    shows; the grid has R = 1 only.  The literal cross term 2 R cos misses
    B1 by more than 1e-2, which the note states."""
    R, omega = 3.0, 1.0 / 3.0
    b1_reference = _b1_per_f1(R, omega) * specfun.f1(R * omega)
    b2_reference = _b2_per_f2(R, omega) * specfun.f2(R * omega)
    return [
        _record("distance-kernel reading resolution",
                "cross term of the kernel distance must carry the radial variable",
                b1_numeric(R, omega), b1_reference, RADIAL_REL_TOL * abs(b1_reference),
                note="the literal cross term 2 R cos(theta) does not reproduce f1"),
        _record("B2 scaling in R, quadrature at R=3, omega=1/3 vs closed form",
                "second radial coefficient's 1/R^3 scaling against f2 closed form",
                b2_numeric(R, omega), b2_reference,
                max(B2_ABS_FLOOR, RADIAL_REL_TOL * abs(b2_reference))),
    ]


def _detailed_balance_check(grid):
    """The generator's Gamma+/Gamma- against the Boltzmann factor
    exp(-omega_g / T) at its own splitting and the distant temperature, not
    against the Bose occupation the rates are built from, at (omega, phi, T,
    psi) points with |phi| <= 0.1, so that no warning fires.  The worst point
    meets it to 2.2e-16 relative, against 1e-12; swapped rates or n_B at the
    local temperature miss it by >= 4.6e-3."""
    points = ((1.0, -0.05, 0.5, 0.3), (2.3, -0.01, 5.0, 1.2), (0.7, -0.09, 0.05, 0.0))
    pairs = []
    for omega, phi, T, psi in points:
        rs = rates_mod.build_rate_set(
            AtomSpec(omega, dipole_angle=psi), GravityEnv(phi, distance=1.0), T
        )
        pairs.append((rs.gamma_plus / rs.gamma_minus, math.exp(-rs.omega_g / T)))
    ratio, boltzmann = _worst(pairs, key=lambda pair: abs(pair[0] - pair[1]) / pair[1])
    return [_record("detailed balance Gamma+/Gamma- = exp(-omega_g/T)",
                    "thermal absorption over emission rate at the redshifted splitting",
                    ratio, boltzmann, 1e-12 * boltzmann,
                    note=f"worst of {len(points)} (omega, phi, T, psi) points")]


def _redshift_check(grid):
    """omega_g / omega from ``build_rate_set`` at omega = 1.7 against the
    clock rate sqrt(g_00) = sqrt(1 + 2 phi) of the weak-field metric, over
    the balance potentials.  The two agree to first order in phi, and the
    leading difference phi^2 / 2 makes K = max |delta| / phi^2 about 0.5; a
    wrong sign or power of (1 + phi), or omega_g proportional to 1 / omega,
    leaves an O(phi) or O(1) difference."""
    omega = 1.7
    k_redshift = _worst(
        abs(rates_mod.build_rate_set(AtomSpec(omega), GravityEnv(phi, 1.0)).omega_g / omega
            - math.sqrt(1.0 + 2.0 * phi)) / phi**2
        for phi in BALANCE_PHIS
    )
    return [_record("redshift |omega_g/omega - sqrt(1 + 2 phi)| <= K*phi^2",
                    "redshifted splitting against the time dilation of a static clock",
                    k_redshift, 0.0, 1.0)]


#: (name, check) of each check of the report, in the order of its records.
CHECKS = (
    ("B1/B2 quadrature", _radial_check),
    ("flat rate", _flat_rate_check),
    ("energy balance", _energy_balance_check),
    ("rate-ratio plateaus", _plateau_check),
    ("f2 small-x coefficient", _f2_coefficient_check),
    ("distance-kernel reading", _distance_kernel_check),
    ("detailed balance", _detailed_balance_check),
    ("redshift", _redshift_check),
)


def verification_report() -> list[dict]:
    """Run the full oracle suite and return its records.

    Every record is a check: it prints a numeric tolerance, and its ``pass``
    is |computed - reference| <= tolerance.  The closed forms under test
    (``specfun.f1``, ``specfun.f2``, ``rates.flat_rate``, ``rate_bracket``,
    ``build_rate_set``, ``AtomSpec.sin2psi``) are looked up when the report
    runs, so a fault in any of them fails the records that use it.  A library error or an
    arithmetic fault raised in a check is such a fault too: that check's
    records become one failing record, ``<check> aborted by an error``, whose
    note carries the message, and the other checks still run.  The B1/B2
    grid integrals are computed once per report, by the first check that
    reads them.
    """
    grid = functools.cache(_grid_integrals)
    records: list[dict] = []
    for name, check in CHECKS:
        try:
            records += check(grid)
        except (GravatomError, ArithmeticError) as exc:
            records.append(_record(
                f"{name} aborted by an error",
                "every closed form under test evaluates without a library or arithmetic error",
                None, None, None, note=f"{type(exc).__name__}: {exc}"))
    return records

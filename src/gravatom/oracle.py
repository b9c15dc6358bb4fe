"""Brute-force verification of the closed-form rates.

Everything here deliberately avoids the closed forms it checks: the radial
integrals behind the rate-correction functions are reduced analytically only
in the angular variable and then integrated numerically, the sphere
identities are checked by product quadrature, and the radiated power is
compared against the dissipation rate computed independently: the power is
built from f1 and f2 recovered from the radial quadratures, the rate from
``rates.rate_bracket``, and the two must agree up to a remainder of second
order in phi.

The angular moments of the distance kernel are closed forms: the multipole
(Legendre) expansion of 1/|y + R| for the shifted kernel, the rationalised
antiderivative for the literal one.  Every radial integral is a head on
[0, R] and an infinite tail that decays like 1/y with oscillation
(conditionally convergent), summed half-period by half-period and
extrapolated by Levin's t-transform of the partial sums, each half-period
its own remainder estimate (D. Levin, Int. J. Comput. Math. B3 (1973) 371;
a Levin-type transform in the sense of Sidi's mW, Math. Comp. 51 (1988)
249); the half-period count doubles until the transforms of n and n/2
half-periods agree.  The Gauss-Legendre rules are built here, by Newton's
method on the Legendre recurrence.

Everything runs on Python floats, and the module imports no numpy: an
integrand is a scalar function ``f(y) -> float``, called once per node.
The sphere identities use a 24 (Gauss, in mu) x 8 (trapezoid, in phi)
product rule, the radial panels' Gauss rule in mu, sized by refinement: it
agrees with the 32 x 16 rule.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul
from typing import Callable

from . import rates as rates_mod
from . import specfun
from .errors import ConvergenceError, DivergenceError, DomainError
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

#: Trapezoid nodes in phi of the sphere rule, whose nodes in mu = cos(theta)
#: are the 24 of the radial panels' Gauss-Legendre rule.  Sized by
#: refinement: on every sphere identity the 24 x 8 rule agrees with the
#: 32 x 16 one to 1e-14.
SPHERE_PHI_NODES = 8


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
    Chunk magnitudes that do not decay raise ``DivergenceError``.
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
            raise DivergenceError(
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


def _b1_literal_kernel(R, omega):
    """B1 with the literal kernel distance sqrt(y^2 + 2R cos(theta) + R^2).

    The cross term lacks the radial variable, so the angular moment is the
    integral of mu^2 / sqrt(a + b mu) over mu at a = y^2 + R^2, b = 2R, in
    its rationalised closed form.  It does not match the closed form of f1.
    """
    _check_point(R, omega)
    prefactor, r2, b = 2.0 * math.pi, R * R, 2.0 * R
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def integrand(y):
        u = omega * y
        c, s = cos(u), sin(u)
        q = y * y
        a = q + r2
        s_plus, s_minus = sqrt(a + b), sqrt(a - b)
        moment = 4.0 * (3.0 + 4.0 * a / (a + s_plus * s_minus)) / (15.0 * (s_plus + s_minus))
        return prefactor * ((u * c - s) * (c + u * s)) * moment / q

    return _head_and_tail(integrand, R, omega)


def _b1_per_f1(R, omega):
    """B1 / f1(R*omega) = -pi*omega / 3R."""
    return -(math.pi * omega / (3.0 * R))


def _b2_per_f2(R, omega):
    """B2 / f2(R*omega) = -pi*omega / 2R^3."""
    return -(math.pi * omega / (2.0 * R**3))


# ---------------------------------------------------------------------------
# Sphere quadrature identities
# ---------------------------------------------------------------------------


def _sphere_grid(mu, mu_weights, n_phi):
    """(rhat, weight) of each node of the product rule: (mu, mu_weights) in mu
    by n_phi trapezoid nodes in phi."""
    phis = [2.0 * math.pi * k / n_phi for k in range(n_phi)]
    d_phi = 2.0 * math.pi / n_phi
    grid = []
    for z, w in zip(mu, mu_weights):
        s = math.sqrt(1.0 - z * z)
        grid.extend(((s * math.cos(p), s * math.sin(p), z), w * d_phi) for p in phis)
    return grid


_SPHERE = _sphere_grid(_GL_NODES, _GL_WEIGHTS, SPHERE_PHI_NODES)


def _sphere_quad(g, grid=_SPHERE):
    """Integrate g(rhat) over the unit sphere."""
    return sum(w * g(rhat) for rhat, w in grid)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _quadratic_moment(d):
    """(rhat . d)^2 on the sphere, and its integral 4 pi |d|^2 / 3."""
    def g(rhat):
        return _dot(rhat, d) ** 2

    return g, 4.0 * math.pi * _dot(d, d) / 3.0


def _first_moment(d, z_vec, omega, trig, rhs_trig):
    """(rhat . d) trig(omega (rhat . z - |z|)) on the sphere, and its integral.

    -4 pi (z . d / |z|) (cos u - sin u / u) rhs_trig(u) / u, with
    u = omega |z| and ``rhs_trig`` cos for ``trig`` sin and sin for cos.
    """
    z = math.sqrt(_dot(z_vec, z_vec))
    u = omega * z
    base = -4.0 * math.pi * (_dot(z_vec, d) / z) * (math.cos(u) - math.sin(u) / u)

    def g(rhat):
        return _dot(rhat, d) * trig(omega * (_dot(rhat, z_vec) - z))

    return g, base * rhs_trig(u) / u


def _sphere_identities():
    """(name, paper_ref, integrand g(rhat), closed form) of each sphere identity."""
    cases = []
    for i, d in enumerate(((0.0, 0.0, 1.0), (0.3, -0.4, 1.2))):
        cases.append((f"sphere quadratic moment [{i}]",
                      "sphere average of squared dipole projection", *_quadratic_moment(d)))
    moment_cases = (
        ((0.0, 0.0, 1.0), (0.0, 0.0, math.pi), 1.0),
        ((0.0, 0.0, 0.7), (0.0, 0.0, 1.7), 1.0),
        ((1.0, 0.0, 0.0), (0.0, 0.0, 2.0), 1.3),
        ((0.5, 0.0, 0.8), (0.0, 0.0, 2.0), 1.3),
    )
    for i, (d, z_vec, omega) in enumerate(moment_cases):
        for label, trig, rhs_trig in (("sin", math.sin, math.cos), ("cos", math.cos, math.sin)):
            cases.append((f"sphere {label}-weighted moment [{i}]",
                          f"{label}-weighted first moment of dipole projection",
                          *_first_moment(d, z_vec, omega, trig, rhs_trig)))
    return cases


def angular_identities_check() -> list[dict]:
    """Verify the sphere-average identities used in the power calculation.

    Checks, by product quadrature over the sphere, the quadratic moment
    of (rhat . d) and the sin/cos-weighted first moments against their
    closed forms, for several dipole/offset geometries.  The 24 x 8 rule
    meets them to 4e-15, so each allows 1e-12.
    """
    tol = 1e-12
    records = []
    for name, ref, g, rhs in _sphere_identities():
        lhs = _sphere_quad(g)
        records.append(_record(name, ref, lhs, rhs, tol, abs(lhs - rhs) <= tol))
    return records


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

#: Energy-balance check: potentials, the bound K on |lhs/rhs - 1| / phi^2 and
#: the interval the log-log slope of the worst deviation must lie in.  For
#: three log-spaced potentials the endpoint slope is the least-squares one.
BALANCE_PHIS = (-1e-4, -1e-3, -1e-2)
BALANCE_K = 10.0
BALANCE_SLOPE = (1.9, 2.1)

#: Relative tolerance of the B1/B2 records and of the distance-kernel
#: record's shifted kernel, and B2's absolute floor (B2 vanishes at x = pi).
#: Their errors against 40-digit closed forms are below 1e-13 relative and
#: 3e-15 absolute, so an f1 or f2 wrong in the tenth digit fails them.
RADIAL_REL_TOL = 1e-10
B2_ABS_FLOOR = 1e-12


def _f2_closed(x):
    """Closed form of f2, the "f2 small-x coefficient resolution" record's.

    (1 - x sin 2x - cos 2x) / x^2; cancels badly as x -> 0.
    """
    return (1.0 - x * math.sin(2.0 * x) - math.cos(2.0 * x)) / (x * x)


def _record(name, ref, computed, reference, tolerance, passed, note=None):
    rec = {
        "name": name,
        "paper_ref": ref,
        "computed": computed,
        "reference": reference,
        "tolerance": tolerance,
        "pass": bool(passed),
    }
    if note is not None:
        rec["note"] = note
    return rec


def verification_report() -> list[dict]:
    """Run the full oracle suite and return one record per check.

    The closed forms under test, ``specfun.f1``, ``specfun.f2``,
    ``rates.rate_bracket`` and ``rates.build_rate_set``, are looked up when
    the report runs, so a fault in any of them fails the records that use it.
    """
    records: list[dict] = []

    R = 1.0
    b1_refs = [_b1_per_f1(R, x) * specfun.f1(x) for x in GRID_X]
    b2_refs = [_b2_per_f2(R, x) * specfun.f2(x) for x in GRID_X]

    # B1/B2 at R = 1 on the grid against the closed forms, then the scale
    # invariance B1(lam*R, omega/lam) = B1(R, omega)/lam^2 at x = 1.
    def radial(name, paper_ref, computed, reference, floor=0.0):
        passed = abs(computed - reference) <= max(floor, RADIAL_REL_TOL * abs(reference))
        records.append(_record(name, paper_ref, computed, reference, RADIAL_REL_TOL, passed))

    b1_values = [b1_numeric(R, x) for x in GRID_X]
    b2_values = [b2_numeric(R, x) for x in GRID_X]
    for x, computed, reference in zip(GRID_X, b1_values, b1_refs):
        radial(f"B1 quadrature vs closed form, x={x:g}",
               "first radial coefficient against f1 closed form", computed, reference)
    for x, computed, reference in zip(GRID_X, b2_values, b2_refs):
        radial(f"B2 quadrature vs closed form, x={x:g}",
               "second radial coefficient against f2 closed form", computed, reference,
               B2_ABS_FLOOR)
    base = b1_values[GRID_X.index(1.0)]
    for lam in (0.5, 2.0):
        radial(f"B1 scale invariance, lambda={lam:g}",
               "radial coefficient scaling with (R, omega) -> (lam R, omega/lam)",
               b1_numeric(lam, 1.0 / lam), base / lam**2)

    records.extend(angular_identities_check())

    # Energy balance: the pre-truncation power per quantum, built from f1
    # and f2 recovered from the B1/B2 quadratures at x_g on the grid, against
    # gamma_g / 4 from rate_bracket at the proper x = x_g / (1 + phi).  The
    # two agree to first order in phi, so their relative deviation must fall
    # as phi^2; a wrong bracket coefficient leaves an O(phi) deviation.
    f_g = [(b1 / _b1_per_f1(R, x), b2 / _b2_per_f2(R, x))
           for x, b1, b2 in zip(GRID_X, b1_values, b2_values)]
    worst = [
        max(
            abs(power_per_quantum(phi, sin2psi, f1_g, f2_g)
                / rates_mod.rate_bracket(x / (1.0 + phi), phi, sin2psi) - 1.0)
            for sin2psi in (0.0, 0.5, 1.0)
            for x, (f1_g, f2_g) in zip(GRID_X, f_g)
        )
        for phi in BALANCE_PHIS
    ]
    k_max = max(w / phi**2 for w, phi in zip(worst, BALANCE_PHIS))
    slope = math.log(worst[-1] / worst[0]) / math.log(BALANCE_PHIS[-1] / BALANCE_PHIS[0])
    records.append(
        _record(
            "energy balance |(P/omega_g)/(gamma_g/4) - 1| <= K*phi^2",
            "radiated power per quantum against the corrected emission rate",
            k_max,
            0.0,
            BALANCE_K,
            k_max <= BALANCE_K and BALANCE_SLOPE[0] <= slope <= BALANCE_SLOPE[1],
            note=(
                f"log-log slope of the worst deviation against phi: {slope:.4f} "
                f"(must lie in [{BALANCE_SLOPE[0]:g}, {BALANCE_SLOPE[1]:g}])"
            ),
        )
    )

    # Frequency-limit plateaus of the rate ratio at phi = -0.05, psi = 0.
    for x, target, tol in ((1e-4, 0.65, 1e-3), (1e3, 0.95, 5e-3)):
        ratio = rates_mod.rate_bracket(x, -0.05, 0.0)
        passed = abs(ratio - target) <= tol * target
        records.append(
            _record(
                f"rate-ratio plateau at x={x:g}",
                "low/high-frequency limits of the corrected rate",
                ratio,
                target,
                tol,
                passed,
            )
        )

    # Small-argument coefficient of f2: Richardson extrapolation of the
    # closed form gives 2/3, not the 4/3 printed in the large/small-argument
    # summary.
    f2_half, f2_cut = _f2_closed(0.05), _f2_closed(0.1)
    c_est = (4.0 * f2_half / 0.05**2 - f2_cut / 0.1**2) / 3.0
    records.append(
        _record(
            "f2 small-x coefficient resolution",
            "leading quadratic coefficient of f2 near zero",
            c_est,
            2.0 / 3.0,
            1e-3,
            abs(c_est - 2.0 / 3.0) <= 1e-3,
            note=(
                "informational: the quoted small-argument approximation 4/3 x^2 "
                "is inconsistent with the definition; direct expansion gives 2/3 x^2"
            ),
        )
    )

    # Distance-kernel reading: only |y + R| (cross term 2*y*R*cos) reproduces
    # the closed form, to RADIAL_REL_TOL; the literal cross term 2*R*cos
    # misses it by more than 1e-2.
    R3, om3 = 3.0, 1.0 / 3.0
    shifted = b1_numeric(R3, om3)
    literal = _b1_literal_kernel(R3, om3)
    reference = _b1_per_f1(R3, om3) * specfun.f1(R3 * om3)
    ok = (
        abs(shifted - reference) <= RADIAL_REL_TOL * abs(reference)
        and abs(literal - reference) > 1e-2 * abs(reference)
    )
    records.append(
        _record(
            "distance-kernel reading resolution",
            "cross term of the kernel distance must carry the radial variable",
            literal,
            reference,
            RADIAL_REL_TOL,
            ok,
            note=(
                "informational: shifted-kernel value "
                f"{shifted!r} matches; the literal reading does not"
            ),
        )
    )

    # Difference between evaluating the correction functions at the proper
    # and at the redshifted frequency (identical to first order in phi), at
    # x = 1, psi = 0.
    phi = -0.29
    first_order = rates_mod.rate_bracket(1.0, phi, 0.0)
    pre = power_per_quantum(phi, 0.0, specfun.f1(1.0 + phi), specfun.f2(1.0 + phi))
    rel = abs(first_order - pre) / abs(pre)
    records.append(
        _record(
            "proper- vs redshifted-frequency argument of f1/f2",
            "first-order truncation difference at the largest allowed |phi|",
            rel,
            0.0,
            None,
            True,
            note="informational: relative spread of the two equivalent forms at phi=-0.29",
        )
    )

    # Detailed balance: the generator's Gamma+/Gamma- against the Boltzmann
    # factor exp(-omega_g / T) at its own splitting and the distant
    # temperature, not against the Bose occupation the rates are built from,
    # at (omega, phi, T, psi) points with |phi| <= 0.1, so that no warning
    # fires.  The worst point meets it to 2.2e-16; swapped rates or n_B at
    # the local temperature miss it by >= 4.6e-3.
    points = ((1.0, -0.05, 0.5, 0.3), (2.3, -0.01, 5.0, 1.2), (0.7, -0.09, 0.05, 0.0))
    tol = 1e-12
    pairs = []
    for omega, phi, T, psi in points:
        rs = rates_mod.build_rate_set(
            AtomSpec(omega, dipole_angle=psi), GravityEnv(phi, distance=1.0), T
        )
        pairs.append((rs.gamma_plus / rs.gamma_minus, math.exp(-rs.omega_g / T)))
    ratio, boltzmann = max(pairs, key=lambda pair: abs(pair[0] - pair[1]) / pair[1])
    records.append(
        _record(
            "detailed balance Gamma+/Gamma- = exp(-omega_g/T)",
            "thermal absorption over emission rate at the redshifted splitting",
            ratio,
            boltzmann,
            tol,
            abs(ratio - boltzmann) <= tol * boltzmann,
            note=f"worst of {len(points)} (omega, phi, T, psi) points",
        )
    )

    return records

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
antiderivative for the literal one.  Every radial integral goes through one
helper: a head on [0, R] and an infinite tail that decays like 1/y with
oscillation (conditionally convergent), summed period by period and
accelerated by repeated averaging of the partial sums.  The Gauss-Legendre
rules are built here, by Newton's method on the Legendre recurrence.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import rates as rates_mod
from . import specfun
from .errors import ConvergenceError, DivergenceError, DomainError


#: Accuracy targets and budgets of the numeric oracles.  ``integrate_adaptive``
#: stops once two successive levels agree to max(ABS_TOL, REL_TOL * |value|)
#: and gives up after MAX_DEPTH panel doublings (1, 2, 4, ... up to
#: 2**MAX_DEPTH panels); ``oscillatory_tail`` sums TAIL_PERIODS half-period
#: chunks.
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_DEPTH = 10
TAIL_PERIODS = 200

#: Averaging passes applied to the partial sums of an oscillatory tail.
TAIL_AVERAGING_PASSES = 12


# ---------------------------------------------------------------------------
# Generic quadrature
# ---------------------------------------------------------------------------


def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n, evaluated by the three-term recurrence, from
    Tricomi's estimates (1 - (n - 1) / (8 n^3)) cos(pi (k + 3/4) / (n + 1/2));
    it stops once no node would move by 1e-15, and the weights are then
    2 / ((1 - x^2) P_n'(x)^2).
    """
    theta = math.pi * (np.arange(n)[::-1] + 0.75) / (n + 0.5)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(theta)
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, (2.0 - 1.0 / j) * x * p - (1.0 - 1.0 / j) * p_prev
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        if np.max(np.abs(step)) < 1e-15:
            return x, 2.0 / ((1.0 - x * x) * dp * dp)
        x = x - step
    raise ConvergenceError(f"{n}-point Gauss-Legendre nodes did not converge")


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(24)


def _gauss_panels(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> np.ndarray:
    """24-point Gauss-Legendre integral of ``f`` over each panel between ``edges``.

    All nodes of all panels go to ``f`` in one flat array; no node is a panel
    endpoint.
    """
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    values = f(nodes.ravel()).reshape(nodes.shape)
    return half * (values @ _GL_WEIGHTS)


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Composite Gauss-Legendre integration of ``f`` over [a, b].

    ``f`` takes an array of abscissae and returns the integrand at each.
    The panel count doubles (1, 2, 4, ...) until two successive levels agree
    to max(``ABS_TOL``, ``REL_TOL`` * |value|); after ``MAX_DEPTH``
    doublings without agreement it raises ``ConvergenceError`` carrying the
    best estimate and the last difference as its error bound.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    previous = float(np.sum(_gauss_panels(f, np.array([a, b]))))
    for depth in range(1, MAX_DEPTH + 1):
        value = float(np.sum(_gauss_panels(f, np.linspace(a, b, 2**depth + 1))))
        err = abs(value - previous)
        if err <= max(ABS_TOL, REL_TOL * abs(value)):
            return value
        previous = value
    raise ConvergenceError(
        f"adaptive quadrature did not converge on [{a}, {b}]",
        best_estimate=value,
        error_bound=err,
    )


def oscillatory_tail(f: Callable[[np.ndarray], np.ndarray], a: float, period: float) -> float:
    """Integrate ``f`` from ``a`` to infinity for eventually oscillatory f.

    ``f`` takes and returns arrays, as for ``integrate_adaptive``.
    ``period`` is the asymptotic period of the oscillation.  The integral is
    evaluated in ``TAIL_PERIODS`` half-period chunks whose contributions
    eventually alternate in sign; repeated averaging of the partial sums then
    converges geometrically.  Non-decaying chunk magnitudes raise
    ``DivergenceError``.
    """
    if period <= 0.0:
        raise DomainError(f"period must be positive, got {period}")
    h = 0.5 * period
    n = TAIL_PERIODS
    chunks = _gauss_panels(f, a + h * np.arange(n + 1))
    mags = np.abs(chunks)
    if not np.any(mags > 0.0):
        return 0.0
    head_mag = float(np.mean(mags[: n // 4])) + ABS_TOL
    tail_mag = float(np.mean(mags[-(n // 4) :]))
    if tail_mag >= head_mag and tail_mag > 10.0 * ABS_TOL:
        raise DivergenceError(
            "tail contributions do not decay",
            best_estimate=float(np.sum(chunks)),
            error_bound=tail_mag,
        )
    partial = np.cumsum(chunks)
    rounds = min(TAIL_AVERAGING_PASSES, len(partial) - 1)
    current = partial
    for _ in range(rounds):
        current = 0.5 * (current[:-1] + current[1:])
    return float(current[-1])


# ---------------------------------------------------------------------------
# Angular moments of the 1/|y + R| kernel
# ---------------------------------------------------------------------------


def _mu2_moment(a, b):
    """integral over mu in [-1, 1] of mu^2 / sqrt(a + b*mu), for 0 <= b <= a.

    The closed antiderivative, rationalised so that nothing cancels:
    4 (3 + 4a / (a + q)) / (15 (s+ + s-)), with s+- = sqrt(a +- b) and
    q = s+ s-.
    """
    s_plus, s_minus = np.sqrt(a + b), np.sqrt(a - b)
    return 4.0 * (3.0 + 4.0 * a / (a + s_plus * s_minus)) / (15.0 * (s_plus + s_minus))


def _mu2_minus_iso(y, R):
    """integral over mu of (mu^2 - 1/3) / sqrt(y^2 + 2yR mu + R^2).

    In the multipole expansion 1/|y + R| = sum_l r<^l / r>^(l+1) P_l(mu)
    (Jackson, Classical Electrodynamics, 3rd ed., sec. 3.6), with
    r< = min(y, R) and r> = max(y, R), only l = 2 survives, as
    mu^2 - 1/3 = (2/3) P_2: (4/15) r<^2 / r>^3.
    """
    near, far = np.minimum(y, R), np.maximum(y, R)
    return (4.0 / 15.0) * near * near / far**3


def _mu2_shifted(y, R):
    """integral over mu of mu^2 / sqrt(y^2 + 2yR mu + R^2).

    As mu^2 = P_0 / 3 + (2/3) P_2: the l = 0 term 2 / (3 r>) plus the l = 2
    term ``_mu2_minus_iso``.
    """
    return 2.0 / (3.0 * np.maximum(y, R)) + _mu2_minus_iso(y, R)


def _radial_product(y, omega):
    """(omega*y*cos - sin) * (cos + omega*y*sin), both at omega*y."""
    u = omega * y
    c, s = np.cos(u), np.sin(u)
    return (u * c - s) * (c + u * s)


# ---------------------------------------------------------------------------
# Scalar-coefficient oracles
# ---------------------------------------------------------------------------


def _radial_integral(R, omega, weight, prefactor, r_power=0):
    """(prefactor / R**r_power) * integral over y > 0 of _radial_product * weight(y) / y^2.

    ``weight`` is the angular moment of the distance kernel at y.  The
    conditionally convergent integral is split at y = R: an adaptive head on
    [0, R] and the accelerated oscillatory tail beyond.
    """
    if not (0.0 < R < math.inf and 0.0 < omega < math.inf):  # also refuses NaN
        raise DomainError(f"R and omega must be positive and finite, got {R}, {omega}")
    prefactor /= R**r_power  # after the check, so that R = 0 is a DomainError

    def integrand(y):
        return prefactor * _radial_product(y, omega) * weight(y) / y**2

    head = integrate_adaptive(integrand, 0.0, R)
    tail = oscillatory_tail(integrand, R, math.pi / omega)
    return head + tail


def b1_numeric(R: float, omega: float) -> float:
    """First tensor coefficient by direct radial integration.

    The cos^2(theta)-weighted angular integral of the kernel 1/|y + R| =
    1/sqrt(y^2 + 2*y*R*cos(theta) + R^2) is its multipole sum
    ``_mu2_shifted``; matches -(pi*omega / 3R) * f1(R*omega).
    """
    return _radial_integral(R, omega, lambda y: _mu2_shifted(y, R), 2.0 * math.pi)


def b2_numeric(R: float, omega: float) -> float:
    """Second tensor coefficient by direct radial integration.

    Uses the (cos^2(theta) - 1/3) angular weight, the l = 2 multipole
    term alone; matches -(pi*omega / 2R^3) * f2(R*omega).
    """
    return _radial_integral(R, omega, lambda y: _mu2_minus_iso(y, R), 3.0 * math.pi, r_power=2)


def _b1_per_f1(R, omega):
    """B1 / f1(R*omega) = -pi*omega / 3R."""
    return -(math.pi * omega / (3.0 * R))


def _b2_per_f2(R, omega):
    """B2 / f2(R*omega) = -pi*omega / 2R^3."""
    return -(math.pi * omega / (2.0 * R**3))


def b2_closed(R, omega):
    """Closed form -(pi*omega / 2R^3) * f2(R*omega); floats or arrays."""
    return _b2_per_f2(R, omega) * specfun.f2(R * omega)


# ---------------------------------------------------------------------------
# Sphere quadrature identities
# ---------------------------------------------------------------------------


def _sphere_grid():
    """Unit vectors and weights of the 80 (Gauss, in mu) x 64 (trapezoid, in phi) grid."""
    mu, mu_weights = _gauss_legendre(80)
    n_phi = 64
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(1.0 - mu * mu)[:, None]
    rhat = np.stack(
        np.broadcast_arrays(s * np.cos(phis), s * np.sin(phis), mu[:, None]), axis=-1
    ).reshape(-1, 3)
    return rhat, np.repeat(mu_weights, n_phi) * (2.0 * math.pi / n_phi)


_SPHERE_RHAT, _SPHERE_WEIGHTS = _sphere_grid()


def _sphere_quad(g):
    """Integrate g(rhat) over the unit sphere; ``g`` gets the whole (n, 3) grid at once."""
    return float(_SPHERE_WEIGHTS @ g(_SPHERE_RHAT))


def angular_identities_check() -> list[dict]:
    """Verify the sphere-average identities used in the power calculation.

    Checks, by product quadrature over the sphere, the quadratic moment
    of (rhat . d) and the sin/cos-weighted first moments against their
    closed forms, for several dipole/offset geometries.
    """
    tol = 1e-8
    records = []

    quad_cases = [np.array([0.0, 0.0, 1.0]), np.array([0.3, -0.4, 1.2])]
    for i, d_vec in enumerate(quad_cases):
        lhs = _sphere_quad(lambda rhat: (rhat @ d_vec) ** 2)
        rhs = 4.0 * math.pi * float(d_vec @ d_vec) / 3.0
        records.append(
            _record(
                f"sphere quadratic moment [{i}]",
                "sphere average of squared dipole projection",
                lhs,
                rhs,
                tol,
                abs(lhs - rhs) <= tol,
            )
        )

    moment_cases = [
        (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, math.pi]), 1.0),
        (np.array([0.0, 0.0, 0.7]), np.array([0.0, 0.0, 1.7]), 1.0),
        (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0]), 1.3),
        (np.array([0.5, 0.0, 0.8]), np.array([0.0, 0.0, 2.0]), 1.3),
    ]
    for i, (d_vec, z_vec, omega) in enumerate(moment_cases):
        z = float(np.linalg.norm(z_vec))
        u = omega * z
        base = -4.0 * math.pi * (float(np.dot(z_vec, d_vec)) / z) * (math.cos(u) - math.sin(u) / u)
        for label, trig, rhs_trig in (("sin", np.sin, math.cos), ("cos", np.cos, math.sin)):
            lhs = _sphere_quad(lambda rhat: (rhat @ d_vec) * trig(omega * (rhat @ z_vec - z)))
            rhs = base * rhs_trig(u) / u
            records.append(
                _record(
                    f"sphere {label}-weighted moment [{i}]",
                    f"{label}-weighted first moment of dipole projection",
                    lhs,
                    rhs,
                    tol,
                    abs(lhs - rhs) <= tol,
                )
            )
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
    are floats or broadcasting arrays.
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


def _f2_closed(x):
    """Closed form of f2 on an array, the "f2 small-x coefficient resolution" record's.

    (1 - x sin 2x - cos 2x) / x^2; cancels badly as x -> 0.
    """
    x2 = x * x
    return (1.0 - x * np.sin(2.0 * x) - np.cos(2.0 * x)) / x2


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


def verification_report(f1_offset: float = 0.0) -> list[dict]:
    """Run the full oracle suite and return one record per check.

    ``f1_offset`` is a fault-injection hook: it shifts the closed-form f1
    used as reference so the quadrature cross-checks must fail.  Keep it at
    zero outside of tests.  An offset that makes a reference non-finite is a
    DomainError, raised before any quadrature runs.
    """
    records: list[dict] = []

    def f1_ref(x):
        return specfun.f1(x) + f1_offset

    R = 1.0
    grid = np.array(GRID_X)
    with np.errstate(over="ignore", invalid="ignore"):
        b1_refs = _b1_per_f1(R, grid) * f1_ref(grid)
    if not np.isfinite(b1_refs).all():
        raise DomainError(f"f1_offset={f1_offset!r} makes a B1 reference non-finite")

    # B1/B2 at R = 1 on the grid against the closed forms, then the scale
    # invariance B1(lam*R, omega/lam) = B1(R, omega)/lam^2 at x = 1, each to
    # a relative 1e-6.  B2 vanishes at x = pi, hence its absolute floor.
    def radial(name, paper_ref, computed, reference, floor=0.0):
        passed = abs(computed - reference) <= max(floor, 1e-6 * abs(reference))
        records.append(_record(name, paper_ref, computed, reference, 1e-6, passed))

    b1_values = [b1_numeric(R, x) for x in GRID_X]
    b2_values = [b2_numeric(R, x) for x in GRID_X]
    for x, computed, reference in zip(GRID_X, b1_values, b1_refs.tolist()):
        radial(f"B1 quadrature vs closed form, x={x:g}",
               "first radial coefficient against f1 closed form", computed, reference)
    for x, computed, reference in zip(GRID_X, b2_values, b2_closed(R, grid).tolist()):
        radial(f"B2 quadrature vs closed form, x={x:g}",
               "second radial coefficient against f2 closed form", computed, reference, 1e-8)
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
    phis = np.array(BALANCE_PHIS)[:, None, None]
    sin2psi = np.array([0.0, 0.5, 1.0])[:, None]
    f1_g = np.array(b1_values) / _b1_per_f1(R, grid)
    f2_g = np.array(b2_values) / _b2_per_f2(R, grid)
    power = power_per_quantum(phis, sin2psi, f1_g, f2_g)
    # f1_offset shifts the bracket's f1, which enters it as -2 phi f1.
    rate = rates_mod.rate_bracket(grid / (1.0 + phis), phis, sin2psi) - 2.0 * phis * f1_offset
    worst = np.max(np.abs(power / rate - 1.0), axis=(1, 2))
    k_max = float(np.max(worst / np.array(BALANCE_PHIS) ** 2))
    slope = float(np.log(worst[-1] / worst[0]) / np.log(BALANCE_PHIS[-1] / BALANCE_PHIS[0]))
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
    plateaus = ((1e-4, 0.65, 1e-3), (1e3, 0.95, 5e-3))
    ratios = rates_mod.rate_bracket(np.array([x for x, _, _ in plateaus]), -0.05, 0.0)
    for (x, target, tol), ratio in zip(plateaus, ratios.tolist()):
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
    f2_half, f2_cut = _f2_closed(np.array([0.05, 0.1])).tolist()
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
    # the closed form; the literal cross term 2*R*cos does not.
    R3, om3 = 3.0, 1.0 / 3.0
    shifted = b1_numeric(R3, om3)
    literal = _radial_integral(
        R3, om3, lambda y: _mu2_moment(y * y + R3 * R3, 2.0 * R3), 2.0 * math.pi
    )
    reference = _b1_per_f1(R3, om3) * f1_ref(R3 * om3)
    ok = (
        abs(shifted - reference) <= 1e-6 * abs(reference)
        and abs(literal - reference) > 1e-2 * abs(reference)
    )
    records.append(
        _record(
            "distance-kernel reading resolution",
            "cross term of the kernel distance must carry the radial variable",
            literal,
            reference,
            1e-6,
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

    return records

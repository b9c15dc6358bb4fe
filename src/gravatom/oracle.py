"""Brute-force verification of the closed-form rates.

Everything here deliberately avoids the closed forms it checks: the radial
integrals behind the rate-correction functions are reduced analytically only
in the angular variable and then integrated numerically, the sphere
identities are checked by product quadrature, and the radiated power is
compared against the dissipation rate computed independently.

The radial integrands decay like 1/y with oscillation (conditionally
convergent), so the infinite tails are summed period by period and
accelerated by repeated averaging of the partial sums.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import rates as rates_mod
from . import specfun
from .errors import ConvergenceError, DivergenceError, DomainError
from .model import AtomSpec, GravityEnv, dimensionless_point


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy targets and budgets for the numeric oracles.

    ``max_depth`` is the number of panel doublings ``integrate_adaptive``
    may make (1, 2, 4, ... up to 2**max_depth panels) before it gives up;
    ``tail_periods`` counts half-period chunks summed for oscillatory tails;
    ``accel_order`` is the number of averaging passes applied to the partial
    sums.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_depth: int = 10
    tail_periods: int = 200
    accel_order: int = 12

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be >= 1")
        if self.tail_periods < 8:
            raise DomainError("tail_periods must be >= 8")
        if self.accel_order < 2:
            raise DomainError("accel_order must be >= 2")


# ---------------------------------------------------------------------------
# Generic quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(24)


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


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Composite Gauss-Legendre integration of ``f`` over [a, b].

    ``f`` takes an array of abscissae and returns the integrand at each.
    The panel count doubles (1, 2, 4, ...) until two successive levels agree
    to max(abs_tol, rel_tol * |value|); after ``max_depth`` doublings
    without agreement it raises ``ConvergenceError`` carrying the best
    estimate and the last difference as its error bound.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    previous = float(np.sum(_gauss_panels(f, np.array([a, b]))))
    for depth in range(1, spec.max_depth + 1):
        value = float(np.sum(_gauss_panels(f, np.linspace(a, b, 2**depth + 1))))
        err = abs(value - previous)
        if err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            return value
        previous = value
    raise ConvergenceError(
        f"adaptive quadrature did not converge on [{a}, {b}]",
        best_estimate=value,
        error_bound=err,
    )


def oscillatory_tail(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    period: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Integrate ``f`` from ``a`` to infinity for eventually oscillatory f.

    ``f`` takes and returns arrays, as for ``integrate_adaptive``.
    ``period`` is the asymptotic period of the oscillation.  The integral is
    evaluated in half-period chunks whose contributions eventually alternate
    in sign; repeated averaging of the partial sums then converges
    geometrically.  Non-decaying chunk magnitudes raise ``DivergenceError``.
    """
    if spec is None:
        spec = QuadratureSpec()
    if period <= 0.0:
        raise DomainError(f"period must be positive, got {period}")
    h = 0.5 * period
    n = spec.tail_periods
    chunks = _gauss_panels(f, a + h * np.arange(n + 1))
    mags = np.abs(chunks)
    if not np.any(mags > 0.0):
        return 0.0
    head_mag = float(np.mean(mags[: n // 4])) + spec.abs_tol
    tail_mag = float(np.mean(mags[-(n // 4) :]))
    if tail_mag >= head_mag and tail_mag > 10.0 * spec.abs_tol:
        raise DivergenceError(
            "tail contributions do not decay",
            best_estimate=float(np.sum(chunks)),
            error_bound=tail_mag,
        )
    partial = np.cumsum(chunks)
    rounds = min(spec.accel_order, len(partial) - 1)
    current = partial
    for _ in range(rounds):
        current = 0.5 * (current[:-1] + current[1:])
    return float(current[-1])


# ---------------------------------------------------------------------------
# Angular moments of the 1/|y + R| kernel
# ---------------------------------------------------------------------------

_BINOM_HALF = np.array(
    [math.prod((-0.5 - i) / (i + 1.0) for i in range(k)) for k in range(130)]
)

_SERIES_SWITCH = 0.5


def _mu2_moment(a, b):
    """integral over mu in [-1,1] of mu^2 / sqrt(a + b*mu).

    Closed antiderivative where safe, binomial series in b/a where the
    closed form cancels.
    """
    a, b = np.broadcast_arrays(a, b)
    t = b / a
    out = np.empty(a.shape)
    direct = t > _SERIES_SWITCH
    ad, bd = a[direct], b[direct]
    upper = 2.0 * np.sqrt(ad + bd) * (8.0 * ad * ad - 4.0 * ad * bd + 3.0 * bd * bd)
    lower = 2.0 * np.sqrt(ad - bd) * (8.0 * ad * ad + 4.0 * ad * bd + 3.0 * bd * bd)
    out[direct] = (upper - lower) / (15.0 * bd**3)
    asml, tsml = a[~direct], t[~direct]
    acc = np.zeros_like(asml)
    for k in range(0, 128, 2):
        term = _BINOM_HALF[k] * tsml**k * (2.0 / (k + 3))
        acc += term
        if np.all(np.abs(term) < 1e-18):
            break
    out[~direct] = acc / np.sqrt(asml)
    return out


def _mu0_moment_shifted(y, R):
    """integral of 1 / sqrt(y^2 + 2yR mu + R^2) over mu; equals 2/max(y, R)."""
    return 2.0 / np.maximum(y, R)


def _mu2_minus_iso(y, R):
    """mu^2 moment minus one third of the isotropic moment, shifted kernel.

    The k = 0 series terms cancel exactly, so the series route is
    cancellation-free; used wherever b/a is small.
    """
    a = y * y + R * R
    b = 2.0 * y * R
    t = b / a
    out = np.empty(y.shape)
    direct = t > _SERIES_SWITCH
    out[direct] = _mu2_moment(a[direct], b[direct]) - _mu0_moment_shifted(y[direct], R) / 3.0
    asml = a[~direct]
    tsml = t[~direct]
    acc = np.zeros_like(asml)
    for k in range(2, 128, 2):
        term = _BINOM_HALF[k] * tsml**k * (2.0 / (k + 3) - 2.0 / (3.0 * (k + 1)))
        acc += term
        if np.all(np.abs(term) < 1e-20):
            break
    out[~direct] = acc / np.sqrt(asml)
    return out


def _radial_product(y, omega):
    """(omega*y*cos - sin) * (cos + omega*y*sin), both at omega*y."""
    u = omega * y
    return (u * np.cos(u) - np.sin(u)) * (np.cos(u) + u * np.sin(u))


# ---------------------------------------------------------------------------
# Scalar-coefficient oracles
# ---------------------------------------------------------------------------


def b1_numeric(
    R: float, omega: float, spec: QuadratureSpec | None = None, kernel: str = "shifted"
) -> float:
    """First tensor coefficient by direct radial integration.

    The angular integral of the cos^2(theta)-weighted 1/|y + R| kernel is
    done in closed form; the remaining conditionally convergent radial
    integral is split at y = R with the accelerated oscillatory tail beyond.
    Matches -(pi*omega / 3R) * f1(R*omega).

    ``kernel`` selects the distance kernel: "shifted" uses
    sqrt(y^2 + 2*y*R*cos(theta) + R^2) = |y + R|; "literal" drops the factor
    y in the cross term (kept only to demonstrate that this reading does not
    reproduce the closed form).
    """
    if R <= 0.0 or omega <= 0.0:
        raise DomainError("R and omega must be positive")
    if spec is None:
        spec = QuadratureSpec()
    if kernel == "shifted":
        def angular(y):
            return _mu2_moment(y * y + R * R, 2.0 * y * R)
    elif kernel == "literal":
        def angular(y):
            return _mu2_moment(y * y + R * R, 2.0 * R)
    else:
        raise DomainError(f"unknown kernel {kernel!r}")

    def integrand(y):
        return 2.0 * math.pi * _radial_product(y, omega) * angular(y) / y**2

    head = integrate_adaptive(integrand, 0.0, R, spec)
    tail = oscillatory_tail(integrand, R, math.pi / omega, spec)
    return head + tail


def b2_numeric(R: float, omega: float, spec: QuadratureSpec | None = None) -> float:
    """Second tensor coefficient by direct radial integration.

    Uses the (cos^2(theta) - 1/3) angular weight; matches
    -(pi*omega / 2R^3) * f2(R*omega).
    """
    if R <= 0.0 or omega <= 0.0:
        raise DomainError("R and omega must be positive")
    if spec is None:
        spec = QuadratureSpec()

    def integrand(y):
        return (
            (3.0 * math.pi / R**2)
            * _radial_product(y, omega)
            * _mu2_minus_iso(y, R)
            / y**2
        )

    head = integrate_adaptive(integrand, 0.0, R, spec)
    tail = oscillatory_tail(integrand, R, math.pi / omega, spec)
    return head + tail


def b1_closed(R, omega):
    """Closed form -(pi*omega / 3R) * f1(R*omega); floats or arrays."""
    return -(math.pi * omega / (3.0 * R)) * specfun.f1(R * omega)


def b2_closed(R, omega):
    """Closed form -(pi*omega / 2R^3) * f2(R*omega); floats or arrays."""
    return -(math.pi * omega / (2.0 * R**3)) * specfun.f2(R * omega)


def tensor_f(R_vec: Sequence[float], omega: float) -> np.ndarray:
    """Full symmetric tensor B1*delta + B2*(R_k R_l - R^2 delta)."""
    R_vec = np.asarray(R_vec, dtype=float)
    R = float(np.linalg.norm(R_vec))
    b1 = b1_closed(R, omega)
    b2 = b2_closed(R, omega)
    eye = np.eye(3)
    return b1 * eye + b2 * (np.outer(R_vec, R_vec) - R * R * eye)


# ---------------------------------------------------------------------------
# Sphere quadrature identities
# ---------------------------------------------------------------------------

_MU_NODES, _MU_WEIGHTS = leggauss(80)
_N_PHI = 64


def _sphere_quad(g):
    """Integrate g(rhat) over the unit sphere (Gauss x trapezoid product).

    ``g`` takes an (n, 3) array of unit vectors and is called once, on the
    whole product grid.
    """
    phis = 2.0 * math.pi * np.arange(_N_PHI) / _N_PHI
    s = np.sqrt(1.0 - _MU_NODES * _MU_NODES)[:, None]
    rhat = np.stack(
        np.broadcast_arrays(s * np.cos(phis), s * np.sin(phis), _MU_NODES[:, None]),
        axis=-1,
    ).reshape(-1, 3)
    weights = np.repeat(_MU_WEIGHTS, _N_PHI) * (2.0 * math.pi / _N_PHI)
    return float(weights @ g(rhat))


def _moment_rhs(d_vec, z_vec, omega):
    """Closed form shared by the sin- and cos-weighted first moments."""
    z = float(np.linalg.norm(z_vec))
    zd = float(np.dot(z_vec, d_vec))
    u = omega * z
    shape = math.cos(u) - math.sin(u) / u
    return -4.0 * math.pi * (zd / z) * shape, u


def angular_identities_check(spec: QuadratureSpec | None = None) -> list[dict]:
    """Verify the sphere-average identities used in the power calculation.

    Checks, by product quadrature over the sphere, the quadratic moment
    of (rhat . d) and the sin/cos-weighted first moments against their
    closed forms, for several dipole/offset geometries.
    """
    if spec is None:
        spec = QuadratureSpec()
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
        base, u = _moment_rhs(d_vec, z_vec, omega)
        z = float(np.linalg.norm(z_vec))

        def weight(rhat, trig):
            phase = omega * (rhat @ z_vec - z)
            return (rhat @ d_vec) * trig(phase)

        lhs_sin = _sphere_quad(lambda rhat: weight(rhat, np.sin))
        rhs_sin = base * math.cos(u) / u
        records.append(
            _record(
                f"sphere sin-weighted moment [{i}]",
                "sin-weighted first moment of dipole projection",
                lhs_sin,
                rhs_sin,
                tol,
                abs(lhs_sin - rhs_sin) <= tol,
            )
        )
        lhs_cos = _sphere_quad(lambda rhat: weight(rhat, np.cos))
        rhs_cos = base * math.sin(u) / u
        records.append(
            _record(
                f"sphere cos-weighted moment [{i}]",
                "cos-weighted first moment of dipole projection",
                lhs_cos,
                rhs_cos,
                tol,
                abs(lhs_cos - rhs_cos) <= tol,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Radiated power and energy balance
# ---------------------------------------------------------------------------


def radiation_power(atom: AtomSpec, env: GravityEnv) -> float:
    """Time-averaged radiated power of the oscillating effective dipole.

    Pre-truncation form: the flat-space Larmor-like term carries (1 + 4 phi)
    and the correction term is evaluated at the redshifted frequency.
    """
    phi = env.phi
    omega_g = rates_mod.redshifted_frequency(atom.omega, phi)
    x_g = env.distance * omega_g
    d2 = atom.dipole_mag**2
    lead = omega_g**4 * d2 / (24.0 * math.pi)
    correction = 2.0 * specfun.f1(x_g) - 3.0 * atom.sin2psi * specfun.f2(x_g)
    return lead * (1.0 + 4.0 * phi) - lead * phi * correction


def radiation_power_truncated(atom: AtomSpec, env: GravityEnv) -> float:
    """Radiated power truncated to first order in phi.

    Per-photon energy omega_g times ``rates.rate_bracket``; in this form
    P / omega_g equals one quarter of the corrected emission rate
    identically.
    """
    point = dimensionless_point(atom, env)
    omega_g = rates_mod.redshifted_frequency(atom.omega, env.phi)
    bracket = rates_mod.rate_bracket(point.x, point.phi, point.sin2psi)
    return omega_g * atom.dipole_mag**2 * atom.omega**3 / (24.0 * math.pi) * bracket


def energy_balance_ratio(atom: AtomSpec, env: GravityEnv) -> float:
    """(P / omega_g) / gamma_g with the first-order truncated power; 1/4."""
    omega_g = rates_mod.redshifted_frequency(atom.omega, env.phi)
    point = dimensionless_point(atom, env)
    gamma = rates_mod.flat_rate(atom.dipole_mag, atom.omega)
    gamma_g = rates_mod.emission_rate(point, gamma)
    return radiation_power_truncated(atom, env) / omega_g / gamma_g


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------

GRID_X = (0.3, 0.5, 1.0, 2.0, math.pi, 5.0, 8.0)


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


def verification_report(
    spec: QuadratureSpec | None = None, f1_offset: float = 0.0
) -> list[dict]:
    """Run the full oracle suite and return one record per check.

    ``f1_offset`` is a fault-injection hook: it shifts the closed-form f1
    used as reference so the quadrature cross-checks must fail.  Keep it at
    zero outside of tests.
    """
    if spec is None:
        spec = QuadratureSpec()
    records: list[dict] = []

    def f1_ref(x):
        return specfun.f1(x) + f1_offset

    # Scalar-coefficient grid, R = 1; closed-form references in one array
    # call each.
    R = 1.0
    grid = np.array(GRID_X)
    b1_refs = (-(math.pi * grid / (3.0 * R)) * f1_ref(grid)).tolist()
    b2_refs = b2_closed(R, grid).tolist()
    for x, reference in zip(GRID_X, b1_refs):
        computed = b1_numeric(R, x, spec)
        tol = 1e-6
        passed = abs(computed - reference) <= tol * abs(reference)
        records.append(
            _record(
                f"B1 quadrature vs closed form, x={x:g}",
                "first radial coefficient against f1 closed form",
                computed,
                reference,
                tol,
                passed,
            )
        )
    for x, reference in zip(GRID_X, b2_refs):
        computed = b2_numeric(R, x, spec)
        tol = 1e-6
        passed = abs(computed - reference) <= max(1e-8, tol * abs(reference))
        records.append(
            _record(
                f"B2 quadrature vs closed form, x={x:g}",
                "second radial coefficient against f2 closed form",
                computed,
                reference,
                tol,
                passed,
            )
        )

    # Scale invariance B1(lam*R, omega/lam) = B1(R, omega)/lam^2 at x = 1.
    base = b1_numeric(1.0, 1.0, spec)
    for lam in (0.5, 2.0):
        scaled = b1_numeric(lam, 1.0 / lam, spec)
        reference = base / lam**2
        passed = abs(scaled - reference) <= 1e-6 * abs(reference)
        records.append(
            _record(
                f"B1 scale invariance, lambda={lam:g}",
                "radial coefficient scaling with (R, omega) -> (lam R, omega/lam)",
                scaled,
                reference,
                1e-6,
                passed,
            )
        )

    records.extend(angular_identities_check(spec))

    # Energy balance on random valid parameter sets.
    rng = random.Random(20240801)
    worst = 0.0
    for _ in range(20):
        atom = AtomSpec(
            omega=rng.uniform(0.1, 5.0),
            dipole_mag=rng.uniform(0.1, 3.0),
            dipole_angle=rng.uniform(0.0, math.pi),
        )
        env = GravityEnv(phi=-rng.uniform(1e-4, 0.09), distance=rng.uniform(0.1, 10.0))
        worst = max(worst, abs(energy_balance_ratio(atom, env) - 0.25))
    records.append(
        _record(
            "energy balance (P/omega_g)/gamma_g = 1/4",
            "radiated power per quantum against the corrected emission rate",
            0.25 + worst,
            0.25,
            float("inf"),
            True,
            note=(
                "informational: the ratio is 1/4 by construction, because the "
                "truncated power and gamma_g share rates.rate_bracket"
            ),
        )
    )

    # Pre-truncation power differs from gamma_g/4 at second order in phi.
    phis = np.array([-0.01, -0.02, -0.04, -0.08])
    devs = []
    for phi in phis:
        atom = AtomSpec(omega=1.3, dipole_mag=1.0, dipole_angle=0.4)
        env = GravityEnv(phi=float(phi), distance=1.1)
        omega_g = rates_mod.redshifted_frequency(atom.omega, env.phi)
        gamma_g = rates_mod.emission_rate(
            dimensionless_point(atom, env), rates_mod.flat_rate(atom.dipole_mag, atom.omega)
        )
        devs.append(abs(radiation_power(atom, env) / omega_g / gamma_g - 0.25))
    coeff = float(np.polyfit(phis**2, devs, 1)[0])
    quadratic = bool(devs[-1] < 10.0 * coeff * phis[-1] ** 2 + 1e-12)
    records.append(
        _record(
            "pre-truncation energy balance deviation ~ C*phi^2",
            "second-order remainder of the power/rate balance",
            coeff,
            0.0,
            float("inf"),
            quadratic,
            note="informational: fitted quadratic coefficient of the remainder",
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
    f2_half, f2_cut = specfun.f2_closed(np.array([0.05, 0.1])).tolist()
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
    shifted = b1_numeric(R3, om3, spec, kernel="shifted")
    literal = b1_numeric(R3, om3, spec, kernel="literal")
    reference = -(math.pi * om3 / (3.0 * R3)) * f1_ref(R3 * om3)
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
    # and at the redshifted frequency (identical to first order in phi).
    atom = AtomSpec(omega=1.0, dipole_mag=1.0, dipole_angle=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        env = GravityEnv(phi=-0.29, distance=1.0)
        point = dimensionless_point(atom, env)
        gamma = rates_mod.flat_rate(atom.dipole_mag, atom.omega)
        first_order = rates_mod.emission_rate(point, gamma)
        omega_g = rates_mod.redshifted_frequency(atom.omega, env.phi)
        pre = 4.0 * radiation_power(atom, env) / omega_g
    rel = abs(first_order - pre) / abs(pre)
    records.append(
        _record(
            "proper- vs redshifted-frequency argument of f1/f2",
            "first-order truncation difference at the largest allowed |phi|",
            rel,
            0.0,
            float("inf"),
            True,
            note="informational: relative spread of the two equivalent forms at phi=-0.29",
        )
    )

    return records

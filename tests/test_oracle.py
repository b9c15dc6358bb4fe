import math

import mpmath
import numpy as np
import pytest
from mpmath import mp

from gravatom import oracle, rates, specfun
from gravatom.errors import ConvergenceError, DivergenceError, DomainError
from gravatom.model import AtomSpec, GravityEnv
from gravatom.oracle import (
    angular_identities_check,
    b1_numeric,
    b2_closed,
    b2_numeric,
    integrate_adaptive,
    oscillatory_tail,
    power_per_quantum,
    verification_report,
)

# Frozen tail references: pi/2 - Si(2) and cos(1) - (pi/2 - Si(1)).
TAIL_SIN_OVER_Y = -0.034616650007798
TAIL_COS_OVER_Y2 = -0.084410950559574


class TestIntegrateAdaptive:
    def test_sine_half_period(self):
        assert integrate_adaptive(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_polynomial(self):
        assert integrate_adaptive(lambda y: y * y, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_sine_integral_value(self):
        def sinc(y):
            return np.sinc(y / np.pi)

        assert integrate_adaptive(sinc, 0.0, math.pi) == pytest.approx(
            1.8519370519824665, abs=1e-10
        )

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_adaptive(np.sin, 1.0, 1.0)

    def test_nonconvergent_raises(self):
        # y^-1/2 is integrable, but its singularity at 0 keeps the error of
        # each level near the square root of its panel width.
        with pytest.raises(ConvergenceError) as err:
            integrate_adaptive(lambda y: y**-0.5, 0.0, 1.0)
        assert err.value.best_estimate == pytest.approx(2.0, abs=5e-3)
        assert err.value.error_bound > oracle.REL_TOL * 2.0

    def test_one_array_call_per_level(self):
        calls = []

        def counting(f):
            def integrand(y):
                calls.append(y.shape)
                return f(y)

            return integrand

        with pytest.raises(ConvergenceError):
            integrate_adaptive(counting(lambda y: y**-0.5), 0.0, 1.0)
        assert len(calls) == oracle.MAX_DEPTH + 1
        assert all(len(shape) == 1 for shape in calls)

        calls.clear()
        integrate_adaptive(counting(lambda y: np.sin(50.0 * y) / (1e-3 + y * y)), 0.0, 1.0)
        assert 2 <= len(calls) <= oracle.MAX_DEPTH + 1


class TestOscillatoryTail:
    def test_sin_over_y(self):
        value = oscillatory_tail(lambda y: np.sin(2.0 * y) / y, 1.0, math.pi)
        assert value == pytest.approx(TAIL_SIN_OVER_Y, abs=1e-10)

    def test_cos_over_y_squared(self):
        value = oscillatory_tail(lambda y: np.cos(y) / y**2, 1.0, 2.0 * math.pi)
        assert value == pytest.approx(TAIL_COS_OVER_Y2, abs=1e-10)

    def test_zero_function(self):
        assert oscillatory_tail(lambda y: np.zeros_like(y), 1.0, 1.0) == 0.0

    def test_divergent_raises(self):
        with pytest.raises(DivergenceError):
            oscillatory_tail(lambda y: np.sin(y) * y, 1.0, math.pi)

    def test_bad_period(self):
        with pytest.raises(DomainError):
            oscillatory_tail(lambda y: np.sin(y), 1.0, 0.0)

    def test_single_array_call(self):
        calls = []

        def counting(y):
            calls.append(y.size)
            return np.sin(2.0 * y) / y

        value = oscillatory_tail(counting, 1.0, math.pi)
        assert value == pytest.approx(TAIL_SIN_OVER_Y, abs=1e-10)
        assert len(calls) == 1
        assert calls[0] == 24 * oracle.TAIL_PERIODS


class TestB1:
    def test_unit_point(self):
        expected = -(math.pi / 3.0) * specfun.f1(1.0)
        assert b1_numeric(1.0, 1.0) == pytest.approx(expected, rel=1e-8)

    def test_scaled_point(self):
        # (R, omega) = (2, 1/2) shares x = 1 and scales as 1/R^2
        assert b1_numeric(2.0, 0.5) == pytest.approx(b1_numeric(1.0, 1.0) / 4.0, rel=1e-8)

    def test_small_frequency(self):
        omega = 1e-3
        expected = -(math.pi * omega / 3.0) * specfun.f1(omega)
        assert b1_numeric(1.0, omega) == pytest.approx(expected, rel=1e-4)

    def test_grid_agreement(self):
        for x in oracle.GRID_X:
            num = b1_numeric(1.0, x)
            closed = -(math.pi * x / 3.0) * specfun.f1(x)
            assert abs(num - closed) <= 1e-6 * abs(closed)

    def test_literal_kernel_disagrees(self, report):
        # -(pi omega / 3R) f1(R omega) at R = 3, omega = 1/3.
        closed = -(math.pi / 27.0) * specfun.f1(1.0)
        literal = _kernel_record(report)["computed"]
        assert abs(literal - closed) > 1e-2 * abs(closed)

    def test_domain(self):
        with pytest.raises(DomainError):
            b1_numeric(-1.0, 1.0)
        with pytest.raises(DomainError):
            b1_numeric(0.0, 1.0)


class TestB2:
    def test_vanishes_at_pi(self):
        assert b2_numeric(1.0, math.pi) == pytest.approx(0.0, abs=1e-8)

    def test_reference_point(self):
        expected = -(math.pi) * specfun.f2(2.0)
        assert b2_numeric(1.0, 2.0) == pytest.approx(expected, rel=1e-8)

    def test_grid_agreement(self):
        for x in oracle.GRID_X:
            num = b2_numeric(1.0, x)
            closed = b2_closed(1.0, x)
            assert abs(num - closed) <= max(1e-8, 1e-6 * abs(closed))

    def test_domain(self):
        with pytest.raises(DomainError):
            b2_numeric(1.0, -1.0)
        # R = 0 is refused before the 1/R^2 prefactor is formed, and so are
        # non-finite R and omega.
        for R, omega in ((0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                         (1.0, math.inf)):
            with pytest.raises(DomainError):
                b2_numeric(R, omega)


def _mp_f1(x):
    x = mp.mpf(x)
    x2 = x * x
    return (
        1 + x2 * (mp.pi * x + 3) - (1 + x2) * mp.cos(2 * x)
        - 2 * x * mp.sin(2 * x) - 2 * x * x2 * mp.si(2 * x)
    ) / x2


def _mp_f2(x):
    x = mp.mpf(x)
    return (1 - x * mp.sin(2 * x) - mp.cos(2 * x)) / (x * x)


# B1(3, 1/3) with the literal kernel (cross term 2*R*cos, not 2*y*R*cos), the
# value of the distance-kernel record, frozen from mpmath.quad on [0, 3] plus
# mpmath.quadosc on [3, inf) of the same integrand at 50 significant digits.
LITERAL_KERNEL_B1 = -0.23780093320113677


class TestAgainstMpmath:
    """Oracle quadratures against 40-digit mpmath closed forms."""

    def test_b1_grid(self):
        with mp.workdps(40):
            for x in oracle.GRID_X:
                ref = float(-(mp.pi * x / 3) * _mp_f1(x))
                assert b1_numeric(1.0, x) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_b2_grid(self):
        # B2 vanishes at x = pi, so its error is measured against a 1e-2 floor.
        with mp.workdps(40):
            for x in oracle.GRID_X:
                ref = float(-(mp.pi * x / 2) * _mp_f2(x))
                assert abs(b2_numeric(1.0, x) - ref) <= 1e-12 * max(abs(ref), 1e-2)

    def test_literal_kernel_value(self, report):
        literal = _kernel_record(report)["computed"]
        assert literal == pytest.approx(LITERAL_KERNEL_B1, rel=1e-12, abs=0.0)


# Offsets y, in units of R: from far inside to far outside the sphere r = R,
# with y = 0.999 R where the kernel nearly touches zero at mu = -1.
MOMENT_YS = (1e-8, 1e-4, 0.01, 0.1, 0.267949, 0.2679492, 0.5, 0.9, 0.999, 1.0,
             2.0, 3.73, 3.74, 10.0, 100.0, 1e4)


def _mp_moment(a, b, weight):
    """40-digit integral of weight(mu) / sqrt(a + b mu) over [-1, 1] at floats a, b."""
    a, b = mp.mpf(a), mp.mpf(b)
    return mp.quad(lambda mu: weight(mu) / mp.sqrt(a + b * mu), [-1, 0, 1])


def _mp_shifted_moment(y, R, weight):
    """40-digit integral of weight(mu) / sqrt(y^2 + 2yR mu + R^2) over [-1, 1] at floats y, R."""
    y, R = mp.mpf(y), mp.mpf(R)
    return mp.quad(lambda mu: weight(mu) / mp.sqrt(y * y + 2 * y * R * mu + R * R), [-1, 0, 1])


class TestAngularMoments:
    """The angular moments of the distance kernel against mpmath.quad.

    The literal-kernel moment takes a and b, so its reference takes the same
    rounded a = y^2 + R^2 and b = 2yR.  The shifted-kernel moments take y and
    R, and so do their references: rounding a and b first would move the
    reference by up to 1e-13 near y = R.
    """

    def test_mu2_moment(self):
        y = np.array(MOMENT_YS)
        a, b = y * y + 1.0, 2.0 * y
        values = oracle._mu2_moment(a, b)
        with mp.workdps(40):
            for ai, bi, value in zip(a.tolist(), b.tolist(), values.tolist()):
                ref = _mp_moment(ai, bi, lambda mu: mu * mu)
                assert abs(value - ref) <= 5e-15 * abs(ref)

    @staticmethod
    def _check_shifted(moment, weight):
        for R in (1.0, 3.0):
            y = R * np.array(MOMENT_YS)
            values = moment(y, R)
            with mp.workdps(40):
                for yi, value in zip(y.tolist(), values.tolist()):
                    ref = _mp_shifted_moment(yi, R, weight)
                    assert abs(value - ref) <= 1e-15 * abs(ref), (R, yi)

    def test_mu2_minus_iso(self):
        self._check_shifted(oracle._mu2_minus_iso, lambda mu: mu * mu - mp.mpf(1) / 3)

    def test_mu2_shifted(self):
        self._check_shifted(oracle._mu2_shifted, lambda mu: mu * mu)


class TestGaussLegendre:
    """The in-module Gauss-Legendre rules."""

    @pytest.mark.parametrize("n", [24, 80])
    def test_against_mpmath(self, n):
        nodes, weights = oracle._gauss_legendre(n)
        with mp.workdps(40):
            ref_nodes, ref_weights = mpmath.gauss_quadrature(n, "legendre")
            ref_nodes = np.array([float(v) for v in ref_nodes])
            ref_weights = np.array([float(v) for v in ref_weights])
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
        assert np.max(np.abs(weights - ref_weights)) <= 1e-15

    @pytest.mark.parametrize("n", [24, 80])
    def test_against_leggauss(self, n):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = oracle._gauss_legendre(n)
        ref_nodes, ref_weights = leggauss(n)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
        # leggauss's own weights lie up to 1.5e-15 from the 40-digit rule
        # (1.3e-15 from this one), hence the wider bound here only.
        assert np.max(np.abs(weights - ref_weights)) <= 2e-15

    @pytest.mark.parametrize("n", [24, 80])
    def test_monomials_are_exact(self, n):
        nodes, weights = oracle._gauss_legendre(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ nodes**k - exact) <= 1e-15, k

    def test_node_counts(self):
        # 24-point radial panels and the 80 x 64 sphere grid, built once.
        assert oracle._GL_NODES.shape == oracle._GL_WEIGHTS.shape == (24,)
        assert oracle._SPHERE_RHAT.shape == (80 * 64, 3)
        assert np.allclose(np.linalg.norm(oracle._SPHERE_RHAT, axis=1), 1.0, rtol=0, atol=1e-15)
        assert oracle._SPHERE_WEIGHTS.sum() == pytest.approx(4.0 * math.pi, rel=1e-15)


class TestAngularIdentities:
    def test_all_pass(self):
        records = angular_identities_check()
        assert len(records) == 10
        assert all(r["pass"] for r in records)


class TestRadiationPower:
    """The radiated power per quantum, 4 P / (omega_g gamma), against the rate ratio."""

    @staticmethod
    def balance(atom, env):
        # (P / omega_g) / (gamma_g / 4): the power at the redshifted argument
        # over the rate ratio gamma_g / gamma.
        rs = rates.build_rate_set(atom, env)
        x_g = env.distance * rs.omega_g
        power = power_per_quantum(env.phi, atom.sin2psi, specfun.f1(x_g), specfun.f2(x_g))
        return power / (rs.gamma_g / rs.gamma_flat)

    def test_balance_holds_to_second_order(self):
        # (P / omega_g) / (gamma_g / 4) = 1 + O(phi^2), with phi^2 = 3.6e-3
        atom = AtomSpec(omega=1.3, dipole_mag=0.7, dipole_angle=0.9)
        env = GravityEnv(phi=-0.06, distance=2.2)
        assert 1e-4 < abs(self.balance(atom, env) - 1.0) <= 10.0 * env.phi**2

    def test_pre_truncation_second_order(self):
        # the untruncated balance deviates from 1 only at O(phi^2)
        atom = AtomSpec(omega=1.0, dipole_mag=1.0)
        devs = [abs(self.balance(atom, GravityEnv(phi=phi, distance=1.0)) - 1.0)
                for phi in (-0.01, -0.02)]
        assert devs[1] / devs[0] == pytest.approx(4.0, rel=0.2)


class TestSelfConsistency:
    def test_tighter_tolerances_agree(self, monkeypatch):
        default = b1_numeric(1.0, 2.0)
        monkeypatch.setattr(oracle, "ABS_TOL", 5e-11)
        monkeypatch.setattr(oracle, "REL_TOL", 5e-10)
        monkeypatch.setattr(oracle, "TAIL_PERIODS", 300)
        tight = b1_numeric(1.0, 2.0)
        assert tight == pytest.approx(default, rel=1e-9)


def _balance_record(records):
    (rec,) = [r for r in records if r["name"].startswith("energy balance")]
    return rec


def _kernel_record(records):
    (rec,) = [r for r in records if r["name"] == "distance-kernel reading resolution"]
    return rec


@pytest.fixture(scope="module")
def report():
    return verification_report()


class TestVerificationReport:
    def test_schema(self, report):
        for rec in report:
            for key in ("name", "paper_ref", "computed", "reference", "tolerance", "pass"):
                assert key in rec
            assert isinstance(rec["pass"], bool)

    def test_all_pass(self, report):
        failing = [r["name"] for r in report if not r["pass"]]
        assert failing == []

    def test_energy_balance_is_a_check(self, report):
        (rec,) = [r for r in report if r["name"].startswith("energy balance")]
        assert rec["tolerance"] == oracle.BALANCE_K
        assert rec["computed"] <= oracle.BALANCE_K and rec["pass"] is True
        assert not rec["note"].startswith("informational:")

    @pytest.mark.parametrize(
        "coefficients, passes",
        [
            ((7.0, -2.0, 3.0), True),
            ((7.07, -2.0, 3.0), False),
            ((7.0, -2.02, 3.0), False),
            ((7.0, -2.0, 2.97), False),
        ],
        ids=["exact", "7", "-2 f1", "3 sin2psi f2"],
    )
    def test_energy_balance_catches_a_wrong_bracket_coefficient(
        self, monkeypatch, coefficients, passes
    ):
        # rate_bracket with each coefficient in turn off by 1%.
        c_phi, c_f1, c_f2 = coefficients

        def bracket(x, phi, sin2psi):
            return (
                1.0 + c_phi * phi + c_f1 * phi * specfun.f1(x)
                + c_f2 * phi * sin2psi * specfun.f2(x)
            )

        monkeypatch.setattr(rates, "rate_bracket", bracket)
        assert _balance_record(verification_report())["pass"] is passes

    def test_energy_balance_fails_under_fault_injection(self):
        assert not _balance_record(verification_report(f1_offset=1e-3))["pass"]

    def test_fault_injection_fails(self):
        bad = verification_report(f1_offset=0.05)
        b1_checks = [r for r in bad if r["name"].startswith("B1 quadrature")]
        assert b1_checks and not any(r["pass"] for r in b1_checks)

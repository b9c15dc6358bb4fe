import itertools
import math

import mpmath
import numpy as np
import pytest
from mpmath import mp

from gravatom import oracle, rates, specfun
from gravatom.errors import ConvergenceError, DivergenceError, DomainError, RegimeError
from gravatom.model import AtomSpec, GravityEnv
from gravatom.oracle import (
    b1_numeric,
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
        assert integrate_adaptive(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_polynomial(self):
        assert integrate_adaptive(lambda y: y * y, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_sine_integral_value(self):
        def sinc(y):
            return math.sin(y) / y  # no Gauss node is a panel endpoint, so y > 0

        assert integrate_adaptive(sinc, 0.0, math.pi) == pytest.approx(
            1.8519370519824665, abs=1e-10
        )

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_adaptive(math.sin, 1.0, 1.0)

    def test_nonconvergent_raises(self):
        # y^-1/2 is integrable, but its singularity at 0 keeps the error of
        # each level near the square root of its panel width.
        with pytest.raises(ConvergenceError) as err:
            integrate_adaptive(lambda y: y**-0.5, 0.0, 1.0)
        assert err.value.best_estimate == pytest.approx(2.0, abs=5e-3)
        assert err.value.error_bound > oracle.REL_TOL * 2.0

    def test_one_float_call_per_node_and_level(self):
        # Level d has 2**d panels of 24 nodes; levels 0 .. L-1 cost 24 (2**L - 1).
        calls = []

        def counting(f):
            def integrand(y):
                calls.append(type(y))
                return f(y)

            return integrand

        with pytest.raises(ConvergenceError):
            integrate_adaptive(counting(lambda y: y**-0.5), 0.0, 1.0)
        assert len(calls) == 24 * (2 ** (oracle.MAX_DEPTH + 1) - 1)
        assert set(calls) == {float}

        calls.clear()
        integrate_adaptive(counting(lambda y: math.sin(50.0 * y) / (1e-3 + y * y)), 0.0, 1.0)
        levels = (len(calls) // 24 + 1).bit_length() - 1
        assert len(calls) == 24 * (2**levels - 1)
        assert 2 <= levels <= oracle.MAX_DEPTH + 1


class TestOscillatoryTail:
    def test_sin_over_y(self):
        value = oscillatory_tail(lambda y: math.sin(2.0 * y) / y, 1.0, math.pi)
        assert value == pytest.approx(TAIL_SIN_OVER_Y, abs=1e-10)

    def test_cos_over_y_squared(self):
        value = oscillatory_tail(lambda y: math.cos(y) / y**2, 1.0, 2.0 * math.pi)
        assert value == pytest.approx(TAIL_COS_OVER_Y2, abs=1e-10)

    def test_zero_function(self):
        assert oscillatory_tail(lambda y: 0.0, 1.0, 1.0) == 0.0

    def test_divergent_raises(self):
        with pytest.raises(DivergenceError):
            oscillatory_tail(lambda y: math.sin(y) * y, 1.0, math.pi)

    def test_bad_period(self):
        with pytest.raises(DomainError):
            oscillatory_tail(math.sin, 1.0, 0.0)

    def test_one_float_call_per_node(self):
        calls = []

        def counting(y):
            calls.append(type(y))
            return math.sin(2.0 * y) / y

        value = oscillatory_tail(counting, 1.0, math.pi)
        assert value == pytest.approx(TAIL_SIN_OVER_Y, abs=1e-10)
        # 24 nodes per half-period, and the half-period count doubles from 16.
        half_periods, rest = divmod(len(calls), 24)
        assert rest == 0
        assert 16 <= half_periods <= oracle.TAIL_PERIODS
        assert half_periods & (half_periods - 1) == 0
        assert set(calls) == {float}

    def test_zero_chunk_sums_plainly(self):
        # 1/y^2 on [1, 3), 0 beyond: every chunk after the second is exactly
        # 0, which the transform's weights would divide by.
        value = oscillatory_tail(lambda y: 1.0 / (y * y) if y < 3.0 else 0.0, 1.0, 2.0)
        assert value == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_cap_raises_with_a_bound_that_holds(self, monkeypatch):
        # Tolerances below rounding cannot be met; at the cap the error bound,
        # |A(n) - A(n/2)| plus the chunks' rounding floor, must still cover
        # the true error of the estimate: at 32 half-periods |A(32) - A(16)|
        # is 3.3e-16, the error against pi/2 - Si(2) 1.3e-15.
        monkeypatch.setattr(oracle, "TAIL_PERIODS", 32)
        monkeypatch.setattr(oracle, "ABS_TOL", 1e-17)
        monkeypatch.setattr(oracle, "REL_TOL", 1e-17)
        with pytest.raises(ConvergenceError) as err:
            oscillatory_tail(lambda y: math.sin(2.0 * y) / y, 1.0, math.pi)
        with mp.workdps(40):
            true = mp.pi / 2 - mp.si(2)
            assert err.value.error_bound >= abs(err.value.best_estimate - true)

    def test_levin_t_of_sixteen_chunks(self):
        # The first 16 half-periods of the tail of sin(2y)/y from 1.
        edges = [1.0 + 0.5 * math.pi * i for i in range(17)]
        value = oracle._levin_t(oracle._gauss_panels(lambda y: math.sin(2.0 * y) / y, edges))
        with mp.workdps(40):
            assert abs(value - (mp.pi / 2 - mp.si(2))) <= 2e-15


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

    def test_literal_kernel_disagrees(self, literal_kernel_b1):
        # -(pi omega / 3R) f1(R omega) at R = 3, omega = 1/3.
        closed = -(math.pi / 27.0) * specfun.f1(1.0)
        literal = literal_kernel_b1(3.0, 1.0 / 3.0)
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
            closed = -(math.pi * x / 2.0) * specfun.f2(x)
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
# reading the distance-kernel record's note rules out, frozen from
# mpmath.quad on [0, 3] plus mpmath.quadosc on [3, inf) of the same
# integrand at 50 significant digits.
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

    def test_literal_kernel_value(self, literal_kernel_b1):
        literal = literal_kernel_b1(3.0, 1.0 / 3.0)
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


# Angular moments of the 1/|y + R| kernel.  The radial integrands of
# ``oracle`` write these forms inline, as they run once per node; these
# functions are the references they are held to.


def _mu2_minus_iso(y, R):
    """integral over mu of (mu^2 - 1/3) / sqrt(y^2 + 2yR mu + R^2).

    In the multipole expansion 1/|y + R| = sum_l r<^l / r>^(l+1) P_l(mu)
    (Jackson, Classical Electrodynamics, 3rd ed., sec. 3.6), with
    r< = min(y, R) and r> = max(y, R), only l = 2 survives, as
    mu^2 - 1/3 = (2/3) P_2: (4/15) r<^2 / r>^3.
    """
    near, far = min(y, R), max(y, R)
    return (4.0 / 15.0) * near * near / far**3


def _mu2_shifted(y, R):
    """integral over mu of mu^2 / sqrt(y^2 + 2yR mu + R^2).

    As mu^2 = P_0 / 3 + (2/3) P_2: the l = 0 term 2 / (3 r>) plus the l = 2
    term ``_mu2_minus_iso``.
    """
    return 2.0 / (3.0 * max(y, R)) + _mu2_minus_iso(y, R)


class TestAngularMoments:
    """The angular moments of the distance kernel against mpmath.quad.

    The literal-kernel moment (``conftest._mu2_moment``) takes a and b, so
    its reference takes the same rounded a = y^2 + R^2 and b = 2yR.  The
    shifted-kernel moments take y and R, and so do their references:
    rounding a and b first would move the reference by up to 1e-13 near
    y = R.
    """

    def test_mu2_moment(self, mu2_moment):
        with mp.workdps(40):
            for y in MOMENT_YS:
                a, b = y * y + 1.0, 2.0 * y
                ref = _mp_moment(a, b, lambda mu: mu * mu)
                assert abs(mu2_moment(a, b) - ref) <= 5e-15 * abs(ref)

    @staticmethod
    def _check_shifted(moment, weight):
        for R in (1.0, 3.0):
            with mp.workdps(40):
                for y in MOMENT_YS:
                    y *= R
                    ref = _mp_shifted_moment(y, R, weight)
                    assert abs(moment(y, R) - ref) <= 1e-15 * abs(ref), (R, y)

    def test_mu2_minus_iso(self):
        self._check_shifted(_mu2_minus_iso, lambda mu: mu * mu - mp.mpf(1) / 3)

    def test_mu2_shifted(self):
        self._check_shifted(_mu2_shifted, lambda mu: mu * mu)

    @pytest.mark.parametrize("R, omega", [(1.0, 0.3), (1.0, 5.0), (2.0, 0.5), (3.0, 1.0 / 3.0)])
    def test_radial_integrands_are_these_moments(self, R, omega, radial_product):
        # The radial integrands write the moments inline; the same head and
        # tail over integrands built from the reference functions agree.
        def integral(weight, prefactor):
            def integrand(y):
                return prefactor * radial_product(y, omega) * weight(y) / (y * y)

            return (integrate_adaptive(integrand, 0.0, R)
                    + oscillatory_tail(integrand, R, math.pi / omega))

        b1 = integral(lambda y: _mu2_shifted(y, R), 2.0 * math.pi)
        b2 = integral(lambda y: _mu2_minus_iso(y, R), 3.0 * math.pi / R**2)
        assert b1_numeric(R, omega) == pytest.approx(b1, rel=1e-14, abs=0.0)
        assert b2_numeric(R, omega) == pytest.approx(b2, rel=1e-14, abs=0.0)


class TestGaussLegendre:
    """The in-module Gauss-Legendre rules, as arrays here."""

    @staticmethod
    def _rule(n):
        return tuple(np.array(v) for v in oracle._gauss_legendre(n))

    @pytest.mark.parametrize("n", [16, 24, 80])
    def test_against_mpmath(self, n):
        nodes, weights = self._rule(n)
        with mp.workdps(40):
            ref_nodes, ref_weights = mpmath.gauss_quadrature(n, "legendre")
            ref_nodes = np.array([float(v) for v in ref_nodes])
            ref_weights = np.array([float(v) for v in ref_weights])
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
        assert np.max(np.abs(weights - ref_weights)) <= 1e-15

    @pytest.mark.parametrize("n", [16, 24, 80])
    def test_against_leggauss(self, n):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = self._rule(n)
        ref_nodes, ref_weights = leggauss(n)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
        # leggauss's own weights lie up to 1.5e-15 from the 40-digit rule
        # (1.3e-15 from this one), hence the wider bound here only.
        assert np.max(np.abs(weights - ref_weights)) <= 2e-15

    @pytest.mark.parametrize("n", [24, 80])
    def test_monomials_are_exact(self, n):
        nodes, weights = self._rule(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ nodes**k - exact) <= 1e-15, k

    def test_node_counts(self):
        # 24-point radial panels, built once.
        assert len(oracle._GL_NODES) == len(oracle._GL_WEIGHTS) == 24


def _octahedron_quad(a, b, c):
    """The octahedron rule on the monomial x^a y^b z^c."""
    return sum(w * x**a * y**b * z**c for (x, y, z), w in oracle._OCTAHEDRON)


def _sphere_monomial(a, b, c):
    """Integral of x^a y^b z^c over the unit sphere: 0 unless a, b, c are
    all even, else 2 G((a+1)/2) G((b+1)/2) G((c+1)/2) / G((a+b+c+3)/2)."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    g = math.gamma
    return 2.0 * g((a + 1) / 2) * g((b + 1) / 2) * g((c + 1) / 2) / g((a + b + c + 3) / 2)


class TestFlatRate:
    def test_octahedron_rule_is_exact_to_degree_three(self):
        # Every monomial of degree <= 3, the mode sum's quadratic included;
        # x^4 it misses (4 pi / 3 for 4 pi / 5), so only a quadratic
        # integrand may use the rule.
        degrees = [p for p in itertools.product(range(4), repeat=3) if sum(p) <= 3]
        assert len(degrees) == 20
        for a, b, c in degrees:
            exact = _sphere_monomial(a, b, c)
            assert _octahedron_quad(a, b, c) == pytest.approx(exact, rel=1e-15, abs=0.0), (a, b, c)
        assert _sphere_monomial(4, 0, 0) == pytest.approx(4.0 * math.pi / 5.0, rel=1e-15)
        assert _octahedron_quad(4, 0, 0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_only_the_flat_rate_record_catches_a_prefactor_fault(self, monkeypatch):
        # flat_rate x (1 + 1e-6): the detailed-balance record is a ratio of
        # two rates built from it, so the fault cancels there.
        flat_rate = rates.flat_rate
        monkeypatch.setattr(rates, "flat_rate", lambda d, omega: flat_rate(d, omega) * (1.0 + 1e-6))
        failing = [r for r in verification_report() if not r["pass"]]
        assert [r["name"] for r in failing] == ["flat rate d^2 Omega^3/(6 pi) against the mode sum"]
        (rec,) = failing
        assert rec["tolerance"] == 1e-12 * abs(rec["reference"])
        assert abs(rec["computed"] / rec["reference"] - 1.0) == pytest.approx(1e-6, rel=1e-6)


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
        tight = b1_numeric(1.0, 2.0)
        assert tight == pytest.approx(default, rel=1e-9)


def _balance_records(records):
    """The energy balance's K and slope records."""
    recs = [r for r in records if r["name"].startswith("energy balance")]
    assert len(recs) == 2
    return recs


def _obeys_printed_rule(rec):
    """Whether ``pass`` is |computed - reference| <= tolerance, read off the record."""
    computed = rec["computed"]
    return rec["pass"] is (
        computed is not None and abs(computed - rec["reference"]) <= rec["tolerance"]
    )


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
        # K against its bound, then the deviation's slope against 2 in
        # log |phi|: both are checks, with a tolerance and no note.
        k_rec, slope_rec = _balance_records(report)
        assert (k_rec["reference"], k_rec["tolerance"]) == (0.0, oracle.BALANCE_K)
        assert k_rec["computed"] <= oracle.BALANCE_K and k_rec["pass"] is True
        assert slope_rec["name"] == "energy balance slope of log |deviation| against log |phi|"
        assert (slope_rec["reference"], slope_rec["tolerance"]) == (2.0, 0.1)
        assert abs(slope_rec["computed"] - 2.0) <= 0.1 and slope_rec["pass"] is True
        assert "note" not in k_rec and "note" not in slope_rec

    def test_every_record_obeys_the_printed_rule(self, report, shift_f1):
        # pass is |computed - reference| <= tolerance, and a record with null
        # numbers fails, on the clean report and a faulty one.
        assert all(_obeys_printed_rule(r) for r in report)
        shift_f1(0.05)
        faulty = verification_report()
        assert not all(r["pass"] for r in faulty)
        assert all(_obeys_printed_rule(r) for r in faulty)

    @pytest.mark.parametrize(
        "numbers", [(math.nan, 0.0, None), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf)],
        ids=["informational-nan", "inf-reference", "inf-tolerance"],
    )
    def test_a_non_finite_record_fails_and_prints_null(self, numbers):
        # Null numbers keep the report strict JSON; the values go to the note.
        rec = oracle._record("r", "ref", *numbers, note="n")
        assert (rec["computed"], rec["reference"], rec["tolerance"], rec["pass"]) == (
            None, None, None, False)
        computed, reference, tolerance = numbers
        assert rec["note"] == (f"non-finite: computed {computed!r}, reference {reference!r}, "
                               f"tolerance {tolerance!r}; n")
        assert _obeys_printed_rule(rec)

    def test_worst_is_nan_wherever_a_nan_stands(self):
        assert max([1.0, math.nan, 2.0]) == 2.0  # max keeps a NaN only when it comes first
        assert oracle._worst([1.0, 3.0, 2.0]) == 3.0
        for values in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]):
            assert math.isnan(oracle._worst(values)), values
        pairs = [(1.0, 2.0), (math.nan, 1.0), (3.0, 1.0)]
        assert oracle._worst(pairs, key=lambda pair: abs(pair[0] - pair[1])) is pairs[1]

    def test_redshift_record_measures_the_second_order_term(self, report):
        # (1 + phi) - sqrt(1 + 2 phi) = phi^2 / 2 - phi^3 / 2 + O(phi^4): K is
        # 0.5 - phi / 2 at the largest |phi| of BALANCE_PHIS.
        (rec,) = [r for r in report if r["name"].startswith("redshift")]
        phi = min(oracle.BALANCE_PHIS)
        assert rec["computed"] == pytest.approx(0.5 - phi / 2, rel=1e-3)
        assert rec["tolerance"] == 1.0 and rec["pass"] is True

    def test_redshift_record_catches_omega_g_over_omega(self, monkeypatch):
        # omega_g = (1 + phi) / omega agrees with (1 + phi) omega at omega = 1
        # only; the record takes its splitting at omega = 1.7.
        build = rates.build_rate_set

        def faulty(atom, env, temperature=0.0):
            rs = build(atom, env, temperature)
            fields = [getattr(rs, name) for name in rates.RateSet._fields]
            return rates.RateSet(rs.omega_g / atom.omega**2, *fields[1:])

        monkeypatch.setattr(rates, "build_rate_set", faulty)
        (rec,) = [r for r in verification_report() if r["name"].startswith("redshift")]
        assert rec["pass"] is False

    def test_b2_record_at_r_3_catches_a_wrong_power_of_r(self, monkeypatch):
        # B2 with 3 pi / R^3 for 3 pi / R^2: the grid, at R = 1, cannot tell.
        monkeypatch.setattr(oracle, "b2_numeric", lambda R, omega: oracle._radial_integral(
            R, omega, 3.0 * math.pi, r_power=3))
        failing = [r for r in verification_report() if not r["pass"]]
        assert [r["name"] for r in failing] == [
            "B2 scaling in R, quadrature at R=3, omega=1/3 vs closed form"]
        (rec,) = failing
        assert rec["tolerance"] == oracle.B2_ABS_FLOOR
        assert rec["computed"] == pytest.approx(rec["reference"] / 3.0, rel=1e-12)

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
        assert [r["pass"] for r in _balance_records(verification_report())] == [passes] * 2

    def test_plateau_records_catch_the_bracket_7_off_by_1e_3(self, monkeypatch):
        # 7.007 phi moves the ratio by 3.5e-4: it misses 0.65 by 3.2e-4
        # against 6.3e-5 at x = 1e-4, and 0.95 by 4.9e-4 against 3.0e-4 at
        # x = 1e3, twice the bounds on the omitted -2 phi f1 terms.
        def bracket(x, phi, sin2psi):
            return (1.0 + 7.007 * phi - 2.0 * phi * specfun.f1(x)
                    + 3.0 * phi * sin2psi * specfun.f2(x))

        monkeypatch.setattr(rates, "rate_bracket", bracket)
        plateaus = [r for r in verification_report() if r["name"].startswith("rate-ratio plateau")]
        assert [r["pass"] for r in plateaus] == [False, False]
        assert [r["tolerance"] for r in plateaus] == pytest.approx([2e-1 * math.pi * 1e-4, 3e-4])

    def test_energy_balance_fails_under_fault_injection(self, shift_f1):
        shift_f1(1e-3)
        assert not any(r["pass"] for r in _balance_records(verification_report()))

    def test_energy_balance_catches_sin2psi_read_as_cos2psi(self, monkeypatch):
        # The rate side reads AtomSpec.sin2psi through build_rate_set; the
        # power side builds sin^2(psi) from the dipole vector, so the two
        # part at psi = 0 and pi/2 by an O(phi) deviation.
        monkeypatch.setattr(AtomSpec, "sin2psi",
                            property(lambda self: math.cos(self.dipole_angle) ** 2))
        assert not any(r["pass"] for r in _balance_records(verification_report()))

    def test_f2_record_catches_f2_off_by_1e_6(self, monkeypatch):
        # f2 / x^2 at x = 1e-4 meets 2/3 to 1.8e-9, against 6.7e-9.
        f2 = specfun.f2
        monkeypatch.setattr(specfun, "f2", lambda x: f2(x) * (1.0 + 1e-6))
        (rec,) = [r for r in verification_report()
                  if r["name"] == "f2 small-x coefficient resolution"]
        assert rec["pass"] is False
        assert rec["tolerance"] == pytest.approx(1e-8 * 2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize(
        "exc",
        [RegimeError("first-order rate bracket is negative"), ZeroDivisionError("float division")],
        ids=["regime", "zero-division"],
    )
    def test_error_in_a_closed_form_fails_the_report(self, report, raise_in_bracket, exc):
        # Each check that calls the bracket becomes one failing record that
        # names it and carries the error; the other checks' records are the
        # clean report's, and the report itself does not raise.
        raise_in_bracket(exc)
        faulty = verification_report()
        aborted = [f"{check} aborted by an error" for check in (
            "energy balance", "rate-ratio plateaus", "detailed balance", "redshift",
        )]
        assert [r["name"] for r in faulty] == [
            *(r["name"] for r in report[:15]), *aborted[:2], "f2 small-x coefficient resolution",
            "distance-kernel reading resolution",
            "B2 scaling in R, quadrature at R=3, omega=1/3 vs closed form", *aborted[2:],
        ]
        assert faulty[:15] == report[:15]  # the 14 radial records and the flat-rate record
        clean = {r["name"]: r for r in report}
        for rec in faulty[15:]:
            if rec["name"] in aborted:
                assert (rec["computed"], rec["pass"]) == (None, False)
                assert rec["note"] == f"{type(exc).__name__}: {exc}"
            else:
                assert rec == clean[rec["name"]]

    def test_fault_injection_fails(self, shift_f1):
        shift_f1(0.05)
        bad = verification_report()
        b1_checks = [r for r in bad if r["name"].startswith("B1 quadrature")]
        assert b1_checks and not any(r["pass"] for r in b1_checks)

    def test_b1_records_catch_f1_wrong_in_the_ninth_digit(self, shift_f1):
        # The B1 records allow a relative 1e-10; |f1| < 3.1 on the grid.
        shift_f1(1e-9)
        b1_checks = [r for r in verification_report() if r["name"].startswith("B1 quadrature")]
        assert len(b1_checks) == len(oracle.GRID_X)
        assert not any(r["pass"] for r in b1_checks)
        for r in b1_checks:
            assert r["tolerance"] == oracle.RADIAL_REL_TOL * abs(r["reference"])

    def test_grid_reaches_every_piece_of_f1(self):
        # A B1 record on each piece below the flat cut, so no branch of f1
        # goes unchecked; beyond the cut f1 is 3.0.
        ends = [0.0] + [upper for upper, _ in specfun._F1_PIECES if upper <= specfun._F1_FLAT_CUT]
        for lower, upper in zip(ends, ends[1:]):
            assert any(lower < x <= upper for x in oracle.GRID_X), f"no GRID_X in ({lower}, {upper}]"

    def test_integrand_calls_stay_bounded(self, monkeypatch):
        # Tails extrapolated by Levin's t-transform stop at 16 or 32
        # half-periods, so a report takes 9,984 integrand calls.
        calls = 0
        gauss_panels = oracle._gauss_panels

        def counting(f, edges):
            def integrand(y):
                nonlocal calls
                calls += 1
                return f(y)

            return gauss_panels(integrand, edges)

        monkeypatch.setattr(oracle, "_gauss_panels", counting)
        assert all(r["pass"] for r in verification_report())
        assert calls == 9_984

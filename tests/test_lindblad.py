import math
import random

import numpy as np
import pytest
from mpmath import mp

from gravatom.errors import DomainError, StepSizeError
from gravatom.lindblad import (
    DensityMatrix2,
    analytic_state,
    evolve_numeric,
)
from gravatom.rates import RateSet

# An overflow or invalid value in the powered modes is a failure, not an inf.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def make_rates(gamma_plus, gamma_minus):
    total = gamma_plus + gamma_minus
    return RateSet(
        omega_g=1.0,
        gamma_flat=gamma_minus,
        gamma_g=gamma_minus,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        gamma_total=total,
        steady_excited=gamma_plus / total,
    )


def _derivative(state, gamma_plus, gamma_minus):
    ee, gg, re_eg, im_eg = state
    total = gamma_plus + gamma_minus
    d_ee = -gamma_minus * ee + gamma_plus * gg
    return (d_ee, -d_ee, -0.5 * total * re_eg, -0.5 * total * im_eg)


def rk4_loop(rho0, rates, t_max, steps):
    """Reference: step-by-step RK4, independent of the closed-form iterate.

    Returns (steps + 1, 4) rows of (ee, gg, Re eg, Im eg).
    """
    h = t_max / steps
    gp, gm = rates.gamma_plus, rates.gamma_minus
    y = (float(rho0.ee), float(rho0.gg), float(rho0.eg.real), float(rho0.eg.imag))
    rows = np.empty((steps + 1, 4))
    rows[0] = y
    for n in range(steps):
        k1 = _derivative(y, gp, gm)
        y2 = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
        k2 = _derivative(y2, gp, gm)
        y3 = tuple(a + 0.5 * h * b for a, b in zip(y, k2))
        k3 = _derivative(y3, gp, gm)
        y4 = tuple(a + h * b for a, b in zip(y, k3))
        k4 = _derivative(y4, gp, gm)
        y = tuple(
            a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
        rows[n + 1] = y
    return rows


def mp_stability(z):
    """RK4 stability polynomial R(z) at the current mpmath precision."""
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


def mp_modes(rates, h):
    """The population and coherence step exponents z of the generator, exact."""
    z_pop = -mp.mpf(h) * mp.mpf(rates.gamma_total)
    return z_pop, z_pop / 2


class TestDensityMatrix2:
    def test_trace_enforced(self):
        zeros = np.zeros(2, complex)
        for ee, gg, eg in (
            (0.6, 0.6, 0j),
            (math.nan, 0.5, 0j),
            (1.2, -0.2, 0j),
            # A column with one bad row fails as a whole.
            (np.array([0.5, 0.3 + 1e-9]), np.array([0.5, 0.7]), zeros),
            (np.array([0.5, math.nan]), np.array([0.5, 0.5]), zeros),
            (np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0j),
        ):
            with pytest.raises(DomainError):
                DensityMatrix2(ee=ee, gg=gg, eg=eg)

    def test_positivity_enforced(self):
        half = np.array([0.5, 0.5])
        for ee, gg, eg in (
            (0.5, 0.5, 0.9 + 0j),
            (0.5, 0.5, complex(math.nan, 0.0)),
            (half, half, np.array([0j, 0.9 + 0j])),
        ):
            with pytest.raises(DomainError):
                DensityMatrix2(ee=ee, gg=gg, eg=eg)

    def test_valid_column(self):
        ee = np.array([1.0, 0.25, 0.0])
        s = DensityMatrix2(ee=ee, gg=1.0 - ee, eg=np.array([0j, 0.4 + 0.1j, 0j]))
        assert s.trace.tolist() == [1.0, 1.0, 1.0]

    def test_constructors(self):
        assert DensityMatrix2.excited().ee == 1.0
        assert DensityMatrix2.ground().gg == 1.0
        m = DensityMatrix2.mixed(0.25)
        assert m.ee == 0.25 and m.gg == 0.75
        s = DensityMatrix2.superposition()
        assert abs(s.eg) == pytest.approx(0.5)


class TestAnalyticState:
    def test_identity_at_zero(self):
        rho0 = DensityMatrix2.superposition(0.3)
        rates = make_rates(0.1, 0.4)
        out = analytic_state(rho0, rates, 0.0)
        assert out.ee == rho0.ee
        assert out.eg == rho0.eg

    def test_long_time_steady_state(self):
        rates = make_rates(0.25, 0.75)
        t = 40.0 / rates.gamma_total
        out = analytic_state(DensityMatrix2.excited(), rates, t)
        assert out.ee == pytest.approx(rates.steady_excited, abs=1e-12)
        assert out.gg == pytest.approx(1.0 - rates.steady_excited, abs=1e-12)
        assert abs(out.eg) == 0.0

    def test_vacuum_exponential_decay(self):
        gamma = 0.31
        rates = make_rates(0.0, gamma)
        for t in (0.0, 1.0, 5.0, 20.0):
            out = analytic_state(DensityMatrix2.excited(), rates, t)
            assert out.ee == pytest.approx(math.exp(-gamma * t), rel=1e-13, abs=1e-300)

    def test_negative_time_rejected(self):
        for t in (-1.0, math.nan, np.array([0.0, 1.0, -1.0])):
            with pytest.raises(DomainError):
                analytic_state(DensityMatrix2.excited(), make_rates(0.0, 1.0), t)

    def test_time_column_matches_scalar_calls(self):
        rates = make_rates(0.2, 0.7)
        rho0 = DensityMatrix2.superposition(0.4)
        ts = np.linspace(0.0, 6.0, 13)
        column = analytic_state(rho0, rates, ts)
        for i, t in enumerate(ts):
            single = analytic_state(rho0, rates, float(t))
            assert column.ee[i] == single.ee
            assert column.gg[i] == single.gg
            assert column.eg[i] == single.eg


class TestEvolveNumeric:
    def test_near_zero_generator(self):
        rates = make_rates(1e-9, 1e-9)
        rho0 = DensityMatrix2.superposition(0.7)
        traj = evolve_numeric(rho0, rates, 1.0, 10)
        assert traj.states.ee[-1] == pytest.approx(rho0.ee, abs=1e-8)
        assert abs(traj.states.eg[-1] - rho0.eg) < 1e-8

    def test_vacuum_decay_against_exponential(self):
        gamma = 1.0
        rates = make_rates(0.0, gamma)
        traj = evolve_numeric(DensityMatrix2.excited(), rates, 5.0, 500)
        assert traj.states.ee[-1] == pytest.approx(math.exp(-5.0), abs=1e-8)

    def test_trace_preserved(self):
        rates = make_rates(0.2, 0.8)
        traj = evolve_numeric(DensityMatrix2.superposition(0.6), rates, 4.0, 400)
        worst = np.max(np.abs(traj.states.trace - 1.0))
        assert worst <= 1e-12

    def test_stability_gate(self):
        rates = make_rates(0.0, 10.0)
        with pytest.raises(StepSizeError) as err:
            evolve_numeric(DensityMatrix2.excited(), rates, 10.0, 10)
        assert err.value.suggested_steps == 1000

    def test_oracle_equivalence_random(self):
        rng = random.Random(7)
        for _ in range(100):
            gp = rng.uniform(0.0, 1.0)
            gm = rng.uniform(0.05, 1.5)
            rates = make_rates(gp, gm)
            p = rng.uniform(0.0, 1.0)
            rho0 = DensityMatrix2.superposition(p)
            t_max = rng.uniform(0.1, 5.0) / rates.gamma_total
            steps = max(20, int(20 * t_max * rates.gamma_total / 0.1))
            traj = evolve_numeric(rho0, rates, t_max, steps)
            ref = analytic_state(rho0, rates, t_max)
            assert traj.states.ee[-1] == pytest.approx(ref.ee, abs=1e-8)
            assert traj.states.gg[-1] == pytest.approx(ref.gg, abs=1e-8)
            assert abs(traj.states.eg[-1] - ref.eg) <= 1e-8

    def test_population_monotone_toward_steady_state(self):
        rates = make_rates(0.3, 0.7)
        for rho0 in (DensityMatrix2.excited(), DensityMatrix2.ground()):
            traj = evolve_numeric(rho0, rates, 6.0, 600)
            ees = traj.states.ee
            gaps = [abs(e - rates.steady_excited) for e in ees]
            assert all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))

    def test_coherence_decay_rate_fit(self):
        rates = make_rates(0.4, 0.9)
        traj = evolve_numeric(DensityMatrix2.superposition(0.5), rates, 3.0, 600)
        ts = traj.times
        amps = np.abs(traj.states.eg)
        slope = np.polyfit(ts, np.log(amps), 1)[0]
        assert -slope == pytest.approx(rates.gamma_total / 2.0, rel=1e-6)

    def test_positivity_along_trajectory(self):
        rates = make_rates(0.2, 1.0)
        traj = evolve_numeric(DensityMatrix2.superposition(0.8), rates, 5.0, 500)
        s = traj.states
        assert np.all(s.ee * s.gg - np.abs(s.eg) ** 2 >= -1e-12)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf])
    def test_bad_t_max_rejected(self, t_max):
        with pytest.raises(DomainError):
            evolve_numeric(DensityMatrix2.excited(), make_rates(0.0, 1.0), t_max, 10)

    def test_steps_cap_checked_before_allocating(self, monkeypatch):
        from gravatom import lindblad

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the steps check")

        rho0, rates = DensityMatrix2.excited(), make_rates(0.0, 1.0)
        monkeypatch.setattr(lindblad.np, "arange", no_allocation)
        for steps in (lindblad.MAX_STEPS + 1, 10**20):
            with pytest.raises(DomainError, match="steps"):
                evolve_numeric(rho0, rates, 1.0, steps)

    def test_no_state_object_per_step(self, monkeypatch):
        rho0 = DensityMatrix2.superposition(0.3)
        validate = DensityMatrix2.__post_init__
        calls = []

        def counting(self):
            calls.append(1)
            validate(self)

        monkeypatch.setattr(DensityMatrix2, "__post_init__", counting)
        traj = evolve_numeric(rho0, make_rates(0.1, 0.9), 10.0, 1000)
        assert len(traj.times) == 1001
        assert len(calls) <= 3

    def test_zero_coherence_is_not_powered(self, monkeypatch):
        # The zero column is never written, so it costs no resident memory;
        # powering the coherence mode would write 16 bytes per step.
        from gravatom import lindblad

        exp = np.exp
        calls = []

        def counting(x):
            calls.append(np.shape(x))
            return exp(x)

        monkeypatch.setattr(lindblad.np, "exp", counting)
        traj = evolve_numeric(DensityMatrix2.mixed(0.3), make_rates(0.2, 0.8), 5.0, 500)
        assert calls == [(501,)]
        assert not np.any(traj.states.eg)

    def test_unrepresentable_suggestion_is_none(self):
        with pytest.raises(StepSizeError) as err:
            evolve_numeric(DensityMatrix2.excited(), make_rates(0.0, 10.0), 1e308, 10)
        assert err.value.suggested_steps is None

    def test_suggestion_steps_past_a_rounded_up_gate(self):
        # ceil(t Gamma / 0.1) = 166 522 steps leave h * Gamma at
        # 0.10000000000000002, one ulp above the gate.
        rho0, rates, t_max = DensityMatrix2.excited(), make_rates(0.0, 3.34), 4985.688622754492
        with pytest.raises(StepSizeError) as err:
            evolve_numeric(rho0, rates, t_max, 166_522)
        assert err.value.suggested_steps == 166_523
        traj = evolve_numeric(rho0, rates, t_max, 166_523)
        assert traj.times[-1] == pytest.approx(t_max, rel=1e-12)

    def test_suggestion_is_accepted(self, monkeypatch):
        # Spans that are exact multiples of the gate, where rounding decides,
        # and their neighbours.  Passing the gate reaches np.arange, which is
        # stubbed out so that nothing is allocated.
        from gravatom import lindblad

        class Accepted(Exception):
            pass

        def accepted(*args, **kwargs):
            raise Accepted

        monkeypatch.setattr(lindblad.np, "arange", accepted)
        rho0, rng = DensityMatrix2.excited(), random.Random(2024)
        checked = 0
        for _ in range(2000):
            rates = make_rates(0.0, 10 ** rng.uniform(-3.0, 3.0))
            t0 = rng.randrange(1, 10**7 + 1) * lindblad.MAX_STEP_RATE / rates.gamma_total
            for t_max in (math.nextafter(t0, 0.0), t0, math.nextafter(t0, math.inf)):
                suggested = lindblad._suggested_steps(t_max, rates.gamma_total)
                if suggested <= lindblad.MAX_STEPS:
                    with pytest.raises(Accepted):
                        evolve_numeric(rho0, rates, t_max, suggested)
                    checked += 1
        assert checked > 5000


class TestClosedFormIterate:
    """The closed form against RK4 itself: the loop and exact R(z)^n."""

    @pytest.mark.parametrize("steps", [10**3, 10**4, 10**5])
    @pytest.mark.parametrize(
        "rho0",
        [DensityMatrix2.mixed(0.3), DensityMatrix2.superposition(0.6)],
        ids=["mixed", "superposition"],
    )
    def test_matches_rk4_loop(self, rho0, steps):
        rates = make_rates(0.25, 0.6)
        t_max = 6.0 / rates.gamma_total
        traj = evolve_numeric(rho0, rates, t_max, steps)
        rows = rk4_loop(rho0, rates, t_max, steps)
        s = traj.states
        assert np.max(np.abs(s.ee - rows[:, 0])) <= 1e-13
        assert np.max(np.abs(s.gg - rows[:, 1])) <= 1e-13
        assert np.max(np.abs(s.eg - (rows[:, 2] + 1j * rows[:, 3]))) <= 1e-13
        assert np.array_equal(traj.times, (t_max / steps) * np.arange(steps + 1))

    def test_matches_exact_power_at_a_million_steps(self):
        # A plain R**n carries the rounding of R into every power: here
        # (h Gamma = 6e-6) its ee is off by 7e-14 at n = 1000 and by 4.4e-12
        # at n = 1 / (h Gamma).
        rates = make_rates(0.3, 0.55)
        rho0 = DensityMatrix2.superposition(0.9)
        steps = 10**6
        t_max = 6.0 / rates.gamma_total
        traj = evolve_numeric(rho0, rates, t_max, steps)
        with mp.workdps(40):
            z_pop, z_coh = mp_modes(rates, t_max / steps)
            r_pop, r_coh = mp_stability(z_pop), mp_stability(z_coh)
            s = mp.mpf(rates.steady_excited)
            for n in (0, 1, 2, 17, 1000, 12345, 99_999, 166_667, 333_333, 777_777, steps):
                ee = s + (mp.mpf(rho0.ee) - s) * r_pop**n
                gg = (1 - s) + (mp.mpf(rho0.gg) - (1 - s)) * r_pop**n
                eg = mp.mpc(rho0.eg) * r_coh**n
                assert abs(traj.states.ee[n] - ee) <= 1e-14, n
                assert abs(traj.states.gg[n] - gg) <= 1e-14, n
                assert abs(traj.states.eg[n] - eg) <= 1e-14, n

    def test_global_error_against_analytic_state(self):
        # h Gamma = 0.05: the RK4 global error is ~1e-7, far above rounding.
        rates = make_rates(0.2, 0.7)
        rho0 = DensityMatrix2.superposition(0.9)
        steps = 120
        t_max = 6.0 / rates.gamma_total
        traj = evolve_numeric(rho0, rates, t_max, steps)
        ref = analytic_state(rho0, rates, traj.times)
        with mp.workdps(40):
            z_pop, z_coh = mp_modes(rates, t_max / steps)
            r_pop, r_coh = mp_stability(z_pop), mp_stability(z_coh)
            amp = mp.mpf(rho0.ee) - mp.mpf(rates.steady_excited)
            worst = 0.0
            for n in range(steps + 1):
                err_pop = amp * (r_pop**n - mp.exp(n * z_pop))
                err_coh = mp.mpc(rho0.eg) * (r_coh**n - mp.exp(n * z_coh))
                assert abs(traj.states.ee[n] - ref.ee[n] - err_pop) <= 1e-15, n
                assert abs(traj.states.gg[n] - ref.gg[n] + err_pop) <= 1e-15, n
                assert abs(traj.states.eg[n] - ref.eg[n] - err_coh) <= 1e-15, n
                worst = max(worst, float(abs(err_pop)))
        assert worst > 1e-8


class TestTrajectory:
    def test_time_ordering_enforced(self):
        from gravatom.lindblad import Trajectory

        s = DensityMatrix2(ee=np.ones(2), gg=np.zeros(2), eg=np.zeros(2, complex))
        with pytest.raises(DomainError):
            Trajectory(times=np.array([0.0, 0.0]), states=s)
        with pytest.raises(DomainError):
            Trajectory(times=np.array([0.0, 1.0, 2.0]), states=s)

import math
import random

import numpy as np
import pytest

from gravatom.errors import DomainError
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
        _, states = evolve_numeric(rho0, rates, 1.0, 10)
        assert states.ee[-1] == pytest.approx(rho0.ee, abs=1e-8)
        assert abs(states.eg[-1] - rho0.eg) < 1e-8

    def test_vacuum_decay_against_exponential(self):
        gamma = 1.0
        rates = make_rates(0.0, gamma)
        _, states = evolve_numeric(DensityMatrix2.excited(), rates, 5.0, 500)
        assert states.ee[-1] == pytest.approx(math.exp(-5.0), abs=1e-8)

    def test_trace_preserved(self):
        rates = make_rates(0.2, 0.8)
        _, states = evolve_numeric(DensityMatrix2.superposition(0.6), rates, 4.0, 400)
        worst = np.max(np.abs(states.trace - 1.0))
        assert worst <= 1e-12

    def test_oracle_equivalence_random(self, gksl_reference):
        # Against exp(L t) of the GKSL Liouvillian at 30 digits, with one case
        # of a vanishing absorption rate.
        rng = random.Random(7)
        cases = [(1e-300, 0.8)] + [(rng.uniform(0.0, 1.0), rng.uniform(0.05, 1.5))
                                   for _ in range(100)]
        for gp, gm in cases:
            rates = make_rates(gp, gm)
            rho0 = DensityMatrix2.superposition(rng.uniform(0.0, 1.0))
            t_max = rng.uniform(0.1, 5.0) / rates.gamma_total
            times, states = evolve_numeric(rho0, rates, t_max, rng.randint(1, 2000))
            ee, gg, eg = gksl_reference(rho0, gp, gm, times[-1])
            assert states.ee[-1] == pytest.approx(ee, abs=1e-14)
            assert states.gg[-1] == pytest.approx(gg, abs=1e-14)
            assert abs(states.eg[-1] - eg) <= 1e-14

    def test_population_monotone_toward_steady_state(self):
        rates = make_rates(0.3, 0.7)
        for rho0 in (DensityMatrix2.excited(), DensityMatrix2.ground()):
            _, states = evolve_numeric(rho0, rates, 6.0, 600)
            ees = states.ee
            gaps = [abs(e - rates.steady_excited) for e in ees]
            assert all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))

    def test_coherence_decay_rate_fit(self):
        rates = make_rates(0.4, 0.9)
        ts, states = evolve_numeric(DensityMatrix2.superposition(0.5), rates, 3.0, 600)
        amps = np.abs(states.eg)
        slope = np.polyfit(ts, np.log(amps), 1)[0]
        assert -slope == pytest.approx(rates.gamma_total / 2.0, rel=1e-6)

    def test_positivity_along_trajectory(self):
        rates = make_rates(0.2, 1.0)
        _, s = evolve_numeric(DensityMatrix2.superposition(0.8), rates, 5.0, 500)
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
        construct = DensityMatrix2.__init__
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(DensityMatrix2, "__init__", counting)
        times, _ = evolve_numeric(rho0, make_rates(0.1, 0.9), 10.0, 1000)
        assert len(times) == 1001
        assert len(calls) <= 3


class TestRowRange:
    """A row range [start, stop) is that slice of the whole trajectory."""

    @pytest.mark.parametrize(
        "rho0",
        [DensityMatrix2.superposition(0.3), DensityMatrix2.mixed(0.6)],
        ids=["coherent", "mixed"],
    )
    @pytest.mark.parametrize("block", [1, 7, 1000, 1001, 4096])
    def test_blocks_are_bit_for_bit_slices(self, rho0, block):
        rates, t_max, steps = make_rates(0.3, 0.9), 7.5, 1000
        whole = evolve_numeric(rho0, rates, t_max, steps)
        blocks = [
            evolve_numeric(rho0, rates, t_max, steps, start, start + block)
            for start in range(0, steps + 1, block)
        ]

        def columns(trajectory):
            times, states = trajectory
            return times, states.ee, states.gg, states.eg

        for name, parts, column in zip(
            ("t", "ee", "gg", "eg"), zip(*map(columns, blocks)), columns(whole)
        ):
            assert np.concatenate(parts).tobytes() == column.tobytes(), name

    def test_default_and_clipped_stop(self):
        rho0, rates = DensityMatrix2.excited(), make_rates(0.0, 1.0)
        times, _ = evolve_numeric(rho0, rates, 1.0, 10)
        assert len(times) == 11
        tail, _ = evolve_numeric(rho0, rates, 1.0, 10, start=8, stop=10**9)
        assert tail.tolist() == pytest.approx([0.8, 0.9, 1.0], rel=1e-15)

    @pytest.mark.parametrize("start, stop", [(-1, 5), (5, 5), (6, 3), (11, 20)])
    def test_empty_or_outside_range_rejected(self, start, stop):
        with pytest.raises(DomainError, match="row range"):
            evolve_numeric(DensityMatrix2.excited(), make_rates(0.0, 1.0), 1.0, 10, start, stop)

    def test_every_range_is_gated_on_the_whole_trajectory(self):
        # The checks are on (t_max, steps), whatever rows are asked for.
        rho0, rates = DensityMatrix2.excited(), make_rates(0.0, 1.0)
        with pytest.raises(DomainError, match="steps"):
            evolve_numeric(rho0, rates, 5.0, 10**20, start=0, stop=1)
        with pytest.raises(DomainError, match="t_max"):
            evolve_numeric(rho0, rates, math.inf, 50, start=3, stop=4)

import math
import random

import numpy as np
import pytest

from gravatom import cli
from gravatom.errors import DomainError
from gravatom.lindblad import DensityMatrix2, analytic_state, relaxation
from gravatom.rates import RateSet
from gravatom.rows import EVOLVE_BLOCK, ROW_CHUNK, evolve_chunks

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


def evolve(rho0, rates, t_max, steps):
    """(times, ee, gg, eg) on the ``evolve`` grid: the ``steps + 1`` times h n, h = t_max / steps."""
    times = (t_max / steps) * np.arange(steps + 1)
    ee, eg = relaxation(rho0, rates, times)
    return times, ee, 1.0 - ee, eg


class TestDensityMatrix2:
    def test_trace_enforced(self):
        for ee, gg, eg in (
            (0.6, 0.6, 0j),
            (math.nan, 0.5, 0j),
            (1.2, -0.2, 0j),
        ):
            with pytest.raises(DomainError):
                DensityMatrix2(ee=ee, gg=gg, eg=eg)

    def test_positivity_enforced(self):
        for ee, gg, eg in (
            (0.5, 0.5, 0.9 + 0j),
            (0.5, 0.5, complex(math.nan, 0.0)),
        ):
            with pytest.raises(DomainError):
                DensityMatrix2(ee=ee, gg=gg, eg=eg)

    def test_constructors(self):
        assert DensityMatrix2.mixed(1.0).ee == 1.0
        assert DensityMatrix2.mixed(0.0).gg == 1.0
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
        out = analytic_state(DensityMatrix2.mixed(1.0), rates, t)
        assert out.ee == pytest.approx(rates.steady_excited, abs=1e-12)
        assert out.gg == pytest.approx(1.0 - rates.steady_excited, abs=1e-12)
        assert abs(out.eg) == 0.0

    def test_vacuum_exponential_decay(self):
        gamma = 0.31
        rates = make_rates(0.0, gamma)
        for t in (0.0, 1.0, 5.0, 20.0):
            out = analytic_state(DensityMatrix2.mixed(1.0), rates, t)
            assert out.ee == pytest.approx(math.exp(-gamma * t), rel=1e-13, abs=1e-300)

    def test_negative_time_rejected(self):
        for t in (-1.0, math.nan):
            with pytest.raises(DomainError):
                analytic_state(DensityMatrix2.mixed(1.0), make_rates(0.0, 1.0), t)

    def test_oracle_equivalence_float_times(self, gksl_reference):
        # The one state at a float time, on Python floats, against exp(L t)
        # of the GKSL Liouvillian at 30 digits, with one case of a vanishing
        # absorption rate.
        rng = random.Random(5)
        cases = [(1e-300, 0.8)] + [(rng.uniform(0.0, 1.0), rng.uniform(0.05, 1.5))
                                   for _ in range(40)]
        for gp, gm in cases:
            rates = make_rates(gp, gm)
            rho0 = DensityMatrix2.superposition(rng.uniform(0.0, 1.0))
            t = rng.uniform(0.0, 5.0) / rates.gamma_total
            out = analytic_state(rho0, rates, t)
            ee, gg, eg = gksl_reference(rho0, gp, gm, t)
            assert type(out.ee) is float
            assert out.ee == pytest.approx(ee, abs=1e-14)
            assert out.gg == pytest.approx(gg, abs=1e-14)
            assert abs(out.eg - eg) <= 1e-14


class TestEvolveTrajectory:
    """The exact trajectory on the ``evolve`` grid."""

    def test_near_zero_generator(self):
        rates = make_rates(1e-9, 1e-9)
        rho0 = DensityMatrix2.superposition(0.7)
        _, ee, _, eg = evolve(rho0, rates, 1.0, 10)
        assert ee[-1] == pytest.approx(rho0.ee, abs=1e-8)
        assert abs(eg[-1] - rho0.eg) < 1e-8

    def test_vacuum_decay_against_exponential(self):
        gamma = 1.0
        rates = make_rates(0.0, gamma)
        _, ee, _, _ = evolve(DensityMatrix2.mixed(1.0), rates, 5.0, 500)
        assert ee[-1] == pytest.approx(math.exp(-5.0), abs=1e-8)

    def test_trace_preserved(self):
        rates = make_rates(0.2, 0.8)
        _, ee, gg, _ = evolve(DensityMatrix2.superposition(0.6), rates, 4.0, 400)
        worst = np.max(np.abs(ee + gg - 1.0))
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
            times, ees, ggs, egs = evolve(rho0, rates, t_max, rng.randint(1, 2000))
            ee, gg, eg = gksl_reference(rho0, gp, gm, times[-1])
            assert ees[-1] == pytest.approx(ee, abs=1e-14)
            assert ggs[-1] == pytest.approx(gg, abs=1e-14)
            assert abs(egs[-1] - eg) <= 1e-14

    def test_population_monotone_toward_steady_state(self):
        rates = make_rates(0.3, 0.7)
        for rho0 in (DensityMatrix2.mixed(1.0), DensityMatrix2.mixed(0.0)):
            _, ees, _, _ = evolve(rho0, rates, 6.0, 600)
            gaps = [abs(e - rates.steady_excited) for e in ees]
            assert all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))

    def test_coherence_decay_rate_fit(self):
        rates = make_rates(0.4, 0.9)
        ts, _, _, eg = evolve(DensityMatrix2.superposition(0.5), rates, 3.0, 600)
        amps = np.abs(eg)
        slope = np.polyfit(ts, np.log(amps), 1)[0]
        assert -slope == pytest.approx(rates.gamma_total / 2.0, rel=1e-6)

    def test_positivity_along_trajectory(self):
        rates = make_rates(0.2, 1.0)
        _, ee, gg, eg = evolve(DensityMatrix2.superposition(0.8), rates, 5.0, 500)
        assert np.all(ee * gg - np.abs(eg) ** 2 >= -1e-12)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf])
    def test_bad_t_max_rejected(self, capsys, t_max):
        assert cli.main(["evolve", "--omega", "1", f"--t-max={t_max}"]) == 2
        assert "t_max must be finite and positive" in capsys.readouterr().err

    def test_steps_cap_checked_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the steps check")

        monkeypatch.setattr(np, "arange", no_allocation)
        for steps in (cli.MAX_STEPS + 1, 10**20):
            assert cli.main(["evolve", "--omega", "1", "--steps", str(steps)]) == 2

    def test_no_state_object_per_step(self, monkeypatch):
        rho0 = DensityMatrix2.superposition(0.3)
        construct = DensityMatrix2.__init__
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(DensityMatrix2, "__init__", counting)
        steps = 2 * EVOLVE_BLOCK + 5
        chunks = list(evolve_chunks(rho0, make_rates(0.1, 0.9), 10.0, steps))
        assert sum(len(chunk[0]) for chunk in chunks) == steps + 1
        # Three blocks of rows, and not one state record among them.
        assert calls == []


@pytest.mark.parametrize(
    "rho0", [DensityMatrix2.superposition(0.3), DensityMatrix2.mixed(0.6)],
    ids=["coherent", "mixed"],
)
def test_array_elements_equal_float_calls_bit_for_bit(rho0):
    """Both paths take ``math.exp``, so `evolve`'s bytes do not hang on numpy's exp kernel."""
    rates = make_rates(0.1, 0.9)
    times = (40.0 / 20000) * np.arange(20001)
    ee, eg = relaxation(rho0, rates, times)
    ee_floats, eg_floats = zip(*(relaxation(rho0, rates, t) for t in times.tolist()))
    assert ee.tobytes() == np.array(ee_floats).tobytes()
    assert eg.tobytes() == np.array(eg_floats).tobytes()


class TestEvolveChunks:
    """The chunks of `evolve_chunks` are bit for bit one `relaxation` call over the grid."""

    @pytest.mark.parametrize(
        "rho0",
        [DensityMatrix2.superposition(0.3), DensityMatrix2.mixed(0.6)],
        ids=["coherent", "mixed"],
    )
    # steps + 1 rows: one block, and one row short of, at and past ROW_CHUNK
    # and EVOLVE_BLOCK, and three blocks.
    @pytest.mark.parametrize(
        "steps",
        [1, 7, 1000, 1001, 4096, ROW_CHUNK - 2, ROW_CHUNK - 1, ROW_CHUNK,
         EVOLVE_BLOCK - 2, EVOLVE_BLOCK - 1, EVOLVE_BLOCK, 2 * EVOLVE_BLOCK + 4],
    )
    def test_blocks_are_bit_for_bit_slices(self, rho0, steps):
        rates, t_max = make_rates(0.3, 0.9), 7.5
        times, ee, gg, eg = evolve(rho0, rates, t_max, steps)
        whole = (times, ee, gg, abs(eg), ee + gg - 1.0, ee)
        chunks = list(evolve_chunks(rho0, rates, t_max, steps))
        assert all(len(chunk[0]) <= ROW_CHUNK for chunk in chunks)
        for i, (parts, column) in enumerate(zip(zip(*chunks), whole)):
            assert np.concatenate(parts).tobytes() == column.tobytes(), i

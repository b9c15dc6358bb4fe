"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line so the suite
output doubles as a checklist.
"""

import math
import random
import time

import numpy as np
import pytest

from gravatom import specfun
from gravatom.cli import main
from gravatom.lindblad import DensityMatrix2, relaxation
from gravatom.model import AtomSpec, GravityEnv
from gravatom.oracle import (
    GRID_X,
    b1_numeric,
    b2_numeric,
    power_per_quantum,
    verification_report,
)
from gravatom.rates import RateSet, build_rate_set, rate_bracket
from gravatom.specfun import bose_occupation


def report(label, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] {label}")
    assert passed


class TestAcceptance:
    def test_01_special_function_oracle(self):
        start = time.monotonic()
        worst = 0.0
        for x in GRID_X:
            b1 = b1_numeric(1.0, x)
            ref1 = -(math.pi * x / 3.0) * specfun.f1(x)
            worst = max(worst, abs(b1 - ref1) / abs(ref1))
            b2 = b2_numeric(1.0, x)
            ref2 = -(math.pi * x / 2.0) * specfun.f2(x)
            scale = max(abs(ref2), 1e-2)
            worst = max(worst, abs(b2 - ref2) / scale)
        elapsed = time.monotonic() - start
        report(
            f"correction-function oracle: worst rel {worst:.2e} (<= 1e-6), "
            f"{elapsed:.1f}s (<= 60s)",
            worst <= 1e-6 and elapsed <= 60.0,
        )

    def test_02_plateaus(self):
        start = time.monotonic()
        low = rate_bracket(1e-4, -0.05, 0.0)
        high = rate_bracket(1e3, -0.05, 0.0)
        elapsed = time.monotonic() - start
        ok_low = abs(low - 0.65) <= 1e-3 * 0.65
        ok_high = abs(high - 0.95) <= 5e-3 * 0.95
        report(
            f"plateau reproduction: {low:.5f} vs 0.65, {high:.5f} vs 0.95, "
            f"{elapsed:.2f}s (<= 1s)",
            ok_low and ok_high and elapsed <= 1.0,
        )

    def test_03_ratio_curve(self, capsys, tmp_path):
        start = time.monotonic()
        target = tmp_path / "sweep.csv"
        code = main(["sweep", "--points", "200", "--out", str(target)])
        lines = target.read_text().strip().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
        elapsed = time.monotonic() - start

        window = [r[1] for r in rows if 1.5 <= r[0] <= 3.0]
        enhanced = max(window) > 1.0
        par_plateaus = rows[0][1] < 1.0 and rows[-1][1] < 1.0
        perp_plateaus = rows[0][2] < 1.0 and rows[-1][2] < 1.0
        report(
            "ratio-curve reproduction: parallel enhancement in [1.5, 3], both "
            f"plateaus suppressed, 200-point CSV, {elapsed:.2f}s (<= 1s)",
            code == 0
            and len(rows) == 200
            and enhanced
            and par_plateaus
            and perp_plateaus
            and elapsed <= 1.0,
        )

    def test_04_energy_balance(self):
        # The pre-truncation power per quantum, from f1/f2 recovered from the
        # B1/B2 quadratures at x_g, against gamma_g / 4 from rate_bracket.  At
        # each draw's phi and at phi/100 (same x_g, proper x = x_g/(1 + phi))
        # the deviation must stay within K phi^2 with K = 20 (8.8 measured
        # over these draws); a 1% error in any bracket coefficient gives
        # K > 70.
        start = time.monotonic()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            omega = float(rng.uniform(0.1, 5.0))
            angle = float(rng.uniform(0.0, math.pi))
            phi = float(-rng.uniform(1e-4, 0.09))
            R = float(rng.uniform(0.1, 10.0))
            atom = AtomSpec(omega=omega, dipole_angle=angle)
            omega_g = build_rate_set(atom, GravityEnv(phi=phi, distance=R)).omega_g
            f1_g = -3.0 * R * b1_numeric(R, omega_g) / (math.pi * omega_g)
            f2_g = -2.0 * R**3 * b2_numeric(R, omega_g) / (math.pi * omega_g)
            sin2psi = math.sin(angle) ** 2
            for p in (phi, phi / 100.0):
                power = power_per_quantum(p, sin2psi, f1_g, f2_g)
                rate = rate_bracket(R * omega_g / (1.0 + p), p, sin2psi)
                worst = max(worst, abs(power / rate - 1.0) / p**2)
        elapsed = time.monotonic() - start
        report(
            f"energy balance: worst |(P/omega_g)/(gamma_g/4) - 1| / phi^2 "
            f"{worst:.2f} (<= 20), {elapsed:.1f}s (<= 30s)",
            worst <= 20.0 and elapsed <= 30.0,
        )

    def test_05_gksl_dynamics(self, gksl_reference):
        # Against exp(L t) of the GKSL Liouvillian at 30 digits, with one case
        # of a vanishing absorption rate.
        start = time.monotonic()
        rng = random.Random(11)
        worst_elem = 0.0
        worst_trace = 0.0
        cases = [(1e-300, 0.6)] + [(rng.uniform(0.0, 1.0), rng.uniform(0.05, 1.5))
                                   for _ in range(100)]
        for gp, gm in cases:
            total = gp + gm
            rates = RateSet(
                omega_g=1.0,
                gamma_flat=gm,
                gamma_g=gm,
                gamma_plus=gp,
                gamma_minus=gm,
                gamma_total=total,
                steady_excited=gp / total,
            )
            rho0 = DensityMatrix2.superposition(rng.uniform(0.0, 1.0))
            t_max = rng.uniform(0.5, 4.0) / total
            steps = rng.randint(1, 2000)
            times = (t_max / steps) * np.arange(steps + 1)
            ees, egs = relaxation(rho0, rates, times)
            ggs = 1.0 - ees
            ee, gg, eg = gksl_reference(rho0, gp, gm, times[-1])
            worst_elem = max(
                worst_elem,
                abs(ees[-1] - ee),
                abs(ggs[-1] - gg),
                abs(egs[-1] - eg),
            )
            worst_trace = max(
                worst_trace, float(np.max(np.abs(ees + ggs - 1.0)))
            )

        fit_rates = RateSet(
            omega_g=1.0,
            gamma_flat=0.9,
            gamma_g=0.9,
            gamma_plus=0.4,
            gamma_minus=0.9,
            gamma_total=1.3,
            steady_excited=0.4 / 1.3,
        )
        times = (3.0 / 600) * np.arange(601)
        _, egs = relaxation(DensityMatrix2.superposition(0.5), fit_rates, times)
        slope = np.polyfit(
            times, np.log(np.abs(egs)), 1
        )[0]
        fit_err = abs(-slope - fit_rates.gamma_total / 2.0) / (
            fit_rates.gamma_total / 2.0
        )
        elapsed = time.monotonic() - start
        report(
            f"dissipative dynamics: worst element error {worst_elem:.2e} (<= 1e-14), "
            f"trace error {worst_trace:.2e} (<= 1e-12), decay-rate fit rel "
            f"{fit_err:.2e} (<= 1e-6), {elapsed:.1f}s (<= 30s)",
            worst_elem <= 1e-14
            and worst_trace <= 1e-12
            and fit_err <= 1e-6
            and elapsed <= 30.0,
        )

    def test_06_thermal_consistency(self):
        start = time.monotonic()
        ok = True
        for T in (0.3, 0.9, 2.7):
            atom = AtomSpec(omega=1.3, dipole_mag=0.8, dipole_angle=0.5)
            env = GravityEnv(phi=-0.04, distance=2.0)
            rs = build_rate_set(atom, env, T)
            n = bose_occupation(rs.omega_g, T)
            ok &= abs(rs.gamma_total - (2.0 * n + 1.0) * rs.gamma_g) <= 1e-14 * rs.gamma_total
            balance = rs.gamma_plus / rs.gamma_minus
            ok &= abs(balance - math.exp(-rs.omega_g / T)) <= 1e-12 * balance
            n_local = bose_occupation(atom.omega, T / (1.0 + env.phi))  # Tolman
            ok &= abs(n - n_local) <= 1e-15 * n
        elapsed = time.monotonic() - start
        report(
            f"thermal consistency: total rate, detailed balance, and local-"
            f"temperature invariance hold, {elapsed:.2f}s (<= 1s)",
            bool(ok) and elapsed <= 1.0,
        )

    def test_07_typo_resolutions(self, literal_kernel_b1):
        records = verification_report()
        by_name = {r["name"]: r for r in records}
        f2_rec = by_name["f2 small-x coefficient resolution"]
        kernel_rec = by_name["distance-kernel reading resolution"]
        coeff_ok = f2_rec["pass"] and abs(f2_rec["computed"] - 2.0 / 3.0) <= 1e-3
        closed = kernel_rec["reference"]
        literal_misses = abs(literal_kernel_b1(3.0, 1.0 / 3.0) - closed) > 1e-2 * abs(closed)
        report(
            f"definition-resolution checks: small-argument coefficient "
            f"{f2_rec['computed']:.6f} (2/3, not 4/3); shifted distance kernel "
            "reproduces the closed form, literal reading does not",
            coeff_ok and kernel_rec["pass"] and literal_misses,
        )

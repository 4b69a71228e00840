"""Acceptance suite: every release-gating criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.
"""

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate, stats

from hivbrn import (
    SimulationSpec,
    Verdict,
    estimate_sex_integral,
    evaluate_brn,
    index_i0,
    sensitivity_sweep,
    sex_brn,
    sex_integral,
    solve_plateau_point,
    survival_density,
    tail_mass,
    transmission_prob,
)
from hivbrn.cli import main
from hivbrn.survival import survival_quantile_core


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL: {desc}")
        raise
    print(f"[criterion {num}] PASS: {desc}")


def with_deltas(population, delta_f, delta_m):
    female = dataclasses.replace(
        population.female,
        activity=dataclasses.replace(population.female.activity, annual_acts=delta_f),
    )
    male = dataclasses.replace(
        population.male,
        activity=dataclasses.replace(population.male.activity, annual_acts=delta_m),
    )
    return dataclasses.replace(population, female=female, male=male)


def test_criterion_1_plateau_point(female):
    with criterion(1, "x* = 1.647 +- 0.001 at baseline"):
        assert solve_plateau_point(female.viral) == pytest.approx(1.647, abs=1e-3)


def test_criterion_2_baseline_i0(baseline_integrals):
    with criterion(2, "baseline I0 = 81.60 within 1%"):
        assert index_i0(*baseline_integrals) == pytest.approx(81.60, rel=0.01)


def test_criterion_3_feasible_rectangle_corners(population, baseline_integrals):
    with criterion(3, "corner reproduction numbers at (26,208) and (104,468)"):
        low = evaluate_brn(with_deltas(population, 208.0, 26.0))
        assert low.r_fm == pytest.approx(2.47, rel=0.01)
        assert low.r_mf == pytest.approx(0.33, abs=0.01)
        assert low.r0 == pytest.approx(0.90, abs=0.01)
        high = evaluate_brn(with_deltas(population, 468.0, 104.0))
        assert high.r_fm == pytest.approx(5.55, rel=0.01)
        assert high.r_mf == pytest.approx(1.32, abs=0.02)
        assert high.r0 == pytest.approx(2.70, abs=0.02)


def test_criterion_4_left_edge_crossing(population, baseline_integrals):
    with criterion(4, "threshold crossing at delta_f = 256.1 with delta_m = 26"):
        int_f, int_m = baseline_integrals
        crossing = index_i0(int_f, int_m) ** 2 / 26.0
        assert crossing == pytest.approx(256.1, rel=0.01)
        assert sex_brn(crossing, int_f) == pytest.approx(3.04, rel=0.01)
        below = evaluate_brn(with_deltas(population, 0.99 * crossing, 26.0))
        above = evaluate_brn(with_deltas(population, 1.01 * crossing, 26.0))
        assert below.verdict is Verdict.SUBCRITICAL
        assert above.verdict is Verdict.EPIDEMIC


def test_criterion_5_sensitivity(population):
    with criterion(5, "I0 under halved/doubled transmission: 163.2 / 40.8"):
        by_function = dict(
            sensitivity_sweep(population, [0.5, 2.0], "scale_function")
        )
        assert by_function[0.5] == pytest.approx(163.2, rel=0.01)
        assert by_function[2.0] == pytest.approx(40.8, rel=0.01)
        by_endpoints = dict(
            sensitivity_sweep(population, [0.5, 2.0], "scale_endpoints")
        )
        for factor in (0.5, 2.0):
            assert by_endpoints[factor] == pytest.approx(
                by_function[factor], rel=0.025
            )


def test_criterion_6_equal_population_threshold(population):
    with criterion(6, "equal-population verdict flips between 81 and 83 acts/year"):
        low = evaluate_brn(with_deltas(population, 81.0, 81.0))
        high = evaluate_brn(with_deltas(population, 83.0, 83.0))
        assert low.verdict is Verdict.SUBCRITICAL
        assert high.verdict is Verdict.EPIDEMIC


def test_criterion_7_property_suite(population, female, male, baseline_integrals):
    from hivbrn import activity_fraction
    from hivbrn.natural_history import log_viral_load_core

    with criterion(7, "model identity and consistency properties"):
        act = female.activity
        phi, tau = act.residual_fraction, act.terminal_lead
        for iad in (1.1, 3.0, 5.0, 10.0, 20.0):
            assert activity_fraction(0.0, iad, act) == pytest.approx(1.0, abs=1e-12)
            assert activity_fraction(iad - tau, iad, act) == pytest.approx(
                phi, abs=1e-12
            )
            assert activity_fraction(iad, iad, act) == pytest.approx(0.0, abs=1e-12)

        for iad in (5.0, 10.0, 20.0):
            assert (
                log_viral_load_core(iad - tau, iad, female.viral, female.x_plateau)
                == female.viral.terminal_log_vl
            )

        link = female.transmission
        for log_vl, prob in (
            (female.viral.peak_log_vl, link.prob_at_peak),
            (female.viral.plateau_log_vl, link.prob_at_plateau),
        ):
            back = 1.0 - np.exp(-np.exp(link.intercept + link.slope * 10.0**log_vl))
            assert back == pytest.approx(prob, abs=1e-12)

        # up to the longest horizon, 1e3 years, the public density's last age
        total, _ = integrate.quad(
            lambda x: survival_density(x, male.survival), 0.0, 1e3, points=[male.survival.median]
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        assert 1.0 - tail_mass(male.survival.median, male.survival) == pytest.approx(
            0.5, abs=1e-9
        )

        base_i0 = index_i0(*baseline_integrals)
        for factor, i0 in sensitivity_sweep(population, [0.5, 2.0]):
            assert i0 == pytest.approx(base_i0 / factor, rel=1e-9)

        int_f, int_m = baseline_integrals
        for dm in np.linspace(26.0, 104.0, 20):
            for df in np.linspace(208.0, 468.0, 20):
                by_r0 = np.sqrt(df * int_f * dm * int_m) > 1.0
                by_index = np.sqrt(dm * df) > base_i0
                assert by_r0 == by_index


def test_criterion_8_oracle_equivalence(population, female, male):
    with criterion(8, "Monte Carlo within 3 SE of quadrature; Weibull KS < 0.006"):
        for profile in (female, male):
            spec = SimulationSpec(
                samples=1_000_000, seed=20260810, act_process="poisson_thinning"
            )
            est = estimate_sex_integral(profile, spec)
            ref = sex_integral(profile, population.omega)
            assert abs(est.mean - ref) < 3.0 * est.std_error

        u = np.random.default_rng(20260810).random(100_000)
        draws = np.sort(survival_quantile_core(u, male.survival))
        weibull = stats.weibull_min(male.survival.shape, scale=male.survival.scale)
        grid = weibull.cdf(draws)
        n = draws.size
        ks = max(
            np.max(grid - np.arange(n) / n),
            np.max(np.arange(1, n + 1) / n - grid),
        )
        assert ks < 0.006


def test_criterion_9_simulation_determinism(tmp_path):
    with criterion(9, "byte-identical simulate output across runs and workers"):
        args = ["simulate", "--samples", "20000", "--seed", "20260810"]
        outputs = []
        for run, workers in enumerate(("1", "1", "3")):
            target = tmp_path / f"run{run}.json"
            code = main(args + ["--workers", workers, "--out", str(target)])
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0] != b""

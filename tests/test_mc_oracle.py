import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import hivbrn.mc_oracle as mc
from hivbrn import (
    DomainError,
    ScenarioError,
    SexProfile,
    SimulationSpec,
    TransmissionParams,
    activity_fraction,
    estimate_sex_integral,
    parse_scenario,
    sex_integral,
    transmission_prob,
)
from hivbrn.behavior import activity_fraction_core
from hivbrn.natural_history import transmission_prob_core
from hivbrn.reproduction import inner_integral
from hivbrn.survival import SurvivalParams, survival_quantile_core

from conftest import PARAM_BOX


def rng(seed=123):
    return np.random.default_rng(seed)


def quad_inner(iad: float, profile: SexProfile) -> float:
    """``int_0^iad G * ptr dx`` by adaptive quadrature; breakpoints at
    decades of ``iad - tau1`` resolve the activity boundary layer at x = 0
    of a course barely longer than tau1."""
    tau = profile.activity.terminal_lead
    points = [(iad - tau) * 10.0**k for k in range(8) if 0 < (iad - tau) * 10.0**k < iad]
    value, _ = integrate.quad(
        lambda x: activity_fraction(x, iad, profile.activity)
        * transmission_prob(
            x, iad, profile.viral, profile.transmission, profile.x_plateau
        ),
        0.0,
        iad,
        points=points or None,
        limit=500,
        epsabs=0.0,
        epsrel=1e-12,
    )
    return value


# the literal thinning mechanism, one life course at a time: the reference
# that the chunked estimator in hivbrn.mc_oracle is checked against
def simulate_act_times(
    iad: float, profile: SexProfile, rng: np.random.Generator
) -> np.ndarray:
    """Sorted act times of one life course, by thinning.

    Candidate acts arrive homogeneously at the envelope rate ``delta`` over
    [0, iad]; a candidate at time t is kept with probability G(t, iad) <= 1.
    """
    if iad < 0:
        raise DomainError("iad must be >= 0")
    delta = profile.activity.annual_acts
    n = rng.poisson(delta * iad)
    times = rng.random(n) * iad
    keep = rng.random(n) < activity_fraction(times, float(iad), profile.activity)
    return np.sort(times[keep])


def simulate_life_course(
    iad: float, profile: SexProfile, rng: np.random.Generator
) -> float:
    """Secondary infections over one life course of length ``iad``: each
    simulated act transmits independently with the per-act probability at
    its time; the integer count is returned."""
    times = simulate_act_times(iad, profile, rng)
    if times.size == 0:
        return 0.0
    probs = transmission_prob(
        times, float(iad), profile.viral, profile.transmission, profile.x_plateau
    )
    return float(np.count_nonzero(rng.random(times.size) < probs))


def thinning_block(profile, spec, omega, chunk):
    """Per-sample values of one ``poisson_thinning`` block, from the same
    Philox draws as the estimator, with both kernels run on every candidate
    act and the two accept/reject tests combined afterwards."""
    size = min(spec.samples - chunk * mc.CHUNK_SAMPLES, mc.CHUNK_SAMPLES)
    g = np.random.Generator(np.random.Philox(key=spec.seed, counter=[0, 0, 0, chunk]))
    iad = survival_quantile_core(g.random(size), profile.survival)
    iad[iad > omega] = 0.0
    delta, p_max = profile.activity.annual_acts, profile.peak_prob
    acts = g.poisson(np.where(iad > profile.activity.terminal_lead, delta * p_max * iad, 0.0))
    seg = np.repeat(np.arange(size), acts)
    iad_rep = np.repeat(iad, acts)
    t = g.random(acts.sum()) * iad_rep
    u_act = g.random(acts.sum()) * p_max
    u_thin = g.random(acts.sum())
    active = u_thin < activity_fraction_core(t, iad_rep, profile.activity)
    transmits = u_act < transmission_prob_core(
        t, iad_rep, profile.viral, profile.transmission, profile.x_plateau
    )
    return np.bincount(seg[active & transmits], minlength=size) / delta


class TestSampleIad:
    # the Monte Carlo draws each infection-to-AIDS-death interval by
    # inverting the Weibull survival curve at a uniform u
    def test_median(self, male):
        assert survival_quantile_core(0.5, male.survival) == pytest.approx(
            male.survival.median, rel=1e-12
        )

    def test_small_u(self, male):
        assert 0.0 < survival_quantile_core(1e-15, male.survival) < 1e-4

    def test_kolmogorov_smirnov(self, male):
        u = rng(20260810).random(100_000)
        draws = np.sort(survival_quantile_core(u, male.survival))
        weibull = stats.weibull_min(male.survival.shape, scale=male.survival.scale)
        cdf = weibull.cdf(draws)
        n = draws.size
        ks = max(
            np.max(cdf - np.arange(n) / n),
            np.max(np.arange(1, n + 1) / n - cdf),
        )
        assert ks < 0.006


class TestActProcess:
    def test_acceptance_rate_matches_activity(self, female):
        # accepted act times binned against delta * integral of G per bin;
        # bin counts are Poisson, so Pearson's statistic is ~ chi2(nbins)
        iad, courses, nbins = 10.0, 400, 10
        g = rng(42)
        times = np.concatenate(
            [simulate_act_times(iad, female, g) for _ in range(courses)]
        )
        edges = np.linspace(0.0, iad, nbins + 1)
        observed, _ = np.histogram(times, bins=edges)
        expected = np.array(
            [
                courses
                * female.activity.annual_acts
                * integrate.quad(
                    lambda x: activity_fraction(x, iad, female.activity), lo, hi
                )[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        chi2_stat = np.sum((observed - expected) ** 2 / expected)
        assert stats.chi2.sf(chi2_stat, df=nbins) > 0.001

    def test_sorted_within_course(self, female):
        times = simulate_act_times(12.0, female, rng(1))
        assert np.all(np.diff(times) >= 0)
        assert times.size > 0
        assert times.min() >= 0.0 and times.max() <= 12.0


class TestSimulateLifeCourse:
    def test_short_course_never_infects(self, female):
        g = rng(3)
        tau = female.activity.terminal_lead
        for iad in (0.0, 0.3, tau):
            for _ in range(20):
                assert simulate_life_course(iad, female, g) == 0.0

    def test_homogeneous_poisson_mean(self, female, monkeypatch):
        # constant per-act probability and full activity: the infection
        # count is Poisson with mean delta * p * T
        p_const = 0.004
        flat = TransmissionParams.from_anchors(p_const, p_const, 5.0, 3.0)
        prof = dataclasses.replace(female, transmission=flat)
        monkeypatch.setitem(
            globals(),
            "activity_fraction",
            lambda ia, iad, params: np.ones_like(np.asarray(ia, dtype=float)),
        )
        g = rng(7)
        T, n = 10.0, 4_000
        counts = np.array([simulate_life_course(T, prof, g) for _ in range(n)])
        target = prof.activity.annual_acts * p_const * T
        se = counts.std(ddof=1) / np.sqrt(n)
        assert abs(counts.mean() - target) < 3 * se

    def test_mean_against_quadrature_oracle(self, female):
        # E[count | iad] = delta * integral of G * ptr over [0, iad]
        iad, n = 9.0, 4_000
        g = rng(11)
        counts = np.array(
            [simulate_life_course(iad, female, g) for _ in range(n)]
        )
        target, _ = integrate.quad(
            lambda x: activity_fraction(x, iad, female.activity)
            * transmission_prob(
                x, iad, female.viral, female.transmission, female.x_plateau
            ),
            0.0,
            iad,
            limit=200,
        )
        target *= female.activity.annual_acts
        se = counts.std(ddof=1) / np.sqrt(n)
        assert abs(counts.mean() - target) < 3 * se

    def test_expected_value_mode_matches_quad(self, population, female):
        # the expected_value mode reads the inner integral from its table,
        # which ends at omega; tau1 gives exactly 0, and the last two ages
        # lie in the first graded panel next to tau1 (direct rule)
        tau = female.activity.terminal_lead
        edges, coefs = mc._inner_table(female, population.omega)
        ages = np.array(
            [0.5, 2.0, 7.0, 15.0, 35.0, tau, tau * (1 + 1e-9), 0.5 * (tau + edges[0])]
        )
        assert ages[4] <= edges[-1] == population.omega
        assert np.all((tau < ages[6:]) & (ages[6:] <= edges[0]))
        got = mc._tabulated_inner(ages, female, (edges, coefs))
        assert got[5] == 0.0
        for iad, value in zip(ages, got):
            ref = quad_inner(iad, female)
            assert value == pytest.approx(ref, rel=1e-7, abs=1e-15)


class TestInnerTable:
    """The expected-value table matches the finest inner rule across the
    valid box, not only at the baseline."""

    # the threshold_box benchmark's parameter box, with beta down to 1
    BOX = {**PARAM_BOX, "beta": (1.0, 3.5)}

    @staticmethod
    def check(profile, omega, table=None):
        # 1000 ages from the survival law, made empty past omega as in the
        # estimator (their mean of J is the integral), and 1000 spread over
        # [0, omega]
        if table is None:
            table = mc._inner_table(profile, omega)
        g = np.random.default_rng(20261018)
        ages = np.concatenate((
            survival_quantile_core(g.random(1000), profile.survival),
            g.uniform(0.0, omega, 1000),
        ))
        ages[ages > omega] = 0.0
        # level 10, well above TABLE_LEVEL, so that the fill's own error shows
        ref = inner_integral(ages, profile, 10)
        err = np.abs(mc._tabulated_inner(ages, profile, table) - ref)
        assert err.max() <= 1e-7 * ref[:1000].mean()

    def test_baseline_and_alpha1_corner(self, population, female):
        self.check(female, population.omega)
        corner = dataclasses.replace(
            female, viral=dataclasses.replace(female.viral, rise_shape=1.02)
        )
        self.check(corner, population.omega)

    def test_fill_level(self):
        # a box draw on which a level-4 fill was 8.6e-7 of the mean of J off
        keys = dict(
            ia1=0.498, M1=4.598, m=3.013, tau1=1.291, M2=5.198, alpha1=1.486,
            alpha2=0.189, alpha3=0.864, ptr_hi=0.00697, ptr_lo=0.000676,
            phi=0.610, median=10.2, beta=3.23,
        )
        text = "[female]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        pop = parse_scenario(text).population
        self.check(pop.female, pop.omega)

    def test_long_horizon_interpolant(self):
        # a box draw at omega 400 whose long panels' interpolant was 1.1e-7 of
        # the mean of J off at TABLE_TOL 1e-10
        keys = dict(
            ia1=0.7741, M1=5.116, m=2.773, tau1=0.9503, M2=5.095, alpha1=1.608,
            alpha2=0.309, alpha3=0.96, ptr_hi=0.01185, ptr_lo=0.001483,
            phi=0.4433, median=9.022, beta=3.306,
        )
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        pop = parse_scenario(f"[population]\nomega = 400\n[female]\n{text}").population
        self.check(pop.female, pop.omega)

    @settings(database=None, derandomize=True, deadline=None, max_examples=12)
    @given(st.fixed_dictionaries({k: st.floats(*r) for k, r in BOX.items()}))
    def test_whole_box(self, values):
        # omega = 400 leaves the survival tail below its bound down to beta = 1
        keys = "".join(f"{k} = {v!r}\n" for k, v in values.items())
        try:
            pop = parse_scenario(f"[population]\nomega = 400\n[female]\n{keys}").population
        except ScenarioError:
            assume(False)
        self.check(pop.female, pop.omega)

    def test_split_budget(self, population, female, monkeypatch):
        # a table that runs out of splits still pairs each panel with its
        # own coefficients: here every panel is halved once, then no more
        monkeypatch.setattr(mc, "TABLE_TOL", 0.0)
        monkeypatch.setattr(mc, "MAX_SPLITS", 1)
        edges, coefs = mc._inner_table(female, population.omega)
        assert coefs.shape == (mc.TABLE_NODES, edges.size - 1) == (24, 28)
        self.check(female, population.omega, (edges, coefs))

    def test_span_below_tau1(self, female):
        # omega <= tau1: the table is empty, and J is exactly 0 up to omega
        tau = female.activity.terminal_lead
        for omega in (tau, 0.5 * tau):
            edges, coefs = mc._inner_table(female, omega)
            assert np.all(edges == tau)
            ages = np.linspace(0.0, omega, 7)
            assert np.all(mc._tabulated_inner(ages, female, (edges, coefs)) == 0.0)


class TestEstimateSexIntegral:
    def test_same_seed_bit_identical(self, male):
        spec = SimulationSpec(samples=20_000, seed=99, act_process="poisson_thinning")
        assert estimate_sex_integral(male, spec) == estimate_sex_integral(male, spec)

    def test_worker_count_invariance(self, male, monkeypatch):
        # 20,000 samples are 5 blocks, one per task; 200,705 are 49 blocks,
        # the last one ragged, sent in batches of 3 at 2 workers and 2 at 3
        # (the CPU cap is lifted so that 3 workers run on any host)
        monkeypatch.setattr(mc, "_pool_size", lambda workers, n_chunks: workers)
        for samples in (20_000, 200_705):
            for process in mc.ACT_PROCESSES:
                spec = SimulationSpec(samples=samples, seed=99, act_process=process)
                single = estimate_sex_integral(male, spec, workers=1)
                double = estimate_sex_integral(male, spec, workers=2)
                triple = estimate_sex_integral(male, spec, workers=3)
                assert single == double == triple

    def test_pool_size_is_capped(self, monkeypatch):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        assert mc._pool_size(1, 100) == 1
        assert mc._pool_size(3, 100) == 3
        assert mc._pool_size(10_000, 3) == 3
        assert mc._pool_size(10_000, 100) == 4
        # a process pinned to one CPU starts no pool at all
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {5})
        assert mc._pool_size(8, 100) == 1
        # without an affinity call, the CPU count caps it, and 1 if unknown
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        assert mc._pool_size(10_000, 100) == 64
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc._pool_size(8, 100) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[female]\ndelta = 208\n[male]\ndelta = 26\n",
            "[female]\nalpha3 = 200\nM2 = 5.4\n[male]\nalpha3 = 200\nM2 = 5.4\n",
        ],
        ids=["csw_clients", "alpha3-M2"],
    )
    def test_thinning_counts_match_every_act_reference(self, text):
        # the activity kernel runs only on acts that pass the transmission
        # test; every count must equal the one from both kernels on every act
        pop = parse_scenario(text).population
        spec = SimulationSpec(samples=2 * mc.CHUNK_SAMPLES + 1000, seed=20260810)
        for profile in (pop.female, pop.male):
            for chunk in range(3):
                got = mc._chunk_values(profile, spec, pop.omega, None, chunk)
                want = thinning_block(profile, spec, pop.omega, chunk)
                assert got.size == (1000 if chunk == 2 else mc.CHUNK_SAMPLES)
                assert np.array_equal(got, want)
                assert want.any()

    def test_seed_changes_result(self, male):
        a = estimate_sex_integral(male, SimulationSpec(samples=5_000, seed=1))
        b = estimate_sex_integral(male, SimulationSpec(samples=5_000, seed=2))
        assert a.mean != b.mean

    def test_consistent_with_quadrature(self, female, male, population):
        for profile in (female, male):
            spec = SimulationSpec(samples=100_000, seed=20260810)
            est = estimate_sex_integral(profile, spec)
            ref = sex_integral(profile, population.omega)
            assert abs(est.mean - ref) < 3 * est.std_error

    def test_fast_path_matches_literal_mechanism(self, male):
        # the chunked estimator and a plain per-course loop over
        # simulate_life_course are the same process in distribution
        est = estimate_sex_integral(male, SimulationSpec(samples=60_000, seed=5))
        g = rng(17)
        n = 4_000
        u = g.random(n)
        u = u[u > 0.0]
        delta = male.activity.annual_acts
        counts = np.array(
            [
                simulate_life_course(survival_quantile_core(ui, male.survival), male, g)
                for ui in u
            ]
        )
        literal_mean = counts.mean() / delta
        literal_se = counts.std(ddof=1) / np.sqrt(u.size) / delta
        gap = np.hypot(literal_se, est.std_error)
        assert abs(literal_mean - est.mean) < 3 * gap

    def test_expected_value_reduces_variance(self, female, male):
        for profile in (female, male):
            noisy = estimate_sex_integral(
                profile, SimulationSpec(samples=10_000, seed=4)
            )
            smooth = estimate_sex_integral(
                profile,
                SimulationSpec(samples=10_000, seed=4, act_process="expected_value"),
            )
            assert smooth.std_error < noisy.std_error

    def test_single_sample(self, male):
        est = estimate_sex_integral(male, SimulationSpec(samples=1, seed=12))
        assert est.std_error is None
        assert est.samples == 1
        scaled = est.mean * male.activity.annual_acts
        assert scaled == pytest.approx(round(scaled), abs=1e-9)
        assert scaled >= 0

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SimulationSpec(samples=0, seed=1)
        with pytest.raises(DomainError):
            SimulationSpec(samples=mc.MAX_SAMPLES + 1, seed=1)
        with pytest.raises(DomainError):
            SimulationSpec(samples=10, seed=-1)
        with pytest.raises(DomainError):
            SimulationSpec(samples=10, seed=2**64)
        with pytest.raises(DomainError):
            SimulationSpec(samples=10, seed=1, act_process="bogus")
        # counts must be ints: a float or bool would fail or pass silently later
        for samples, seed in ((10.5, 1), (10, 1.5), (True, 1), (10, True)):
            with pytest.raises(DomainError, match="must be an int"):
                SimulationSpec(samples=samples, seed=seed)

    # recorded from the committed Philox stream at 20,000 samples, seed
    # 20260810: thinning counts are exact, so any change to the stream or to
    # the kernels' accept/reject decisions shows here
    PINNED_THINNING = {
        "female": (0.011878658536585365, 8.885423447990762e-05),
        "male": (0.012790853658536586, 9.307210986814311e-05),
    }
    PINNED_EXPECTED = {"female": 0.011926729672817266, "male": 0.012732757564777316}

    @pytest.mark.parametrize("sex", ["female", "male"])
    def test_pinned_stream(self, population, sex):
        profile = getattr(population, sex)
        thinning = estimate_sex_integral(profile, SimulationSpec(20_000, 20260810))
        assert (thinning.mean, thinning.std_error) == self.PINNED_THINNING[sex]
        smooth = estimate_sex_integral(
            profile, SimulationSpec(20_000, 20260810, "expected_value")
        )
        # abs=0: approx's default abs of 1e-12 would allow 8e-11 relative here
        assert smooth.mean == pytest.approx(self.PINNED_EXPECTED[sex], rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_matches_quadrature_at_any_horizon(self, female):
        # at omega = 10 about a third of the courses outlive the horizon and
        # count as empty; at or below tau1 no course can infect
        tau = female.activity.terminal_lead
        for omega in (10.0, tau, 0.5 * tau):
            ref = sex_integral(female, omega)
            for process in mc.ACT_PROCESSES:
                spec = SimulationSpec(20_000, 20260810, process)
                est = estimate_sex_integral(female, spec, omega=omega)
                assert est == estimate_sex_integral(female, spec, 2, omega)
                if omega <= tau:
                    assert est.mean == ref == 0.0
                else:
                    assert abs(est.mean - ref) < 5 * est.std_error

    @pytest.mark.filterwarnings("error")
    def test_long_tail_profile(self, female):
        # beta = 0.05 puts about half the mass past omega = 40, with draws up
        # to 1e16 years: they count as empty, and the Poisson rate stays
        # below delta * p_max * omega
        heavy = dataclasses.replace(female, survival=SurvivalParams(8.6, 0.05))
        ref = sex_integral(heavy, 40.0)
        for process in mc.ACT_PROCESSES:
            est = estimate_sex_integral(
                heavy, SimulationSpec(20_000, 20260810, process), omega=40.0
            )
            assert np.isfinite(est.mean)
            assert abs(est.mean - ref) < 5 * est.std_error

    @pytest.mark.parametrize("omega", [np.nan, np.inf, 0.0, -1.0])
    def test_omega_domain(self, female, omega):
        spec = SimulationSpec(samples=10, seed=1)
        with pytest.raises(DomainError, match="omega must be finite and > 0"):
            estimate_sex_integral(female, spec, omega=omega)
        with pytest.raises(DomainError, match="omega must be finite and > 0"):
            sex_integral(female, omega)

    def test_thinning_needs_positive_delta(self, male):
        zero = dataclasses.replace(
            male, activity=dataclasses.replace(male.activity, annual_acts=0.0)
        )
        with pytest.raises(DomainError):
            estimate_sex_integral(zero, SimulationSpec(samples=10, seed=1))
        est = estimate_sex_integral(
            zero, SimulationSpec(samples=64, seed=1, act_process="expected_value")
        )
        assert est.mean > 0

    def test_thinning_act_bound(self, female, population):
        # refused before any draw: twice the bound on the candidate acts per
        # course, and a delta whose bound overflows; expected_value still runs
        twice = 2 * mc.MAX_ACTS_PER_COURSE / (female.peak_prob * population.omega)
        for delta in (twice, 1e300):
            heavy = dataclasses.replace(
                female, activity=dataclasses.replace(female.activity, annual_acts=delta)
            )
            with pytest.raises(DomainError, match=f"<= {mc.MAX_ACTS_PER_COURSE}"):
                estimate_sex_integral(heavy, SimulationSpec(samples=10, seed=1))
            spec = SimulationSpec(samples=64, seed=1, act_process="expected_value")
            assert 0 < estimate_sex_integral(heavy, spec, omega=population.omega).mean

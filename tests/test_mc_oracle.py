import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import hivbrn.mc_oracle as mc
from hivbrn import (
    DomainError,
    QuadratureSpec,
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
from hivbrn.survival import SurvivalParams, survival_quantile_core

from test_accepted_box import accepted, box_keys, scenario_text


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


def block_acts(profile, spec, omega, chunk):
    """The candidate acts of one ``poisson_thinning`` block, from the same
    SFC64 substream as the estimator, in plain arrays: the generator, left
    after the transmission uniforms, and each act's course, age at death,
    age, piece cap and transmission uniform.  The acts off the window come
    first, one Poisson count per course; then the window's, one count for
    the block, each on a uniform live course at a uniform place in its
    window, those outside [0, iad] dropped."""
    size = min(spec.samples - chunk * mc.CHUNK_SAMPLES, mc.CHUNK_SAMPLES)
    seq = np.random.SeedSequence(spec.seed, spawn_key=(chunk,))
    g = np.random.Generator(np.random.SFC64(seq))
    iad = survival_quantile_core(g.random(size), profile.survival)
    iad[iad > omega] = 0.0
    delta, tau = profile.activity.annual_acts, profile.activity.terminal_lead
    w, cap_w, cap_rest, at_end = mc._envelope(profile, omega)
    live = np.flatnonzero(iad > tau)
    acts = g.poisson(np.where(iad > tau, np.maximum(iad - w, 0.0) * (delta * cap_rest), 0.0))
    windowed = g.poisson(delta * cap_w * w * live.size)
    window = live[g.integers(live.size, size=windowed)] if windowed else []
    course = np.concatenate([np.repeat(np.arange(size), acts), window]).astype(int)
    iad_rep = iad[course]
    v = g.random(course.size)
    rest = np.arange(course.size) < acts.sum()
    if at_end:
        t = np.where(rest, v * (iad_rep - w), iad_rep - v * w)
    else:
        t = np.where(rest, np.maximum(iad_rep - v * (iad_rep - w), w), v * w)
    inside = (t >= 0.0) & (t <= iad_rep)
    assert inside[rest].all()
    course, iad_rep, t, rest = course[inside], iad_rep[inside], t[inside], rest[inside]
    cap = np.where(rest, cap_rest, cap_w)
    return g, course, iad_rep, t, cap, g.random(course.size) * cap


def thinning_block(profile, spec, omega, chunk):
    """Per-sample values of one ``poisson_thinning`` block, from
    :func:`block_acts`, with both kernels run on every candidate act; the
    activity uniforms are drawn last, one per act that passes the
    transmission test, in act order."""
    g, course, iad_rep, t, _, u_act = block_acts(profile, spec, omega, chunk)
    activity = activity_fraction_core(t, iad_rep, profile.activity)
    transmits = u_act < transmission_prob_core(
        t, iad_rep, profile.viral, profile.transmission, profile.x_plateau
    )
    active = np.zeros_like(transmits)
    active[transmits] = g.random(transmits.sum()) < activity[transmits]
    size = min(spec.samples - chunk * mc.CHUNK_SAMPLES, mc.CHUNK_SAMPLES)
    return np.bincount(course[active], minlength=size) / profile.activity.annual_acts


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
        flat = TransmissionParams(p_const, p_const, 5.0, 3.0)
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

    def test_expected_value_mode_matches_quad(self, female):
        # each course's inner integral is estimated from stratified ages with
        # one uniform offset: exactly 0 up to tau1, and unbiased past it, so
        # the mean over many offsets lies within a few SE of the integral;
        # tau1 * (1 + 1e-9) holds the activity boundary layer at x = 0
        tau = female.activity.terminal_lead
        u = rng(20261021).random(2**14)
        for iad in (0.5, tau):
            assert np.all(mc._inner_estimates(np.full(u.size, iad), u, female) == 0.0)
        for iad in (tau * (1 + 1e-9), 2.0, 7.0, 15.0, 35.0):
            got = mc._inner_estimates(np.full(u.size, iad), u, female)
            se = got.std(ddof=1) / np.sqrt(u.size)
            assert se > 0
            assert abs(got.mean() - quad_inner(iad, female)) < 5 * se


class TestEstimateSexIntegral:
    def test_same_seed_bit_identical(self, male):
        spec = SimulationSpec(samples=20_000, seed=99, act_process="poisson_thinning")
        assert estimate_sex_integral(male, spec) == estimate_sex_integral(male, spec)

    def test_worker_count_invariance(self, male, monkeypatch):
        # 20,000 samples are 5 blocks, one per task; 200,705 are 49 blocks,
        # the last one ragged, sent in batches of 3 at 2 workers and 2 at 3
        # (the block and CPU caps are lifted so that 3 workers run on any
        # host). The alpha3 = 200, M2 = 5.4 profile's act counts vary widely
        # from block to block, so a batch's buffers grow and shrink in use
        monkeypatch.setattr(mc, "_pool_size", lambda workers, n_chunks: workers)
        peak = parse_scenario("[male]\nalpha3 = 200\nM2 = 5.4\n").population.male
        for profile, samples in ((male, 20_000), (male, 200_705), (peak, 20_000)):
            for process in mc.ACT_PROCESSES:
                spec = SimulationSpec(samples=samples, seed=99, act_process=process)
                single = estimate_sex_integral(profile, spec, workers=1)
                double = estimate_sex_integral(profile, spec, workers=2)
                triple = estimate_sex_integral(profile, spec, workers=3)
                assert single == double == triple

    def test_pool_size_is_capped(self, monkeypatch):
        # one process per worker that gets MIN_WORKER_BLOCKS of the blocks
        # the pool serves
        many = 100 * mc.MIN_WORKER_BLOCKS
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        assert mc._pool_size(1, many) == 1
        assert mc._pool_size(3, many) == 3
        assert mc._pool_size(10_000, 3 * mc.MIN_WORKER_BLOCKS) == 3
        assert mc._pool_size(10_000, 4 * mc.MIN_WORKER_BLOCKS - 1) == 3
        assert mc._pool_size(10_000, many) == 4
        # too few blocks for two workers start no pool: expected_value.ini's
        # 26 blocks of both sexes do not, the 490 of 10^6 samples do
        assert mc._pool_size(2, 2 * mc.MIN_WORKER_BLOCKS - 1) == 1
        assert mc._pool_size(2, 2 * mc.MIN_WORKER_BLOCKS) == 2
        assert mc._pool_size(2, 26) == 1
        assert mc._pool_size(2, 490) == 2
        assert mc._pool_size(10_000, 0) == 1
        # a process pinned to one CPU starts no pool at all
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {5})
        assert mc._pool_size(8, many) == 1
        # without an affinity call, the CPU count caps it, and 1 if unknown
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        assert mc._pool_size(10_000, many) == 64
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc._pool_size(8, many) == 1

    def test_serial_pair_imports_no_pool(self, monkeypatch):
        # below two processes process_pool yields the built-in map and 1,
        # and never imports the pool machinery, whose import would fail here
        monkeypatch.setitem(sys.modules, "concurrent.futures", None)
        few = 2 * mc.MIN_WORKER_BLOCKS - 1
        for workers, blocks in ((1, 100 * mc.MIN_WORKER_BLOCKS), (2, few), (8, 0)):
            with mc.process_pool(workers, blocks) as (run, processes):
                assert run is map
                assert processes == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[female]\ndelta = 208\n[male]\ndelta = 26\n",
            "[female]\nalpha3 = 200\nM2 = 5.4\n[male]\nalpha3 = 200\nM2 = 5.4\n",
            "[female]\nM2 = 5.0\n[male]\nM2 = 5.0\n",
        ],
        ids=["csw_clients", "alpha3-M2", "one_piece"],
    )
    def test_thinning_counts_match_every_act_reference(self, text):
        # the activity kernel runs only on acts that pass the transmission
        # test; every count must equal the one from both kernels on every act.
        # The three blocks share one buffer set, as in one batch: the
        # first block sizes it, the CSW female's second grows it, and the
        # ragged 1000-sample block fills only the start of rows written before.
        # The profiles take an early window, a terminal one and none (M1 = M2)
        pop = parse_scenario(text).population
        spec = SimulationSpec(samples=2 * mc.CHUNK_SAMPLES + 1000, seed=20260810)
        for profile in (pop.female, pop.male):
            envelope = mc._envelope(profile, pop.omega)
            got = mc._run_values(profile, spec, pop.omega, envelope, range(3))
            assert got.size == spec.samples
            for chunk in range(3):
                want = thinning_block(profile, spec, pop.omega, chunk)
                assert want.size == (1000 if chunk == 2 else mc.CHUNK_SAMPLES)
                assert np.array_equal(got[chunk * mc.CHUNK_SAMPLES :][: want.size], want)
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

    def test_calibrated_over_seeds(self, population):
        # 60 seeded estimates: if the substreams are independent and the
        # thinning unbiased, each z against the quadrature is about N(0, 1);
        # the sd of 60 such has an sd near 0.09
        z = []
        for profile in (population.female, population.male):
            ref = sex_integral(profile, population.omega)
            for seed in range(30):
                est = estimate_sex_integral(profile, SimulationSpec(8 * mc.CHUNK_SAMPLES, seed))
                z.append((est.mean - ref) / est.std_error)
        assert 0.75 <= np.std(z, ddof=1) <= 1.3
        assert np.abs(z).max() < 4.5

    def test_terminal_window_calibrated_over_seeds(self):
        # 100 seeded thinning estimates of one female integral whose window
        # is the last 1.6 years of each course (M2 = 5.4 > M1, alpha3 = 50):
        # if the two pieces' acts are drawn from the right law, each z
        # against the quadrature is about N(0, 1). The quadrature takes 16
        # levels here: at 8 it stops at 5.8e-5 relative, above tol 1e-6
        pop = parse_scenario("[female]\nM2 = 5.4\nalpha3 = 50\n").population
        ref = sex_integral(pop.female, pop.omega, QuadratureSpec(max_refine=16))
        z = []
        for seed in range(100):
            est = estimate_sex_integral(pop.female, SimulationSpec(2 * mc.CHUNK_SAMPLES, seed))
            z.append((est.mean - ref) / est.std_error)
        assert 0.8 <= np.std(z, ddof=1) <= 1.35
        assert np.abs(z).max() <= 5

    @pytest.mark.parametrize("text", ["", "[female]\nM2 = 5.6\n"], ids=["baseline", "M2-5.6"])
    def test_expected_value_calibrated_over_seeds(self, text):
        # 100 seeded estimates of one female integral: if each course's
        # stratified estimate of its inner integral is unbiased, each z
        # against the quadrature is about N(0, 1). M2 = 5.6 is a profile
        # whose candidate acts thinning refuses
        pop = parse_scenario(text).population
        ref = sex_integral(pop.female, pop.omega)
        z = []
        for seed in range(100):
            spec = SimulationSpec(2 * mc.CHUNK_SAMPLES, seed, "expected_value")
            est = estimate_sex_integral(pop.female, spec, omega=pop.omega)
            z.append((est.mean - ref) / est.std_error)
        assert 0.8 <= np.std(z, ddof=1) <= 1.35
        assert np.abs(z).max() <= 5

    def test_tiny_values_keep_their_standard_error(self):
        # a flat link of 1e-170 gives values near 1e-172 whose centred squares
        # fall below the least subnormal unless scaled; the values are those of
        # the 1e-10 link times 1e-160, and so is the standard error
        spec = SimulationSpec(20_000, 20260810, "expected_value")
        ests = []
        for ptr in ("1e-10", "1e-170"):
            pop = parse_scenario(f"[female]\nptr_hi = {ptr}\nptr_lo = {ptr}\n").population
            ests.append(estimate_sex_integral(pop.female, spec))
        ref = sex_integral(pop.female, pop.omega)
        plain, tiny = ests
        assert tiny.std_error > 0
        assert abs(tiny.mean - ref) < 5 * tiny.std_error
        assert tiny.std_error / tiny.mean == pytest.approx(plain.std_error / plain.mean, rel=1e-12)

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

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True])
    def test_workers_validation(self, male, workers):
        # unchecked, a float fails deep in the pool sizing, and 0, -3 and
        # True run serially without a word
        with pytest.raises(DomainError, match="workers must be an int >= 1"):
            estimate_sex_integral(male, SimulationSpec(samples=10, seed=1), workers)

    # recorded from the committed SFC64 substreams at 20,000 samples, seed
    # 20260810: thinning counts are exact, so any change to the stream, to
    # its draw order, to the envelope or to the kernels' accept/reject
    # decisions shows here
    PINNED_THINNING = {
        "female": (0.011957317073170732, 8.923602032533164e-05),
        "male": (0.01275, 9.256601115710033e-05),
    }
    PINNED_EXPECTED = {"female": 0.011901953339856223, "male": 0.012703900663267641}

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
        # beta = 0.05 is refused; the box's least shape, 0.1, puts about 45%
        # of the mass past omega = 40, with draws up to 1e18 years: they
        # count as empty, and the Poisson rate stays below
        # delta * p_max * omega
        with pytest.raises(DomainError, match=r"shape \(beta\) must be in \[0.1, 1000\]"):
            SurvivalParams(8.6, 0.05)
        heavy = dataclasses.replace(female, survival=SurvivalParams(8.6, 0.1))
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
        with pytest.raises(DomainError, match=r"omega must be in \[0.001, 1000\]"):
            estimate_sex_integral(female, spec, omega=omega)
        with pytest.raises(DomainError, match=r"omega must be in \[0.001, 1000\]"):
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
        # course, and the box's largest delta; expected_value still runs. At
        # twice the baseline horizon the envelope's mass is 0.295 acts per
        # unit of delta, so that twice the bound is a delta inside the box.
        # A delta of 1e300, whose bound overflowed, is refused with its key
        with pytest.raises(DomainError, match=r"annual_acts \(delta\) must be in \[0, 10000\]"):
            dataclasses.replace(female.activity, annual_acts=1e300)
        omega = 2 * population.omega
        mass = mc._envelope_mass(female, mc._envelope(female, omega), omega)
        twice = 2 * mc.MAX_ACTS_PER_COURSE / (mass / female.activity.annual_acts)
        for delta in (twice, 1e4):
            heavy = dataclasses.replace(
                female, activity=dataclasses.replace(female.activity, annual_acts=delta)
            )
            with pytest.raises(DomainError, match=f"<= {mc.MAX_ACTS_PER_COURSE}"):
                estimate_sex_integral(heavy, SimulationSpec(samples=10, seed=1), omega=omega)
            spec = SimulationSpec(samples=64, seed=1, act_process="expected_value")
            assert 0 < estimate_sex_integral(heavy, spec, omega=omega).mean

    def test_act_bound_follows_the_envelope(self):
        # the bound is the envelope's mass, not delta * peak_prob * omega: M2
        # 5.6 (peak_prob 0.986, 3233 acts by that product) draws 513 and
        # runs; with alpha3 0.1 its window is 14.4 years long, and 1182 acts
        # are refused
        for text, mass in (("", 12.33), ("[female]\nM2 = 5.6\n", 513.0)):
            pop = parse_scenario(text).population
            envelope = mc._envelope(pop.female, pop.omega)
            assert mc._envelope_mass(pop.female, envelope, pop.omega) == pytest.approx(mass, abs=0.01)
            est = estimate_sex_integral(pop.female, SimulationSpec(samples=64, seed=1))
            assert est.mean >= 0
        wide = parse_scenario("[female]\nM2 = 5.6\nalpha3 = 0.1\n").population.female
        with pytest.raises(DomainError, match=r"not 1182; use expected_value instead$"):
            estimate_sex_integral(wide, SimulationSpec(samples=64, seed=1))


def assert_acts_within_caps(profile, omega, seed):
    """Every candidate act of a 64-course block, and ages at the rest
    piece's edge and across it on up to 64 courses up to ``omega``, have a
    per-act probability at most their piece's cap."""
    _, _, iad, t, cap, _ = block_acts(profile, SimulationSpec(64, seed), omega, 0)
    args = profile.viral, profile.transmission, profile.x_plateau
    assert (transmission_prob_core(t, iad, *args) <= cap).all()
    w, _, cap_rest, at_end = mc._envelope(profile, omega)
    # a course draws acts off the window only if it is longer than w
    courses = np.linspace(w, omega, 65)
    courses = courses[courses > w][:, None]
    span = np.linspace(0.0, 1.0, 33)
    rest = span * (courses - w) if at_end else np.maximum(courses - span * (courses - w), w)
    assert (transmission_prob_core(rest, courses, *args) <= cap_rest).all()


ENVELOPE_CASES = {
    "baseline": "",
    "csw_clients": "[female]\ndelta = 208\n[male]\ndelta = 26\n",
    "terminal": "[female]\nM2 = 5.4\nalpha3 = 50\n[male]\nM2 = 5.4\nalpha3 = 50\n",
    "one_piece": "[female]\nM2 = 5.0\n[male]\nM2 = 5.0\n",
}


@pytest.mark.parametrize("text", ENVELOPE_CASES.values(), ids=ENVELOPE_CASES.keys())
def test_envelope_bounds_every_act(text):
    pop = parse_scenario(text).population
    for profile in (pop.female, pop.male):
        for seed in range(4):
            assert_acts_within_caps(profile, pop.omega, seed)


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(box_keys(), st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_envelope_bounds_every_act_over_box(keys, lift):
    # both orders, M1 >= M2 and M2 > M1, over the valid box: M2 as drawn, or
    # lifted by the fraction ``lift`` of the way from M1 to the box's top; a
    # profile whose acts thinning refuses draws none
    if lift is not None:
        keys = {**keys, "M2": keys["M1"] + (10.0 - keys["M1"]) * lift}
    pop = accepted(scenario_text(keys)).population
    profile = pop.female
    envelope = mc._envelope(profile, pop.omega)
    assume(0 < mc._envelope_mass(profile, envelope, pop.omega) <= mc.MAX_ACTS_PER_COURSE)
    assert_acts_within_caps(profile, pop.omega, 20261021)

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from hivbrn import (
    BrnResult,
    DomainError,
    PopulationConfig,
    QuadratureFailure,
    QuadratureSpec,
    ScenarioError,
    SexProfile,
    TransmissionParams,
    Verdict,
    composite_r0,
    evaluate_brn,
    index_i0,
    parse_scenario,
    reproduction,
    sensitivity_sweep,
    sex_brn,
    sex_integral,
    sex_integrals,
)
from hivbrn.behavior import activity_fraction, activity_fraction_core
from hivbrn.natural_history import transmission_prob, transmission_prob_core
from hivbrn.survival import survival_density
from hivbrn.reproduction import CRITICAL_BAND, MAX_REFINE

from conftest import PARAM_BOX

# Frozen cross-check values from scipy.integrate.quad nested over the same
# integrand at epsrel=1e-11 (the live oracle below re-derives the female one
# at looser settings).
INT_F_REFERENCE = 0.011866472266349291
INT_M_REFERENCE = 0.012666651010154186


CORNER = "[female]\nalpha1 = 1.02\n[male]\nalpha1 = 1.02\n[quadrature]\ntol = 1e-7\n"
PEAK = "[female]\nalpha3 = 200\nM2 = 5.4\n[male]\nalpha3 = 200\nM2 = 5.4\n"
CSW_CLIENTS = (Path(__file__).parents[1] / "scenarios" / "csw_clients.ini").read_text()


def scaled_profile(profile, factor):
    link = profile.transmission
    scaled = TransmissionParams.from_anchors(
        factor * link.prob_at_peak,
        factor * link.prob_at_plateau,
        profile.viral.peak_log_vl,
        profile.viral.plateau_log_vl,
    )
    return dataclasses.replace(profile, transmission=scaled)


def settles(profile, factor, omega, quad):
    """Whether the one-link integral of ``profile`` scaled by ``factor``
    converges rather than raising :class:`QuadratureFailure`."""
    try:
        sex_integral(scaled_profile(profile, factor), omega, quad)
    except QuadratureFailure:
        return False
    return True


def per_factor_sweep(population, factors, quad):
    """``scale_endpoints`` as one pair of integrals per rescaled population,
    in factor order: the reference for the shared-mesh sweep."""
    out = []
    for factor in factors:
        scaled = dataclasses.replace(
            population,
            female=scaled_profile(population.female, factor),
            male=scaled_profile(population.male, factor),
        )
        out.append((factor, index_i0(*sex_integrals(scaled, quad))))
    return out


class TestSexIntegral:
    def test_female_value(self, baseline_integrals):
        int_f, _ = baseline_integrals
        assert int_f == pytest.approx(0.011875, rel=0.02)
        assert int_f == pytest.approx(INT_F_REFERENCE, rel=1e-5)

    def test_male_value(self, baseline_integrals):
        _, int_m = baseline_integrals
        assert int_m == pytest.approx(0.012692, rel=0.03)
        assert int_m == pytest.approx(INT_M_REFERENCE, rel=1e-5)

    def test_against_live_scipy_oracle(self, female, population):
        # independent route: scipy's adaptive quadrature, nested over the
        # plain-math integrand below
        f, s = scalar_integrand(female)

        def inner(y):
            return integrate.quad(f, 0.0, y, args=(y,), limit=200)[0]

        oracle, _ = integrate.quad(
            lambda y: s(y) * inner(y),
            female.activity.terminal_lead,
            population.omega,
            limit=200,
        )
        assert sex_integral(female, population.omega) == pytest.approx(
            oracle, rel=1e-5
        )

    def test_vanishing_transmission(self, female, population):
        tiny = scaled_profile(female, 1e-12 / female.transmission.prob_at_plateau)
        assert sex_integral(tiny, population.omega) == pytest.approx(0.0, abs=1e-10)

    def test_pair_of_integrals(self, population, baseline_integrals):
        assert sex_integrals(population) == baseline_integrals

    def test_pointwise_scaling_is_linear(self, population, baseline_integrals):
        base = index_i0(*baseline_integrals)
        for c, scaled in sensitivity_sweep(population, [0.5, 2.0]):
            assert scaled == pytest.approx(base / c, rel=1e-9)

    def test_monotone_in_anchor_probs(self, female, population):
        values = []
        for hi in np.linspace(0.004, 0.012, 5):
            link = TransmissionParams.from_anchors(hi, 0.001, 5.0, 3.0)
            prof = dataclasses.replace(female, transmission=link)
            values.append(sex_integral(prof, population.omega))
        assert np.all(np.diff(values) > 0)
        values = []
        for lo in np.linspace(0.0005, 0.002, 5):
            link = TransmissionParams.from_anchors(0.008, lo, 5.0, 3.0)
            prof = dataclasses.replace(female, transmission=link)
            values.append(sex_integral(prof, population.omega))
        assert np.all(np.diff(values) > 0)

    def test_horizon_stability(self, female, tight_quad):
        at_40 = sex_integral(female, 40.0, tight_quad)
        at_60 = sex_integral(female, 60.0, tight_quad)
        assert abs(at_60 - at_40) / at_40 < 1e-6

    def test_short_horizon_is_zero(self, female):
        assert sex_integral(female, 1.0) == 0.0

    @pytest.mark.parametrize("omega", [2e7, 1e8, 1e12])
    def test_long_horizon_is_never_zero(self, population, baseline_integrals, omega):
        # a mesh that misses the survival mass sums to 0, which must not
        # pass for two agreeing levels
        tol = QuadratureSpec().tol
        for prof, at_40 in zip((population.female, population.male), baseline_integrals):
            try:
                value = sex_integral(prof, omega)
            except QuadratureFailure:
                continue
            assert abs(value - at_40) <= tol * at_40

    def test_refinement_exhaustion(self, female, population):
        with pytest.raises(QuadratureFailure):
            sex_integral(
                female, population.omega, QuadratureSpec(tol=1e-16, max_refine=1)
            )

    def test_mesh_missing_the_survival_mass_says_so(self, female):
        # at omega 1e15 every level's outer panels miss the mass near the
        # median, so every total is 0 and no relative error exists
        with pytest.raises(QuadratureFailure) as err:
            sex_integral(female, 1e15)
        assert str(err.value) == (
            "no level's total was positive: the mesh never reached the survival "
            "mass below omega 1e+15 after 8 graded levels"
        )

    def test_underflowing_integrand_says_so(self, female):
        # scaled by 1e-320 the per-act probability underflows to 0 at every
        # node, though the survival density there is positive
        with pytest.raises(QuadratureFailure) as err:
            sex_integral(scaled_profile(female, 1e-320), 40.0)
        assert str(err.value) == (
            "no level's total was positive: the integrand underflows to 0 at "
            "every node with survival mass below omega 40 after 8 graded levels"
        )

    def test_scale_must_keep_prob_below_one(self, population):
        with pytest.raises(DomainError):
            sensitivity_sweep(population, [200.0])


def scalar_integrand(profile):
    """``f(x, y) = G * ptr`` and the Weibull density ``s(y)`` in plain
    ``math``, sharing no code with the kernels the quadrature calls; fast
    enough for nested ``scipy.integrate.quad`` at epsrel 1e-11."""
    v, link, act = profile.viral, profile.transmission, profile.activity
    xp, tau, phi = profile.x_plateau, act.terminal_lead, act.residual_fraction
    e = math.exp(v.warp_rate)
    a, b = profile.survival.scale, profile.survival.shape

    def f(x, y):
        logistic = 1.0 / (1.0 + math.exp(v.warp_rate - x * (1.0 + e) / xp))
        r = xp * (1.0 + 1.0 / e) * (logistic - 1.0 / (1.0 + e)) / v.peak_time
        base = v.peak_log_vl * r ** (v.rise_shape - 1.0) * math.exp(
            (1.0 - v.rise_shape) * (r - 1.0)
        )
        bump = math.exp(-v.terminal_width * (x - y + tau) ** 2)
        lvl = base + (v.terminal_log_vl - base) * bump
        ptr = -math.expm1(-math.exp(link.intercept + link.slope * 10.0**lvl))
        g = (1.0 - x / y) / (1.0 + x * (tau - phi * y) / (y * phi * (y - tau)))
        return g * ptr

    def s(y):
        return y ** (b - 1.0) * b / a**b * math.exp(-((y / a) ** b))

    return f, s


def nested_quad(profile, omega, epsrel=1e-11):
    f, s = scalar_integrand(profile)

    def inner(y):
        return integrate.quad(
            f, 0.0, y, args=(y,), epsabs=0.0, epsrel=epsrel, limit=400
        )[0]

    return integrate.quad(
        lambda y: s(y) * inner(y),
        profile.activity.terminal_lead,
        omega,
        epsabs=0.0,
        epsrel=epsrel,
        limit=400,
    )[0]


class TestWholeBox:
    """The graded quadrature meets its tol away from the baseline too, with
    the x**(alpha1 - 1) singularity near its sharpest."""

    BOX = {**PARAM_BOX, "beta": (2.2, 3.5)}

    # fixed draws from the valid parameter box, the second with alpha1 < 1.1
    DRAWS = (
        "ia1 = 0.2806\nM1 = 5.347\nm = 3.264\ntau1 = 0.7551\nM2 = 4.595\n"
        "alpha1 = 1.102\nalpha2 = 0.2955\nalpha3 = 1.031\nptr_hi = 0.004751\n"
        "ptr_lo = 0.0005425\nphi = 0.7343\nmedian = 8.731\nbeta = 3.191\n",
        "ia1 = 0.4672\nM1 = 5.222\nm = 2.729\ntau1 = 1.445\nM2 = 5.082\n"
        "alpha1 = 1.038\nalpha2 = 0.1076\nalpha3 = 0.8331\nptr_hi = 0.01151\n"
        "ptr_lo = 0.001072\nphi = 0.4866\nmedian = 8.688\nbeta = 2.238\n",
    )

    @staticmethod
    def check(keys, tol):
        pop = parse_scenario("[female]\n" + keys).population
        got = sex_integral(pop.female, pop.omega, QuadratureSpec(tol=tol))
        assert got == pytest.approx(nested_quad(pop.female, pop.omega), rel=tol)

    def test_baseline_at_alpha1_corner(self):
        self.check("alpha1 = 1.02\n", 1e-9)

    @pytest.mark.parametrize("keys", DRAWS, ids=["typical", "alpha1_below_1.1"])
    def test_box_draws(self, keys):
        self.check(keys, 1e-8)

    @settings(database=None, derandomize=True, deadline=None, max_examples=8)
    @given(
        st.fixed_dictionaries({k: st.floats(*r) for k, r in BOX.items()}),
        st.sampled_from((1e-6, 1e-8, 1e-10)),
    )
    def test_converged_means_within_tol(self, values, tol):
        # a result the quadrature reports is within tol of the reference;
        # the only other outcome allowed is QuadratureFailure
        keys = "".join(f"{k} = {v!r}\n" for k, v in values.items())
        try:
            parse_scenario("[female]\n" + keys)
        except ScenarioError:
            assume(False)
        try:
            self.check(keys, tol)
        except QuadratureFailure:
            pass


class TestCores:
    """The unchecked cores that the quadrature and the Monte Carlo call
    agree with the plain-``math`` integrand, and the public wrappers around
    them still guard the domain."""

    @pytest.mark.parametrize(
        "keys", ("", *TestWholeBox.DRAWS), ids=["baseline", "typical", "alpha1_below_1.1"]
    )
    def test_against_scalar_integrand(self, keys):
        prof = parse_scenario("[female]\n" + keys).population.female
        f, _ = scalar_integrand(prof)
        g = np.random.default_rng(20261018)
        y = g.uniform(prof.activity.terminal_lead, 40.0, 200)
        x = g.random(200) * y
        x[:10] = 0.0
        x[10:20] = y[10:20]
        got = activity_fraction_core(x, y, prof.activity) * transmission_prob_core(
            x, y, prof.viral, prof.transmission, prof.x_plateau
        )
        want = np.array([f(xi, yi) for xi, yi in zip(x, y)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "ia, iad", [(-0.5, 5.0), (6.0, 5.0)], ids=["negative", "past_death"]
    )
    def test_wrappers_check_domain(self, female, ia, iad):
        v, xp = female.viral, female.x_plateau
        life_course = [
            lambda a, d: activity_fraction(a, d, female.activity),
            lambda a, d: transmission_prob(a, d, v, female.transmission, xp),
        ]
        x_only = [lambda a, _: survival_density(a, female.survival)]
        for wrapper in life_course + (x_only if ia < 0 else []):
            for args in ((ia, iad), (np.array([1.0, ia]), iad)):
                with pytest.raises(DomainError):
                    wrapper(*args)
        # every public kernel returns a float for scalar input and an array
        # of the input's shape for array input
        ages = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        for kernel in life_course + x_only:
            assert type(kernel(0.5, 5.0)) is float
            out = kernel(ages, 5.0)
            assert isinstance(out, np.ndarray) and out.shape == ages.shape


class TestSexBrn:
    def test_lower_corner(self, baseline_integrals):
        assert sex_brn(208.0, baseline_integrals[0]) == pytest.approx(2.47, rel=0.01)

    def test_upper_corner(self, baseline_integrals):
        assert sex_brn(468.0, baseline_integrals[0]) == pytest.approx(5.55, rel=0.01)

    def test_zero_rate(self, baseline_integrals):
        assert sex_brn(0.0, baseline_integrals[0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sex_brn(-1.0, 0.01)


class TestIndices:
    def test_i0_baseline(self, baseline_integrals):
        assert index_i0(*baseline_integrals) == pytest.approx(81.60, rel=0.01)

    def test_i0_unit(self):
        assert index_i0(1.0, 1.0) == 1.0

    def test_i0_from_rounded_corners(self):
        # arithmetic on the corner-implied integrals is self-consistent
        assert index_i0(2.47 / 208.0, 0.33 / 26.0) == pytest.approx(81.45, abs=0.1)

    def test_i0_undefined_for_zero(self):
        with pytest.raises(DomainError):
            index_i0(0.0, 0.01)

    def test_i0_undefined_for_underflowing_product(self):
        # each integral is > 0, but their product is 0 in double precision
        with pytest.raises(DomainError, match="underflows"):
            index_i0(1e-200, 1e-200)

    def test_isa(self, population):
        # ISA = sqrt(delta_m * delta_f); with_deltas takes (delta_f, delta_m)
        def isa(delta_m, delta_f):
            return evaluate_brn(with_deltas(population, delta_f, delta_m)).isa

        assert isa(82.0, 82.0) == 82.0
        assert isa(26.0, 256.1) == pytest.approx(81.6, abs=0.1)
        assert isa(0.0, 300.0) == 0.0
        with pytest.raises(DomainError):
            isa(-1.0, 10.0)

    def test_composite_r0(self):
        assert composite_r0(2.47, 0.33) == pytest.approx(0.90, abs=0.01)
        assert composite_r0(5.55, 1.32) == pytest.approx(2.70, abs=0.02)
        assert composite_r0(1.0, 1.0) == 1.0
        with pytest.raises(DomainError):
            composite_r0(-0.1, 1.0)


def with_deltas(population, delta_f, delta_m):
    female = dataclasses.replace(
        population.female,
        activity=dataclasses.replace(
            population.female.activity, annual_acts=delta_f
        ),
    )
    male = dataclasses.replace(
        population.male,
        activity=dataclasses.replace(population.male.activity, annual_acts=delta_m),
    )
    return dataclasses.replace(population, female=female, male=male)


class TestEvaluateAndThreshold:
    def test_equal_rates_82_is_epidemic(self, population):
        result = evaluate_brn(with_deltas(population, 82.0, 82.0))
        assert result.verdict is Verdict.EPIDEMIC
        assert result.epidemic

    def test_verdict_is_the_last_field(self, population):
        # eval writes the record's fields in order, the verdict last
        names = [f.name for f in dataclasses.fields(BrnResult)]
        assert names[-2:] == ["epidemic", "verdict"]
        result = evaluate_brn(population)
        assert result.epidemic is (result.verdict is Verdict.EPIDEMIC)

    def test_lower_corner_subcritical(self, population):
        result = evaluate_brn(with_deltas(population, 208.0, 26.0))
        assert result.verdict is Verdict.SUBCRITICAL
        assert result.r0 == pytest.approx(0.90, abs=0.01)
        assert not result.epidemic

    def test_exact_boundary_is_critical(self, population):
        result = evaluate_brn(with_deltas(population, 82.0, 82.0))
        critical_df = result.i0**2 / 26.0
        boundary = evaluate_brn(with_deltas(population, critical_df, 26.0))
        assert boundary.verdict is Verdict.CRITICAL

    def test_result_internal_consistency(self, population):
        result = evaluate_brn(with_deltas(population, 300.0, 40.0))
        assert result.r0 == pytest.approx(
            np.sqrt(result.r_fm * result.r_mf), rel=1e-12
        )
        assert result.r_fm == pytest.approx(300.0 * result.integral_f, rel=1e-12)
        assert result.r_mf == pytest.approx(40.0 * result.integral_m, rel=1e-12)

    @pytest.mark.parametrize(
        "delta, name", [(1e300, "R0"), (2e154, "ISA")], ids=["r0", "isa-only"]
    )
    def test_beyond_double_range_raises(self, population, delta, name):
        # at 2e154 only ISA overflows: delta_m * delta_f does, r_fm * r_mf not
        with pytest.raises(DomainError, match=f"{name} is beyond double range"):
            evaluate_brn(with_deltas(population, delta, delta))

    def test_index_ratio_and_r0_agree_to_ulps(self, baseline_integrals):
        # the verdict reads ISA against I0 alone; R0 against 1 is the same
        # comparison rounded another way, a few ulps apart at any contact
        # rates, including those on the critical band's edges
        int_f, int_m = baseline_integrals
        i0 = index_i0(int_f, int_m)
        for dm in np.geomspace(1.0, 1000.0, 40):
            edge = [i0**2 / dm * (1 + k * CRITICAL_BAND) for k in range(-3, 4)]
            for df in [*np.geomspace(1.0, 1000.0, 40), *edge]:
                r0 = composite_r0(sex_brn(df, int_f), sex_brn(dm, int_m))
                assert abs(math.sqrt(dm * df) / i0 - r0) <= 4 * math.ulp(r0)

    def test_three_predicates_agree_on_grid(self, population, baseline_integrals):
        int_f, int_m = baseline_integrals
        i0 = index_i0(int_f, int_m)
        for dm in np.linspace(26.0, 104.0, 20):
            for df in np.linspace(208.0, 468.0, 20):
                r_fm, r_mf = df * int_f, dm * int_m
                by_r0 = composite_r0(r_fm, r_mf) > 1.0
                by_product = r_fm * r_mf > 1.0
                by_index = math.sqrt(dm * df) > i0
                assert by_r0 == by_product == by_index

    def test_identical_profiles_reduce_to_single_sex(self, population):
        male_as_female = dataclasses.replace(population.male, label="female")
        config = dataclasses.replace(population, female=male_as_female)
        result = evaluate_brn(with_deltas(config, 82.0, 82.0))
        assert result.r_fm == result.r_mf
        assert result.r0 == pytest.approx(result.r_fm, rel=1e-12)
        assert result.r0 == pytest.approx(82.0 * result.integral_m, rel=1e-12)


class TestSensitivity:
    def test_scale_function_values(self, population):
        swept = dict(sensitivity_sweep(population, [0.5, 1.0, 2.0]))
        assert swept[0.5] == pytest.approx(163.2, rel=0.01)
        assert swept[1.0] == pytest.approx(81.60, rel=0.01)
        assert swept[2.0] == pytest.approx(40.8, rel=0.01)

    def test_identity_factor(self, population, baseline_integrals):
        ((_, i0),) = sensitivity_sweep(population, [1.0])
        assert i0 == index_i0(*baseline_integrals)

    def test_exact_inverse_linearity(self, population, baseline_integrals):
        base = index_i0(*baseline_integrals)
        for factor, i0 in sensitivity_sweep(population, [0.5, 2.0]):
            assert i0 == pytest.approx(base / factor, rel=1e-9)

    def test_endpoint_mode_agrees(self, population):
        factors = [0.5, 2.0]
        by_function = dict(sensitivity_sweep(population, factors, "scale_function"))
        by_endpoints = dict(sensitivity_sweep(population, factors, "scale_endpoints"))
        for f in factors:
            assert by_endpoints[f] == pytest.approx(by_function[f], rel=0.025)

    def test_scaled_probability_guard(self, population):
        with pytest.raises(DomainError, match="^female transmission probability scaled by 200 "):
            sensitivity_sweep(population, [200.0], "scale_function")
        with pytest.raises(DomainError, match="^female transmission probability scaled by 130 "):
            sensitivity_sweep(population, [130.0], "scale_endpoints")

    def test_bad_inputs(self, population):
        for mode in ("scale_function", "scale_endpoints"):
            with pytest.raises(DomainError, match="scale factors must be > 0"):
                sensitivity_sweep(population, [0.0], mode)
        with pytest.raises(DomainError):
            sensitivity_sweep(population, [1.0], "scale_sideways")

    @pytest.mark.parametrize(
        "text, factors, split_level",
        [
            ("[quadrature]\ntol = 2.6e-9\n", [0.5, 120.0, 2.0], 1),
            (CORNER, [0.5, 120.0], 2),
            (PEAK + "[quadrature]\ntol = 2e-3\n", [0.5, 60.0, 5.0], 1),
            (CSW_CLIENTS + "[quadrature]\ntol = 2e-9\n", [0.5, 120.0, 2.0], 1),
        ],
        ids=["baseline", "alpha1-corner", "alpha3-M2", "csw_clients"],
    )
    def test_endpoint_sweep_is_bit_identical_per_factor(self, text, factors, split_level):
        # the factors share one mesh per level, yet each keeps the value of
        # its own pair of integrals, bit for bit
        scenario = parse_scenario(text)
        pop, quad = scenario.population, scenario.quadrature
        # premise: at split_level some factors' integrals have converged and
        # some have not, so the shared levels run for a subset of the links
        short = dataclasses.replace(quad, max_refine=split_level)
        settled = [
            settles(prof, factor, pop.omega, short)
            for prof in (pop.female, pop.male)
            for factor in factors
        ]
        assert any(settled) and not all(settled)
        swept = sensitivity_sweep(pop, factors, "scale_endpoints", quad)
        assert swept == per_factor_sweep(pop, factors, quad)

    @pytest.mark.parametrize(
        "tol, factors, error",
        [(9.5e-4, [60.0, 0.5, 5.0], "5.02e-03"), (9e-4, [60.0, 0.5, 0.1], "6.22e-03")],
        ids=["one-fails", "male-before-later-female"],
    )
    def test_endpoint_failure_is_the_first_per_factor_failure(self, tol, factors, error):
        # at 9.5e-4 only the male integral at factor 0.5 fails; at 9e-4 the
        # female one at the later factor 0.1 fails too, and as the female
        # links run first, its failure is the one reported, named by its
        # sex and factor
        pop = parse_scenario(PEAK).population
        quad = QuadratureSpec(tol=tol)
        # reference: each sex one factor at a time, female before male
        with pytest.raises(QuadratureFailure) as expected:
            for prof in (pop.female, pop.male):
                for factor in factors:
                    failing = f"{prof.label} transmission probability scaled by {factor:g}"
                    sex_integral(scaled_profile(prof, factor), pop.omega, quad)
        with pytest.raises(QuadratureFailure) as got:
            sensitivity_sweep(pop, factors, "scale_endpoints", quad)
        assert str(got.value) == f"{failing}: {expected.value}"
        named = "female" if tol == 9e-4 else "male"
        factor = "0.1" if tol == 9e-4 else "0.5"
        assert str(got.value) == (
            f"{named} transmission probability scaled by {factor}: "
            f"relative error {error} above target {tol:g} after 8 graded levels"
        )
        failed = sum(not settles(pop.female, f, pop.omega, quad) for f in factors)
        assert failed == (tol == 9e-4)

    def test_female_failure_leaves_male_integrals_unrun(self, monkeypatch):
        # at 9e-4 the female factor 0.1 fails, so the male links never run
        pop = parse_scenario(PEAK).population
        calls = []
        original = reproduction.link_integrals

        def counted(profile, *args, **kwargs):
            calls.append(profile.label)
            return original(profile, *args, **kwargs)

        monkeypatch.setattr(reproduction, "link_integrals", counted)
        quad = QuadratureSpec(tol=9e-4)
        with pytest.raises(
            QuadratureFailure,
            match="^female transmission probability scaled by 0.1: relative error 6.22e-03 ",
        ):
            sensitivity_sweep(pop, [60.0, 0.5, 0.1], "scale_endpoints", quad)
        assert calls == ["female"]


class TestBalance:
    # with both head counts set, PopulationConfig requires the act balance
    # pop_female * delta_f == pop_male * delta_m
    def test_equal_populations(self, population):
        config = with_deltas(population, 82.0, 82.0)
        dataclasses.replace(config, pop_female=1000.0, pop_male=1000.0)

    def test_csw_ratio(self, population):
        config = with_deltas(population, 208.0, 26.0)
        dataclasses.replace(config, pop_female=1.0, pop_male=8.0)
        off = with_deltas(population, 208.0, 27.0)
        with pytest.raises(DomainError, match="male delta = 26 by act balance"):
            dataclasses.replace(off, pop_female=1.0, pop_male=8.0)

    def test_rejects_nonpositive_population(self, population):
        config = with_deltas(population, 208.0, 26.0)
        with pytest.raises(DomainError):
            dataclasses.replace(config, pop_female=0.0, pop_male=8.0)
        with pytest.raises(DomainError):
            dataclasses.replace(config, pop_female=1.0, pop_male=-8.0)


class TestConfigValidation:
    def test_tail_mass_guard(self, population):
        with pytest.raises(DomainError):
            dataclasses.replace(population, omega=10.0)

    def test_label_mismatch(self, population):
        with pytest.raises(DomainError):
            PopulationConfig(female=population.male, male=population.male)
        with pytest.raises(DomainError, match="label must be"):
            dataclasses.replace(population.male, label="men")

    def test_swapped_terminal_lead(self, female):
        bad_activity = dataclasses.replace(female.activity, terminal_lead=2.0)
        with pytest.raises(DomainError):
            dataclasses.replace(female, activity=bad_activity)

    def test_peak_probability_below_one(self, female):
        hot = dataclasses.replace(female.viral, terminal_log_vl=6.0)
        with pytest.raises(DomainError, match="female .*M1, M2"):
            dataclasses.replace(female, viral=hot)

    def test_quadrature_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(tol=0.0)
        # convergence compares two levels: one refinement is the least
        for bad in (-1, 0):
            with pytest.raises(DomainError, match=r"must be in \[1, "):
                QuadratureSpec(max_refine=bad)
        with pytest.raises(DomainError):
            QuadratureSpec(max_refine=MAX_REFINE + 1)
        # a float or bool level count would fail or pass silently later
        for bad in (2.5, True):
            with pytest.raises(DomainError, match="must be an int"):
                QuadratureSpec(max_refine=bad)

    def test_infinite_omega_rejected(self, population, female):
        # an infinite horizon has no finite quadrature mesh
        with pytest.raises(DomainError, match="omega"):
            dataclasses.replace(population, omega=math.inf)
        with pytest.raises(DomainError, match="omega"):
            sex_integral(female, math.inf)

    def test_population_size_validation(self, population):
        with pytest.raises(DomainError):
            dataclasses.replace(population, pop_female=0.0)

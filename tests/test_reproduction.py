import copy
import dataclasses
import math
import sys
import threading
import tracemalloc
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
from hivbrn.natural_history import (
    cloglog_core,
    linear_load_core,
    log_viral_load_core,
    transmission_prob,
    transmission_prob_core,
)
from hivbrn.survival import survival_density
from hivbrn.reproduction import BLOCK_NODES, CRITICAL_BAND, MAX_REFINE, ORDER, _graded_rule, scaled_links

from conftest import HUGE, LONG, PARAM_BOX, UNREACHED

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
    scaled = TransmissionParams(
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
            link = TransmissionParams(hi, 0.001, 5.0, 3.0)
            prof = dataclasses.replace(female, transmission=link)
            values.append(sex_integral(prof, population.omega))
        assert np.all(np.diff(values) > 0)
        values = []
        for lo in np.linspace(0.0005, 0.002, 5):
            link = TransmissionParams(0.008, lo, 5.0, 3.0)
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
        # pass for two agreeing levels; a horizon past the box is refused,
        # and the box's longest one is integrated in its place
        tol = QuadratureSpec().tol
        for prof, at_40 in zip((population.female, population.male), baseline_integrals):
            with pytest.raises(DomainError, match=r"omega must be in \[0.001, 1000\]"):
                sex_integral(prof, omega)
            try:
                value = sex_integral(prof, 1e3)
            except QuadratureFailure:
                continue
            assert abs(value - at_40) <= tol * at_40

    def test_refinement_exhaustion(self, female, population):
        with pytest.raises(QuadratureFailure):
            sex_integral(
                female, population.omega, QuadratureSpec(tol=1e-16, max_refine=1)
            )

    def test_mesh_missing_the_survival_mass_says_so(self):
        # the whole survival mass lies before tau1, so every course is too
        # short to carry activity and the first total is 0: the message says
        # so at once instead of blaming the mesh
        female = parse_scenario(UNREACHED).population.female
        with pytest.raises(QuadratureFailure) as err:
            sex_integral(female, 40.0)
        assert str(err.value) == "no course outlives tau1 5, so none carries activity"

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

    def test_bounded_by_the_box(self):
        # the box's largest delta times its longest horizon bounds the number
        assert sex_brn(1e4, 1e3) == 1e7
        for delta, integral in ((1e4, 1e3 * (1 + 1e-15)), (1e200, 1e160), (1.0, -0.5), (1.0, math.nan)):
            with pytest.raises(DomainError, match=r"delta \* integral must be in \[0, 1e\+07\]"):
                sex_brn(delta, integral)


class TestIndices:
    def test_i0_baseline(self, baseline_integrals):
        assert index_i0(*baseline_integrals) == pytest.approx(81.60, rel=0.01)

    def test_i0_unit(self):
        assert index_i0(1.0, 1.0) == 1.0
        # the product keeps its one root; a sex integral is at most its
        # horizon, so at the box's longest one the product is still in range,
        # and integrals whose product overflowed are refused
        assert index_i0(0.3, 0.7) == (0.3 * 0.7) ** -0.5
        assert index_i0(1e3, 1e3) == pytest.approx(1e-3, rel=1e-15, abs=0)
        with pytest.raises(DomainError, match=r"sex integrals must be in \(0, 1000\]"):
            index_i0(1.027e157, 1.027e157)

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
        # deltas whose product overflowed are refused; at the box's largest
        # the product is in range
        with pytest.raises(DomainError, match=r"annual_acts \(delta\) must be in \[0, 10000\]"):
            isa(1e200, 4e200)
        assert isa(1e4, 2.5e3) == 5e3
        with pytest.raises(DomainError):
            isa(-1.0, 10.0)

    def test_composite_r0(self):
        assert composite_r0(2.47, 0.33) == pytest.approx(0.90, abs=0.01)
        assert composite_r0(5.55, 1.32) == pytest.approx(2.70, abs=0.02)
        assert composite_r0(1.0, 1.0) == 1.0
        assert composite_r0(2.47, 0.33) == math.sqrt(2.47 * 0.33)
        # the box's largest delta times its longest horizon bounds each number
        assert composite_r0(1e7, 1e7) == 1e7
        with pytest.raises(DomainError):
            composite_r0(-0.1, 1.0)
        # numbers past that bound, whose product overflowed to inf, are refused
        for pair in ((1e200, 1e160), (1e7 * (1 + 1e-15), 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError, match=r"reproduction numbers must be in \[0, 1e\+07\]"):
                composite_r0(*pair)


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

    @pytest.mark.parametrize("delta", [1e200], ids=["r0"])
    def test_beyond_double_range_raises(self, delta):
        # integrals near 1e157 times delta overflowed r_fm and r_mf, and R0
        # with them: both the integrals' median and the delta are refused,
        # and the box's largest integrals and deltas give a finite R0
        with pytest.raises(ScenarioError, match=r"line 2: \[female\] median must be in \[0.001, 1000\]"):
            parse_scenario(HUGE)
        pop = parse_scenario(LONG).population
        with pytest.raises(DomainError, match=r"annual_acts \(delta\)"):
            with_deltas(pop, delta, delta)
        result = evaluate_brn(with_deltas(pop, 1e4, 1e4))
        assert 1e6 < result.r0 < 1e7

    @pytest.mark.parametrize(
        "text, delta", [("", 2e154), ("", 1e300), (HUGE, None)], ids=["isa", "r0", "integrals"]
    )
    def test_overflowing_products_keep_their_roots(self, text, delta):
        # delta_m * delta_f, r_fm * r_mf or I_f * I_m overflowed at these
        # deltas or integrals, which are refused; at the box's largest each
        # product keeps its root
        if delta:
            with pytest.raises(DomainError, match=r"annual_acts \(delta\)"):
                with_deltas(parse_scenario(text).population, delta, delta)
            pop = with_deltas(parse_scenario(LONG).population, 1e4, 1e4)
        else:
            with pytest.raises(ScenarioError, match="median must be in"):
                parse_scenario(text)
            pop = parse_scenario(LONG).population
        result = evaluate_brn(pop)
        root = math.sqrt(result.integral_f) * math.sqrt(result.integral_m)
        isa = pop.female.activity.annual_acts  # the male delta is the same
        assert result.isa == pytest.approx(isa, rel=1e-15)
        assert result.r0 == pytest.approx(isa * root, rel=1e-15)
        assert result.i0 == pytest.approx(1 / root, rel=1e-15, abs=0)
        assert result.r0 == pytest.approx(result.isa / result.i0, rel=1e-15)

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
        # the factors share the config's kept blocks, yet each keeps the
        # value of its own pair of integrals, bit for bit
        scenario = parse_scenario(text)
        pop, quad = scenario.population, scenario.quadrature
        # premise: at split_level some factors' integrals have converged and
        # some have not, so the factors stop at different levels
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
        # at 9e-4 the female factor 0.1 fails, the last of the three female
        # integrals, so no male integral runs
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
        assert calls == ["female"] * 3


class TestBlockMemo:
    """A config keeps, per sex and level, the total of every link integrated
    on it and the link-free blocks ``G`` and the viral load: its pair, at any
    quadrature, and its endpoint sweeps compute each once, and every value
    keeps a fresh config's bits."""

    FACTORS = [0.5, 2.0]
    HARD = "[quadrature]\ntol = 1e-16\nmax_refine = 1\n"

    @staticmethod
    def count_kernel_calls(monkeypatch):
        calls = []
        original = reproduction.activity_fraction_core

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(reproduction, "activity_fraction_core", counted)
        return calls

    @staticmethod
    def record_work(monkeypatch):
        """Each block build as ``(sex, level)`` and each one-link pass as
        its level, in call order."""
        work = {"blocks": [], "passes": []}
        build, integrate = reproduction.inner_blocks, reproduction.inner_integrals

        def built(iad, profile, level):
            work["blocks"].append((profile.label, level))
            return build(iad, profile, level)

        def passed(iad, blocks, link, level):
            work["passes"].append(level)
            return integrate(iad, blocks, link, level)

        monkeypatch.setattr(reproduction, "inner_blocks", built)
        monkeypatch.setattr(reproduction, "inner_integrals", passed)
        return work

    def sweep(self, pop):
        return sensitivity_sweep(pop, self.FACTORS, "scale_endpoints")

    def test_one_pair_per_config(self, monkeypatch):
        work = self.record_work(monkeypatch)
        scenario = parse_scenario("")
        pop = scenario.population
        before = (scenario.config_hash(), hash(pop))
        result = evaluate_brn(pop)
        once = copy.deepcopy(work)
        assert [sex for sex, _ in once["blocks"]] == ["female", "female", "male", "male"]
        swept = sensitivity_sweep(pop, self.FACTORS, "scale_function")
        assert swept == [(0.5, result.i0 / 0.5), (2.0, result.i0 / 2.0)]
        # None stands for the default spec
        pair = sex_integrals(pop, QuadratureSpec())
        assert pair == (result.integral_f, result.integral_m)
        assert work == once
        # a new config of the same text integrates again, to the same values
        fresh = parse_scenario("").population
        assert sex_integrals(fresh) == pair
        assert work == {name: 2 * done for name, done in once.items()}
        assert sex_integrals(dataclasses.replace(pop)) == pair
        assert work == {name: 3 * done for name, done in once.items()}
        # the kept levels are no part of the config's identity
        assert fresh == pop
        assert (scenario.config_hash(), hash(pop)) == before

    def test_another_tolerance_builds_only_new_levels(self, monkeypatch):
        # the totals of levels 0 and 1 serve tol 1e-9 too
        pop = parse_scenario("").population
        evaluate_brn(pop)
        work = self.record_work(monkeypatch)
        tight = QuadratureSpec(tol=1e-9)
        pair = sex_integrals(pop, tight)
        kept = copy.deepcopy(work)
        work["blocks"].clear()
        work["passes"].clear()
        assert pair == sex_integrals(parse_scenario("").population, tight)
        assert kept["blocks"] == [(sex, level) for sex, level in work["blocks"] if level > 1]
        assert kept["passes"] == [level for level in work["passes"] if level > 1]
        assert kept["blocks"]

    @pytest.mark.parametrize(
        "text, edit, factors",
        [
            (HARD, None, None),
            (UNREACHED, None, None),
            ("", lambda pop: dataclasses.replace(pop, female=scaled_profile(pop.female, 1e-320)), None),
            # the endpoint sweep's last female factor fails
            (PEAK + "[quadrature]\ntol = 9e-4\n", None, [60.0, 0.5, 0.1]),
        ],
        ids=["relative-error", "unreached-mass", "underflow", "scaled-factor"],
    )
    def test_failure_is_raised_again_from_kept_totals(self, monkeypatch, text, edit, factors):
        work = self.record_work(monkeypatch)
        scenario = parse_scenario(text)
        pop = edit(scenario.population) if edit else scenario.population
        if factors is None:
            integrate, female, named = evaluate_brn, pop.female, ""
        else:
            def integrate(pop, quad):
                return sensitivity_sweep(pop, factors, "scale_endpoints", quad)

            female = scaled_profile(pop.female, factors[-1])
            named = f"female transmission probability scaled by {factors[-1]:g}: "

        def failure(integrate, *args):
            with pytest.raises(QuadratureFailure) as failed:
                integrate(*args, scenario.quadrature)
            return str(failed.value)

        message = failure(integrate, pop)
        once = copy.deepcopy(work)
        # the female integral fails first, so the male one never runs, and
        # the retry reads every level's total: no kernel call, the same text
        assert {sex for sex, _ in once["blocks"]} == {"female"}
        assert failure(integrate, pop) == message
        assert work == once
        assert message == named + failure(sex_integral, female, pop.omega)

    def test_kept_factors_integrate_nothing(self, monkeypatch):
        # every scaled link keeps its totals: a second sweep on one config
        # and a repeated factor make no pass, and give the first sweep's bits
        work = self.record_work(monkeypatch)
        pop = parse_scenario("").population
        swept = self.sweep(pop)
        once = copy.deepcopy(work)
        assert once["passes"]
        assert self.sweep(pop) == swept
        assert work == once
        doubled = sensitivity_sweep(parse_scenario("").population, [0.5, *self.FACTORS], "scale_endpoints")
        assert doubled == [swept[0], *swept]
        assert work == {name: 2 * done for name, done in once.items()}

    def test_threads_racing_on_one_config_agree(self):
        # a race on the kept levels at most computes the same bits twice:
        # threads run evaluate_brn and an endpoint sweep on one config
        pop = parse_scenario("").population
        reference = {
            "brn": evaluate_brn(parse_scenario("").population),
            "sweep": self.sweep(parse_scenario("").population),
        }
        tasks = [
            ("brn", lambda: evaluate_brn(pop)),
            ("sweep", lambda: self.sweep(pop)),
        ] * 2
        start = threading.Barrier(len(tasks))
        results = {}

        def run(i, task):
            start.wait(timeout=30)
            results[i] = task()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(i, task)) for i, (_, task) in enumerate(tasks)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {i: reference[name] for i, (name, _) in enumerate(tasks)}
        brn = reference["brn"]
        assert sex_integrals(pop) == (brn.integral_f, brn.integral_m)

    @pytest.mark.parametrize("sweep_first", [False, True], ids=["brn-first", "sweep-first"])
    def test_pair_and_endpoint_sweep_share_the_blocks(self, monkeypatch, sweep_first):
        brn = evaluate_brn(parse_scenario("").population)
        swept = self.sweep(parse_scenario("").population)
        calls = self.count_kernel_calls(monkeypatch)
        evaluate_brn(parse_scenario("").population)
        alone = len(calls)
        assert alone > 0
        calls.clear()
        pop = parse_scenario("").population
        links = dict(zip(("female", "male"), scaled_links(pop, self.FACTORS, "scale_endpoints")))
        if sweep_first:
            got_swept = self.sweep(pop)
            # the scaled links keep their totals
            assert [set(kept) for levels in pop._levels.values() for kept in levels.values()] == [
                {"blocks", *links["female"]}
            ] * 2 + [{"blocks", *links["male"]}] * 2
            got_brn = evaluate_brn(pop)
        else:
            got_brn, got_swept = evaluate_brn(pop), self.sweep(pop)
        # the baseline's links all converge at level 1, so the second
        # caller builds no block
        assert len(calls) == alone
        assert got_brn == brn
        assert got_swept == swept
        for prof in (pop.female, pop.male):
            levels = pop._levels[prof.label]
            assert sorted(levels) == [0, 1]
            kept = {"blocks", prof.transmission, *links[prof.label]}
            assert [set(level) for level in levels.values()] == [kept] * 2

    def test_sex_integral_keeps_no_blocks(self, monkeypatch, population):
        calls = self.count_kernel_calls(monkeypatch)
        first = sex_integral(population.female, population.omega)
        once = len(calls)
        assert once > 0
        assert sex_integral(population.female, population.omega) == first
        assert len(calls) == 2 * once

    def test_deep_levels_are_kept(self):
        # this shape refines to level 8: every level keeps its total and its
        # blocks, and the male stops at level 2 at most
        pop = parse_scenario("[female]\nbeta = 20\n").population
        result = evaluate_brn(pop)
        female = pop._levels["female"]
        assert sorted(female) == list(range(9))
        assert {level for level, kept in female.items() if "blocks" in kept} == set(range(9))
        assert all(pop.female.transmission in kept for kept in female.values())
        assert max(pop._levels["male"]) <= 2
        assert result.integral_f == sex_integral(pop.female, pop.omega)

    def test_sex_integral_holds_one_level(self):
        # with no config to keep them, sex_integral holds only the level in
        # use: its peak stays near the last level's blocks, where this
        # profile's nine kept levels hold almost four times as much
        pop = parse_scenario("[female]\nbeta = 20\n").population
        evaluate_brn(pop)
        density, panels = pop._levels["female"][8]["blocks"]
        last = density.nbytes + sum(a.nbytes for block in panels for a in block)
        tracemalloc.start()
        try:
            sex_integral(pop.female, pop.omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * last

    def test_deep_levels_share_their_blocks(self, monkeypatch):
        # at tol 1e-12 the links refine past level 2, and the pair and the
        # endpoint factors still build each (sex, level) block once
        deep = "[quadrature]\ntol = 1e-12\n"
        factors = [0.5, 0.7, 2.0]
        scenario = parse_scenario(deep)
        quad = scenario.quadrature
        reference = sensitivity_sweep(parse_scenario(deep).population, factors, "scale_endpoints", quad)
        work = self.record_work(monkeypatch)
        pop = scenario.population
        evaluate_brn(pop, quad)
        swept = sensitivity_sweep(pop, factors, "scale_endpoints", quad)
        assert max(level for _, level in work["blocks"]) > 2
        assert sorted(work["blocks"]) == sorted((sex, level) for sex, levels in pop._levels.items() for level in levels)
        assert swept == reference

    def test_blocks_are_no_part_of_the_config(self):
        scenario = parse_scenario("")
        pop = scenario.population
        before = (scenario.config_hash(), hash(pop))
        self.sweep(pop)
        assert pop._levels["female"] and pop._levels["male"]
        assert (scenario.config_hash(), hash(pop)) == before
        assert pop == parse_scenario("").population
        copy = dataclasses.replace(pop)
        assert copy == pop
        assert copy._levels == {"female": {}, "male": {}}


class TestRowBlocks:
    """A level's inner nodes are computed in row blocks of whole ages, one
    kernel pass each, and sum, bit for bit, to the totals of a pass per
    inner panel, the loop kept here as the reference."""

    @staticmethod
    def reference(iad, profile, link, level):
        col = iad[:, None]
        out = np.zeros(iad.size)
        for nodes, weights in zip(*_graded_rule(level, both_ends=True)):
            x = nodes * col
            g = activity_fraction_core(x, col, profile.activity)
            load = linear_load_core(log_viral_load_core(x, col, profile.viral, profile.x_plateau))
            out += (g * cloglog_core(load, link)) @ weights
        return out * iad

    @staticmethod
    def outer_nodes(profile, omega, level):
        tau = profile.activity.terminal_lead
        nodes, _ = _graded_rule(level, both_ends=False)
        return (tau + (omega - tau) * nodes).ravel()

    @staticmethod
    def count_kernel_calls(monkeypatch):
        """The node count of each call of the two kernels, by name."""
        calls = {"activity_fraction_core": [], "cloglog_core": []}
        for name, sizes in calls.items():
            original = getattr(reproduction, name)

            def counted(first, *args, original=original, sizes=sizes):
                sizes.append(np.size(first))
                return original(first, *args)

            monkeypatch.setattr(reproduction, name, counted)
        return calls

    @pytest.mark.parametrize("level", [0, 1, 2, 4, 8])
    def test_bit_equal_to_per_panel_passes(self, population, level):
        scaled = scaled_links(population, [0.5, 2.0], "scale_endpoints")
        for prof, links in zip((population.female, population.male), scaled):
            iad = self.outer_nodes(prof, population.omega, level)
            blocks = reproduction.inner_blocks(iad, prof, level)
            assert sum(len(g) for g, _ in blocks) == iad.size
            for link in (prof.transmission, *links):
                got = reproduction.inner_integrals(iad, blocks, link, level)
                assert np.array_equal(got, self.reference(iad, prof, link, level))
        # premise: levels 0 and 1 take one block, levels 2, 4 and 8 several,
        # and at levels 4 and 8 a block ends inside an outer panel of ORDER ages
        ends = np.cumsum([len(g) for g, _ in blocks])
        assert (len(blocks) == 1) == (level < 2)
        assert (level in (4, 8)) == any(ends % ORDER)

    def test_one_pass_per_sex_level_and_link(self, monkeypatch):
        # the baseline converges at level 1 in both sexes, and levels 0 and 1
        # are one block each: the pair and a 2-factor endpoint sweep make one
        # cloglog pass per sex, level and link, and one G per sex and level
        calls = self.count_kernel_calls(monkeypatch)
        pop = parse_scenario("").population
        evaluate_brn(pop)
        sensitivity_sweep(pop, [0.5, 2.0], "scale_endpoints")
        assert all(sorted(levels) == [0, 1] for levels in pop._levels.values())
        assert len(calls["cloglog_core"]) == 2 * 2 * 3
        assert len(calls["activity_fraction_core"]) == 2 * 2

    def test_calls_are_bounded_by_block_nodes(self, monkeypatch):
        # this shape refines to level 8, whose 456 ages of 696 inner nodes
        # each are 317,376 nodes: every call covers at most BLOCK_NODES
        calls = self.count_kernel_calls(monkeypatch)
        pop = parse_scenario("[female]\nbeta = 20\n").population
        sex_integral(pop.female, pop.omega)
        sizes = calls["cloglog_core"]
        assert calls["activity_fraction_core"] == sizes
        assert max(sizes) <= BLOCK_NODES
        assert sum(sizes) == sum(ORDER**2 * (2 * level + 3) * (3 * level + 5) for level in range(9))
        # 44 calls, where a pass per inner panel makes 153
        assert len(sizes) == 44
        # a block holds 8 ages at least, which fit at every level
        assert 8 * ORDER * (3 * MAX_REFINE + 5) <= BLOCK_NODES


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
        # an infinite tol would call every integral converged at level 1
        for bad in (0.0, math.inf):
            with pytest.raises(DomainError):
                QuadratureSpec(tol=bad)
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

import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize

from hivbrn import (
    DomainError,
    TransmissionParams,
    ViralLoadParams,
    peak_transmission_prob,
    solve_plateau_point,
    transmission_prob,
)
from hivbrn.natural_history import (
    LN10,
    age_warp_core,
    cloglog_core,
    early_peak_core,
    linear_load_core,
    log_viral_load_core,
    terminal_peak_core,
    transmission_prob_core,
)

# Frozen oracle values, computed by 50-digit mpmath evaluation of the same
# closed forms (see the mpmath re-derivations in this file's tests).
XP_BASELINE = 1.6472632291766361
AGE_WARP_04 = 0.40110325189871377842
LVL_3_7 = 3.1111428613955612332
PTR_SECOND_PEAK = 0.0036882209175372670
# the box's longest age in years, and its widest warp rate
AGE_MAX, WARP_MAX = 1e3, 50.0


@pytest.fixture(scope="module")
def viral(female):
    return female.viral


@pytest.fixture(scope="module")
def link(female):
    return female.transmission


@pytest.fixture(scope="module")
def xp(female):
    return female.x_plateau


class TestEarlyPeakCurve:
    def test_peak_value_exact(self, viral):
        assert early_peak_core(viral.peak_time, viral) == viral.peak_log_vl

    def test_zero_limit(self, viral):
        assert early_peak_core(0.0, viral) == 0.0

    def test_steep_rise_stays_finite(self, viral):
        # at the box's steepest rise, 1000, r**(alpha1 - 1) and
        # exp((1 - alpha1) * (r - 1)) each overflow, but their product as one
        # exponential does not; 1e308 is refused
        with pytest.raises(DomainError, match=r"rise_shape \(alpha1\) must be in \(1, 1000\]"):
            dataclasses.replace(viral, rise_shape=1e308)
        steep = dataclasses.replace(viral, rise_shape=1000.0)
        assert early_peak_core(0.0, steep) == 0.0
        assert early_peak_core(steep.peak_time, steep) == steep.peak_log_vl
        grid = np.linspace(0.0, AGE_MAX, 101)
        with np.errstate(over="raise", invalid="raise"):
            assert np.all(np.isfinite(early_peak_core(grid, steep)))

    def test_maximum_at_peak_time(self, viral):
        # derivative changes sign across the peak and nowhere else nearby
        h = 1e-7
        left = early_peak_core(viral.peak_time - h, viral)
        right = early_peak_core(viral.peak_time + h, viral)
        top = early_peak_core(viral.peak_time, viral)
        assert left < top and right < top
        grid = np.linspace(1e-6, 20.0, 10_000)
        assert early_peak_core(grid, viral).max() <= top + 1e-12

    def test_plateau_crossing_value(self, viral):
        assert early_peak_core(1.647, viral) == pytest.approx(3.0, abs=0.01)


class TestSolvePlateauPoint:
    def test_baseline(self, viral):
        assert solve_plateau_point(viral) == pytest.approx(1.647, abs=1e-3)
        assert solve_plateau_point(viral) == pytest.approx(XP_BASELINE, abs=1e-9)

    def test_any_level(self, viral):
        # the same solver gives the decay point of any level below the peak,
        # as the Monte Carlo envelope's early window uses
        for level in (4.8, 4.0, 3.5):
            x = solve_plateau_point(viral, level)
            assert x > viral.peak_time
            assert early_peak_core(x, viral) == pytest.approx(level, rel=1e-12)
        assert solve_plateau_point(viral, viral.plateau_log_vl) == solve_plateau_point(viral)

    def test_is_root_and_right_of_peak(self, viral, xp):
        assert early_peak_core(xp, viral) == pytest.approx(
            viral.plateau_log_vl, abs=1e-9
        )
        assert xp > viral.peak_time

    def test_against_grid_scan_oracle(self, viral):
        # independent oracle: dense scan for the unique sign change right of
        # the peak, then plain bisection
        from dataclasses import replace

        p = replace(viral, plateau_log_vl=2.0)

        def f(x):
            return early_peak_core(x, p) - p.plateau_log_vl

        grid = np.linspace(p.peak_time, 50.0, 2_000_001)
        vals = f(grid)
        flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        assert flips.size == 1
        lo, hi = grid[flips[0]], grid[flips[0] + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) * f(lo) <= 0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        assert solve_plateau_point(p) == pytest.approx(oracle, abs=1e-9)

    def test_collapses_to_peak_time(self, viral):
        from dataclasses import replace

        p = replace(
            viral,
            plateau_log_vl=viral.peak_log_vl - 1e-9,
            terminal_log_vl=viral.peak_log_vl + 0.5,
        )
        root = solve_plateau_point(p)
        assert root > viral.peak_time
        assert root == pytest.approx(viral.peak_time, abs=1e-3)

    def test_against_brentq_over_box(self, viral):
        # the fixed Halley steps hold over the valid (M1, m, alpha1) box, down
        # to the near-singular alpha1 = 1.02 corner where the root is farthest
        from dataclasses import replace

        for M1 in np.linspace(4.5, 5.5, 5):
            for m in np.linspace(2.5, 3.5, 5):
                for a1 in (1.02, 1.05, 1.1, 1.3, 1.6, 2.0):
                    p = replace(
                        viral, peak_log_vl=M1, plateau_log_vl=m, rise_shape=a1
                    )
                    oracle = optimize.brentq(
                        lambda x: early_peak_core(x, p) - m,
                        p.peak_time,
                        100.0 * p.peak_time,
                        xtol=1e-300,
                        rtol=1e-15,
                    )
                    assert solve_plateau_point(p) == pytest.approx(oracle, rel=1e-12)


class TestAgeWarp:
    def test_zero(self, viral, xp):
        assert age_warp_core(0.0, viral.warp_rate, xp) == 0.0

    def test_saturates_at_plateau_point(self, viral, xp):
        assert age_warp_core(AGE_MAX, viral.warp_rate, xp) == pytest.approx(xp, rel=1e-12)

    def test_value_vs_highprec_oracle(self, viral, xp):
        # 50-digit mpmath evaluation of the same expression
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        a2 = mp.mpf("0.2")
        xs = mp.mpf(repr(xp))
        ia = mp.mpf("0.4")
        e = mp.exp(a2)
        expected = (
            xs
            * (1 + mp.exp(-a2))
            * (1 / (1 + mp.exp(a2 - ia * (1 + e) / xs)) - 1 / (1 + e))
        )
        got = age_warp_core(0.4, viral.warp_rate, xp)
        assert got == pytest.approx(float(expected), rel=1e-13)
        assert got == pytest.approx(AGE_WARP_04, rel=1e-12)
        assert got == pytest.approx(0.401, abs=1e-3)

    def test_strictly_increasing_with_range(self, viral, xp):
        # strict increase over the working range; beyond ~ia 23 the curve is
        # within one ulp of its supremum and increments are not representable,
        # and once it is within half an ulp it rounds to the supremum itself
        grid = np.linspace(0.0, 20.0, 10_000)
        w = age_warp_core(grid, viral.warp_rate, xp)
        assert np.all(np.diff(w) > 0)
        assert w[0] == 0.0
        long_grid = np.linspace(0.0, 100.0, 10_000)
        w_long = age_warp_core(long_grid, viral.warp_rate, xp)
        assert np.all(np.diff(w_long) >= 0)
        assert np.all(w_long <= xp)
        assert w_long[-1] == xp

    @pytest.mark.parametrize(
        "a2", [-800.0, -40.0, -30.0, -20.0, 0.2, 40.0, 700.0, 709.7]
    )
    def test_no_cancellation_over_warp_rates(self, viral, xp, a2):
        # mpmath evaluation of the rescaled logistic, whose difference of
        # near-equal terms lost all digits in doubles from alpha2 about -36;
        # it cancels |alpha2| / ln 10 digits, so it carries that many more.
        # A rate past the box is refused, and the box's edge is checked
        mp = pytest.importorskip("mpmath")
        if abs(a2) > WARP_MAX:
            with pytest.raises(DomainError, match=r"warp_rate \(alpha2\) must be in \[-50, 50\]"):
                dataclasses.replace(viral, warp_rate=a2)
            a2 = np.copysign(WARP_MAX, a2)
        mp.mp.dps = 50 + int(abs(a2))
        xs, a = mp.mpf(repr(xp)), mp.mpf(a2)
        e = mp.exp(a)
        for ia, rel in ((1e-9, 5e-8), (1e-3, 1e-13), (0.4, 1e-13), (5.0, 1e-13)):
            logistic = 1 / (1 + mp.exp(a - mp.mpf(ia) * (1 + e) / xs))
            expected = xs * (1 + 1 / e) * (logistic - 1 / (1 + e))
            got = age_warp_core(np.array([ia]), a2, xp)[0]
            assert got == pytest.approx(float(expected), rel=rel), ia


class TestTerminalPeakFactor:
    def test_unit_at_terminal_peak(self, viral):
        assert terminal_peak_core(6.0, 7.0, viral.terminal_width, 1.0) == 1.0

    def test_symmetric(self, viral):
        for d in (0.1, 0.7, 2.3):
            lo = terminal_peak_core(6.0 - d, 7.0, viral.terminal_width, 1.0)
            hi = terminal_peak_core(6.0 + d, 7.0, viral.terminal_width, 1.0)
            assert lo == pytest.approx(hi, rel=1e-14)

    def test_huge_width_is_zero(self, viral):
        # a width of 1e307 is refused; at the box's narrowest peak, 1e4, the
        # weight 3 years away underflows to exactly 0, with no overflow
        with pytest.raises(DomainError, match=r"terminal_width \(alpha3\) must be in \(0, 10000\]"):
            dataclasses.replace(viral, terminal_width=1e307)
        ia = np.array([0.0, 3.0])
        with np.errstate(over="raise", invalid="raise"):
            assert terminal_peak_core(ia, 7.0, 1e4, 1.0).tolist() == [0.0, 0.0]

    def test_value(self, viral):
        got = terminal_peak_core(3.0, 7.0, viral.terminal_width, 1.0)
        assert got == pytest.approx(np.exp(-6.3), rel=1e-14)
        assert got == pytest.approx(1.8363047770289068e-3, rel=1e-12)


class TestLogViralLoad:
    def test_terminal_value_exact(self, viral, xp):
        for iad in (5.0, 10.0, 20.0, 1.5, 33.7):
            assert log_viral_load_core(iad - 1.0, iad, viral, xp) == viral.terminal_log_vl

    def test_value_vs_highprec_oracle(self, viral, xp):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        one = mp.mpf(1)
        ia1, M1, m = mp.mpf("0.4"), mp.mpf(5), mp.mpf(3)
        a1, a2, a3 = mp.mpf("1.3"), mp.mpf("0.2"), mp.mpf("0.7")
        M2, tau = mp.mpf("4.8"), one
        xs = mp.findroot(
            lambda x: M1 * (x / ia1) ** (a1 - 1) * mp.exp((1 - a1) * (x / ia1 - 1)) - m,
            mp.mpf("1.647"),
        )
        e = mp.exp(a2)
        warped = xs * (1 + mp.exp(-a2)) * (
            1 / (1 + mp.exp(a2 - 3 * (1 + e) / xs)) - 1 / (1 + e)
        )
        base = M1 * (warped / ia1) ** (a1 - 1) * mp.exp((1 - a1) * (warped / ia1 - 1))
        expected = base + (M2 - base) * mp.exp(-a3 * (3 - 7 + tau) ** 2)
        got = log_viral_load_core(3.0, 7.0, viral, xp)
        assert got == pytest.approx(float(expected), rel=1e-12)
        assert got == pytest.approx(LVL_3_7, rel=1e-12)
        assert got == pytest.approx(3.11, abs=0.01)

    def test_first_peak_height_and_location(self, viral, xp):
        ia = np.linspace(0.0, 1.0, 20_001)
        lvl = log_viral_load_core(ia, 7.0, viral, xp)
        assert lvl.max() == pytest.approx(5.0, abs=0.01)
        assert ia[np.argmax(lvl)] == pytest.approx(0.4, abs=0.05)

    def test_plateau_window(self, viral, xp):
        # the early component settles to within 0.15 of the plateau by
        # ia = 2.8 and the terminal bump is negligible until 3 years of death
        for iad in (7.0, 10.0, 20.0, 40.0):
            ia = np.linspace(2.8, iad - 3.0, 500)
            lvl = log_viral_load_core(ia, iad, viral, xp)
            assert np.all(np.abs(lvl - viral.plateau_log_vl) < 0.15)

    def test_bounded_and_finite(self, viral, xp):
        iad = np.linspace(0.0, 100.0, 101)
        for y in iad:
            ia = np.linspace(0.0, y, 101)
            lvl = log_viral_load_core(ia, y, viral, xp)
            assert np.all(np.isfinite(lvl))
            # mathematically > 0; the terminal bump can underflow to 0.0
            assert np.all(lvl >= 0)
            assert np.all(lvl <= max(viral.peak_log_vl, viral.terminal_log_vl))


class TestDeriveLink:
    def test_against_numeric_system_oracle(self):
        # independent oracle: solve the two-anchor system numerically
        def system(z):
            b0, b1 = z
            return [
                1.0 - np.exp(-np.exp(b0 + b1 * 1e5)) - 0.008,
                1.0 - np.exp(-np.exp(b0 + b1 * 1e3)) - 0.001,
            ]

        sol = optimize.root(system, [-7.0, 2e-5], tol=1e-14)
        assert sol.success
        fit = TransmissionParams(0.008, 0.001, 5.0, 3.0)
        intercept, slope = fit.intercept, fit.slope
        assert intercept == pytest.approx(sol.x[0], rel=1e-9)
        assert slope == pytest.approx(sol.x[1], rel=1e-9)
        assert intercept == pytest.approx(-6.93, abs=0.01)
        assert slope == pytest.approx(2.10e-5, rel=1e-2)

    def test_flat_link(self):
        fit = TransmissionParams(0.001, 0.001, 5.0, 3.0)
        intercept, slope = fit.intercept, fit.slope
        assert slope == 0.0
        assert intercept == pytest.approx(np.log(np.log(1 / 0.999)), rel=1e-14)

    def test_anchor_round_trip(self, viral, link):
        for anchor, prob in (
            (viral.peak_log_vl, link.prob_at_peak),
            (viral.plateau_log_vl, link.prob_at_plateau),
        ):
            back = 1.0 - np.exp(-np.exp(link.intercept + link.slope * 10.0**anchor))
            assert back == pytest.approx(prob, abs=1e-12)
            assert back == pytest.approx(prob, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            TransmissionParams(0.001, 0.008, 5.0, 3.0)
        with pytest.raises(DomainError):
            TransmissionParams(0.008, 0.001, 3.0, 3.0)
        # M1 > m, both in range, but 10**M1 == 10**m in double precision
        high, low = 0.0010000000000000002, 0.001
        assert high > low and 10.0**high == 10.0**low
        with pytest.raises(DomainError, match=r"10\*\*peak_log_vl \(M1\) > 10\*\*plateau_log_vl \(m\)"):
            TransmissionParams(0.008, 0.001, high, low)
        with pytest.raises(DomainError):
            TransmissionParams(1.0, 0.001, 5.0, 3.0)

    def test_replace_rederives_the_link(self, link):
        # scaling both anchors by replace gives the link built from the
        # scaled anchors, coefficients and all, not the old coefficients
        scaled = dataclasses.replace(link, prob_at_peak=0.016, prob_at_plateau=0.002)
        built = TransmissionParams(0.016, 0.002, 5.0, 3.0)
        assert scaled == built
        assert (scaled.intercept, scaled.slope) == (built.intercept, built.slope)
        assert cloglog_core(1e5, scaled) == pytest.approx(0.016, rel=1e-12)
        assert cloglog_core(1e3, scaled) == pytest.approx(0.002, rel=1e-12)
        # the coefficients are derived, never given
        for name in ("intercept", "slope"):
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(link, **{name: 0.0})


class TestTransmissionProb:
    def test_near_plateau_value(self, viral, link, xp):
        # deep in the asymptomatic stage the viral load sits at the plateau
        # and the probability returns to its low anchor
        got = transmission_prob(15.0, 40.0, viral, link, xp)
        assert got == pytest.approx(0.001, abs=1e-6)

    def test_second_peak_value(self, viral, link, xp):
        got = transmission_prob(6.0, 7.0, viral, link, xp)
        assert got == pytest.approx(PTR_SECOND_PEAK, rel=1e-12)
        assert got == pytest.approx(3.69e-3, rel=1e-2)

    def test_first_peak_value(self, viral, link, xp):
        ia = np.linspace(0.0, 1.0, 20_001)
        top = transmission_prob(ia, 7.0, viral, link, xp).max()
        assert top == pytest.approx(0.008, rel=1e-4)

    def test_monotone_in_viral_load(self, link):
        lvl = np.linspace(0.0, 5.0, 1_000)
        prob = 1.0 - np.exp(-np.exp(link.intercept + link.slope * 10.0**lvl))
        assert np.all(np.diff(prob) > 0)

    def test_strictly_inside_unit_interval(self, viral, link, xp):
        for iad in (0.5, 3.0, 10.0, 50.0, 100.0):
            ia = np.linspace(0.0, iad, 400)
            p = transmission_prob(ia, iad, viral, link, xp)
            assert np.all(p > 0) and np.all(p < 1)
            assert np.all(np.isfinite(p))

    def test_peak_bound(self, viral, link, xp):
        bound = peak_transmission_prob(viral, link)
        for iad in (2.0, 7.0, 25.0):
            ia = np.linspace(0.0, iad, 2_000)
            assert transmission_prob(ia, iad, viral, link, xp).max() <= bound


class TestParamValidation:
    def test_viral_invariants(self):
        good = dict(
            peak_time=0.4, peak_log_vl=5.0, plateau_log_vl=3.0,
            terminal_lead=1.0, terminal_log_vl=4.8,
            rise_shape=1.3, warp_rate=0.2, terminal_width=0.7,
        )
        ViralLoadParams(**good)
        for key, bad in [
            ("peak_time", 0.0),
            ("terminal_lead", -1.0),
            ("rise_shape", 1.0),
            ("terminal_width", 0.0),
            ("plateau_log_vl", 5.0),
            ("terminal_log_vl", 2.0),
        ]:
            with pytest.raises(DomainError):
                ViralLoadParams(**{**good, key: bad})
        # ia1 1e307 gave a plateau point past the double range, which froze
        # the age warp at rate 0 and made every viral load nan: it is
        # refused, and at the box's latest peak the plateau point and the
        # warp rate are finite
        with pytest.raises(DomainError, match=r"peak_time \(ia1\) must be in \[0.001, 1000\]"):
            ViralLoadParams(**{**good, "peak_time": 1e307, "rise_shape": 1.000000001})
        late = ViralLoadParams(**{**good, "peak_time": AGE_MAX, "rise_shape": 1.000000001})
        x_plateau = solve_plateau_point(late)
        assert late.peak_time < x_plateau < math.inf
        assert 0 < (1.0 + math.exp(late.warp_rate)) / x_plateau < math.inf

    def test_whole_numbers_check_as_floats(self):
        # an int field takes the float's direct comparison: the record
        # equals the float-built one, and an int out of range gets the
        # float's message
        whole = dict(
            peak_time=1, peak_log_vl=5, plateau_log_vl=3, terminal_lead=1,
            terminal_log_vl=4, rise_shape=2, warp_rate=0, terminal_width=1,
        )
        floats = {key: float(value) for key, value in whole.items()}
        assert ViralLoadParams(**whole) == ViralLoadParams(**floats)
        for key, bad in [("peak_log_vl", 11), ("terminal_lead", 0), ("warp_rate", -51)]:
            messages = set()
            for form in (bad, float(bad)):
                with pytest.raises(DomainError) as err:
                    ViralLoadParams(**{**whole, key: form})
                messages.add(str(err.value))
            assert len(messages) == 1
            assert messages.pop().startswith(f"{key} (")

    def test_transmission_invariants(self):
        TransmissionParams(0.008, 0.001, 5.0, 3.0)
        flat = TransmissionParams(0.001, 0.001, 5.0, 3.0)
        assert flat.slope == 0.0
        # the ordering check names the plateau anchor
        with pytest.raises(DomainError, match="prob_at_plateau"):
            TransmissionParams(0.001, 0.008, 5.0, 3.0)
        # a negative slope cannot be written: the coefficients are not
        # arguments, and ordered anchors in range, equal ones and the
        # extremes included, derive a finite slope >= 0, also where the two
        # anchor loads are neighbouring doubles
        with pytest.raises(TypeError):
            TransmissionParams(0.008, 0.001, 5.0, 3.0, -6.9, -1e-9)
        probs = [5e-324, 1e-300, 1e-9, 0.001, 0.001 + 1e-18, 0.5, 1.0 - 1e-16]
        loads = [(5.0, 3.0), (10.0, 0.001), (10.0, 9.999999999999998), (0.001000000000000025, 0.001)]
        for lo in probs:
            for hi in (p for p in probs if p >= lo):
                for peak, plateau in loads:
                    fit = TransmissionParams(hi, lo, peak, plateau)
                    assert 0 <= fit.slope < math.inf and math.isfinite(fit.intercept)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_viral_rejects_non_finite(self, viral, bad):
        for field in dataclasses.fields(ViralLoadParams):
            with pytest.raises(DomainError, match=field.name):
                dataclasses.replace(viral, **{field.name: bad})

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_transmission_rejects_non_finite(self, link, bad):
        for name in TransmissionParams.KEYS:
            with pytest.raises(DomainError, match=name):
                dataclasses.replace(link, **{name: bad})


class TestInPlaceCores:
    """Each core computes in place on the arrays it allocates: its values
    must equal, bit for bit, the plain expression kept here as the
    reference, and its inputs must be left alone (they are read-only here)."""

    @staticmethod
    def reference(ia, iad, p, link, x_plateau):
        e = math.exp(p.warp_rate)
        t = np.exp(ia * -((1.0 + e) / x_plateau))
        warped = x_plateau * (1.0 - t) / (1.0 + e * t)
        r = warped / p.peak_time
        with np.errstate(divide="ignore"):
            base = p.peak_log_vl * np.exp((p.rise_shape - 1.0) * (np.log(r) - r + 1.0))
        bump = np.exp(-p.terminal_width * (ia - iad + p.terminal_lead) ** 2)
        lvl = base + (p.terminal_log_vl - base) * bump
        load = np.exp(LN10 * lvl)
        ptr = -np.expm1(-np.exp(link.intercept + link.slope * load))
        return dict(warped=warped, base=base, bump=bump, lvl=lvl, load=load, ptr=ptr)

    @staticmethod
    def shapes():
        g = np.random.default_rng(5)
        iad = 1.0 + 59.0 * g.random(64)
        # an inner block's nodes against their course's column, with x = 0
        col = iad[:, None]
        block = col * np.concatenate((np.zeros((64, 1)), g.random((64, 23))), axis=1)
        # flat act arrays, as the thinning block draws them
        acts = np.repeat(iad, 3)
        times = acts * g.random(acts.size)
        yield block, col
        yield times, acts
        yield np.array(0.4), np.array(7.0)
        yield np.array(6.0), np.array(7.0)

    def test_bit_equal_to_reference_and_inputs_untouched(self, viral, link, xp):
        def frozen(a):
            a.setflags(write=False)
            return a

        for ia, iad in self.shapes():
            ia, iad = frozen(ia), frozen(iad)
            want = self.reference(ia, iad, viral, link, xp)
            got = dict(warped=frozen(age_warp_core(ia, viral.warp_rate, xp)))
            got["base"] = early_peak_core(got["warped"], viral)
            got["bump"] = terminal_peak_core(ia, iad, viral.terminal_width, viral.terminal_lead)
            got["lvl"] = frozen(log_viral_load_core(ia, iad, viral, xp))
            got["load"] = frozen(linear_load_core(got["lvl"]))
            got["ptr"] = cloglog_core(got["load"], link)
            for name, value in got.items():
                assert np.shape(value) == np.shape(want[name]), name
                assert np.array_equal(value, want[name]), name
            assert np.array_equal(transmission_prob_core(ia, iad, viral, link, xp), want["ptr"])

import math

import numpy as np
import pytest

from hivbrn import ActivityParams, DomainError, activity_fraction
from hivbrn.behavior import activity_fraction_core

PHI = 0.61
TAU = 1.0
# the box's least phi and tau1 and its longest course, in years
PHI_MIN, TAU_MIN, AGE_MAX = 1e-6, 1e-3, 1e3


@pytest.fixture(scope="module")
def params():
    return ActivityParams(annual_acts=208.0, residual_fraction=PHI, terminal_lead=TAU)


class TestActivityFraction:
    @pytest.mark.parametrize("iad", [1.1, 3.0, 5.0, 10.0, 20.0])
    def test_anchor_identities(self, params, iad):
        assert activity_fraction(0.0, iad, params) == pytest.approx(1.0, abs=1e-12)
        assert activity_fraction(iad - TAU, iad, params) == pytest.approx(
            PHI, abs=1e-12
        )
        assert activity_fraction(iad, iad, params) == pytest.approx(0.0, abs=1e-12)

    def test_known_fixed_points(self, params):
        # G(0.1, 1.1) = G(2, 3) = G(4, 5) = phi
        for ia, iad in ((0.1, 1.1), (2.0, 3.0), (4.0, 5.0)):
            assert activity_fraction(ia, iad, params) == pytest.approx(
                PHI, abs=1e-12
            )

    def test_short_course_is_zero(self, params):
        for ia in np.linspace(0.0, 0.8, 9):
            assert activity_fraction(ia, 0.8, params) == 0.0
        # death exactly at the terminal lead also counts as a short course
        assert activity_fraction(0.5, TAU, params) == 0.0
        # a lead of 1e308 years is refused; under the box's longest lead, 0
        with pytest.raises(DomainError, match=r"terminal_lead \(tau1\) must be in \[0.001, 1000\]"):
            ActivityParams(annual_acts=1.0, residual_fraction=PHI, terminal_lead=1e308)
        p = ActivityParams(annual_acts=1.0, residual_fraction=PHI, terminal_lead=AGE_MAX)
        assert not activity_fraction(np.linspace(0.0, 7.0, 8), 7.0, p).any()

    def test_long_course_does_not_overflow(self, params):
        # a course of 1e300 years is refused, where phi*(iad - ia)*(iad - tau1)
        # would overflow; the box's longest course keeps every digit
        with pytest.raises(DomainError, match=r"iad \(age\) must be in \[0, 1000\]"):
            activity_fraction(0.0, 1e300, params)
        with pytest.raises(DomainError, match=r"ia \(age\) must be in \[0, 1000\]"):
            activity_fraction(1e300, AGE_MAX, params)
        g = activity_fraction(np.array([0.0, 0.5 * AGE_MAX, AGE_MAX]), AGE_MAX, params)
        expected = PHI * 0.5 * (AGE_MAX - TAU) / (PHI * 0.5 * (AGE_MAX - TAU) + (1 - PHI) * 0.5)
        assert g.tolist() == [1.0, pytest.approx(expected, rel=1e-15), 0.0]

    @pytest.mark.parametrize(
        "phi, tau, iad",
        [
            # phi*(iad - ia)*(iad - tau1) in absolute ages underflowed to 0
            (1e-300, 1e-30, 1.000001e-30),
            # (1 - phi)*tau1 was under 2**-1074 of phi*(iad - tau1)
            (PHI, 1e-300, 1e30),
            (PHI, 2e-323, 7.0),
        ],
    )
    def test_extreme_course_ends(self, phi, tau, iad):
        # such a phi or tau1 is refused, naming its key; at the box's corner
        # nearest to it, G is 1 at infection and 0 at death, not 0/0 at
        # either end, on a course barely past tau1 and on the longest one,
        # which stand in for iad
        with pytest.raises(DomainError, match=r"\((phi|tau1)\) must be in "):
            ActivityParams(annual_acts=1.0, residual_fraction=phi, terminal_lead=tau)
        p = ActivityParams(1.0, max(phi, PHI_MIN), TAU_MIN)
        for course in (TAU_MIN * (1.0 + 1e-6), AGE_MAX):
            g = activity_fraction(np.array([0.0, course]), course, p)
            assert g.tolist() == [1.0, 0.0]

    def test_unit_interval_on_grid(self, params):
        for iad in np.linspace(1.01, 40.0, 60):
            g = activity_fraction(np.linspace(0.0, iad, 400), iad, params)
            assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_denominator_positive_on_grid(self, params):
        for iad in np.linspace(1.01, 40.0, 60):
            ia = np.linspace(0.0, iad, 400)
            den = 1.0 + ia * (TAU - PHI * iad) / (iad * PHI * (iad - TAU))
            assert den.min() > 0.0

    def test_non_increasing_in_age(self, params):
        for iad in (1.1, 2.0, 5.0, 12.0, 40.0):
            g = activity_fraction(np.linspace(0.0, iad, 2_000), iad, params)
            assert np.all(np.diff(g) <= 1e-15)

    @pytest.mark.parametrize(
        "phi, tau", [(PHI, TAU), (1e-300, TAU), (PHI, 1e-300), (1e-300, 1e-300)]
    )
    def test_near_death_vs_highprec_oracle(self, phi, tau):
        # 1 - ia/iad from 1e-15 to 1e-1, against the rational form at 50
        # digits, up to the box's longest course; a phi or tau1 of 1e-300 is
        # refused, and the box's least value is checked in its place
        mp = pytest.importorskip("mpmath")
        if tau < TAU_MIN:
            with pytest.raises(DomainError, match=r"\(tau1\)"):
                ActivityParams(annual_acts=208.0, residual_fraction=PHI, terminal_lead=tau)
        if phi < PHI_MIN:
            with pytest.raises(DomainError, match=r"\(phi\)"):
                ActivityParams(annual_acts=208.0, residual_fraction=phi, terminal_lead=TAU)
        phi, tau = max(phi, PHI_MIN), max(tau, TAU_MIN)
        p = ActivityParams(annual_acts=208.0, residual_fraction=phi, terminal_lead=tau)
        for iad in (1.5, 7.0, 40.0, AGE_MAX):
            for gap in 10.0 ** np.arange(-15, 0):
                ia = iad * (1.0 - gap)
                with mp.workdps(50):
                    x, y, f, t = (mp.mpf(v) for v in (ia, iad, phi, tau))
                    expected = (1 - x / y) / (1 + x * (t - f * y) / (y * f * (y - t)))
                assert activity_fraction(ia, iad, p) == pytest.approx(
                    float(expected), rel=1e-15, abs=1e-321
                )

    def test_domain_errors(self, params):
        with pytest.raises(DomainError):
            activity_fraction(3.0, 2.0, params)
        with pytest.raises(DomainError):
            activity_fraction(-0.1, 2.0, params)
        with pytest.raises(DomainError):
            activity_fraction(0.0, -2.0, params)


class TestCoitalRate:
    # the annualized act rate is annual_acts * activity_fraction
    def test_at_infection(self, params):
        rate = params.annual_acts * activity_fraction(0.0, 7.0, params)
        assert rate == pytest.approx(208.0, abs=1e-10)

    def test_at_terminal_peak(self, params):
        rate = params.annual_acts * activity_fraction(6.0, 7.0, params)
        assert rate == pytest.approx(126.88, abs=1e-9)

    def test_at_death(self, params):
        assert params.annual_acts * activity_fraction(7.0, 7.0, params) == 0.0

    def test_zero_rate_allowed(self):
        p = ActivityParams(annual_acts=0.0, residual_fraction=PHI, terminal_lead=TAU)
        assert p.annual_acts * activity_fraction(2.0, 7.0, p) == 0.0


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(DomainError):
            ActivityParams(annual_acts=-1.0, residual_fraction=PHI, terminal_lead=TAU)
        for phi in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                ActivityParams(annual_acts=1.0, residual_fraction=phi, terminal_lead=TAU)
        with pytest.raises(DomainError):
            ActivityParams(annual_acts=1.0, residual_fraction=PHI, terminal_lead=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["annual_acts", "residual_fraction", "terminal_lead"])
    def test_rejects_non_finite(self, field, bad):
        good = dict(annual_acts=1.0, residual_fraction=PHI, terminal_lead=TAU)
        with pytest.raises(DomainError, match=field):
            ActivityParams(**{**good, field: bad})


class TestActivityCore:
    """The in-place core against the formula it computes, with the masked
    divide kept here as the reference: the same bits and shape on live
    courses, dead ones (exact zeros) and mixed inputs of every layout."""

    @staticmethod
    def reference(ia, iad, p):
        tau, phi = p.terminal_lead, p.residual_fraction
        a = phi * (iad - ia) * (iad - tau)
        b = (1.0 - phi) * tau * ia
        return np.divide(a, a + b, out=np.zeros(np.shape(a)), where=iad > tau)

    @staticmethod
    def check(ia, iad, p):
        got = activity_fraction_core(ia, iad, p)
        want = TestActivityCore.reference(ia, iad, p)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        return got

    @staticmethod
    def courses(p, n=500):
        # dead courses (iad 0 and iad == tau1) among live ones, ages in [0, iad]
        rng = np.random.default_rng(7)
        tau = p.terminal_lead
        iad = np.concatenate(([0.0, tau, np.nextafter(tau, np.inf)], rng.uniform(0.0, 40.0, n)))
        ia = rng.random(iad.size) * iad
        ia[:3] = (0.0, tau, tau)
        return ia, iad

    @pytest.mark.parametrize(
        "phi, tau", [(PHI, TAU), (PHI_MIN, TAU_MIN), (1.0 - 1e-9, 5.0)],
    )
    def test_live_dead_and_mixed(self, phi, tau):
        p = ActivityParams(annual_acts=208.0, residual_fraction=phi, terminal_lead=tau)
        ia, iad = self.courses(p)
        live = iad > tau
        assert not live[:2].any() and live[2]
        # every course live: the unmasked path
        got = self.check(ia[live], iad[live], p)
        assert got.size == live.sum() > 0
        # mixed: dead courses give exact zeros
        got = self.check(ia, iad, p)
        assert not got[~live].any()
        # every course dead
        got = self.check(ia[~live], iad[~live], p)
        assert got.shape == ((~live).sum(),) and not got.any()
        # no course at all
        assert self.check(ia[:0], iad[:0], p).shape == (0,)

    def test_broadcast_rows(self, params):
        # the quadrature's layout: a column of ages at death, a row of nodes
        ia, iad = self.courses(params, 40)
        nodes = np.linspace(0.0, 1.0, 24)
        col = iad[:, None]
        self.check(nodes * col, col, params)
        self.check(nodes * col[3:], col[3:], params)
        # one age broadcast over many courses, and one course over many ages
        self.check(0.0, iad, params)
        self.check(ia, 40.0, params)
        self.check(np.linspace(0.0, TAU, 5), TAU, params)

    @pytest.mark.parametrize("iad", [0.0, TAU, 1.5, 7.0])
    def test_scalar_and_zero_d(self, params, iad):
        for ia in (0.0, 0.5 * iad, iad):
            self.check(ia, iad, params)
            self.check(np.float64(ia), np.float64(iad), params)
            got = self.check(np.array(ia), np.array(iad), params)
            assert got.shape == ()
            self.check(np.array([ia]), np.array(iad), params)

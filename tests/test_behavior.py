import math

import numpy as np
import pytest

from hivbrn import ActivityParams, DomainError, activity_fraction

PHI = 0.61
TAU = 1.0


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
        # under a lead of 1e308 years, with no overflow on the way to 0
        p = ActivityParams(annual_acts=1.0, residual_fraction=PHI, terminal_lead=1e308)
        assert not activity_fraction(np.linspace(0.0, 7.0, 8), 7.0, p).any()

    def test_long_course_does_not_overflow(self, params):
        # phi*(iad - ia)*(iad - tau1) alone would overflow on this course
        g = activity_fraction(np.array([0.0, 0.5e300, 1e300]), 1e300, params)
        assert g.tolist() == [1.0, 1.0, 0.0]

    @pytest.mark.parametrize(
        "phi, tau, iad",
        [
            # phi*(iad - ia)*(iad - tau1) in absolute ages underflows to 0
            (1e-300, 1e-30, 1.000001e-30),
            # (1 - phi)*tau1 is under 2**-1074 of phi*(iad - tau1)
            (PHI, 1e-300, 1e30),
            (PHI, 2e-323, 7.0),
        ],
    )
    def test_extreme_course_ends(self, phi, tau, iad):
        # G is 1 at infection and 0 at death, not 0/0 at either end
        p = ActivityParams(annual_acts=1.0, residual_fraction=phi, terminal_lead=tau)
        assert activity_fraction(np.array([0.0, iad]), iad, p).tolist() == [1.0, 0.0]

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
        # digits, up to courses of 1e30 years; a G below the normal range
        # keeps only absolute accuracy
        mp = pytest.importorskip("mpmath")
        p = ActivityParams(annual_acts=208.0, residual_fraction=phi, terminal_lead=tau)
        for iad in (1.5, 7.0, 40.0, 1e10, 1e30):
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

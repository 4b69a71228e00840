import numpy as np
import pytest
from scipy import integrate, optimize, stats

from hivbrn import DomainError, SurvivalParams, survival_density, tail_mass
from hivbrn.survival import survival_quantile_core


def cdf(x, p):
    """Weibull CDF as the complement of :func:`tail_mass`, elementwise."""
    return 1.0 - np.array([tail_mass(v, p) for v in np.ravel(x)]).reshape(np.shape(x))


@pytest.fixture(scope="module")
def male_survival():
    return SurvivalParams(median=9.4, shape=2.5)


@pytest.fixture(scope="module")
def female_survival():
    return SurvivalParams(median=8.6, shape=2.5)


class TestWeibullScale:
    def test_value(self):
        assert SurvivalParams(9.4, 2.5).scale == pytest.approx(10.884, abs=1e-3)

    def test_against_numeric_median_solve(self):
        # independent oracle: solve CDF(9.4) = 0.5 for the scale numerically
        oracle = optimize.brentq(
            lambda a: 1.0 - np.exp(-((9.4 / a) ** 2.5)) - 0.5, 1.0, 100.0,
            xtol=1e-13,
        )
        assert SurvivalParams(9.4, 2.5).scale == pytest.approx(oracle, rel=1e-12)

    def test_median_round_trip(self, male_survival):
        assert 1.0 - tail_mass(male_survival.median, male_survival) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_exponential_special_case(self):
        assert SurvivalParams(7.0, 1.0).scale == pytest.approx(
            7.0 / np.log(2.0), rel=1e-14
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            SurvivalParams(0.0, 2.5)
        with pytest.raises(DomainError):
            SurvivalParams(9.4, -1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="median"):
            SurvivalParams(bad, 2.5)
        with pytest.raises(DomainError, match="shape"):
            SurvivalParams(9.4, bad)


class TestDensity:
    def test_matches_reference_implementation(self, male_survival):
        # oracle: scipy's textbook Weibull
        x = np.linspace(0.01, 40.0, 200)
        ref = stats.weibull_min.pdf(x, male_survival.shape, scale=male_survival.scale)
        got = survival_density(x, male_survival)
        assert np.allclose(got, ref, rtol=1e-10, atol=0.0)
        assert survival_density(9.4, male_survival) == pytest.approx(
            0.0921738272021204, rel=1e-10
        )

    def test_normalization(self, male_survival):
        total, err = integrate.quad(
            lambda x: survival_density(x, male_survival), 0.0, np.inf
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_median_mass(self, male_survival):
        half, err = integrate.quad(
            lambda x: survival_density(x, male_survival), 0.0, male_survival.median
        )
        assert half == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("shape", [400.0, 462.0])
    def test_steep_shape_is_finite(self, female, shape):
        # at beta 400, x**(b-1) overflows on [tau1, 40] where exp(-(x/a)**b)
        # underflows to 0; at 462, the steepest shape a 40-year horizon
        # accepts, so does b/a * (x/a)**(b-1).  The product must not
        p = SurvivalParams(median=8.6, shape=shape)
        x = np.linspace(female.activity.terminal_lead, 40.0, 2001)
        got = survival_density(x, p)
        assert np.all(np.isfinite(got))
        a, b = p.scale, p.shape
        z = x / a
        ref = b / a * np.exp((b - 1.0) * np.log(z) - z**b)
        shown = got > 1e-300
        assert shown.sum() > 100
        assert np.allclose(got[shown], ref[shown], rtol=1e-12, atol=0.0)

    def test_baseline_matches_unscaled_powers(self, male_survival, female_survival):
        # scaling x by a before the powers moves the baseline by rounding only
        x = np.linspace(0.01, 40.0, 2001)
        for p in (male_survival, female_survival):
            a, b = p.scale, p.shape
            old = x ** (b - 1.0) * b / a**b * np.exp(-((x / a) ** b))
            got = survival_density(x, p)
            assert np.all(np.abs(got - old) <= 4 * np.spacing(old))

    def test_nonnegative(self, male_survival):
        x = np.linspace(0.0, 80.0, 500)
        assert np.all(survival_density(x, male_survival) >= 0.0)


class TestCdf:
    def test_endpoints(self, male_survival):
        assert 1.0 - tail_mass(0.0, male_survival) == 0.0
        assert 1.0 - tail_mass(1e6, male_survival) == pytest.approx(1.0, abs=1e-15)

    def test_far_tail_value(self, male_survival):
        got = 1.0 - tail_mass(30.0, male_survival)
        assert got == pytest.approx(1.0 - 3.3293746068624e-06, rel=1e-10)
        # oracle: numeric integration of the density
        upper, err = integrate.quad(
            lambda x: survival_density(x, male_survival), 0.0, 30.0
        )
        assert got == pytest.approx(upper, abs=1e-9)

    def test_derivative_is_density(self, male_survival):
        # central differences at 100 interior points
        x = np.linspace(0.5, 35.0, 100)
        h = 1e-6
        fd = (cdf(x + h, male_survival) - cdf(x - h, male_survival)) / (2 * h)
        ref = survival_density(x, male_survival)
        assert np.allclose(fd, ref, rtol=1e-6)

    def test_monotone(self, male_survival):
        x = np.linspace(0.0, 60.0, 2_000)
        assert np.all(np.diff(cdf(x, male_survival)) >= 0.0)


class TestQuantile:
    def test_median(self, male_survival, female_survival):
        for p in (male_survival, female_survival):
            assert survival_quantile_core(0.5, p) == pytest.approx(p.median, rel=1e-14)

    def test_small_u_goes_to_zero(self, male_survival):
        assert 0.0 < survival_quantile_core(1e-12, male_survival) < 1e-3
        assert 0.0 < survival_quantile_core(1e-15, male_survival) < 1e-4

    def test_core_maps_zero_to_zero(self, male_survival, female_survival):
        # the Monte Carlo draws u in [0, 1); u = 0 is an empty course
        for p in (male_survival, female_survival):
            assert survival_quantile_core(0.0, p) == 0.0

    def test_round_trip(self, male_survival):
        u = np.arange(0.01, 1.0, 0.01)
        back = cdf(survival_quantile_core(u, male_survival), male_survival)
        assert np.allclose(back, u, atol=1e-10)


class TestTailMass:
    def test_horizon_truncation_negligible(self, male_survival, female_survival):
        assert tail_mass(40.0, male_survival) < 1e-6
        assert tail_mass(40.0, female_survival) < 1e-6
        with pytest.raises(DomainError, match="horizon must be >= 0"):
            tail_mass(-1.0, male_survival)

    def test_complements_cdf(self, male_survival):
        # oracle: scipy's textbook Weibull CDF
        ref = stats.weibull_min(male_survival.shape, scale=male_survival.scale)
        for x in (5.0, 20.0, 40.0):
            assert tail_mass(x, male_survival) == pytest.approx(
                1.0 - ref.cdf(x), abs=1e-15
            )

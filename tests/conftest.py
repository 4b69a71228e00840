import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from hivbrn import QuadratureSpec, baseline_population, sex_integral

# Hypothesis caches the constants it reads from the sources in its home
# directory, ./.hypothesis by default, while the tests are collected: keep
# that cache out of the working tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# the valid parameter box of the threshold_box benchmark, with alpha1 down to
# its hard corner; each property adds its own range for the Weibull shape beta
PARAM_BOX = dict(
    ia1=(0.2, 0.8), M1=(4.5, 5.5), m=(2.5, 3.5), tau1=(0.5, 1.5),
    M2=(4.0, 5.2), alpha1=(1.02, 2.0), alpha2=(0.1, 0.4), alpha3=(0.4, 1.2),
    ptr_hi=(0.004, 0.012), ptr_lo=(0.0005, 0.002), phi=(0.4, 0.8),
    median=(7.0, 11.0),
)

# scenarios at and past the edge of the box, shared by the CLI and library
# tests: integrals near 1e157 in both sexes, whose product overflowed, and
# whose median is refused
HUGE = "[female]\nmedian = 1e160\n[male]\nmedian = 1e160\n[population]\nomega = 1e161\n"
# integrals near 280 in both sexes, about the largest the box allows, and an
# I0 near 0.0036 that a table's 2 decimals showed as 0.00
LONG = "".join(
    f"[{sex}]\nmedian = 300\nptr_hi = 0.99\nptr_lo = 0.9\nphi = 0.99\n" for sex in ("female", "male")
) + "[population]\nomega = 1000\n"
# a terminal lead of 5 years on courses that end near 2 years: the outer
# mesh starts at tau1, past every age at death with a positive density
UNREACHED = "[female]\nmedian = 2\nbeta = 10\ntau1 = 5\n"


@pytest.fixture(scope="session")
def population():
    return baseline_population()


@pytest.fixture(scope="session")
def female(population):
    return population.female


@pytest.fixture(scope="session")
def male(population):
    return population.male


@pytest.fixture(scope="session")
def baseline_integrals(population):
    """(integral_f, integral_m) at the default quadrature settings."""
    return (
        sex_integral(population.female, population.omega),
        sex_integral(population.male, population.omega),
    )


@pytest.fixture(scope="session")
def tight_quad():
    return QuadratureSpec(tol=1e-9)

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

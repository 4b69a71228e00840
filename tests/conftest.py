import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from hivbrn import QuadratureSpec, baseline_population, sex_integral

# Hypothesis caches the constants it reads from the sources in its home
# directory, ./.hypothesis by default, while the tests are collected: keep
# that cache out of the working tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


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

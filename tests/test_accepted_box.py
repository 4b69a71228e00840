"""Properties over the whole accepted scenario box, not just the valid one of
the benchmark: every kernel stays finite and in range on the quadrature's
level-1 mesh, and every command ends in exit 0, 2 or 3 with at most one
line on stderr, with RuntimeWarning raised as an error."""

import io
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hivbrn import ScenarioError, parse_scenario
from hivbrn.behavior import activity_fraction_core
from hivbrn.cli import main
from hivbrn.natural_history import transmission_prob_core
from hivbrn.reproduction import MAX_TAIL_MASS, _graded_rule
from hivbrn.survival import survival_density_core

# log10 bounds of each female key's accepted range with every other key at
# its baseline value, floored at 1e-300 (tau1 at the least subnormal): a key
# may reach its bound only through a refusal, which the properties skip
LOG10_RANGES = dict(
    ia1=(-300, 307.5), M1=(0.649, 2.438), m=(-300, 0.649), tau1=(-323.3, 308.2),
    M2=(0.544, 0.754), alpha3=(-300, 308.2), ptr_hi=(-2.928, 0.0),
    ptr_lo=(-300, -2.192), delta=(-300, 308.2), phi=(-300, 0.0),
    beta=(0.333, 2.648),
)
# M2 under a flat link: up to where 10**M2 overflows, and far past it
LOAD_M2_LOG10, FLAT_M2_LOG10 = math.log10(308.25), 308.2
# the horizon's accepted range under the baseline male profile
OMEGA_LOG10 = (1.596, 124.28)
# alpha1 - 1 from the first double above 1; a positive alpha2 up to the
# exp(alpha2) that overflows
ALPHA1_LOG10 = (-15.65, 308.2)
ALPHA2_LOG10 = 2.851


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def scenario_texts(draw):
    keys = {key: draw(log_uniform(*bounds)) for key, bounds in LOG10_RANGES.items()}
    if draw(st.booleans()):
        # a flat link (slope 0): the probability cap no longer bounds M2; one
        # branch stays where 10**M2 is a double, so that enough draws are accepted
        keys["ptr_hi"] = keys["ptr_lo"]
        lo, hi = LOG10_RANGES["M2"][0], FLAT_M2_LOG10
        keys["M2"] = draw(st.one_of(log_uniform(lo, LOAD_M2_LOG10), log_uniform(lo, hi)))
    keys["alpha1"] = 1.0 + draw(log_uniform(*ALPHA1_LOG10))
    keys["alpha2"] = draw(
        st.one_of(log_uniform(-300, 308.2).map(lambda v: -v), log_uniform(-300, ALPHA2_LOG10))
    )
    omega = draw(log_uniform(*OMEGA_LOG10))
    # the median through the horizon's tail exponent (omega / scale)**beta,
    # log-uniform over the exponents the tail-mass check accepts: drawn on
    # its own, almost every median would be refused
    exponent = draw(st.floats(math.log10(-math.log(MAX_TAIL_MASS)), 308.25))
    beta = keys["beta"]
    keys["median"] = omega * 10.0 ** (-exponent / beta) * math.log(2.0) ** (1.0 / beta)
    lines = [f"{key} = {value!r}" for key, value in keys.items()]
    return "\n".join(["[female]", *lines, "[population]", f"omega = {omega!r}", ""])


def accepted(text):
    try:
        return parse_scenario(text)
    except ScenarioError:
        assume(False)


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(scenario_texts())
def test_kernels_on_level1_mesh(text):
    scenario = accepted(text)
    prof = scenario.population.female
    tau, omega = prof.activity.terminal_lead, scenario.population.omega
    # only courses longer than tau1 are integrated
    assume(omega > tau)
    outer, _ = _graded_rule(1, both_ends=False)
    inner, _ = _graded_rule(1, both_ends=True)
    # the mesh plus both ends of each course, infection and death
    y = (tau + (omega - tau) * outer).reshape(-1, 1)
    x = np.concatenate(([0.0], inner.ravel(), [1.0])).reshape(1, -1) * y
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        g = activity_fraction_core(x, y, prof.activity)
        ptr = transmission_prob_core(x, y, prof.viral, prof.transmission, prof.x_plateau)
        density = survival_density_core(y, prof.survival)
    for values in (g, ptr, density):
        assert np.isfinite(values).all()
    assert ((g >= 0) & (g <= 1)).all()
    assert (g[:, 0] == (y[:, 0] > tau)).all() and not g[:, -1].any()
    assert ((ptr >= 0) & (ptr <= 1)).all()


@settings(database=None, derandomize=True, deadline=None, max_examples=25)
@given(
    scenario_texts(),
    st.sampled_from(
        (["eval"], ["trajectory"], ["simulate", "--sex", "female", "--samples", "512"])
    ),
)
def test_cli_ends_in_one_line(text, argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text(text)
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--config", str(path)])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) == (code != 0)

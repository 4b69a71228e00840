"""Properties over the whole double range of every scenario key, not just
the valid box of the benchmark: a value outside its key's range in
``RANGES`` is refused with exit 2 and one line naming the key; inside the
box every kernel stays finite and in range on the quadrature's level-1
mesh, with overflow, division by zero and invalid operations raised as
errors, and every command ends in exit 0, 2 or 3 with at most one line on
stderr, with RuntimeWarning raised as an error."""

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
from hivbrn.errors import RANGES
from hivbrn.natural_history import transmission_prob_core
from hivbrn.reproduction import MAX_TAIL_MASS, _graded_rule
from hivbrn.survival import survival_density_core

# the per-sex keys in the order a scenario text writes them, then omega
SEX_KEYS = (
    "ia1", "m", "M1", "M2", "tau1", "alpha1", "alpha2", "alpha3",
    "ptr_hi", "ptr_lo", "delta", "phi", "beta", "median",
)
# the least positive log10 a draw reaches, near the least subnormal
LOG10_TINY = -323.3


def inside(key, value):
    low, high, brackets = RANGES[key]
    above = value > low if brackets[0] == "(" else value >= low
    below = value < high if brackets[1] == ")" else value <= high
    return above and below


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def in_range(key):
    """A value of ``key`` inside its range, log10 uniform where the range is
    positive and uniform where it is not, an open end moved in by one ulp;
    alpha1 - 1 is log10 uniform, so that draws reach the singular
    alpha1 -> 1."""
    low, high, brackets = RANGES[key]
    if key == "alpha1":
        return log_uniform(math.log10(2.0**-52), math.log10(high - 1.0)).map(lambda v: 1.0 + v)
    if brackets[0] == "(":
        low = math.nextafter(low, math.inf)
    if brackets[1] == ")":
        high = math.nextafter(high, -math.inf)
    if low < 0:
        return st.floats(low, high)
    log_low = math.log10(low) if low > 0 else LOG10_TINY
    return log_uniform(log_low, math.log10(high)).map(lambda v: min(max(v, low), high))


@st.composite
def box_keys(draw):
    """Every per-sex key and omega inside the box, drawn so that most of the
    draws pass the relational checks too."""
    keys = {key: draw(in_range(key)) for key in ("ia1", "tau1", "alpha1", "alpha2", "alpha3", "delta", "phi", "beta")}
    m = keys["m"] = draw(in_range("m"))
    # M1 and M2 above m; M2 up to M1, or anywhere above m, where the link
    # may lift the peak probability to 1
    for key, top in (("M1", 10.0), ("M2", draw(st.sampled_from((None, 10.0))))):
        top = top or keys["M1"]
        load = m + (top - m) * draw(st.floats(0.0, 1.0))
        keys[key] = min(max(load, math.nextafter(m, math.inf)), 10.0)
    ptr = sorted(draw(in_range("ptr_hi")) for _ in range(2))
    if draw(st.booleans()):
        ptr[0] = ptr[1]  # a flat link (slope 0)
    keys["ptr_lo"], keys["ptr_hi"] = ptr
    omega = keys["omega"] = draw(in_range("omega"))
    # the median through the horizon's tail exponent (omega / scale)**beta,
    # log10 uniform over the exponents that the tail-mass check accepts and
    # that keep the median in its range: drawn on its own, almost every
    # median would be refused
    beta, log_omega, log_ln2 = keys["beta"], math.log10(omega), math.log10(math.log(2.0))
    lo = max(math.log10(-math.log(MAX_TAIL_MASS)) + 1e-9, beta * (log_omega - 3.0) + log_ln2)
    hi = min(308.25, beta * (log_omega + 3.0) + log_ln2)
    assume(lo < hi)
    exponent = draw(st.floats(lo, hi))
    keys["median"] = omega * 10.0 ** (-exponent / beta) * math.log(2.0) ** (1.0 / beta)
    return keys


def scenario_text(keys, female=None):
    """Both sexes at ``keys``, the female section overridden by ``female``."""
    sections = []
    for sex, values in (("female", {**keys, **(female or {})}), ("male", keys)):
        sections += [f"[{sex}]", *(f"{key} = {values[key]!r}" for key in SEX_KEYS)]
    omega = (female or {}).get("omega", keys["omega"])
    return "\n".join([*sections, "[population]", f"omega = {omega!r}", ""])


def accepted(text):
    try:
        return parse_scenario(text)
    except ScenarioError:
        assume(False)


@settings(database=None, derandomize=True, deadline=None, max_examples=150)
@given(box_keys())
def test_kernels_on_level1_mesh(keys):
    scenario = accepted(scenario_text(keys))
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


@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(
    box_keys(),
    st.one_of(
        st.just({}),
        st.dictionaries(
            st.sampled_from((*SEX_KEYS, "omega")),
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=3,
        ),
    ),
    st.sampled_from((
        (["eval"], ""),
        (["trajectory"], ""),
        (["simulate", "--sex", "female", "--samples", "512"], ""),
        (["simulate", "--sex", "female", "--samples", "512"], "[simulation]\nact_process = expected_value\n"),
    )),
)
def test_cli_ends_in_one_line(keys, anywhere, command):
    # some female keys or omega drawn over the whole double range: the first
    # of them in the text that leaves its range is refused, by name, before
    # any integral; simulate runs each act process, and at 100 examples a
    # dozen or more draws of each reach the Monte Carlo
    argv, simulation = command
    text = scenario_text(keys, anywhere) + simulation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text(text)
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--config", str(path)])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) == (code != 0)
    outside = [key for key in (*SEX_KEYS, "omega") if not inside(key, anywhere.get(key, keys[key]))]
    if outside:
        section = "population" if outside[0] == "omega" else "female"
        assert code == 2
        assert f"[{section}] {outside[0]} must be in " in err.getvalue()

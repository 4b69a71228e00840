"""Workload inputs: the threshold_box design and the command decks.

Everything here is a pure function of the benchmark's constants and the
workload seed, and none of it imports hivbrn: a scenario's validity is
decided with the bench's own reference model, so a change to the package's
validation cannot change the inputs.
"""

from __future__ import annotations

import math
import random

import model

OMEGA = 40.0

# Independent copy of the baseline scenario (README, "Scenario files").
_SHARED = dict(
    ia1=0.4, M1=5.0, m=3.0, tau1=1.0, M2=4.8, alpha1=1.3, alpha2=0.2,
    alpha3=0.7, ptr_hi=0.008, ptr_lo=0.001, delta=82.0, phi=0.61, beta=2.5,
)
BASELINE = {"female": dict(_SHARED, median=8.6), "male": dict(_SHARED, median=9.4)}
BASELINE_TOL = 1e-6
# Golden numbers (tests/test_reproduction.py and README).
INT_REFERENCE = {"female": 0.011866472266349291, "male": 0.012666651010154186}
I0_BASELINE = 81.5658
GOLDEN_REL = 1e-5

# --- threshold_box --------------------------------------------------------

# Valid parameter box, per sex.  alpha1 reaches 1.02, where the integrand's
# x**(alpha1 - 1) factor is nearly singular at x = 0.
BOX = dict(
    ia1=(0.2, 0.8), M1=(4.5, 5.5), m=(2.5, 3.5), tau1=(0.5, 1.5),
    M2=(4.0, 5.2), alpha1=(1.1, 2.0), alpha2=(0.1, 0.4), alpha3=(0.4, 1.2),
    ptr_hi=(0.004, 0.012), ptr_lo=(0.0005, 0.002), phi=(0.4, 0.8),
    median=(7.0, 11.0), beta=(2.2, 3.5),
)
HARD_ALPHA1 = (1.02, 1.1)
DELTA = (26.0, 468.0)
# The sweeps scale probabilities by up to this factor; it must stay < 1.
MAX_SCALE = 2.0
# A refinement budget of 6 doublings bounds one integral to about 1.4 s on
# the seed code; an integral that needs more fails with QuadratureFailure.
BOX_MAX_REFINE = 6
DESIGN_SEED = 20260810
# (count, alpha1 range, tol): the rows of the fixed design.  Hard cases are
# alpha1 < 1.1 or tol <= 1e-8.  With the corner the design has 13 cases,
# about 10 s on the seed code, so that a run holds several cycles (README,
# "threshold_box design").
STRATA = (
    (7, BOX["alpha1"], 1e-6),
    (1, BOX["alpha1"], 1e-7),
    (2, BOX["alpha1"], 1e-8),
    (2, HARD_ALPHA1, 1e-6),
)
# The baseline at alpha1 = 1.02 is asked for at this tol, where the seed code
# exhausts its refinement budget and raises QuadratureFailure.
CORNER_TOL = 1e-7
SWEEP_FUNCTION = (1.0, 0.5, 2.0)
SWEEP_ENDPOINTS = (0.5, 2.0)


def is_hard(case: dict) -> bool:
    alpha1 = min(case["female"]["alpha1"], case["male"]["alpha1"])
    return alpha1 < 1.1 or case["tol"] <= 1e-8


def _valid(values: dict) -> bool:
    scale = values["median"] * math.log(2.0) ** (-1.0 / values["beta"])
    if math.exp(-((OMEGA / scale) ** values["beta"])) >= 1e-6:
        return False
    # the per-act probability peaks where the log viral load does
    peak = model.link(values)(max(values["M1"], values["M2"]))
    return MAX_SCALE * peak < 1.0 and MAX_SCALE * values["ptr_hi"] < 1.0


def _draw_sex(rng: random.Random, alpha1: tuple) -> dict:
    while True:
        values = {k: rng.uniform(*r) for k, r in BOX.items()}
        values["alpha1"] = rng.uniform(*alpha1)
        if _valid(values):
            return values


def box_design() -> list[dict]:
    """The fixed threshold_box design: per-sex shapes and tol of each case.
    The last case, the baseline at alpha1 = 1.02, pins the box corner."""
    cases = []
    for stratum, (count, alpha1, tol) in enumerate(STRATA):
        rng = random.Random(f"{DESIGN_SEED}-{stratum}")
        for _ in range(count):
            cases.append(
                {
                    "female": _draw_sex(rng, alpha1),
                    "male": _draw_sex(rng, alpha1),
                    "tol": tol,
                    "stratum": stratum,
                }
            )
    corner = {sex: dict(BASELINE[sex], alpha1=HARD_ALPHA1[0]) for sex in BASELINE}
    for sex in corner:
        del corner[sex]["delta"]
    cases.append(dict(corner, tol=CORNER_TOL, stratum=len(STRATA)))
    return cases


def box_deck(seed: int, design: list[dict]) -> list[dict]:
    """One cycle of threshold_box ops: each case with seeded contact rates
    (which do not enter the integrals), in a seeded order that spreads every
    stratum evenly over the cycle, so that every stretch of a run sees the
    same mix of cheap and costly ops."""
    rng = random.Random(seed)
    keyed = []
    for stratum in sorted({case["stratum"] for case in design}):
        members = [case for case in design if case["stratum"] == stratum]
        rng.shuffle(members)
        for i, case in enumerate(members):
            rates = dict(delta_f=rng.uniform(*DELTA), delta_m=rng.uniform(*DELTA))
            keyed.append(((i + rng.random()) / len(members), dict(case, **rates)))
    keyed.sort(key=lambda pair: pair[0])
    return [case for _, case in keyed]


def scenario_text(case: dict) -> str:
    lines = []
    for sex, delta in (("female", case["delta_f"]), ("male", case["delta_m"])):
        lines.append(f"[{sex}]")
        lines += [f"{k} = {case[sex][k]!r}" for k in model.SHAPE_KEYS]
        lines.append(f"delta = {delta!r}")
    lines += [
        "[population]", f"omega = {OMEGA!r}",
        "[quadrature]", f"tol = {case['tol']!r}", f"max_refine = {BOX_MAX_REFINE}",
    ]
    return "\n".join(lines) + "\n"


def case_jobs(case: dict) -> list[tuple]:
    """Reference integrals one threshold op is checked against."""
    jobs = []
    for sex in ("female", "male"):
        jobs.append((case[sex], OMEGA, 1.0))
        jobs += [(case[sex], OMEGA, f) for f in SWEEP_ENDPOINTS]
    return jobs


def reference_jobs() -> list[tuple]:
    baseline = {sex: {k: BASELINE[sex][k] for k in model.SHAPE_KEYS} for sex in BASELINE}
    jobs = case_jobs(baseline)
    for case in box_design():
        jobs += case_jobs(case)
    return jobs


# --- cli_cold and mc_validate ---------------------------------------------

CSW = "scenarios/csw_clients.ini"


def cli_deck(seed: int) -> list[tuple[str, list[str]]]:
    """The command mix, in a seeded order, with seeded factors and life course."""
    rng = random.Random(seed)
    factors = ",".join(f"{rng.uniform(0.25, 0.5):.4f}" for _ in range(2))
    sweep = f"{rng.uniform(0.25, 0.5):.4f},1,{rng.uniform(1.5, 2.0):.4f}"
    mix = [
        ("eval_json", ["eval"]),
        ("eval_table", ["eval", "--format", "table"]),
        ("eval_csv", ["eval", "--format", "csv"]),
        ("eval_csw", ["eval", "--config", CSW]),
        ("phase", ["phase", "--factors", factors, "--grid", f"10:150:{rng.randint(41, 101)}"]),
        ("sweep_function", ["sweep", "--factors", sweep]),
        ("sweep_endpoints", ["sweep", "--mode", "scale_endpoints", "--factors", "0.5,1,2"]),
        ("trajectory", ["trajectory", "--sex", rng.choice(["female", "male"]),
                        "--iad", f"{rng.uniform(2.0, 20.0):.3f}"]),
    ]
    rng.shuffle(mix)
    return mix


EV_CONFIG = "bench/expected_value.ini"
THINNING_SAMPLES = 1_000_000


def mc_deck(seed: int, smoke: bool) -> list[list[str]]:
    """One cycle: a thinning and an expected-value validation, each with its
    own seeded simulation seed."""
    rng = random.Random(seed)
    thinning = ["simulate", "--samples", str(8192 if smoke else THINNING_SAMPLES)]
    expected = ["simulate", "--config", EV_CONFIG] + (["--samples", "8192"] if smoke else [])
    return [base + ["--seed", str(rng.randrange(2**32))] for base in (thinning, expected)]

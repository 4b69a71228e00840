"""Tests of the benchmark itself, at smoke size.  Not part of the Tier-1 suite
(pytest's ``testpaths`` is ``tests``); run them with

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import model  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    result = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--smoke"))
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics():
    result = result_of(run_bench("--workload", "cli_cold", "--seed", "3", "--seconds", "1",
                                 "--trace", "1", "--smoke"))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # one phase op: three scale_function factors for two sexes, then both sexes again
    assert metrics["reproduction.sensitivity_sweep.sex_integral_calls"] == 8
    assert metrics["cli.main.calls"] == len(workloads.cli_deck(3))
    assert metrics["reproduction.transmission_prob.points"] % 576 == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cli_cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed():
    design = workloads.box_design()
    assert workloads.box_deck(5, design) == workloads.box_deck(5, design)
    assert workloads.box_deck(5, design) != workloads.box_deck(6, design)
    assert workloads.cli_deck(5) == workloads.cli_deck(5) != workloads.cli_deck(6)
    assert workloads.mc_deck(5, False) == workloads.mc_deck(5, False) != workloads.mc_deck(6, False)


def test_references_cover_the_design():
    assert not model.needed(workloads.reference_jobs(), model.load_references())


def test_reference_model_reproduces_the_golden_integrals():
    for sex, golden in workloads.INT_REFERENCE.items():
        values = workloads.BASELINE[sex]
        assert model.sex_integral(values, workloads.OMEGA) == pytest.approx(golden, rel=1e-10)


def test_reference_model_matches_the_kernels():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import hivbrn

    case = workloads.box_design()[0]
    scenario = hivbrn.parse_scenario(workloads.scenario_text(dict(case, delta_f=1.0, delta_m=1.0)))
    profile = scenario.population.female
    ref = model.integrand(case["female"])
    y = np.linspace(profile.activity.terminal_lead + 0.01, 39.0, 7)
    x = y * 0.37
    ptr = hivbrn.transmission_prob(x, y, profile.viral, profile.transmission, profile.x_plateau)
    act = hivbrn.activity_fraction(x, y, profile.activity)
    dens = hivbrn.survival_density(y, profile.survival)
    for i in range(y.size):
        assert ptr[i] == pytest.approx(ref.ptr(x[i], y[i]), rel=1e-9)
        assert act[i] == pytest.approx(ref.activity(x[i], y[i]), rel=1e-12)
        assert dens[i] == pytest.approx(ref.s(y[i]), rel=1e-12)

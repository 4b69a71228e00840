"""Layer probes: import time, kernel throughput, one integral, one MC chunk.

    python3 bench/probes.py [--smoke]

Needs ``src`` on PYTHONPATH (``run.py`` sets it).  Prints one JSON line,
``{name: [value, unit]}``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

import hivbrn
from hivbrn import mc_oracle, reproduction

SMOKE = "--smoke" in sys.argv[1:]
REPEATS = 1 if SMOKE else 3
MIN_SECONDS = 0.02 if SMOKE else 0.2


def import_seconds() -> tuple[float, float]:
    """Median of ``import hivbrn`` (cumulative) and of the self time of every
    scipy module it pulls in, from ``python -X importtime``."""
    hivbrn_s, scipy_s = [], []
    for _ in range(REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hivbrn"],
            capture_output=True, text=True, check=True,
        )
        total, scipy = 0, 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
            if name == "hivbrn":
                total = cumulative_us
            if name.split(".")[0] == "scipy":
                scipy += self_us
        hivbrn_s.append(total / 1e6)
        scipy_s.append(scipy / 1e6)
    return statistics.median(hivbrn_s), statistics.median(scipy_s)


def points_per_second(fn, points: int) -> float:
    rates = []
    for _ in range(REPEATS):
        calls, start = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - start) < MIN_SECONDS or calls == 0:
            fn()
            calls += 1
        rates.append(calls * points / elapsed)
    return statistics.median(rates)


def seconds_of(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    metrics = {}
    hivbrn_s, scipy_s = import_seconds()
    metrics["import.hivbrn_s"] = (hivbrn_s, "s")
    metrics["import.scipy_s"] = (scipy_s, "s")

    pop = hivbrn.baseline_population()
    female = pop.female
    rng = np.random.default_rng(20260810)
    # a quadrature block: 24 outer nodes by 24 inner nodes, x in [0, y]
    y_block = np.linspace(2.0, 30.0, 24)[:, None]
    x_block = y_block * np.linspace(0.01, 0.99, 24)[None, :]
    # a Monte Carlo array: independent (x, y) pairs
    flat = 10**4 if SMOKE else 10**6
    y_flat = rng.uniform(female.activity.terminal_lead, pop.omega, flat)
    x_flat = y_flat * rng.random(flat)
    xp = female.x_plateau
    kernels = {
        "natural_history.transmission_prob": lambda x, y: hivbrn.transmission_prob(
            x, y, female.viral, female.transmission, xp),
        "behavior.activity_fraction": lambda x, y: hivbrn.activity_fraction(x, y, female.activity),
        "survival.survival_density": lambda x, y: hivbrn.survival_density(
            np.broadcast_to(y, x.shape), female.survival),
    }
    for name, kernel in kernels.items():
        metrics[f"{name}.block576_pts_per_s"] = (
            points_per_second(lambda: kernel(x_block, y_block), 576), "1/s")
        metrics[f"{name}.flat1e6_pts_per_s"] = (
            points_per_second(lambda: kernel(x_flat, y_flat), flat), "1/s")

    for tol, repeats in (("1e-6", REPEATS), ("1e-9", 1)):
        quad = reproduction.QuadratureSpec(tol=float(tol))
        metrics[f"reproduction.sex_integral.tol_{tol}_s"] = (
            seconds_of(lambda: reproduction.sex_integral(female, pop.omega, quad), repeats), "s")

    for process in mc_oracle.ACT_PROCESSES:
        spec = mc_oracle.SimulationSpec(mc_oracle.CHUNK_SAMPLES, 20260810, process)
        metrics[f"mc_oracle.estimate_sex_integral.chunk_{process}_s"] = (
            seconds_of(lambda: mc_oracle.estimate_sex_integral(female, spec)), "s")

    spec = mc_oracle.SimulationSpec(32 * 4096 if SMOKE else 128 * 4096, 20260810)
    one, two = (
        seconds_of(lambda: mc_oracle.estimate_sex_integral(female, spec, workers=w))
        for w in (1, 2)
    )
    metrics["mc_oracle.estimate_sex_integral.speedup_2w"] = (one / two, "ratio")
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

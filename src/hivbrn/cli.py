"""Command-line front end.

Subcommands::

    hivbrn eval        threshold record: R_fm, R_mf, R0, I0, ISA, verdict
    hivbrn trajectory  per-age series: viral load, per-act probability, activity
    hivbrn phase       R0 = 1 hyperbolae, fixed point and rectangle corners
    hivbrn sweep       I0 under rescaled transmission probabilities
    hivbrn simulate    Monte Carlo estimate vs quadrature, per sex

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Given
the same scenario, flags and seed, every command writes byte-identical
output; JSON and CSV numbers carry full round-trip precision, and a number
beyond double range is refused (exit 2), never written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .behavior import activity_fraction_core
from .errors import DomainError, QuadratureFailure, ScenarioError
from .mc_oracle import estimate_sex_integral
from .natural_history import link_core, log_viral_load_core
from .reproduction import (
    composite_r0,
    evaluate_brn,
    index_i0,
    scaled_links,
    sensitivity_sweep,
    sex_brn,
    sex_integral,
    sex_integrals,
)
from .scenario import Scenario, load_scenario

# plausible contact-rate ranges for the high-activity groups, acts/year
FEASIBLE_DELTA_M = (26.0, 104.0)
FEASIBLE_DELTA_F = (208.0, 468.0)
# most rows a trajectory or a phase output may ask for; checked before allocating
MAX_ROWS = 1_000_000
# most --factors a phase or sweep may list; sweep's scale_endpoints mode
# integrates each sex once, adding one link pass per factor on every level
MAX_FACTORS = 1000


def _emit_csv(columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            ["" if v is None else repr(float(v)) if isinstance(v, float) else v
             for v in row]
        )
    return buf.getvalue()


def _emit_table(columns: list[str], rows: list[list]) -> str:
    cells = [[("" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)) for v in row] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit(args, scenario: Scenario, columns, rows, result=None, seed=None) -> str:
    """The one writer of command output: ``rows`` under ``columns`` as CSV or
    a table; as JSON, ``result`` (default: the rows as a ``series`` of
    records) beside the metadata block.  A float cell beyond double range
    is refused, so no format writes ``inf`` or ``nan``; the cells before it
    name its row (every command's first cell is a finite key)."""
    for row in rows:
        for col, (name, value) in enumerate(zip(columns, row)):
            if isinstance(value, float) and not math.isfinite(value):
                where = ", ".join(str(cell) for cell in row[:col])
                raise ScenarioError(
                    f"{args.command}: {name} in row {where} is beyond double range"
                )
    if args.format == "table":
        return _emit_table(columns, rows)
    if args.format == "csv":
        return _emit_csv(columns, rows)
    payload = (
        {"result": result} if result is not None
        else {"series": [dict(zip(columns, row)) for row in rows]}
    )
    payload["metadata"] = {
        "tool": "hivbrn",
        "version": __version__,
        "config_hash": scenario.config_hash(),
        "seed": seed,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _parse_factors(raw: str) -> list[float]:
    if raw.strip() == "":
        return []
    try:
        factors = [float(part) for part in raw.split(",")]
    except ValueError as exc:
        raise ScenarioError(f"invalid factor list {raw!r}") from exc
    if not all(0 < f < math.inf for f in factors):
        raise ScenarioError(f"factors must be finite and > 0, got {raw!r}")
    if len(factors) > MAX_FACTORS:
        raise ScenarioError(f"--factors lists more than {MAX_FACTORS} factors")
    return factors


def _parse_grid(raw: str) -> np.ndarray:
    try:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ScenarioError(f"invalid grid {raw!r}; expected start:stop:count") from exc
    if not (0 < start < math.inf and 0 < stop < math.inf and 0 < count <= MAX_ROWS):
        raise ScenarioError(f"grid needs finite ends > 0 and 1 <= count <= {MAX_ROWS}")
    return np.linspace(start, stop, count)


def cmd_eval(scenario: Scenario, args) -> str:
    result = evaluate_brn(scenario.population, scenario.quadrature)
    fields = {**asdict(result), "verdict": result.verdict.value}
    if args.format == "table":
        lines = [
            f"R_fm     {result.r_fm:.3f}",
            f"R_mf     {result.r_mf:.3f}",
            f"R0       {result.r0:.3f}",
            f"I0       {result.i0:.2f}",
            f"ISA      {result.isa:.2f}",
            f"verdict  {fields['verdict']}",
        ]
        return "\n".join(lines) + "\n"
    rows = [[k, v] for k, v in fields.items()]
    return _emit(args, scenario, ["key", "value"], rows, result=fields)


def cmd_trajectory(scenario: Scenario, args) -> str:
    pop = scenario.population
    profile = getattr(pop, args.sex)
    if not 0 < args.step < math.inf:
        raise ScenarioError("--step must be finite and > 0")
    if not 0 <= args.iad <= pop.omega:
        raise ScenarioError(f"--iad must lie in [0, omega={pop.omega:g}]")
    steps = np.floor(args.iad / args.step + 1e-9)
    if steps >= MAX_ROWS:
        raise ScenarioError(f"--iad / --step gives more than {MAX_ROWS} rows")
    # a last age that rounds past --iad is clamped to it
    ia = np.minimum(np.arange(int(steps) + 1) * args.step, args.iad)
    lvl = log_viral_load_core(ia, args.iad, profile.viral, profile.x_plateau)
    ptr = link_core(lvl, profile.transmission)
    g = activity_fraction_core(ia, args.iad, profile.activity)
    nca = profile.activity.annual_acts * g
    columns = ["ia", "LVl", "ptr", "ptr_x1000", "G", "NCA"]
    rows = np.column_stack((ia, lvl, ptr, 1000.0 * ptr, g, nca)).tolist()
    return _emit(args, scenario, columns, rows)


def cmd_phase(scenario: Scenario, args) -> str:
    pop = scenario.population
    factors = _parse_factors(args.factors)
    grid = _parse_grid(args.grid)
    all_factors = [1.0] + [f for f in factors if f != 1.0]
    if len(all_factors) * grid.size > MAX_ROWS:
        raise ScenarioError(f"--factors and --grid give more than {MAX_ROWS} rows")
    # every factor is checked before any integral
    scaled_links(pop, all_factors, "scale_function")
    int_f, int_m = sex_integrals(pop, scenario.quadrature)
    i0 = index_i0(int_f, int_m)
    columns = ["series", "factor", "delta_m", "delta_f", "r_fm", "r_mf", "r0"]
    delta_m = grid.tolist()
    # the R0 = 1 locus, at I0 / factor under pointwise scaling; in Python
    # floats an overflow gives inf without a warning
    rows = [
        ["hyperbola", factor, dm, (i0 / factor) * (i0 / factor) / dm, None, None, None]
        for factor in all_factors
        for dm in delta_m
    ]
    rows.append(["fixed_point", 1.0, i0, i0, None, None, None])
    for dm in FEASIBLE_DELTA_M:
        for df in FEASIBLE_DELTA_F:
            r_fm = sex_brn(df, int_f)
            r_mf = sex_brn(dm, int_m)
            rows.append(["corner", 1.0, dm, df, r_fm, r_mf, composite_r0(r_fm, r_mf)])
    return _emit(args, scenario, columns, rows)


def cmd_sweep(scenario: Scenario, args) -> str:
    factors = _parse_factors(args.factors)
    pairs = sensitivity_sweep(
        scenario.population, factors, args.mode, scenario.quadrature
    )
    rows = [[factor, i0, args.mode] for factor, i0 in pairs]
    return _emit(args, scenario, ["factor", "i0", "mode"], rows)


def cmd_simulate(scenario: Scenario, args) -> str:
    flags = {"seed": args.seed, "samples": args.samples}
    scenario = scenario.replace_simulation(
        **{key: value for key, value in flags.items() if value is not None}
    )
    if args.workers < 1:
        raise ScenarioError("--workers must be >= 1")
    pop = scenario.population
    spec = scenario.simulation
    labels = ("female", "male") if args.sex == "both" else (args.sex,)
    columns = [
        "sex", "mean", "std_error", "samples", "seed", "act_process",
        "quadrature", "abs_diff_over_se",
    ]
    rows = []
    for label in labels:
        profile = getattr(pop, label)
        est = estimate_sex_integral(profile, spec, args.workers, pop.omega)
        quad_value = sex_integral(profile, pop.omega, scenario.quadrature)
        ratio = abs(est.mean - quad_value) / est.std_error if est.std_error else None
        rows.append([
            label, est.mean, est.std_error, est.samples, est.seed,
            spec.act_process, quad_value, ratio,
        ])
    result = {row[0]: dict(zip(columns[1:], row[1:])) for row in rows}
    if args.format == "table":
        # the table leaves out samples, seed and act_process
        columns, rows = columns[:3] + columns[6:], [row[:3] + row[6:] for row in rows]
    return _emit(args, scenario, columns, rows, result=result, seed=spec.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hivbrn",
        description="Two-sex basic reproduction number toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format):
        p.add_argument("--config", help="scenario file (defaults to baseline)")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "csv", "table"), default=default_format
        )

    p = sub.add_parser("eval", help="threshold record for the scenario")
    common(p, "json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trajectory", help="within-course series for one sex")
    common(p, "csv")
    p.add_argument("--iad", type=float, default=7.0, help="age at death, years")
    p.add_argument("--step", type=float, default=0.1, help="grid step, years")
    p.add_argument("--sex", choices=("female", "male"), default="female")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("phase", help="contact-rate phase-space data")
    common(p, "csv")
    p.add_argument(
        "--factors", default="0.5,2",
        help="comma-separated transmission scale factors",
    )
    p.add_argument(
        "--grid", default="10:150:71", help="delta_m grid as start:stop:count"
    )
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("sweep", help="I0 sensitivity to transmission scaling")
    common(p, "csv")
    p.add_argument(
        "--factors", default="0.5,1,2",
        help="comma-separated transmission scale factors",
    )
    p.add_argument(
        "--mode", choices=("scale_function", "scale_endpoints"),
        default="scale_function",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo estimate vs quadrature")
    common(p, "json")
    p.add_argument("--samples", type=int, help="override [simulation] samples")
    p.add_argument("--seed", type=int, help="override [simulation] seed")
    p.add_argument("--sex", choices=("female", "male", "both"), default="both")
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(load_scenario(args.config), args)
        if args.out:
            try:
                with open(args.out, "w") as handle:
                    handle.write(text)
            except OSError as exc:
                raise ScenarioError(f"cannot write {args.out}: {exc}") from exc
    except ScenarioError as exc:
        print(f"hivbrn: configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, QuadratureFailure) as exc:
        print(f"hivbrn: numerical failure: {exc}", file=sys.stderr)
        return 3
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""hivbrn benchmark: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 30 --trace 0

Workloads (all closed loops with one client, because every caller waits
for each answer):

* ``cli_cold``: each op runs ``hivbrn`` in a fresh interpreter, cycling a
  fixed mix of eval, phase, sweep and trajectory commands.
* ``threshold_box``: each op runs the compute path of ``phase`` plus
  ``eval`` in this process on one case of a fixed design over the valid
  parameter box; the seed draws the contact rates and the order.
* ``mc_validate``: each op runs ``hivbrn simulate`` in a fresh interpreter
  at 1 and then 2 workers and compares the outputs byte for byte, in
  thinning and expected-value modes.

Ops run in whole cycles over the workload's deck, for as many cycles as fit
in ``--seconds`` (at least one).  Every op's output is checked against an
independent reference; a failed check, an exception or a non-zero exit
counts the op as failed and the run goes on.

The host's speed moves by up to 2x, within seconds and between stretches of
minutes.  Every timed section (an op, a set-up) is therefore bracketed by a
fixed calibration task that shares no code with hivbrn, and the timing
metrics are wall times scaled to a fixed reference speed (``HostSpeed``).
The raw wall times go into the result file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the deck
untraced and then traced, for half the time each, and prints the per-layer
metrics from the traced half plus the layer probes (``probes.py``).
``--smoke`` shrinks every workload so the benchmark's own tests run in
seconds.  The last line of stdout is the JSON result; the same record, with
the machine description, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import model
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# set-up is timed this many times before the timed loop and once after each
# cycle, so that its median spans the run's changes of host speed
SETUP_REPEATS = 3
# op_s_tail is this percentile of the op times, fixed so that runs of
# different code compare.
TAIL_PERCENTILE = 75
# An answer further than this many requested tolerances from the reference
# is wrong; below it, the distance is reported as err_over_tol_max.
ERR_GATE = 10.0
# A Monte Carlo mean further than this many standard errors from the
# quadrature or the reference is wrong.
Z_GATE = 5.0
OP_TIMEOUT = 170.0

# Times are reported at the host speed at which calibration_s() takes this
# long: a fixed value near its median (3.3-3.9 ms) on the 2-vCPU Intel Xeon
# VM the benchmark was built on (Python 3.11.7, numpy 2.4.6).
CAL_REF_S = 0.0035
CAL_SAMPLES = 3
CAL_WINDOW = 3
_CAL_BLOCK = np.linspace(0.01, 1.0, 576).reshape(24, 24)
_CAL_PAGES = 4096

SETUP_CODE = "import sys, hivbrn\nfor p in sys.argv[1:]:\n    hivbrn.load_scenario(p or None)\n"


class Workload(NamedTuple):
    deck: list  # one cycle of op inputs
    scenarios: list[str]  # scenario files set-up loads; "" is the baseline
    make_op: Callable  # make_op(span directory or None) -> op(index, item)


class GateError(Exception):
    """An op's output disagrees with its reference."""


def gate(ok: bool, message: str):
    if not ok:
        raise GateError(message)


def rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def tail(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def calibration_task_s() -> float:
    """Wall time of a fixed task: a pure-Python loop and numpy on a
    576-point block, the two kinds of work hivbrn does, and a zeroed 16 MiB
    buffer with one write to each of its pages: memory bandwidth and
    latency, which starting an interpreter and importing numpy and scipy
    lean on.  After the first calls the allocator reuses the buffer's
    memory, which stays in this process's resident set."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(100):
        np.sum(np.exp(-_CAL_BLOCK) * np.sqrt(_CAL_BLOCK), axis=1)
    pages = bytearray(_CAL_PAGES * 4096)
    pages[::4096] = b"\1" * _CAL_PAGES
    return time.perf_counter() - start


def calibration_s() -> float:
    """Mean over the CPUs this process may use of the median of CAL_SAMPLES
    runs of the calibration task pinned to that CPU.  The vCPUs of the host
    slow down partly independently, and an op's child processes may run on
    any of them."""
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(calibration_task_s() for _ in range(CAL_SAMPLES)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


class HostSpeed:
    """Calibrations taken between timed sections, and the scaling of the
    sections' wall times to the reference speed."""

    def __init__(self):
        self.samples = [calibration_s()]

    def mark(self, section: dict):
        """Calibrate right after ``section`` (a dict with its wall time
        ``t``), and note its place among the calibrations."""
        self.samples.append(calibration_s())
        section["cal"] = len(self.samples) - 2

    def scale(self, sections: list[dict]):
        """Set each section's ``t_ref``: its wall time times CAL_REF_S over
        the median of the CAL_WINDOW calibrations before and as many after
        it, so that one calibration hit by a stall of its CPU cannot skew an
        op."""
        for section in sections:
            place = section["cal"]
            window = self.samples[max(0, place + 1 - CAL_WINDOW):place + 1 + CAL_WINDOW]
            section["t_ref"] = section["t"] * CAL_REF_S / statistics.median(window)

    def factor(self) -> float:
        """The run's median host speed relative to the reference."""
        return CAL_REF_S / statistics.median(self.samples)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_python(args: list[str], timeout: float = OP_TIMEOUT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=timeout,
    )


def setup_times(scenarios: list[str], repeats: int, speed: HostSpeed) -> list[dict]:
    """Wall times ``t`` of fresh interpreters that import hivbrn and load the
    workload's scenario files ("" is the built-in baseline)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = run_python(["-c", SETUP_CODE, *scenarios])
        times.append({"t": time.perf_counter() - start})
        speed.mark(times[-1])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


def run_cycles(deck: list, seconds: float, run_op, speed: HostSpeed,
               after_cycle=lambda: None) -> list[dict]:
    """Closed loop over whole cycles of ``deck`` while the next cycle is
    expected to end within ``seconds``; at least one cycle.  Each record
    notes its position in the deck as ``item``."""
    records = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for item, inputs in enumerate(deck):
            record = run_op(len(records), inputs)
            record["item"] = item
            speed.mark(record)
            records.append(record)
        after_cycle()
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return records


def guarded(run_op):
    """Run one op; an exception or a failed gate marks it failed."""

    def op(index, item):
        record = {"op": index, "ok": False, "errs": [], "reason": None, "t": 0.0}
        try:
            run_op(index, item, record)
            record["ok"] = True
        except GateError as exc:
            record["reason"] = f"gate: {exc}"
        except Exception as exc:  # the loop must go on; the reason is reported
            record["reason"] = f"{type(exc).__name__}: {exc}"
        return record

    return op


def timed(record: dict, fn, *args):
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        record["t"] = time.perf_counter() - start


def item_medians(records: list[dict]) -> list[float]:
    """Each deck op's median time over the run's cycles."""
    times: dict[int, list[float]] = {}
    for r in records:
        times.setdefault(r["item"], []).append(r["t_ref"])
    return [statistics.median(t) for t in times.values()]


def timing_metrics(records: list[dict]) -> dict:
    times = [r["t_ref"] for r in records]
    medians = item_medians(records)
    ok = [r for r in records if r["ok"]]
    errs = [e for r in ok for e in r["errs"]]
    return {
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail(times), "s"),
        # one closed-loop client: a cycle of the deck with each op at its
        # median time, which a stretch of odd host speed does not move
        "ops_per_s": (len(medians) / sum(medians), "1/s"),
        "ok_frac": (len(ok) / len(records), "ratio"),
        "err_over_tol_max": (max(errs) if errs else 0.0, "ratio"),
    }


def notes_of(records: list[dict]) -> dict:
    slowest = tail([r["t_ref"] for r in records])
    wall = [r["t"] for r in records]
    reasons: dict[str, int] = {}
    for r in records:
        if not r["ok"]:
            key = r["reason"].split(":")[0]
            reasons[key] = reasons.get(key, 0) + 1
    return {
        "ops": len(records),
        "cycles": sum(r["item"] == 0 for r in records),
        "tail_percentile": TAIL_PERCENTILE,
        "ops_beyond_tail": sum(r["t_ref"] > slowest for r in records),
        "wall_op_s_p50": statistics.median(wall),
        "wall_op_s_tail": tail(wall),
        "failed_frac": sum(not r["ok"] for r in records) / len(records),
        "failures": reasons,
        "first_failure": next((r["reason"] for r in records if not r["ok"]), None),
    }


# --- cli_cold ------------------------------------------------------------

FEASIBLE_CORNERS = {(26.0, 208.0): (0.90, 0.01), (104.0, 468.0): (2.70, 0.02)}


def baseline_refs(refs: dict, anchor_scale: float = 1.0) -> tuple[float, float]:
    return tuple(
        refs[model.profile_key(workloads.BASELINE[sex], workloads.OMEGA, anchor_scale)]
        for sex in ("female", "male")
    )


def i0_of(pair) -> float:
    return (pair[0] * pair[1]) ** -0.5


def check_eval_fields(fields: dict, refs: dict, record: dict, csw: bool = False):
    tol = workloads.BASELINE_TOL
    for sex, key, ref in zip(("female", "male"), ("integral_f", "integral_m"), baseline_refs(refs)):
        value = float(fields[key])
        gate(rel(value, workloads.INT_REFERENCE[sex]) <= workloads.GOLDEN_REL,
             f"{key} {value!r} is not INT_{sex[0].upper()}_REFERENCE")
        record["errs"].append(rel(value, ref) / tol)
    i0 = float(fields["i0"])
    gate(rel(i0, workloads.I0_BASELINE) <= workloads.GOLDEN_REL, f"i0 {i0!r} is not 81.5658")
    if csw:
        r0 = float(fields["r0"])
        gate(abs(r0 - 0.90) <= 0.01, f"csw_clients R0 {r0!r} is not 0.90")
        gate(fields["verdict"] == "subcritical", "csw_clients verdict is not subcritical")
    else:
        gate(fields["verdict"] == "epidemic", "baseline verdict is not epidemic")


def check_cli(command: str, args: list[str], out: str, refs: dict, record: dict):
    tol = workloads.BASELINE_TOL
    if command == "eval_json":
        check_eval_fields(json.loads(out)["result"], refs, record)
    elif command == "eval_csv":
        rows = {r["key"]: r["value"] for r in csv.DictReader(io.StringIO(out))}
        check_eval_fields(rows, refs, record)
    elif command == "eval_csw":
        check_eval_fields(json.loads(out)["result"], refs, record, csw=True)
    elif command == "eval_table":
        lines = out.splitlines()
        gate("I0       81.57" in lines, "table I0 line is not 81.57")
        gate("verdict  epidemic" in lines, "table verdict is not epidemic")
    elif command == "phase":
        i0 = i0_of(baseline_refs(refs))
        corners = 0
        for row in csv.DictReader(io.StringIO(out)):
            factor, dm, df = float(row["factor"]), float(row["delta_m"]), float(row["delta_f"])
            if row["series"] == "hyperbola":
                record["errs"].append(rel(df, (i0 / factor) ** 2 / dm) / tol)
            elif row["series"] == "fixed_point":
                record["errs"].append(rel(dm, i0) / tol)
            elif row["series"] == "corner" and (dm, df) in FEASIBLE_CORNERS:
                want, within = FEASIBLE_CORNERS[(dm, df)]
                gate(abs(float(row["r0"]) - want) <= within,
                     f"corner ({dm:g}, {df:g}) R0 {row['r0']} is not {want}")
                corners += 1
        gate(corners == 2, "phase output lacks the feasible-rectangle corners")
    elif command.startswith("sweep"):
        endpoints = "scale_endpoints" in args
        rows = list(csv.DictReader(io.StringIO(out)))
        gate(len(rows) == 3, "sweep output lacks rows")
        for row in rows:
            factor = float(row["factor"])
            want = i0_of(baseline_refs(refs, factor)) if endpoints else i0_of(baseline_refs(refs)) / factor
            record["errs"].append(rel(float(row["i0"]), want) / tol)
    elif command == "trajectory":
        sex, iad = args[args.index("--sex") + 1], float(args[args.index("--iad") + 1])
        ref = model.integrand(workloads.BASELINE[sex])
        rows = list(csv.DictReader(io.StringIO(out)))
        gate(len(rows) > 1, "trajectory output lacks rows")
        for row in rows:
            ia = float(row["ia"])
            gate(rel(float(row["LVl"]), ref.log_viral_load(ia, iad)) <= 1e-9, f"LVl at ia={ia}")
            gate(rel(float(row["ptr"]), ref.ptr(ia, iad)) <= 1e-9, f"ptr at ia={ia}")
            gate(abs(float(row["G"]) - ref.activity(ia, iad)) <= 1e-12, f"G at ia={ia}")


def hivbrn(args: list[str], index: int, span_dir: Path | None, part: str = ""):
    """Run one hivbrn command in a fresh interpreter; traced through the
    shim, which leaves its spans in ``span_dir``, when that is given."""
    if span_dir is None:
        return run_python(["-m", "hivbrn.cli", *args])
    spans = span_dir / f"op{index}{part}.npz"
    return run_python([str(BENCH / "cli_shim.py"), str(spans), str(index), *args])


def cli_op(refs: dict, span_dir: Path | None):
    def run_op(index, item, record):
        command, args = item
        record["command"] = command
        proc = timed(record, hivbrn, args, index, span_dir)
        gate(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        check_cli(command, args, proc.stdout, refs, record)

    return guarded(run_op)


def cli_cold(seed: int, smoke: bool) -> Workload:
    refs = model.load_references()
    return Workload(workloads.cli_deck(seed), ["", workloads.CSW], lambda span_dir: cli_op(refs, span_dir))


# --- mc_validate ---------------------------------------------------------


def mc_op(refs: dict, span_dir: Path | None):
    """One validation: ``simulate`` at 1 and then at 2 workers, which must
    print the same bytes.  Both runs are timed as one op, because the
    byte-identity check needs both; each alone would split the op times into
    a 1-worker and a 2-worker cluster with the median between them."""
    reference = dict(zip(("female", "male"), baseline_refs(refs)))

    def both(args, index):
        return [hivbrn(args + ["--workers", w], index, span_dir, f"w{w}") for w in ("1", "2")]

    def run_op(index, args, record):
        procs = timed(record, both, args, index)
        for proc in procs:
            gate(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        gate(procs[0].stdout == procs[1].stdout, "stdout differs between 1 and 2 workers")
        result = json.loads(procs[0].stdout)["result"]
        record["samples"] = 0
        record["z"] = []
        for sex in ("female", "male"):
            r = result[sex]
            record["samples"] += 2 * r["samples"]
            record["errs"].append(rel(r["quadrature"], reference[sex]) / workloads.BASELINE_TOL)
            record["z"].append(r["abs_diff_over_se"])
            gate(r["abs_diff_over_se"] <= Z_GATE, f"{sex} |diff|/SE {r['abs_diff_over_se']:.2f}")
            z_ref = abs(r["mean"] - reference[sex]) / r["std_error"]
            gate(z_ref <= Z_GATE, f"{sex} mean is {z_ref:.2f} SE from the reference")

    return guarded(run_op)


def mc_validate(seed: int, smoke: bool) -> Workload:
    refs = model.load_references()
    return Workload(workloads.mc_deck(seed, smoke), ["", workloads.EV_CONFIG], lambda span_dir: mc_op(refs, span_dir))


# --- threshold_box -------------------------------------------------------


def import_hivbrn():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hivbrn

    if Path(hivbrn.__file__).resolve().parent != SRC / "hivbrn":
        raise RuntimeError(f"imported hivbrn from {hivbrn.__file__}, not from {SRC}")
    return hivbrn


def box_checks(case: dict, refs: dict, brn, swept_function, swept_endpoints, record):
    tol = case["tol"]

    def pair(scale=1.0):
        return tuple(
            refs[model.profile_key(case[sex], workloads.OMEGA, scale)]
            for sex in ("female", "male")
        )

    base = pair()
    errs = [rel(brn.integral_f, base[0]) / tol, rel(brn.integral_m, base[1]) / tol]
    i0 = i0_of(base)
    errs += [rel(v, i0 / f) / tol for f, v in swept_function]
    errs += [rel(v, i0_of(pair(f))) / tol for f, v in swept_endpoints]
    gate([f for f, _ in swept_function] == list(workloads.SWEEP_FUNCTION), "sweep factors")
    gate([f for f, _ in swept_endpoints] == list(workloads.SWEEP_ENDPOINTS), "sweep factors")
    worst = max(errs)
    gate(worst <= ERR_GATE, f"answer {worst:.3g} tolerances from the reference")
    r0 = math.sqrt(case["delta_f"] * base[0] * case["delta_m"] * base[1])
    gate(rel(brn.r0, r0) <= ERR_GATE * tol, f"r0 {brn.r0!r} is not {r0!r}")
    if abs(r0 - 1.0) > ERR_GATE * tol:
        gate(brn.epidemic == (r0 > 1.0), "epidemic flag disagrees with the reference R0")
    record["errs"] = errs


def box_op(hivbrn, refs: dict, span_dir: Path | None):
    """One case in this process; traced, with the spans left in
    ``span_dir``, when that is given."""
    reproduction = hivbrn.reproduction

    def run_op(index, case, record):
        record["hard"] = workloads.is_hard(case)
        scenario = hivbrn.parse_scenario(workloads.scenario_text(case))
        pop, quad = scenario.population, scenario.quadrature

        def compute():
            brn = reproduction.evaluate_brn(pop, quad)
            swept_function = reproduction.sensitivity_sweep(
                pop, list(workloads.SWEEP_FUNCTION), "scale_function", quad)
            swept_endpoints = reproduction.sensitivity_sweep(
                pop, list(workloads.SWEEP_ENDPOINTS), "scale_endpoints", quad)
            return brn, swept_function, swept_endpoints

        if span_dir is None:
            outputs = timed(record, compute)
        else:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.current_op = index
            try:
                outputs = timed(record, compute)
            finally:
                tracer.uninstall()
                tracer.save(span_dir / f"op{index}.npz")
        box_checks(case, refs, *outputs, record)

    return guarded(run_op)


def box_inputs(seed: int, smoke: bool) -> tuple[list[dict], dict]:
    design = workloads.box_design()
    if smoke:
        design = design[:3]
    refs = model.load_references()
    jobs = [job for case in design for job in workloads.case_jobs(case)]
    missing = model.needed(jobs, refs)
    if missing:
        raise RuntimeError(
            f"{len(missing)} reference integrals are missing from "
            f"{model.REFERENCES.name}; rebuild it with python3 bench/model.py"
        )
    return workloads.box_deck(seed, design), refs


def write_box_scenarios(deck: list[dict]) -> list[str]:
    folder = OUT / "box_scenarios"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, case in enumerate(deck):
        path = folder / f"case{i}.ini"
        path.write_text(workloads.scenario_text(case))
        paths.append(str(path.relative_to(ROOT)))
    return paths


def threshold_box(seed: int, smoke: bool) -> Workload:
    deck, refs = box_inputs(seed, smoke)
    hivbrn = import_hivbrn()
    return Workload(deck, write_box_scenarios(deck), lambda span_dir: box_op(hivbrn, refs, span_dir))


# --- runs ----------------------------------------------------------------

WORKLOADS = {"cli_cold": cli_cold, "threshold_box": threshold_box, "mc_validate": mc_validate}


def end_to_end(workload: str, seed: int, seconds: float, smoke: bool):
    work = WORKLOADS[workload](seed, smoke)
    speed = HostSpeed()
    setup = setup_times(work.scenarios, 1 if smoke else SETUP_REPEATS, speed)
    records = run_cycles(work.deck, 0 if smoke else seconds, work.make_op(None), speed,
                         lambda: setup.extend(setup_times(work.scenarios, 1, speed)))
    speed.scale(setup + records)
    metrics = {"setup_s": (statistics.median(r["t_ref"] for r in setup), "s")}
    metrics.update(timing_metrics(records))
    if workload == "threshold_box":
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (rss / 1024.0, "MB")
    return metrics, records, speed


def per_layer(workload: str, seed: int, seconds: float, smoke: bool):
    """Untraced then traced half-runs of the same deck, plus the probes."""
    half = 0 if smoke else seconds / 2.0
    span_dir = OUT / f"spans-{workload}"
    span_dir.mkdir(parents=True, exist_ok=True)
    for stale in span_dir.glob("*.npz"):
        stale.unlink()
    work = WORKLOADS[workload](seed, smoke)
    speed = HostSpeed()
    plain = run_cycles(work.deck, half, work.make_op(None), speed)
    traced = run_cycles(work.deck, half, work.make_op(span_dir), speed)
    speed.scale(plain + traced)
    span_sets = [tracing.load(p) for p in sorted(span_dir.glob("*.npz"))]
    layers = tracing.summarize(span_sets)

    metrics = {}
    for name, stats in layers.items():
        metrics[f"{name}.calls"] = (stats["calls"], "count")
        metrics[f"{name}.self_s"] = (stats["self_s"], "s")
        if name.endswith(tracing.KERNELS) or name == "mc_oracle.estimate_sex_integral":
            metrics[f"{name}.points"] = (stats["points"], "count")
            metrics[f"{name}.pts_per_s"] = (stats["pts_per_s"], "1/s")
    integrals = layers["reproduction.sex_integral"]["calls"]
    kernel_points = layers["reproduction.transmission_prob"]["points"]
    metrics["reproduction.sex_integral.kernel_points"] = (
        kernel_points / integrals if integrals else 0.0, "count")
    metrics["reproduction.sensitivity_sweep.sex_integral_calls"] = (
        sweep_path_integrals(workload, traced, span_sets), "count")
    samples = sum(r.get("samples", 0) for r in plain if r["ok"])
    busy = sum(r["t"] for r in plain if r["ok"] and "samples" in r)
    metrics["mc_oracle.estimate_sex_integral.samples_per_s"] = (
        samples / busy if busy else 0.0, "1/s")
    z = [v for r in plain + traced for v in r.get("z", [])]
    metrics["mc_oracle.estimate_sex_integral.z_max"] = (max(z) if z else 0.0, "ratio")
    overhead = statistics.mean(r["t_ref"] for r in traced) - statistics.mean(r["t_ref"] for r in plain)
    metrics["trace.op.overhead_s"] = (overhead, "s")
    probes = run_python([str(BENCH / "probes.py")] + (["--smoke"] if smoke else []), timeout=170)
    if probes.returncode != 0:
        raise RuntimeError(f"probes failed:\n{probes.stderr}")
    for name, (value, unit) in json.loads(probes.stdout.splitlines()[-1]).items():
        metrics[name] = (value, unit)
    return metrics, plain + traced, speed


def sweep_path_integrals(workload: str, records: list[dict], span_sets: list[dict]) -> float:
    """sex_integral calls per successful op that runs the phase path: every
    threshold_box op, the ``phase`` op of cli_cold; 0 on mc_validate."""
    if workload == "threshold_box":
        ops = {r["op"] for r in records if r["ok"]}
    elif workload == "cli_cold":
        ops = {r["op"] for r in records if r["ok"] and r.get("command") == "phase"}
    else:
        return 0.0
    if not ops:
        return 0.0
    return tracing.calls_in(span_sets, "reproduction.sex_integral", ops) / len(ops)


def machine_record() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "hivbrn" / "__init__.py").is_file():
        print(f"bench: no hivbrn sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    measure = per_layer if args.trace else end_to_end
    metrics, records, speed = measure(args.workload, args.seed, args.seconds, args.smoke)
    notes = notes_of(records)
    notes["host_speed"] = speed.factor()
    if args.workload == "threshold_box":
        notes["hard_frac"] = sum(r.get("hard", False) for r in records) / len(records)

    for name, (value, unit) in metrics.items():
        print(f"{name:56s} {value:.6g} {unit}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    result = {
        # a QuadratureFailure is the program's documented answer to a case it
        # cannot resolve; anything else that fails an op is a wrong output
        "correct": all(r["ok"] or r["reason"].startswith("QuadratureFailure") for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, notes=notes, machine=machine_record(), ops=records)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Monte Carlo cross-check of the expected-infection integrals.

Simulates individual infective life courses: the age at death is drawn from
the Weibull law by inverse transform, coital acts arrive as an inhomogeneous
Poisson process with rate ``delta * G(ia, iad)``, and each act
independently transmits with probability ``ptr(ia, iad)``; both are
thinned from candidates at the rate ``delta * cap``, where ``cap`` bounds
``ptr`` on one of two pieces of the course: a window around the viral-load
peak, the same length on every course, and the rest (see ``_envelope``).  A
course that outlives the horizon ``omega`` counts as empty, so the mean
infection count divided by ``delta`` estimates the integral the quadrature
computes, ``int_0^omega s(y) J(y) dy``, with a standard error that shrinks
as 1/sqrt(samples).  The ``expected_value`` mode replaces each course's
count by an unbiased estimate of the inner integral ``J(iad)``, its
conditional mean given the age at death, from ``STRATA`` stratified ages.

Determinism contract: for a fixed (seed, spec, profile) the estimate is
bit-identical across runs and across worker counts.  Samples are processed
in fixed blocks of ``CHUNK_SAMPLES``; block ``c`` draws everything from its
own SFC64 generator, seeded by ``SeedSequence(seed, spawn_key=(c,))``, the
state numpy's ``spawn`` gives the ``c``-th child of ``SeedSequence(seed)``.
Its stream depends on (seed, c) alone, so blocks can be computed in any
order or process and reduced by index.  Blocks go out in contiguous
batches, about eight per process, through the ``map`` that
``process_pool`` sizes from every block of a command (the built-in one
below two processes), and the parent writes each batch's values into one
sample array in index order.  A batch owns one set of per-act buffers,
which its blocks draw into and which is dropped when it returns; the
kernel cores compute in place on the arrays they allocate.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

# bench/tracing.py wraps activity_fraction and transmission_prob here
from .behavior import activity_fraction, activity_fraction_core
from .errors import DomainError, check_range
from .reproduction import PopulationConfig, SexProfile
from .survival import survival_quantile_core
from .natural_history import (
    cloglog_core,
    linear_load_core,
    solve_plateau_point,
    transmission_prob,
    transmission_prob_core,
)

__all__ = [
    "SimulationSpec",
    "EstimateResult",
    "estimate_sex_integral",
]

CHUNK_SAMPLES = 4096

# the reduction holds one float per sample, 8 B: this caps it near 80 MB (at
# 10^7 samples simulate peaked at 115 MB RSS, 276 MB with three such arrays)
MAX_SAMPLES = 10_000_000

# poisson_thinning holds about 64 B per candidate act in a block (its
# traced peak over 0.11 to 2.0 million acts), and a course draws at most
# the envelope's mass, delta * (cap_w * w + cap_rest * (omega - w)), of
# them on average: this caps a block of CHUNK_SAMPLES courses near 260 MB.
# The baseline's mass is 12.3 acts; M2 = 5.6's is 513, and its blocks of
# 2.0 million acts peak at 127 MB
MAX_ACTS_PER_COURSE = 1000

# the terminal window reaches back this many standard deviations of the
# terminal bump before its peak; before it the bump is below exp(-K**2 / 2)
TERMINAL_SDS = 6.0

ACT_PROCESSES = ("poisson_thinning", "expected_value")

# a worker gets a process only for at least this many of the blocks a pool
# serves, as starting one costs more than small runs save: a fresh `simulate`
# of both sexes at 2 workers took 1.11-1.24 times the time at 1 worker at 16
# to 96 blocks, 0.97-1.09 times at 128, 0.92-0.98 at 192 and 0.82-0.85 at
# 490 (medians of 6 to 8 alternating runs per act process, 2 vCPUs)
MIN_WORKER_BLOCKS = 64

# expected_value estimates each course's inner integral J(iad) from this
# many stratified ages: on the baseline, 16 cut the standard error only from
# 2.08e-5 to 1.70e-5 at 53,248 samples, for about 4% of the run time
STRATA = 8


@dataclass(frozen=True)
class SimulationSpec:
    """Sample count, RNG seed and the life-course evaluation mode.

    ``poisson_thinning`` simulates acts and infections stochastically;
    ``expected_value`` replaces each course's infection count by an unbiased
    estimate of its conditional expectation given the age at death, from
    ``STRATA`` stratified ages (same mean; on the baseline a lower standard
    error than thinning's at each of the paper's rates, 26, 82 and 208).
    """

    samples: int
    seed: int
    act_process: str = "poisson_thinning"

    def __post_init__(self):
        for name in ("samples", "seed"):
            if type(getattr(self, name)) is not int:
                raise DomainError(f"{name} must be an int")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise DomainError(f"samples must be in [1, {MAX_SAMPLES}]")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 bits")
        if self.act_process not in ACT_PROCESSES:
            raise DomainError(
                f"act_process must be one of {ACT_PROCESSES}, "
                f"got {self.act_process!r}"
            )


@dataclass(frozen=True)
class EstimateResult:
    """Mean and standard error of the per-sample integral estimates.

    ``std_error`` is None for a single sample (undefined).
    """

    mean: float
    std_error: float | None
    samples: int
    seed: int


def _inner_estimates(iad: np.ndarray, u: np.ndarray, profile: SexProfile) -> np.ndarray:
    """Unbiased estimates of the inner integral ``J(iad) = int_0^iad G * ptr
    dx``, one per course: ``iad`` times the mean of the integrand at the
    ``STRATA`` ages ``(k + u) / STRATA * iad``, ``k < STRATA``, with one
    offset ``u`` in [0, 1) per course.  ``G`` is exactly 0 on a course no
    longer than tau1, and so is the estimate."""
    # (k + u) / STRATA <= 1 scales iad: 0 <= ia <= iad after rounding too
    ia = (np.arange(STRATA)[:, None] + u) / STRATA * iad
    g = activity_fraction_core(ia, iad, profile.activity)
    g *= transmission_prob_core(ia, iad, profile.viral, profile.transmission, profile.x_plateau)
    return g.mean(axis=0) * iad


def _envelope(profile: SexProfile, omega: float) -> tuple[float, float, float, bool]:
    """Two-piece bound on the per-act probability over a course no longer
    than ``omega``: ``(w, cap_w, cap_rest, at_end)``.  On a window of length
    ``w`` at the course's start, or its end if ``at_end``, the probability
    is at most ``cap_w``; on the rest of the course at most ``cap_rest``.

    The log load is the mix ``(1 - b) * base + b * M2`` of the early curve
    ``base <= M1`` and the terminal bump ``b`` in (0, 1].  Where M1 > M2,
    the window runs from infection to the age at which the decaying early
    curve falls to ``L* = max(M2, (M1 + m) / 2)``, past which the load is
    at most ``L*``: :func:`solve_plateau_point` gives the curve's argument
    there, and the age warp is inverted in closed form.  Where M2 > M1, the
    window is the last ``tau1 + K * sd`` of the course, ``sd = 1 / sqrt(2 *
    alpha3)`` and K = ``TERMINAL_SDS``; before it ``b < exp(-K**2 / 2)``
    and the load is at most ``M1 + (M2 - M1) * exp(-K**2 / 2)``.  M1 = M2,
    or an L* that rounds to M1, gives one piece, ``w = 0``.  Each cap is
    the probability at its load plus ``1e-9 * (max(M1, M2) - m)``, a margin
    over the rounding of the computed load, and a window longer than
    ``omega`` is cut to ``omega``, which still covers every course it
    covered.
    """
    v = profile.viral
    top = max(v.peak_log_vl, v.terminal_log_vl)
    margin = 1e-9 * (top - v.plateau_log_vl)

    def cap(level: float) -> float:
        # an overflowing link saturates at 1, as in peak_transmission_prob
        with np.errstate(over="ignore"):
            return float(cloglog_core(linear_load_core(level + margin), profile.transmission))

    at_end = v.terminal_log_vl > v.peak_log_vl
    if at_end:
        w = v.terminal_lead + TERMINAL_SDS / math.sqrt(2.0 * v.terminal_width)
        rest = v.peak_log_vl + (v.terminal_log_vl - v.peak_log_vl) * math.exp(-(TERMINAL_SDS**2) / 2)
    else:
        rest = max(v.terminal_log_vl, (v.peak_log_vl + v.plateau_log_vl) / 2)
        w = 0.0
        if rest < v.peak_log_vl:
            x = solve_plateau_point(v, rest)
            xp, e = profile.x_plateau, math.exp(v.warp_rate)
            # a root that rounds onto the plateau point takes the whole course
            ratio = (xp - x) / (xp + e * x)
            w = -math.log(ratio) * xp / (1.0 + e) if ratio > 0 else omega
    return min(w, omega), cap(top), cap(rest), at_end


def _envelope_mass(profile: SexProfile, envelope: tuple, omega: float) -> float:
    """Mean candidate acts of a course of length ``omega``, the most any
    course draws on average: ``delta * (cap_w * w + cap_rest * (omega - w))``."""
    w, cap_w, cap_rest, _ = envelope
    return profile.activity.annual_acts * (cap_w * w + cap_rest * (omega - w))


def _chunk_values(
    profile: SexProfile,
    spec: SimulationSpec,
    omega: float,
    envelope: tuple | None,
    chunk: int,
    buffers: list[np.ndarray],
) -> np.ndarray:
    """Per-sample integral estimates up to ``omega`` for one block of samples.

    All randomness for block ``chunk`` comes from its own spawned
    substream, making the result independent of scheduling.  ``buffers``
    holds an array of shape (3, capacity) whose rows take the block's
    per-act floats and one of ``capacity`` course indices; both are
    replaced by larger ones when a block has more acts.  The returned
    values never share the buffers' memory.  ``envelope`` is
    ``_envelope``'s, or None for ``expected_value``.
    """
    size = min(spec.samples - chunk * CHUNK_SAMPLES, CHUNK_SAMPLES)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(spec.seed, spawn_key=(chunk,))))

    # u == 0 maps to iad == 0 (an empty course); so does a course past omega
    iad = survival_quantile_core(rng.random(size), profile.survival)
    iad[iad > omega] = 0.0

    if spec.act_process == "expected_value":
        return _inner_estimates(iad, rng.random(size), profile)

    delta = profile.activity.annual_acts
    w, cap_w, cap_rest, at_end = envelope
    live = np.flatnonzero(iad > profile.activity.terminal_lead)
    # Only candidate acts whose transmission uniform falls below their
    # piece's cap can ever infect; by the thinning theorem they arrive at
    # rate delta * cap with that uniform ~ U(0, cap), so the infection
    # count below is distributed exactly as for envelope-delta thinning
    # followed by per-act Bernoulli marking.  The acts off the window come
    # first, one Poisson count per course.  Every live course's window is
    # w long, so the window's acts are one Poisson count for the block,
    # each put on a uniform live course at a uniform place in its window:
    # by Poisson splitting each course's count is an independent Poisson.
    # A window act outside [0, iad] is dropped.
    lam = np.zeros(size)
    lam[live] = np.maximum(iad[live] - w, 0.0) * (delta * cap_rest)
    acts = rng.poisson(lam)
    rest = int(acts.sum())
    windowed = int(rng.poisson(delta * cap_w * w * live.size))
    total = rest + windowed
    if buffers[1].size < total:
        buffers[:] = [np.empty((3, total)), np.empty(total, dtype=np.intp)]
    iad_rep, t, u_act = buffers[0][:, :total]
    seg = buffers[1][:total]
    seg[:rest] = np.repeat(np.arange(size), acts)
    # every index is in range: "clip" skips the copy that "raise" buffers
    if windowed:
        np.take(live, rng.integers(live.size, size=windowed), out=seg[rest:], mode="clip")
    np.take(iad, seg, out=iad_rep, mode="clip")
    rng.random(out=t)
    # each act's age, by its uniform: off the window, iad - U * (iad - w)
    # after an early window and U * (iad - w) before a terminal one; in it,
    # U * w and iad - U * w, inside [0, iad] exactly when U * w <= iad.  No
    # age exceeds its iad after rounding, and none after an early window
    # falls below w, where a steep age warp would lift the load past the
    # rest cap within an ulp
    np.subtract(iad_rep[:rest], w, out=u_act[:rest])
    t[:rest] *= u_act[:rest]
    t[rest:] *= w
    inside = t[rest:] <= iad_rep[rest:]
    end = slice(rest, total) if at_end else slice(rest)
    np.subtract(iad_rep[end], t[end], out=t[end])
    if not at_end:
        np.maximum(t[:rest], w, out=t[:rest])
    if not inside.all():
        kept = np.flatnonzero(inside) + rest
        total = rest + kept.size
        for row in (iad_rep, t, seg):
            row[rest:total] = row[kept]
        iad_rep, t, u_act, seg = iad_rep[:total], t[:total], u_act[:total], seg[:total]
    rng.random(out=u_act)
    u_act[:rest] *= cap_rest
    u_act[rest:] *= cap_w
    # 0 <= t <= iad_rep by construction: the unchecked cores apply; an act
    # whose transmission uniform fails can never infect, so its activity
    # uniform is never drawn and the activity kernel runs only on the acts
    # that pass (about two in five at baseline)
    p = transmission_prob_core(
        t, iad_rep, profile.viral, profile.transmission, profile.x_plateau
    )
    keep = np.flatnonzero(u_act < p)
    g = activity_fraction_core(t[keep], iad_rep[keep], profile.activity)
    infected = keep[rng.random(keep.size) < g]
    counts = np.bincount(seg[infected], minlength=size)
    return counts / delta


def _run_values(
    profile: SexProfile,
    spec: SimulationSpec,
    omega: float,
    envelope: tuple | None,
    chunks: range,
) -> np.ndarray:
    """Per-sample values of the contiguous blocks ``chunks``, in order.

    The blocks draw their per-act arrays into one buffer set, made here and
    dropped on return: a run is one batch, so no two threads share a set
    and no caller keeps one after its call.
    """
    start = chunks.start * CHUNK_SAMPLES
    values = np.empty(min(chunks.stop * CHUNK_SAMPLES, spec.samples) - start)
    buffers = [np.empty((3, 0)), np.empty(0, dtype=np.intp)]
    for chunk in chunks:
        block = _chunk_values(profile, spec, omega, envelope, chunk, buffers)
        offset = chunk * CHUNK_SAMPLES - start
        values[offset : offset + block.size] = block
    return values


def _pool_size(workers: int, blocks: int) -> int:
    """Processes to start, 1 for none: one per worker that gets at least
    ``MIN_WORKER_BLOCKS`` of the ``blocks``.  A pool forks them all up
    front, so cap them at the CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(workers, blocks // MIN_WORKER_BLOCKS, cpus))


@contextmanager
def process_pool(workers: int, blocks: int):
    """``(map, processes)`` for ``estimate_sex_integral`` calls of ``blocks``
    blocks in all at ``workers`` workers, shut down on exit: a process pool's
    ``map`` with one process per worker that gets ``MIN_WORKER_BLOCKS`` of
    them, or the built-in ``map`` and 1 below two processes."""
    size = _pool_size(workers, blocks)
    if size < 2:
        yield map, 1
        return
    # imported here so that `import hivbrn` does not load the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        yield pool.map, size


def estimate_sex_integral(
    profile: SexProfile,
    spec: SimulationSpec,
    workers: int = 1,
    omega: float = PopulationConfig.omega,
    pool=None,
) -> EstimateResult:
    """Monte Carlo estimate of the expected-infection integral for one sex.

    Averages ``spec.samples`` independent life courses with the age at death
    drawn from the Weibull law; a course that outlives ``omega`` counts as
    empty, and the act rate ``delta`` is divided out, so the estimate
    targets exactly ``sex_integral(profile, omega)``.  ``workers`` > 1
    distributes blocks over processes without changing the result, one
    process per worker that gets ``MIN_WORKER_BLOCKS`` blocks; it must be
    an int >= 1.  The blocks run through ``pool``, a ``(map, processes)``
    pair that :func:`process_pool` yields for all the blocks it serves, if
    given, else through one opened for this call's blocks at ``workers``.
    """
    if type(workers) is not int or workers < 1:
        raise DomainError("workers must be an int >= 1")
    check_range(omega, "omega")
    envelope = None
    if spec.act_process == "poisson_thinning":
        envelope = _envelope(profile, omega)
        acts = _envelope_mass(profile, envelope, omega)
        if not 0 < acts <= MAX_ACTS_PER_COURSE:
            raise DomainError(
                f"poisson_thinning needs 0 < candidate acts per course <= "
                f"{MAX_ACTS_PER_COURSE}, not {acts:.4g}; use expected_value instead"
            )
    n = spec.samples
    n_chunks = -(-n // CHUNK_SAMPLES)
    work = partial(_run_values, profile, spec, omega, envelope)
    values = np.empty(n)
    with process_pool(workers, n_chunks) if pool is None else nullcontext(pool) as (run, processes):
        # about eight contiguous batches of blocks per process
        batch = max(1, n_chunks // (8 * processes))
        runs = [range(c, min(c + batch, n_chunks)) for c in range(0, n_chunks, batch)]
        for chunks, part in zip(runs, run(work, runs)):
            values[chunks.start * CHUNK_SAMPLES :][: part.size] = part
    mean = float(values.sum() / n)
    values -= mean
    # the centred values scaled by a power of two, which commutes with every
    # rounding, to below 1 in magnitude: tiny ones keep their squares from
    # underflowing, and a standard error that does not underflow keeps its bits
    scale = np.frexp(max(values.max(), -values.min()))[1]
    np.ldexp(values, -scale, out=values)
    squares = np.square(values, out=values).sum()
    std_error = float(np.ldexp(np.sqrt(squares / (n - 1) / n), scale)) if n > 1 else None
    return EstimateResult(mean=mean, std_error=std_error, samples=n, seed=spec.seed)

"""Monte Carlo cross-check of the expected-infection integrals.

Simulates individual infective life courses: the age at death is drawn from
the Weibull law by inverse transform, coital acts arrive as an inhomogeneous
Poisson process with rate ``delta * G(ia, iad)``, and each act
independently transmits with probability ``ptr(ia, iad)``; both are
thinned from candidates at the constant rate ``delta * peak_prob``.  A
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
order or process and reduced by index.  Blocks go to the workers in
contiguous batches, and the parent writes each batch's values into one
sample array in index order.  A run of blocks (the serial loop or one
batch) owns one set of per-act buffers, which its blocks draw into and
which is dropped when the run returns; the kernel cores compute in place
on the arrays they allocate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

# bench/tracing.py wraps activity_fraction and transmission_prob here
from .behavior import activity_fraction, activity_fraction_core
from .errors import DomainError, check_range
from .reproduction import PopulationConfig, SexProfile
from .survival import survival_quantile_core
from .natural_history import transmission_prob, transmission_prob_core

__all__ = [
    "SimulationSpec",
    "EstimateResult",
    "estimate_sex_integral",
]

CHUNK_SAMPLES = 4096

# the reduction holds one float per sample, 8 B: this caps it near 80 MB (at
# 10^7 samples simulate peaked at 115 MB RSS, 276 MB with three such arrays)
MAX_SAMPLES = 10_000_000

# poisson_thinning holds about 56 B per candidate act in a block (its
# traced peak over 0.52 to 0.58 million acts), and a course averages at most
# delta * peak_prob * omega of them: this caps a block of CHUNK_SAMPLES
# courses near 230 MB (52 to 56 MB under the baseline survival laws); the
# baseline's bound is 26 acts
MAX_ACTS_PER_COURSE = 1000

ACT_PROCESSES = ("poisson_thinning", "expected_value")

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


def _chunk_values(
    profile: SexProfile,
    spec: SimulationSpec,
    omega: float,
    chunk: int,
    buffers: list[np.ndarray],
) -> np.ndarray:
    """Per-sample integral estimates up to ``omega`` for one block of samples.

    All randomness for block ``chunk`` comes from its own spawned
    substream, making the result independent of scheduling.  ``buffers``
    holds one array of shape (3, capacity) whose rows take the block's
    per-act floats; it is replaced by a larger one when a block has more
    acts.  The returned values never share its memory.
    """
    size = min(spec.samples - chunk * CHUNK_SAMPLES, CHUNK_SAMPLES)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(spec.seed, spawn_key=(chunk,))))

    # u == 0 maps to iad == 0 (an empty course); so does a course past omega
    iad = survival_quantile_core(rng.random(size), profile.survival)
    iad[iad > omega] = 0.0

    if spec.act_process == "expected_value":
        return _inner_estimates(iad, rng.random(size), profile)

    delta = profile.activity.annual_acts
    tau = profile.activity.terminal_lead
    p_max = profile.peak_prob
    # Only candidate acts whose transmission uniform falls below the global
    # per-act bound can ever infect; by the thinning theorem they arrive at
    # rate delta * p_max with that uniform ~ U(0, p_max), so the infection
    # count below is distributed exactly as for envelope-delta thinning
    # followed by per-act Bernoulli marking.
    lam = np.where(iad > tau, delta * p_max * iad, 0.0)
    acts = rng.poisson(lam)
    total = int(acts.sum())
    seg = np.repeat(np.arange(size), acts)
    if buffers[0].shape[1] < total:
        buffers[0] = np.empty((3, total))
    iad_rep, t, u_act = buffers[0][:, :total]
    np.take(iad, seg, out=iad_rep)
    rng.random(out=t)
    t *= iad_rep
    rng.random(out=u_act)
    u_act *= p_max
    # 0 <= t <= iad_rep by construction: the unchecked cores apply; an act
    # whose transmission uniform fails can never infect, so its activity
    # uniform is never drawn and the activity kernel runs only on the acts
    # that pass (about a fifth at baseline)
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
    chunks: range,
) -> np.ndarray:
    """Per-sample values of the contiguous blocks ``chunks``, in order.

    The blocks draw their per-act arrays into one buffer set, made here and
    dropped on return: a run is the serial loop or one pool batch, so no
    two threads share a set and no caller keeps one after its call.
    """
    start = chunks.start * CHUNK_SAMPLES
    values = np.empty(min(chunks.stop * CHUNK_SAMPLES, spec.samples) - start)
    buffers = [np.empty((3, 0))]
    for chunk in chunks:
        block = _chunk_values(profile, spec, omega, chunk, buffers)
        offset = chunk * CHUNK_SAMPLES - start
        values[offset : offset + block.size] = block
    return values


def _pool_size(workers: int, n_chunks: int) -> int:
    """Processes to start; a pool forks them all up front, so cap them at the
    CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return min(workers, n_chunks, len(os.sched_getaffinity(0)))
    return min(workers, n_chunks, os.cpu_count() or 1)


def estimate_sex_integral(
    profile: SexProfile,
    spec: SimulationSpec,
    workers: int = 1,
    omega: float = PopulationConfig.omega,
) -> EstimateResult:
    """Monte Carlo estimate of the expected-infection integral for one sex.

    Averages ``spec.samples`` independent life courses with the age at death
    drawn from the Weibull law; a course that outlives ``omega`` counts as
    empty, and the act rate ``delta`` is divided out, so the estimate
    targets exactly ``sex_integral(profile, omega)``.  ``workers`` > 1
    distributes blocks over processes without changing the result; it must
    be an int >= 1.
    """
    if type(workers) is not int or workers < 1:
        raise DomainError("workers must be an int >= 1")
    check_range(omega, "omega")
    acts = profile.activity.annual_acts * profile.peak_prob * omega
    if spec.act_process == "poisson_thinning" and not 0 < acts <= MAX_ACTS_PER_COURSE:
        raise DomainError(
            f"poisson_thinning needs 0 < delta * peak_prob * omega <= "
            f"{MAX_ACTS_PER_COURSE}; use expected_value instead"
        )
    n_chunks = -(-spec.samples // CHUNK_SAMPLES)
    work = partial(_run_values, profile, spec, omega)
    workers = _pool_size(workers, n_chunks)
    n = spec.samples
    if workers > 1:
        # imported here so that `import hivbrn` does not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        # about eight contiguous batches of blocks per worker
        batch = max(1, n_chunks // (8 * workers))
        runs = [range(c, min(c + batch, n_chunks)) for c in range(0, n_chunks, batch)]
        values = np.empty(n)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for run, part in zip(runs, pool.map(work, runs)):
                values[run.start * CHUNK_SAMPLES : run.start * CHUNK_SAMPLES + part.size] = part
    else:
        values = work(range(n_chunks))
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

"""Monte Carlo cross-check of the expected-infection integrals.

Simulates individual infective life courses: the age at death is drawn from
the Weibull law by inverse transform, coital acts arrive as an inhomogeneous
Poisson process with rate ``delta * G(ia, iad)`` (thinned against the
constant envelope ``delta``), and each act independently transmits with
probability ``ptr(ia, iad)``.  The mean infection count divided by ``delta``
estimates the same integral the quadrature computes, with a standard error
that shrinks as 1/sqrt(samples).

Determinism contract: for a fixed (seed, spec, profile) the estimate is
bit-identical across runs and across worker counts.  Samples are processed
in fixed blocks of ``CHUNK_SAMPLES``; block ``c`` draws everything from its
own Philox substream (key = seed, counter high word = c), so blocks can be
computed in any order or process and reduced by index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

# bench/tracing.py wraps activity_fraction and transmission_prob here
from .behavior import activity_fraction, activity_fraction_core
from .errors import DomainError
from .reproduction import SexProfile, inner_integral
from .survival import survival_quantile_core
from .natural_history import transmission_prob, transmission_prob_core

__all__ = [
    "SimulationSpec",
    "EstimateResult",
    "estimate_sex_integral",
]

CHUNK_SAMPLES = 4096

# the reduction holds about 24 B per sample: this caps it near 240 MB
MAX_SAMPLES = 10_000_000

ACT_PROCESSES = ("poisson_thinning", "expected_value")

# level of the graded inner mesh that expected_value integrates each course
# on: 8 panels of reproduction.ORDER nodes, relative error 5e-9 at the
# baseline and 3e-7 at alpha1 = 1.02
EV_LEVEL = 1


@dataclass(frozen=True)
class SimulationSpec:
    """Sample count, RNG seed and the life-course evaluation mode.

    ``poisson_thinning`` simulates acts and infections stochastically;
    ``expected_value`` replaces each course's infection count by its
    conditional expectation given the age at death (same mean, strictly
    smaller variance).
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


def _chunk_values(
    profile: SexProfile, spec: SimulationSpec, chunk: int
) -> np.ndarray:
    """Per-sample integral estimates for one block of sample indices.

    All randomness for block ``chunk`` comes from its own counter-based
    substream, making the result independent of scheduling.
    """
    size = min(spec.samples - chunk * CHUNK_SAMPLES, CHUNK_SAMPLES)
    rng = np.random.Generator(np.random.Philox(key=spec.seed, counter=[0, 0, 0, chunk]))

    # u == 0 maps to iad == 0 (an empty course)
    iad = survival_quantile_core(rng.random(size), profile.survival)

    if spec.act_process == "expected_value":
        return inner_integral(iad, profile, EV_LEVEL)

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
    iad_rep = np.repeat(iad, acts)
    t = rng.random(total) * iad_rep
    u_act = rng.random(total) * p_max
    u_thin = rng.random(total)
    # 0 <= t <= iad_rep by construction: the unchecked cores apply
    g = activity_fraction_core(t, iad_rep, profile.activity)
    p = transmission_prob_core(
        t, iad_rep, profile.viral, profile.transmission, profile.x_plateau
    )
    infected = (u_thin < g) & (u_act < p)
    counts = np.bincount(seg[infected], minlength=size)
    return counts / delta


def _pool_size(workers: int, n_chunks: int) -> int:
    """Processes to start; a pool forks them all up front, so cap them."""
    return min(workers, n_chunks, os.cpu_count() or 1)


def estimate_sex_integral(
    profile: SexProfile, spec: SimulationSpec, workers: int = 1
) -> EstimateResult:
    """Monte Carlo estimate of the expected-infection integral for one sex.

    Averages ``spec.samples`` independent life courses with the age at death
    drawn from the Weibull law; the act rate ``delta`` is divided out so the
    estimate targets the pure integral.  ``workers`` > 1 distributes blocks
    over processes without changing the result.
    """
    if spec.act_process == "poisson_thinning" and profile.activity.annual_acts <= 0:
        raise DomainError(
            "poisson_thinning needs delta > 0; use expected_value instead"
        )
    n_chunks = -(-spec.samples // CHUNK_SAMPLES)
    work = partial(_chunk_values, profile, spec)
    workers = _pool_size(workers, n_chunks)
    if workers > 1:
        # imported here so that `import hivbrn` does not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, range(n_chunks)))
    else:
        parts = [work(c) for c in range(n_chunks)]
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    n = spec.samples
    mean = float(values.sum() / n)
    std_error = (
        float(np.sqrt(((values - mean) ** 2).sum() / (n - 1) / n)) if n > 1 else None
    )
    return EstimateResult(mean=mean, std_error=std_error, samples=n, seed=spec.seed)

"""Monte Carlo cross-check of the expected-infection integrals.

Simulates individual infective life courses: the age at death is drawn from
the Weibull law by inverse transform, coital acts arrive as an inhomogeneous
Poisson process with rate ``delta * G(ia, iad)`` (thinned against the
constant envelope ``delta``), and each act independently transmits with
probability ``ptr(ia, iad)``.  A course that outlives the horizon ``omega``
counts as empty, so the mean infection count divided by ``delta`` estimates
the integral the quadrature computes, ``int_0^omega s(y) J(y) dy``, with a
standard error that shrinks as 1/sqrt(samples).  The ``expected_value``
mode replaces each course's count by its conditional mean given the age at
death, the inner integral ``J(iad)``, read from a table built per profile.

Determinism contract: for a fixed (seed, spec, profile) the estimate is
bit-identical across runs and across worker counts.  Samples are processed
in fixed blocks of ``CHUNK_SAMPLES``; block ``c`` draws everything from its
own Philox substream (key = seed, counter high word = c), so blocks can be
computed in any order or process and reduced by index.  Blocks go to the
workers in contiguous batches, and the parent writes each block's values
into one sample array in index order.  The parent builds the ``J`` table
and hands the same copy to every block.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial

import numpy as np

# bench/tracing.py wraps activity_fraction and transmission_prob here
from .behavior import activity_fraction, activity_fraction_core
from .errors import DomainError
from .reproduction import PopulationConfig, SexProfile, graded_edges, inner_integral
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

# poisson_thinning holds about 90 B per candidate act in a block, and a course
# averages at most delta * peak_prob * omega of them: this caps a block of
# CHUNK_SAMPLES courses near 370 MB (80 MB under the baseline survival law);
# the baseline's bound is 26 acts
MAX_ACTS_PER_COURSE = 1000

ACT_PROCESSES = ("poisson_thinning", "expected_value")

# expected_value reads J(iad) from a table built once per profile: on each
# panel over [tau1, omega], the polynomial through J at TABLE_NODES Chebyshev
# points of the second kind, J filled in by the level-TABLE_LEVEL inner rule.
# The panels start as the level-TABLE_LEVEL outer graded mesh; a panel whose
# last Chebyshev coefficients exceed TABLE_TOL of the largest J is halved, up
# to MAX_SPLITS times, since a long survival tail (beta near 1) stretches it
# past the scale on which J varies.  Over 240 draws from the valid box (beta
# 1 to 3.5, half at omega 40 and half at 400): 15 to 33 panels, worst error
# against the level-10 rule 4.6e-11 of the mean of J at omega 40 and 1.6e-8 at
# omega 400, the interpolant's on long panels; the fill's own is below 4e-11
TABLE_LEVEL = 6
TABLE_NODES = 24
TABLE_TOL = 1e-11
MAX_SPLITS = 8

# draws in the first graded panel next to tau1 take the inner rule at this
# level directly: its finest panel, 0.15**18 = 1.5e-15 of the age, resolves
# the boundary layer of courses barely longer than tau1, about iad - tau1 wide
DIRECT_LEVEL = 16

# the Chebyshev points of the second kind on [-1, 1], ascending
_CHEB = np.polynomial.chebyshev.chebpts2(TABLE_NODES)


@dataclass(frozen=True)
class SimulationSpec:
    """Sample count, RNG seed and the life-course evaluation mode.

    ``poisson_thinning`` simulates acts and infections stochastically;
    ``expected_value`` replaces each course's infection count by its
    conditional expectation given the age at death (same mean, strictly
    smaller variance), interpolated in a per-profile table of the inner
    integral.
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


def _inner_table(profile: SexProfile, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges over [tau1, omega] less the first graded panel, and per
    panel the Chebyshev coefficients of the interpolant of the inner
    integral, shape (``TABLE_NODES``, panels); empty if omega <= tau1."""
    tau = profile.activity.terminal_lead
    top = max(omega, tau)
    # the first graded panel holds J ~ eps * log(1/eps) in eps = iad - tau1,
    # which no polynomial follows: its draws take the direct rule
    edges = tau + (top - tau) * graded_edges(TABLE_LEVEL, both_ends=False)[1:]
    for splits in range(MAX_SPLITS + 1):
        ages = 0.5 * (edges[1:] + edges[:-1]) + 0.5 * np.diff(edges) * _CHEB[:, None]
        values = inner_integral(ages.ravel(), profile, TABLE_LEVEL).reshape(ages.shape)
        # degree TABLE_NODES - 1 through TABLE_NODES points: the interpolant
        coefs = np.polynomial.chebyshev.chebfit(_CHEB, values, TABLE_NODES - 1)
        # the last two coefficients estimate what the degree misses: a
        # panel where they are not negligible against J is halved
        coarse = np.abs(coefs[-2:]).max(axis=0) > TABLE_TOL * np.abs(values).max()
        if splits == MAX_SPLITS or not coarse.any():
            return edges, coefs
        edges = np.sort(np.concatenate((edges, 0.5 * (edges[1:] + edges[:-1])[coarse])))


def _tabulated_inner(
    iad: np.ndarray, profile: SexProfile, table: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """``inner_integral`` per age at death up to omega from
    :func:`_inner_table`: 0 up to tau1, the ``DIRECT_LEVEL`` rule on the
    first graded panel, and the interpolant on the rest."""
    edges, coefs = table
    out = np.zeros_like(iad)
    # edges[0] >= tau1; the table ends at omega, past which no age is drawn
    on = iad > edges[0]
    direct = (iad > profile.activity.terminal_lead) & ~on
    if direct.any():
        out[direct] = inner_integral(iad[direct], profile, DIRECT_LEVEL)
    y = iad[on]
    # edges[k] < y <= edges[k + 1], so every panel used has a positive width;
    # the last panel also takes an age that omega exceeds its end by rounding
    k = np.searchsorted(edges[1:-1], y)
    lo, hi = edges[k], edges[k + 1]
    # Clenshaw's recurrence at t in [-1, 1], the age's place in its panel;
    # one coefficient row at a time keeps the work in arrays of len(y)
    t2 = 2.0 * (2.0 * y - lo - hi) / (hi - lo)
    b1 = b2 = 0.0
    for row in coefs[:0:-1]:
        b1, b2 = row[k] + t2 * b1 - b2, b1
    out[on] = coefs[0, k] + 0.5 * t2 * b1 - b2
    return out


def _chunk_values(
    profile: SexProfile,
    spec: SimulationSpec,
    omega: float,
    table: tuple[np.ndarray, np.ndarray] | None,
    chunk: int,
) -> np.ndarray:
    """Per-sample integral estimates up to ``omega`` for one block of samples;
    ``table`` is the :func:`_inner_table` of ``expected_value`` mode.

    All randomness for block ``chunk`` comes from its own counter-based
    substream, making the result independent of scheduling.
    """
    size = min(spec.samples - chunk * CHUNK_SAMPLES, CHUNK_SAMPLES)
    rng = np.random.Generator(np.random.Philox(key=spec.seed, counter=[0, 0, 0, chunk]))

    # u == 0 maps to iad == 0 (an empty course); so does a course past omega
    iad = survival_quantile_core(rng.random(size), profile.survival)
    iad[iad > omega] = 0.0

    if spec.act_process == "expected_value":
        return _tabulated_inner(iad, profile, table)

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
    # 0 <= t <= iad_rep by construction: the unchecked cores apply; an act
    # whose transmission uniform fails can never infect, so the activity
    # kernel runs only on the acts that pass it (about a fifth at baseline)
    p = transmission_prob_core(
        t, iad_rep, profile.viral, profile.transmission, profile.x_plateau
    )
    keep = np.flatnonzero(u_act < p)
    g = activity_fraction_core(t[keep], iad_rep[keep], profile.activity)
    infected = keep[u_thin[keep] < g]
    counts = np.bincount(seg[infected], minlength=size)
    return counts / delta


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
    distributes blocks over processes without changing the result.
    """
    if not 0 < omega < np.inf:
        raise DomainError("omega must be finite and > 0")
    acts = profile.activity.annual_acts * profile.peak_prob * omega
    if spec.act_process == "poisson_thinning" and not 0 < acts <= MAX_ACTS_PER_COURSE:
        raise DomainError(
            f"poisson_thinning needs 0 < delta * peak_prob * omega <= "
            f"{MAX_ACTS_PER_COURSE}; use expected_value instead"
        )
    n_chunks = -(-spec.samples // CHUNK_SAMPLES)
    table = _inner_table(profile, omega) if spec.act_process == "expected_value" else None
    work = partial(_chunk_values, profile, spec, omega, table)
    workers = _pool_size(workers, n_chunks)
    n = spec.samples
    values = np.empty(n)
    with ExitStack() as stack:
        blocks = map(work, range(n_chunks))
        if workers > 1:
            # imported here so that `import hivbrn` does not load the pool machinery
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            # about eight contiguous batches of blocks per worker
            batch = max(1, n_chunks // (8 * workers))
            blocks = pool.map(work, range(n_chunks), chunksize=batch)
        for c, block in enumerate(blocks):
            values[c * CHUNK_SAMPLES : c * CHUNK_SAMPLES + block.size] = block
    mean = float(values.sum() / n)
    values -= mean
    squares = np.square(values, out=values).sum()
    std_error = float(np.sqrt(squares / (n - 1) / n)) if n > 1 else None
    return EstimateResult(mean=mean, std_error=std_error, samples=n, seed=spec.seed)

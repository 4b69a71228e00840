"""Two-sex basic reproduction number, thresholds and sensitivity.

One infected individual of a given sex generates an expected number of
opposite-sex infections

    R = delta * I,   I = int_0^omega s(y) int_0^y G(x, y) ptr(x, y) dx dy

where ``s`` is the density of the infective age at death, ``G`` the
remaining-activity fraction, ``ptr`` the per-act transmission probability
and ``delta`` the annual act rate at infection.  With both sexes'
integrals in hand the composite number is R0 = sqrt(R_fm * R_mf), and the
epidemic threshold R0 > 1 is equivalent to ISA > I0 where

    ISA = sqrt(delta_m * delta_f)          (index of sexual activity)
    I0  = (I_f * I_m) ** -0.5              (critical act rate)

I0 depends only on infectivity, survival and the shape of the activity
decline, never on the contact rates, so the R0 = 1 locus in the
(delta_m, delta_f) plane is the fixed hyperbola delta_m * delta_f = I0**2.

Transmission variants of one sex profile, such as the endpoint factors of a
sensitivity sweep, differ only in the cloglog link, and each is integrated
on its own (:func:`link_integrals`).  A population keeps, per sex and level,
every such link's total and the link-free blocks (``G``, the viral load and
the survival density): at any tolerance it integrates each link on a level
once, and its endpoint factors share those blocks.  A level's inner nodes
are computed as row blocks of whole ages, at most ``BLOCK_NODES`` nodes
each, one kernel call per block rather than one per inner panel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

# bench/tracing.py wraps activity_fraction, transmission_prob, survival_density here
from .behavior import ActivityParams, activity_fraction, activity_fraction_core
from .errors import RANGES, DomainError, QuadratureFailure, check_range
from .natural_history import (
    TransmissionParams,
    ViralLoadParams,
    cloglog_core,
    linear_load_core,
    log_viral_load_core,
    peak_transmission_prob,
    solve_plateau_point,
    transmission_prob,
)
from .survival import SurvivalParams, survival_density, survival_density_core, tail_mass

__all__ = [
    "QuadratureSpec",
    "SexProfile",
    "PopulationConfig",
    "BrnResult",
    "Verdict",
    "sex_integral",
    "sex_integrals",
    "sex_brn",
    "index_i0",
    "composite_r0",
    "evaluate_brn",
    "sensitivity_sweep",
]

# horizon must leave less survival mass beyond it than this
MAX_TAIL_MASS = 1e-6

# |ISA - I0| within this relative band counts as critical
CRITICAL_BAND = 1e-9

# a sex's reproduction number is delta times an integral of at most the
# horizon: at most the box's largest delta times its longest horizon, 1e7
MAX_BRN = RANGES["delta"][1] * RANGES["omega"][1]

# geometric ratio between neighbouring graded quadrature panels
GRADING = 0.15

# Gauss-Legendre nodes per panel per direction: across the valid box, 24 keep
# a converged integral within 0.1x tol (1e-6 to 1e-10), 8 to 16 can converge
# 100x tol off, and 32 to 64 give the same values more slowly
ORDER = 24

# each graded level adds panels in both directions: a cap that bounds time
MAX_REFINE = 16

# inner nodes per kernel call of a level's blocks, which bounds the
# transient arrays of one call as CHUNK_SAMPLES does for the Monte Carlo
BLOCK_NODES = 2**15


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor Gauss-Legendre rule on geometrically graded panels.

    ``ORDER`` nodes per panel in each direction.  Each level adds one
    graded layer at each end (toward ``x = 0``, ``x = y`` and ``y = tau1``)
    and widens the uniform middle; levels rise until two consecutive ones
    agree to relative ``tol``, up to ``max_refine`` (>= 1) levels past the first.
    """

    tol: float = 1e-6
    max_refine: int = 8

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise DomainError("quadrature tol must be finite and > 0")
        if type(self.max_refine) is not int:
            raise DomainError("max_refine must be an int")
        if not 1 <= self.max_refine <= MAX_REFINE:
            raise DomainError(f"max_refine must be in [1, {MAX_REFINE}]")


@dataclass(frozen=True)
class SexProfile:
    """Complete parameter set for one sex."""

    label: str
    viral: ViralLoadParams
    transmission: TransmissionParams
    activity: ActivityParams
    survival: SurvivalParams

    def __post_init__(self):
        if self.label not in ("female", "male"):
            raise DomainError("label must be 'female' or 'male'")
        if self.activity.terminal_lead != self.viral.terminal_lead:
            raise DomainError(
                "activity and viral-load trajectories must share tau1"
            )
        if not self.peak_prob < 1.0:
            raise DomainError(
                f"{self.label} per-act transmission probability reaches "
                f"{self.peak_prob:.3g} at log10 viral load max(M1, M2); must be < 1"
            )

    @cached_property
    def x_plateau(self) -> float:
        """Plateau crossing of the early-peak curve (largest root at the plateau)."""
        return solve_plateau_point(self.viral)

    @cached_property
    def peak_prob(self) -> float:
        """Supremum of the per-act transmission probability."""
        return peak_transmission_prob(self.viral, self.transmission)


@dataclass(frozen=True)
class PopulationConfig:
    """Two sex profiles plus the integration horizon and optional head counts;
    with both counts set, ``pop_female * delta_f == pop_male * delta_m``."""

    female: SexProfile
    male: SexProfile
    omega: float = 40.0
    pop_female: float | None = None
    pop_male: float | None = None

    def __post_init__(self):
        if self.female.label != "female" or self.male.label != "male":
            raise DomainError("profiles must carry their own sex labels")
        check_range(self.omega, "omega")
        for pop in (self.pop_female, self.pop_male):
            if pop is not None and not pop > 0:
                raise DomainError("population sizes must be > 0")
        if self.pop_female is not None and self.pop_male is not None:
            delta_m = self.male.activity.annual_acts
            # total acts by women with men equal total acts by men with women
            delta_f = self.female.activity.annual_acts
            balanced = self.pop_female * delta_f / self.pop_male
            if not math.isclose(balanced, delta_m, rel_tol=1e-9):
                raise DomainError(
                    f"pop_female, pop_male and female delta give male delta = "
                    f"{balanced:g} by act balance, not {delta_m:g}"
                )
        for prof in (self.female, self.male):
            try:
                (self.omega / prof.survival.scale) ** prof.survival.shape
            except OverflowError:
                raise DomainError(f"{prof.label} beta={prof.survival.shape:g} overflows (omega/scale)**beta "
                                  f"at omega={self.omega:g}; the survival density needs it finite") from None
            mass = tail_mass(self.omega, prof.survival)
            if mass >= MAX_TAIL_MASS:
                raise DomainError(
                    f"survival mass beyond omega={self.omega:g} is {mass:.2e} "
                    f"for {prof.label}; must be < {MAX_TAIL_MASS:g}"
                )

    @cached_property
    def _levels(self) -> "dict[str, dict]":
        """Per sex label, the ``memo`` of :func:`link_integrals` by level,
        filled by :func:`sex_integrals` and the endpoint sweep.  What it keeps
        depends on the link, profile, ``omega`` and level only, so it serves
        every quadrature; in the instance's ``__dict__``, so ``==``, ``hash``
        and ``replace`` skip it."""
        return {"female": {}, "male": {}}


class Verdict(enum.Enum):
    EPIDEMIC = "epidemic"
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"


@dataclass(frozen=True)
class BrnResult:
    """Everything the threshold question needs, in one record.

    ``integral_f``/``integral_m`` are the per-unit-delta expected-infection
    integrals; ``r_fm``/``r_mf`` the sex-specific reproduction numbers;
    ``i0`` and ``isa`` are in acts/year.
    """

    integral_f: float
    integral_m: float
    r_fm: float
    r_mf: float
    r0: float
    i0: float
    isa: float
    epidemic: bool
    verdict: Verdict


def graded_edges(level: int, both_ends: bool) -> np.ndarray:
    """Panel edges on [0, 1]: ``level + 2`` panels graded by ``GRADING``
    toward 0, as many toward 1 if ``both_ends``, and a uniform middle of
    ``level + 1``."""
    near0 = np.concatenate(([0.0], GRADING ** np.arange(level + 2, 0, -1)))
    far = 1.0 - near0[::-1] if both_ends else np.ones(1)
    middle = np.linspace(near0[-1], far[0], level + 2)[1:-1]
    return np.concatenate((near0, middle, far))


@cache
def _graded_rule(level: int, both_ends: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-panel Gauss-Legendre nodes and weights on the
    :func:`graded_edges` panels, each of shape (panels, ORDER)."""
    edges = graded_edges(level, both_ends)
    t, w = np.polynomial.legendre.leggauss(ORDER)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * t
    weights = half * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def inner_blocks(
    iad: np.ndarray, profile: SexProfile, level: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``G`` and the linear viral load on every inner node ``x`` of the
    level-``level`` mesh, placed as fractions of each age at death ``iad``:
    the link-free part of :func:`inner_integrals`.  Row blocks of
    consecutive ages, each of shape (ages, panels * ORDER) with the inner
    panels side by side in order: a block holds as many ages, in whole
    groups of 8, as fit in ``BLOCK_NODES`` nodes, and one kernel call
    computes it.  The nodes satisfy 0 <= x <= iad, so the unchecked cores
    are called."""
    nodes = _graded_rule(level, both_ends=True)[0].ravel()
    # a row's sum can depend on its place in gemv's groups of rows (OpenBLAS
    # takes 4 at a time, then a remainder): whole groups of 8 keep each row
    # where the level's 24 * (2 * level + 3) ages put it
    rows = BLOCK_NODES // nodes.size // 8 * 8
    blocks = []
    for start in range(0, iad.size, rows):
        col = iad[start : start + rows, None]
        x = nodes * col
        g = activity_fraction_core(x, col, profile.activity)
        load = linear_load_core(log_viral_load_core(x, col, profile.viral, profile.x_plateau))
        blocks.append((g, load))
    return blocks


def inner_integrals(
    iad: np.ndarray,
    blocks: "list[tuple[np.ndarray, np.ndarray]]",
    link: TransmissionParams,
    level: int,
) -> np.ndarray:
    """``int_0^iad G(x, iad) * ptr(x, iad) dx`` for each age at death under
    ``link``, by ``ORDER``-node Gauss-Legendre on the level-``level`` panels
    as fractions of ``iad``, from that level's :func:`inner_blocks`: one
    cloglog pass and one product with ``G`` per row block.  Each age's
    panel sums are added in panel order, as a pass per panel adds them, so
    the totals keep those bits."""
    weights = _graded_rule(level, both_ends=True)[1]
    out = []
    for g, load in blocks:
        prod = cloglog_core(load, link)
        prod *= g
        acc = np.zeros(len(g))
        for k, w in enumerate(weights):
            acc += prod[:, k * ORDER : (k + 1) * ORDER] @ w
        out.append(acc)
    return np.concatenate(out) * iad


def link_integrals(
    profile: SexProfile,
    link: TransmissionParams,
    omega: float,
    quad: QuadratureSpec | None = None,
    memo: dict | None = None,
) -> float:
    """:func:`sex_integral` of ``profile`` under ``link``, which may be a
    scaled variant of its own: only the cloglog passes of
    :func:`inner_integrals` read it.  ``omega`` is not checked here: the
    package passes a config's, and :func:`sex_integral` checks its own.

    ``memo`` (``PopulationConfig._levels[sex]``) keeps per level each
    link's total, keyed by the link, and under ``"blocks"`` the survival
    density and the :func:`inner_blocks` row blocks on the outer nodes.  A level's kept
    work is read and its missing work stored, even when the integral then
    fails.  Without a memo only the level in use is held.
    """
    quad = quad or QuadratureSpec()
    tau = profile.activity.terminal_lead
    if omega <= tau:
        return 0.0
    prev, err = 0.0, math.inf
    for level in range(quad.max_refine + 1):
        # the integrand vanishes for y <= tau1: outer panels span [tau1, omega]
        nodes, weights = _graded_rule(level, both_ends=False)
        y = (tau + (omega - tau) * nodes).ravel()
        kept = {} if memo is None else memo.setdefault(level, {})
        if link not in kept:
            if "blocks" not in kept:
                kept["blocks"] = survival_density_core(y, profile.survival), inner_blocks(y, profile, level)
            density, panels = kept["blocks"]
            inner = inner_integrals(y, panels, link, level)
            kept[link] = (omega - tau) * float(weights.ravel() @ (density * inner))
            # without a memo, the next level is built with these freed
            del density, panels
        total = kept[link]
        if total == 0 and tail_mass(tau, profile.survival) == 0.0:
            # the integral is below the survival mass past tau1, which is 0
            raise QuadratureFailure(f"no course outlives tau1 {tau:g}, so none carries activity")
        # the integrand is positive past tau1: a zero total missed the mass or underflowed
        if level and total > 0:
            err = abs(total - prev) / total
            if err <= quad.tol:
                return total
        prev = total
    reason = f"relative error {err:.2e} above target {quad.tol:g}"
    if not math.isfinite(err):
        reached = kept["blocks"][0].any()
        cause = "the integrand underflows to 0 at every node with" if reached else "the mesh never reached the"
        reason = f"no level's total was positive: {cause} survival mass below omega {omega:g}"
    raise QuadratureFailure(f"{reason} after {quad.max_refine} graded levels")


def sex_integral(
    profile: SexProfile, omega: float, quad: QuadratureSpec | None = None
) -> float:
    """Expected infections per unit delta over one infective life course.

    Integrates ``s(y) * G(x, y) * ptr(x, y)`` over the triangle
    0 <= x <= y <= omega on graded meshes of rising level until two
    consecutive levels agree to ``quad.tol`` relative to the newer total,
    which must be positive; raises :class:`QuadratureFailure` if the budget
    runs out.  :func:`link_integrals` under the profile's own link, keeping
    nothing, once ``omega`` is checked.
    """
    check_range(omega, "omega")
    return link_integrals(profile, profile.transmission, omega, quad)


def sex_integrals(
    config: PopulationConfig, quad: QuadratureSpec | None = None
) -> tuple[float, float]:
    """``(I_f, I_m)``: both sexes' :func:`sex_integral` over ``config.omega``,
    the one pair every threshold number comes from.

    Each sex's :func:`link_integrals` reads and fills its levels on the
    config.  Their totals serve every ``quad``, so a later call integrates
    only the levels the config lacks, and a failure is raised again from
    kept totals.
    """
    return tuple(
        link_integrals(prof, prof.transmission, config.omega, quad, config._levels[prof.label])
        for prof in (config.female, config.male)
    )


def sex_brn(delta: float, integral: float) -> float:
    """Sex-specific reproduction number: annual act rate times the integral,
    at most ``MAX_BRN``."""
    if delta < 0:
        raise DomainError("delta must be >= 0")
    r = delta * integral
    if not 0 <= r <= MAX_BRN:
        raise DomainError(f"delta * integral must be in [0, {MAX_BRN:g}]")
    return r


def index_i0(integral_f: float, integral_m: float) -> float:
    """Critical act rate ``(I_f * I_m)**-0.5`` (acts/year).

    Undefined when either integral vanishes (no transmission, no threshold);
    each is at most its horizon, so the product cannot overflow.
    """
    top = RANGES["omega"][1]
    if not (0 < integral_f <= top and 0 < integral_m <= top):
        raise DomainError(f"both sex integrals must be in (0, {top:g}] for a threshold")
    product = integral_f * integral_m
    if product == 0.0:
        raise DomainError("the product of the sex integrals underflows to 0")
    return product ** -0.5


def composite_r0(r_fm: float, r_mf: float) -> float:
    """Composite reproduction number ``sqrt(r_fm * r_mf)``.

    Dominant eigenvalue of the 2x2 anti-diagonal next-generation matrix;
    transmission takes two generations to return to the same sex.  Each
    number is at most ``MAX_BRN``, so the product cannot overflow.
    """
    if not (0 <= r_fm <= MAX_BRN and 0 <= r_mf <= MAX_BRN):
        raise DomainError(f"reproduction numbers must be in [0, {MAX_BRN:g}]")
    return math.sqrt(r_fm * r_mf)


def evaluate_brn(
    config: PopulationConfig, quad: QuadratureSpec | None = None
) -> BrnResult:
    """Assemble the full threshold record from :func:`sex_integrals`, with
    the one verdict: ISA against I0 (R0 against 1 only rounds differently)."""
    integral_f, integral_m = sex_integrals(config, quad)
    delta_f = config.female.activity.annual_acts
    delta_m = config.male.activity.annual_acts
    r_fm = sex_brn(delta_f, integral_f)
    r_mf = sex_brn(delta_m, integral_m)
    i0 = index_i0(integral_f, integral_m)
    r0 = composite_r0(r_fm, r_mf)
    isa = math.sqrt(delta_m * delta_f)
    if abs(isa - i0) <= CRITICAL_BAND * i0:
        verdict = Verdict.CRITICAL
    else:
        verdict = Verdict.EPIDEMIC if isa > i0 else Verdict.SUBCRITICAL
    return BrnResult(
        integral_f=integral_f,
        integral_m=integral_m,
        r_fm=r_fm,
        r_mf=r_mf,
        r0=r0,
        i0=i0,
        isa=isa,
        epidemic=verdict is Verdict.EPIDEMIC,
        verdict=verdict,
    )


def _scaled(sexes: str, factor: float) -> str:
    """How a refusal or failure names the sensitivity factor behind it."""
    return f"{sexes} transmission probability scaled by {factor:g}"


def scaled_links(
    config: PopulationConfig, scale_factors: "list[float]", mode: str
) -> tuple[list[TransmissionParams], list[TransmissionParams]]:
    """Each sex's link under each factor, ``(female links, male links)``: the
    one check of sensitivity factors, run before any integral, factor by
    factor and female before male.  A factor must be > 0 and keep the
    scaled peak probability below 1.  ``scale_function`` scales the
    probability pointwise, so the link stays the profile's own and the peak
    is ``factor * peak_prob``; ``scale_endpoints`` scales both anchor
    probabilities, ``prob_at_peak`` first, by ``dataclasses.replace``, which
    re-derives the link at its own anchor loads; its peak
    (:func:`peak_transmission_prob`) must stay below 1 too."""
    if mode not in ("scale_function", "scale_endpoints"):
        raise DomainError(f"unknown sweep mode {mode!r}")
    links = ([], [])
    for factor in scale_factors:
        if not factor > 0:
            raise DomainError("scale factors must be > 0")
        for prof, out in zip((config.female, config.male), links):
            link = prof.transmission
            if mode == "scale_function":
                peak = factor * prof.peak_prob
            else:
                peak = factor * link.prob_at_peak
                if peak < 1.0:
                    try:
                        link = replace(
                            link, prob_at_peak=peak, prob_at_plateau=factor * link.prob_at_plateau
                        )
                    except DomainError as exc:
                        # such as a plateau anchor that underflows to 0
                        raise DomainError(f"{_scaled(prof.label, factor)}: {exc}") from exc
                    peak = peak_transmission_prob(prof.viral, link)
            if not peak < 1.0:
                raise DomainError(f"{_scaled(prof.label, factor)} reaches {peak:.3g} >= 1")
            out.append(link)
    return links


def sensitivity_sweep(
    config: PopulationConfig,
    scale_factors: "list[float]",
    mode: str = "scale_function",
    quad: QuadratureSpec | None = None,
) -> list[tuple[float, float]]:
    """I0 under rescaled transmission probabilities.

    ``scale_function`` multiplies the per-act probability pointwise by each
    factor, which gives exactly the base I0 over the factor, from the
    :func:`sex_integrals` pair that the config keeps;
    ``scale_endpoints`` rescales the two anchor probabilities and re-derives
    the link, which is only approximately linear.  :func:`scaled_links`
    checks every factor before any integral.  The endpoint sweep then runs
    one :func:`link_integrals` per sex and factor, female factors first, and
    stops at the first failure: the first failing female factor's, else the
    first failing male factor's, so a female failure leaves the male
    integrals unrun.  Every call reads and fills the config's levels, which
    :func:`sex_integrals` shares: each level's blocks are built once per
    sex, and each link's total once per level.
    """
    links = scaled_links(config, scale_factors, mode)
    if not scale_factors:
        return []
    if mode == "scale_function":
        i0 = index_i0(*sex_integrals(config, quad))
        return [(factor, i0 / factor) for factor in scale_factors]
    integrals = ([], [])
    for prof, sex_links, out in zip((config.female, config.male), links, integrals):
        for factor, link in zip(scale_factors, sex_links):
            try:
                out.append(link_integrals(prof, link, config.omega, quad, config._levels[prof.label]))
            except QuadratureFailure as exc:
                raise QuadratureFailure(f"{_scaled(prof.label, factor)}: {exc}") from exc
    pairs = []
    for factor, f, m in zip(scale_factors, *integrals):
        try:
            pairs.append((factor, index_i0(f, m)))
        except DomainError as exc:
            raise DomainError(f"{_scaled('female and male', factor)}: {exc}") from exc
    return pairs

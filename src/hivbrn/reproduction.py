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
sensitivity sweep, differ only in the cloglog link: they share one mesh per
level, on which ``G``, the viral load and the survival density are computed
once (:func:`link_integrals`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# bench/tracing.py wraps activity_fraction, transmission_prob, survival_density here
from .behavior import ActivityParams, activity_fraction, activity_fraction_core
from .errors import DomainError, QuadratureFailure
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

# geometric ratio between neighbouring graded quadrature panels
GRADING = 0.15

# Gauss-Legendre nodes per panel per direction: across the valid box, 24 keep
# a converged integral within 0.1x tol (1e-6 to 1e-10), 8 to 16 can converge
# 100x tol off, and 32 to 64 give the same values more slowly
ORDER = 24

# each graded level adds panels in both directions: a cap that bounds time
MAX_REFINE = 16


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
        if not self.tol > 0:
            raise DomainError("quadrature tol must be > 0")
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
        if not 0 < self.omega < math.inf:
            raise DomainError("omega must be finite and > 0")
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
            mass = tail_mass(self.omega, prof.survival)
            if mass >= MAX_TAIL_MASS:
                raise DomainError(
                    f"survival mass beyond omega={self.omega:g} is {mass:.2e} "
                    f"for {prof.label}; must be < {MAX_TAIL_MASS:g}"
                )


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


def inner_integrals(
    iad: np.ndarray, profile: SexProfile, links: "list[TransmissionParams]", level: int
) -> np.ndarray:
    """``int_0^iad G(x, iad) * ptr(x, iad) dx`` for each age at death under
    each link, shape ``(len(links), iad.size)``, by ``ORDER``-node
    Gauss-Legendre on the level-``level`` panels as fractions of ``iad``.
    Per panel, ``G`` and the linear viral load are computed once on the
    ``iad.size * ORDER`` nodes, then each link adds one cloglog pass.  The
    nodes satisfy 0 <= x <= iad, so the unchecked cores are called."""
    col = iad[:, None]
    out = np.zeros((len(links), iad.size))
    for nodes, weights in zip(*_graded_rule(level, both_ends=True)):
        x = nodes * col
        g = activity_fraction_core(x, col, profile.activity)
        load = linear_load_core(
            log_viral_load_core(x, col, profile.viral, profile.x_plateau)
        )
        for row, link in zip(out, links):
            row += (g * cloglog_core(load, link)) @ weights
    return out * iad


def inner_integral(iad: np.ndarray, profile: SexProfile, level: int) -> np.ndarray:
    """:func:`inner_integrals` under the profile's own link."""
    return inner_integrals(iad, profile, [profile.transmission], level)[0]


def link_integrals(
    profile: SexProfile,
    links: "list[TransmissionParams]",
    omega: float,
    quad: QuadratureSpec | None = None,
) -> list[float]:
    """:func:`sex_integral` of ``profile`` under each link in ``links``, on one
    shared mesh per level: the links differ only in the cloglog pass of
    :func:`inner_integrals`.  Each link keeps its own level sequence and
    convergence test, so each value is bit for bit its one-link integral.
    Raises the :class:`QuadratureFailure` of the first failing link, in link
    order, once every link has run out of levels or converged; its ``link``
    is that link's index.
    """
    quad = quad or QuadratureSpec()
    if not 0 < omega < math.inf:
        raise DomainError("omega must be finite and > 0")
    tau = profile.activity.terminal_lead
    if omega <= tau:
        return [0.0] * len(links)
    values = [None] * len(links)
    prev = [0.0] * len(links)
    err = [math.inf] * len(links)
    for level in range(quad.max_refine + 1):
        todo = [k for k, value in enumerate(values) if value is None]
        if not todo:
            return values
        # the integrand vanishes for y <= tau1: outer panels span [tau1, omega]
        nodes, weights = _graded_rule(level, both_ends=False)
        y = (tau + (omega - tau) * nodes).ravel()
        inner = inner_integrals(y, profile, [links[k] for k in todo], level)
        density = survival_density_core(y, profile.survival)
        for k, row in zip(todo, inner):
            total = (omega - tau) * float(weights.ravel() @ (density * row))
            # the integrand is positive past tau1: a zero total missed the mass or underflowed
            if level and total > 0:
                err[k] = abs(total - prev[k]) / total
                if err[k] <= quad.tol:
                    values[k] = total
            prev[k] = total
    if None not in values:
        return values
    k = values.index(None)
    cause = (
        "the integrand underflows to 0 at every node with" if density.any()
        else "the mesh never reached the"
    )
    reason = (
        f"relative error {err[k]:.2e} above target {quad.tol:g}" if math.isfinite(err[k])
        else f"no level's total was positive: {cause} survival mass below omega {omega:g}"
    )
    raise QuadratureFailure(f"{reason} after {quad.max_refine} graded levels", k)


def sex_integral(
    profile: SexProfile, omega: float, quad: QuadratureSpec | None = None
) -> float:
    """Expected infections per unit delta over one infective life course.

    Integrates ``s(y) * G(x, y) * ptr(x, y)`` over the triangle
    0 <= x <= y <= omega on graded meshes of rising level until two
    consecutive levels agree to ``quad.tol`` relative to the newer total,
    which must be positive; raises :class:`QuadratureFailure` if the budget
    runs out.  The one-link case of :func:`link_integrals`, whose value and
    failure it returns and raises as they are.
    """
    (value,) = link_integrals(profile, [profile.transmission], omega, quad)
    return value


def sex_integrals(
    config: PopulationConfig, quad: QuadratureSpec | None = None
) -> tuple[float, float]:
    """``(I_f, I_m)``: both sexes' :func:`sex_integral` over ``config.omega``,
    the one pair every threshold number comes from."""
    return (
        sex_integral(config.female, config.omega, quad),
        sex_integral(config.male, config.omega, quad),
    )


def sex_brn(delta: float, integral: float) -> float:
    """Sex-specific reproduction number: annual act rate times the integral."""
    if delta < 0:
        raise DomainError("delta must be >= 0")
    return delta * integral


def index_i0(integral_f: float, integral_m: float) -> float:
    """Critical act rate ``(I_f * I_m)**-0.5`` (acts/year).

    Undefined when either integral vanishes (no transmission, no threshold).
    """
    if integral_f <= 0 or integral_m <= 0:
        raise DomainError("both sex integrals must be > 0 for a threshold")
    product = integral_f * integral_m
    if product == 0.0:
        raise DomainError("the product of the sex integrals underflows to 0")
    return product ** -0.5


def composite_r0(r_fm: float, r_mf: float) -> float:
    """Composite reproduction number ``sqrt(r_fm * r_mf)``.

    Dominant eigenvalue of the 2x2 anti-diagonal next-generation matrix;
    transmission takes two generations to return to the same sex.
    """
    if r_fm < 0 or r_mf < 0:
        raise DomainError("reproduction numbers must be >= 0")
    return math.sqrt(r_fm * r_mf)


def evaluate_brn(
    config: PopulationConfig, quad: QuadratureSpec | None = None
) -> BrnResult:
    """Run both sex integrals and assemble the full threshold record, with
    the one verdict: ISA against I0 (R0 against 1 only rounds differently)."""
    integral_f, integral_m = sex_integrals(config, quad)
    delta_f = config.female.activity.annual_acts
    delta_m = config.male.activity.annual_acts
    r_fm = sex_brn(delta_f, integral_f)
    r_mf = sex_brn(delta_m, integral_m)
    i0 = index_i0(integral_f, integral_m)
    r0 = composite_r0(r_fm, r_mf)
    isa = math.sqrt(delta_m * delta_f)
    for name, value in (("R0", r0), ("ISA", isa)):
        if not math.isfinite(value):
            raise DomainError(f"{name} is beyond double range")
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
    is ``factor * peak_prob``; ``scale_endpoints`` scales both anchors,
    ``prob_at_peak`` first, and re-derives the link, whose own peak
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
                        link = TransmissionParams.from_anchors(
                            peak,
                            factor * link.prob_at_plateau,
                            prof.viral.peak_log_vl,
                            prof.viral.plateau_log_vl,
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
    factor, which gives exactly the base I0 over the factor;
    ``scale_endpoints`` rescales the two anchor probabilities and re-derives
    the link, which is only approximately linear.  :func:`scaled_links`
    checks every factor before any integral.  The endpoint sweep then
    integrates each sex once with every factor's link on one shared mesh per
    level (:func:`link_integrals`), female first: a failure is the first
    failing female factor's, else the first failing male factor's, and a
    female failure leaves the male integrals unrun.
    """
    links = scaled_links(config, scale_factors, mode)
    if not scale_factors:
        return []
    if mode == "scale_function":
        i0 = index_i0(*sex_integrals(config, quad))
        return [(factor, i0 / factor) for factor in scale_factors]
    # one shared mesh per level and sex carries every factor's link
    integrals = []
    for prof, sex_links in zip((config.female, config.male), links):
        try:
            integrals.append(link_integrals(prof, sex_links, config.omega, quad))
        except QuadratureFailure as exc:
            factor = scale_factors[exc.link]
            raise QuadratureFailure(f"{_scaled(prof.label, factor)}: {exc}") from exc
    pairs = []
    for factor, f, m in zip(scale_factors, *integrals):
        try:
            pairs.append((factor, index_i0(f, m)))
        except DomainError as exc:
            raise DomainError(f"{_scaled('female and male', factor)}: {exc}") from exc
    return pairs

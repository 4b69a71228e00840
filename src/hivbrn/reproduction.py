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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

# bench/tracing.py wraps activity_fraction, transmission_prob, survival_density here
from .behavior import ActivityParams, activity_fraction, activity_fraction_core
from .errors import DomainError, InconsistentResult, QuadratureFailure
from .natural_history import (
    TransmissionParams,
    ViralLoadParams,
    peak_transmission_prob,
    solve_plateau_point,
    transmission_prob,
    transmission_prob_core,
)
from .survival import SurvivalParams, survival_density, tail_mass

__all__ = [
    "QuadratureSpec",
    "SexProfile",
    "PopulationConfig",
    "BrnResult",
    "Verdict",
    "sex_integral",
    "sex_brn",
    "index_i0",
    "composite_r0",
    "evaluate_brn",
    "threshold_check",
    "hyperbola_locus",
    "sensitivity_sweep",
    "scaled_i0",
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
    agree to relative ``tol``, up to ``max_refine`` levels past the first.
    """

    tol: float = 1e-6
    max_refine: int = 8

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError("quadrature tol must be > 0")
        if type(self.max_refine) is not int:
            raise DomainError("max_refine must be an int")
        if not 0 <= self.max_refine <= MAX_REFINE:
            raise DomainError(f"max_refine must be in [0, {MAX_REFINE}]")


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


def inner_integral(iad: np.ndarray, profile: SexProfile, level: int) -> np.ndarray:
    """``int_0^iad G(x, iad) * ptr(x, iad) dx`` for each age at death, by
    ``ORDER``-node Gauss-Legendre on the level-``level`` panels as fractions
    of ``iad``; one kernel call per panel, of ``iad.size * ORDER`` points.
    The nodes satisfy 0 <= x <= iad, so the unchecked cores are called."""
    col = iad[:, None]
    out = np.zeros_like(iad)
    for nodes, weights in zip(*_graded_rule(level, both_ends=True)):
        x = nodes * col
        g = activity_fraction_core(x, col, profile.activity)
        ptr = transmission_prob_core(
            x, col, profile.viral, profile.transmission, profile.x_plateau
        )
        out += (g * ptr) @ weights
    return out * iad


def sex_integral(
    profile: SexProfile, omega: float, quad: QuadratureSpec | None = None
) -> float:
    """Expected infections per unit delta over one infective life course.

    Integrates ``s(y) * G(x, y) * ptr(x, y)`` over the triangle
    0 <= x <= y <= omega on graded meshes of rising level until two
    consecutive levels agree to ``quad.tol`` relative; raises
    :class:`QuadratureFailure` if the budget runs out.
    """
    quad = quad or QuadratureSpec()
    if not 0 < omega < math.inf:
        raise DomainError("omega must be finite and > 0")
    tau = profile.activity.terminal_lead
    if omega <= tau:
        return 0.0
    prev, err = None, math.inf
    for level in range(quad.max_refine + 1):
        # the integrand vanishes for y <= tau1: outer panels span [tau1, omega]
        nodes, weights = _graded_rule(level, both_ends=False)
        y = (tau + (omega - tau) * nodes).ravel()
        inner = inner_integral(y, profile, level)
        density = survival_density(y, profile.survival)
        total = (omega - tau) * float(weights.ravel() @ (density * inner))
        if prev is not None:
            err = abs(total - prev) / max(abs(total), 1e-300)
            if err <= quad.tol:
                return total
        prev = total
    raise QuadratureFailure(
        f"relative error {err:.2e} above target {quad.tol:g} "
        f"after {quad.max_refine} graded levels"
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


def _verdict(isa: float, i0: float) -> Verdict:
    if abs(isa - i0) <= CRITICAL_BAND * i0:
        return Verdict.CRITICAL
    return Verdict.EPIDEMIC if isa > i0 else Verdict.SUBCRITICAL


def evaluate_brn(
    config: PopulationConfig, quad: QuadratureSpec | None = None
) -> BrnResult:
    """Run both sex integrals and assemble the full threshold record."""
    integral_f = sex_integral(config.female, config.omega, quad)
    integral_m = sex_integral(config.male, config.omega, quad)
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
    result = BrnResult(
        integral_f=integral_f,
        integral_m=integral_m,
        r_fm=r_fm,
        r_mf=r_mf,
        r0=r0,
        i0=i0,
        isa=isa,
        epidemic=_verdict(isa, i0) is Verdict.EPIDEMIC,
    )
    threshold_check(result)
    return result


def threshold_check(result: BrnResult) -> Verdict:
    """Three-way verdict, cross-checked between its two formulations.

    ISA vs I0 and R0 vs 1 must agree (they are algebraically identical);
    a disagreement beyond the criticality band raises
    :class:`InconsistentResult`.
    """
    by_index = _verdict(result.isa, result.i0)
    by_r0 = _verdict(result.r0, 1.0)
    if by_index is not by_r0:
        raise InconsistentResult(
            f"ISA/I0 gives {by_index.value} but R0={result.r0!r} gives "
            f"{by_r0.value}"
        )
    if result.epidemic != (by_index is Verdict.EPIDEMIC):
        raise InconsistentResult("stored epidemic flag contradicts the verdict")
    return by_index


def hyperbola_locus(
    i0: float, delta_m_grid: "list[float] | np.ndarray"
) -> list[tuple[float, float]]:
    """Points (delta_m, i0**2 / delta_m) on the R0 = 1 locus."""
    grid = np.asarray(delta_m_grid, dtype=float)
    if np.any(grid <= 0):
        raise DomainError("delta_m grid values must be > 0")
    i0 = float(i0)
    # in Python floats an overflow gives inf without a RuntimeWarning
    return [(dm, i0 * i0 / dm) for dm in grid.tolist()]


def scaled_i0(
    config: PopulationConfig, i0: float, scale_factors: "list[float]"
) -> list[tuple[float, float]]:
    """I0 with every per-act probability multiplied by each factor: exactly
    ``i0 / factor``, refused where either sex's peak probability reaches 1."""
    for factor in scale_factors:
        if not factor > 0:
            raise DomainError("scale factors must be > 0")
        for prof in (config.female, config.male):
            if factor * prof.peak_prob >= 1.0:
                raise DomainError(
                    f"{prof.label} transmission probability scaled by {factor:g} "
                    f"reaches {factor * prof.peak_prob:.3g} >= 1"
                )
    return [(factor, i0 / factor) for factor in scale_factors]


def sensitivity_sweep(
    config: PopulationConfig,
    scale_factors: "list[float]",
    mode: str = "scale_function",
    quad: QuadratureSpec | None = None,
) -> list[tuple[float, float]]:
    """I0 under rescaled transmission probabilities.

    ``scale_function`` multiplies the per-act probability pointwise by each
    factor, which gives the base I0 over the factor (:func:`scaled_i0`);
    ``scale_endpoints`` rescales the two anchor probabilities and re-derives
    the link, which is only approximately linear.
    """
    if mode == "scale_function":
        i0 = index_i0(
            sex_integral(config.female, config.omega, quad),
            sex_integral(config.male, config.omega, quad),
        )
        return scaled_i0(config, i0, scale_factors)
    if mode != "scale_endpoints":
        raise DomainError(f"unknown sweep mode {mode!r}")
    out = []
    for factor in scale_factors:
        if not factor > 0:
            raise DomainError("scale factors must be > 0")
        integrals = []
        for prof in (config.female, config.male):
            link = prof.transmission
            scaled = TransmissionParams.from_anchors(
                factor * link.prob_at_peak,
                factor * link.prob_at_plateau,
                prof.viral.peak_log_vl,
                prof.viral.plateau_log_vl,
            )
            prof = replace(prof, transmission=scaled)
            integrals.append(sex_integral(prof, config.omega, quad))
        out.append((factor, index_i0(*integrals)))
    return out

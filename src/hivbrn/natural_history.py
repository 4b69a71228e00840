"""Within-host natural history: log viral load and per-act transmission probability.

The log10 viral load over an infective life course follows a "twin peaks"
trajectory: a sharp early peak of height ``peak_log_vl`` reached
``peak_time`` years after infection, a long asymptomatic plateau at
``plateau_log_vl``, and a terminal peak of height ``terminal_log_vl``
centred ``terminal_lead`` years before death.  The trajectory is composed
from three closed-form pieces:

* :func:`early_peak_core` - a gamma-shaped rise/decay, maximal at
  ``peak_time``;
* :func:`age_warp_core` - a monotone map of infective age that saturates at
  the curve's plateau crossing, freezing the early curve at the plateau level;
* :func:`terminal_peak_core` - a Gaussian bump that blends the trajectory
  up to the terminal peak as death approaches.

Per-act transmission probability is a complementary log-log function of the
(linear-scale) viral load, anchored so that it equals ``prob_at_peak`` at
the early peak and ``prob_at_plateau`` on the plateau.  Both records are
built from their scenario keys through ``KEYS``; :class:`TransmissionParams`
keeps its two anchor loads and derives the link's coefficients from them.

The unchecked ``*_core`` kernels compute in place on the one or two arrays
each allocates, with the floating-point operations of their formulas in the
formulas' order, and never write into their inputs.  Each allocates its
first result through ``out=``, so that a 0-d input gives an array the later
steps can write to, not a numpy scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DomainError, check_ranges, checked_call

__all__ = [
    "ViralLoadParams",
    "TransmissionParams",
    "solve_plateau_point",
    "transmission_prob",
    "peak_transmission_prob",
]

LN10 = math.log(10.0)


@dataclass(frozen=True)
class ViralLoadParams:
    """Shape parameters of the log10 viral-load trajectory; ``KEYS`` maps
    each field to its scenario key.

    Attributes
    ----------
    peak_time : float
        Infective age of the first peak, years.
    peak_log_vl : float
        log10 viral load at the first peak.
    plateau_log_vl : float
        log10 viral load during the asymptomatic stage.
    terminal_lead : float
        Time before death at which the terminal peak occurs, years.
    terminal_log_vl : float
        log10 viral load at the terminal peak.
    rise_shape : float
        Shape of the early peak's rise/decay, > 1.
    warp_rate : float
        Rate constant of the age warp.
    terminal_width : float
        Inverse-width parameter of the terminal peak, > 0.
    """

    KEYS: ClassVar[dict] = dict(
        peak_time="ia1", peak_log_vl="M1", plateau_log_vl="m", terminal_lead="tau1",
        terminal_log_vl="M2", rise_shape="alpha1", warp_rate="alpha2", terminal_width="alpha3",
    )

    peak_time: float
    peak_log_vl: float
    plateau_log_vl: float
    terminal_lead: float
    terminal_log_vl: float
    rise_shape: float
    warp_rate: float
    terminal_width: float

    def __post_init__(self):
        check_ranges(self)
        if not self.plateau_log_vl < min(self.peak_log_vl, self.terminal_log_vl):
            raise DomainError("need peak_log_vl (M1) and terminal_log_vl (M2) > plateau_log_vl (m)")


@dataclass(frozen=True)
class TransmissionParams:
    """Complementary log-log link for the per-act transmission probability,
    through ``prob_at_peak`` at ``10**peak_log_vl`` and ``prob_at_plateau``
    at ``10**plateau_log_vl``; ``KEYS`` maps each field to its scenario key.

    ``prob = 1 - exp(-exp(intercept + slope * vl))`` where ``vl`` is the
    linear-scale viral load.  ``intercept`` and ``slope`` are derived from
    the four fields on construction, so ``dataclasses.replace`` re-derives
    them; equal anchors give slope = 0 (flat infectivity).
    """

    KEYS: ClassVar[dict] = dict(
        prob_at_peak="ptr_hi", prob_at_plateau="ptr_lo", peak_log_vl="M1", plateau_log_vl="m",
    )

    prob_at_peak: float
    prob_at_plateau: float
    peak_log_vl: float
    plateau_log_vl: float
    intercept: float = field(init=False, compare=False)
    slope: float = field(init=False, compare=False)

    def __post_init__(self):
        check_ranges(self)
        if not self.prob_at_plateau <= self.prob_at_peak:
            raise DomainError("need prob_at_plateau (ptr_lo) <= prob_at_peak (ptr_hi)")
        vl_hi, vl_lo = 10.0**self.peak_log_vl, 10.0**self.plateau_log_vl
        if not vl_hi > vl_lo:
            raise DomainError("need 10**peak_log_vl (M1) > 10**plateau_log_vl (m)")
        a_hi = np.log(-np.log1p(-self.prob_at_peak))
        a_lo = np.log(-np.log1p(-self.prob_at_plateau))
        slope = (a_hi - a_lo) / (vl_hi - vl_lo)
        object.__setattr__(self, "intercept", float(a_lo - slope * vl_lo))
        object.__setattr__(self, "slope", float(slope))


def early_peak_core(x: np.ndarray, p: ViralLoadParams) -> np.ndarray:
    """Gamma-shaped curve, maximal ``peak_log_vl`` exactly at ``peak_time``, for
    x >= 0: ``peak_log_vl * r**(rise_shape-1) * exp((1-rise_shape)*(r-1))``
    with ``r = x/peak_time``, as one exponential
    ``exp((rise_shape-1) * (log r - r + 1))``, whose exponent is never
    positive, and exactly the limit 0 at x = 0 through ``log 0 = -inf``."""
    r = np.divide(x, p.peak_time, out=np.empty(np.shape(x)))
    with np.errstate(divide="ignore"):
        v = np.log(r, out=np.empty_like(r))
        v -= r
        v += 1.0
        v *= p.rise_shape - 1.0
        np.exp(v, out=v)
        v *= p.peak_log_vl
        return v


def solve_plateau_point(p: ViralLoadParams, level: float | None = None) -> float:
    """Largest x at which :func:`early_peak_core` equals ``level``, by default
    ``plateau_log_vl``; any level in (0, ``peak_log_vl``) has one such root.

    With ``r = x / peak_time`` and ``d = ln(peak_log_vl / level) /
    (rise_shape - 1)``, positive for such a level (at the plateau by the
    checks in :class:`ViralLoadParams`),
    the root right of the peak solves ``r - ln r = 1 + d``,
    i.e. ``x = -peak_time * W_{-1}(-exp(-1 - d))``.  In ``s = r - 1`` this is
    ``s - log1p(s) = d``; from the branch-point series (d < 1) or the
    logarithmic start, three Halley steps reach double precision for d from
    1e-15 to 1e12 (Corless et al., "On the Lambert W function", Adv. Comput.
    Math. 5, 1996).
    """
    level = p.plateau_log_vl if level is None else level
    d = math.log(p.peak_log_vl / level) / (p.rise_shape - 1.0)
    s = math.sqrt(2.0 * d) + 2.0 * d / 3.0 if d < 1.0 else d + math.log1p(d)
    for _ in range(3):
        g = s - math.log1p(s) - d
        g1 = s / (1.0 + s)
        s -= g / (g1 - 0.5 * g / (g1 * (1.0 + s) ** 2))
    return p.peak_time * (1.0 + s)


def age_warp_core(ia: np.ndarray, warp_rate: float, x_plateau: float) -> np.ndarray:
    """Monotone map of infective age ia >= 0 onto [0, x_plateau): zero at
    ia = 0, strictly increasing and saturating at the plateau point, so that
    :func:`early_peak_core` of it has a flat plateau, not decay to zero.

    The rescaled logistic ``x_plateau * (1 + 1/e) * (1/(1 + e*t) - 1/(1 + e))``
    with ``e = exp(warp_rate)`` and ``t = exp(-ia * (1 + e) / x_plateau)``,
    in the one closed form ``x_plateau * (1 - t) / (1 + e*t)``: no difference
    of near-equal terms for a negative warp_rate.  Inside the parameter box
    the rate ``(1 + e) / x_plateau`` is below about 1e25 and ages are at
    most 1e3, so the exponent cannot overflow.  Once ``t`` falls below half
    an ulp the map rounds to ``x_plateau`` itself."""
    e = math.exp(warp_rate)
    t = np.multiply(ia, -((1.0 + e) / x_plateau), out=np.empty(np.shape(ia)))
    np.exp(t, out=t)
    v = np.subtract(1.0, t, out=np.empty_like(t))
    v *= x_plateau
    t *= e
    t += 1.0
    v /= t
    return v


def terminal_peak_core(ia, iad, width: float, lead: float) -> np.ndarray:
    """Gaussian blend weight of inverse width ``width`` (``terminal_width``),
    equal to 1 exactly at ia = iad - lead.  Inside the parameter box the
    exponent is at least -1e10 (width 1e4, at most 1e3 years from the
    peak), so it cannot overflow."""
    d = np.subtract(ia, iad, out=np.empty(np.broadcast_shapes(np.shape(ia), np.shape(iad))))
    d += lead
    np.square(d, out=d)
    d *= -width
    return np.exp(d, out=d)


def log_viral_load_core(ia, iad, p: ViralLoadParams, x_plateau: float) -> np.ndarray:
    """log10 viral load at infective age ``ia`` for a course of length ``iad``,
    unchecked, for 0 <= ia <= iad.

    Blend of the warped early-peak curve toward the terminal level:
    ``base + (terminal_log_vl - base) * terminal_peak_core`` with
    ``base = early_peak_core(age_warp_core(ia))``.  At ia = iad - terminal_lead
    the value is ``terminal_log_vl`` exactly.
    """
    base = early_peak_core(age_warp_core(ia, p.warp_rate, x_plateau), p)
    bump = terminal_peak_core(ia, iad, p.terminal_width, p.terminal_lead)
    bump *= np.subtract(p.terminal_log_vl, base)
    bump += base
    return bump


def transmission_prob(
    ia, iad, viral: ViralLoadParams, link: TransmissionParams, x_plateau: float
):
    """Per-act transmission probability at infective age ``ia``.

    ``1 - exp(-exp(intercept + slope * 10**lvl))`` at the log10 viral load
    ``lvl`` of :func:`log_viral_load_core`; strictly inside (0, 1) and
    non-decreasing in the viral load.
    """
    return checked_call(transmission_prob_core, viral, link, x_plateau, ia=ia, iad=iad)


def transmission_prob_core(
    ia, iad, viral: ViralLoadParams, link: TransmissionParams, x_plateau: float
) -> np.ndarray:
    """Unchecked :func:`transmission_prob` for 0 <= ia <= iad."""
    lvl = log_viral_load_core(ia, iad, viral, x_plateau)
    return cloglog_core(linear_load_core(lvl), link)


def linear_load_core(lvl):
    """Linear viral load ``10**lvl``, taken as ``exp(LN10 * lvl)``, which
    vectorizes where ``pow`` does not."""
    v = np.multiply(LN10, lvl, out=np.empty(np.shape(lvl)))
    return np.exp(v, out=v)


def cloglog_core(load, link: TransmissionParams):
    """Per-act probability ``1 - exp(-exp(intercept + slope * load))`` at
    linear viral load ``load``."""
    v = np.multiply(link.slope, load, out=np.empty(np.shape(load)))
    v += link.intercept
    np.exp(v, out=v)
    np.negative(v, out=v)
    np.expm1(v, out=v)
    return np.negative(v, out=v)


def peak_transmission_prob(
    viral: ViralLoadParams, link: TransmissionParams
) -> float:
    """Supremum of the per-act probability over any life course.

    The log viral load never exceeds max(peak_log_vl, terminal_log_vl) and
    the link is non-decreasing, so the bound is attained there; an
    overflowing link saturates at 1.
    """
    with np.errstate(over="ignore"):
        top = max(viral.peak_log_vl, viral.terminal_log_vl)
        return float(cloglog_core(linear_load_core(top), link))

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
the early peak and ``prob_at_plateau`` on the plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, checked_call

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
    """Shape parameters of the log10 viral-load trajectory.

    Attributes
    ----------
    peak_time : float
        Infective age of the first peak, years (scenario key ``ia1``).
    peak_log_vl : float
        log10 viral load at the first peak (``M1``).
    plateau_log_vl : float
        log10 viral load during the asymptomatic stage (``m``).
    terminal_lead : float
        Time before death at which the terminal peak occurs, years (``tau1``).
    terminal_log_vl : float
        log10 viral load at the terminal peak (``M2``).
    rise_shape : float
        Shape of the early peak's rise/decay, > 1 (``alpha1``).
    warp_rate : float
        Rate constant of the age warp (``alpha2``).
    terminal_width : float
        Inverse-width parameter of the terminal peak, > 0 (``alpha3``).
    """

    peak_time: float
    peak_log_vl: float
    plateau_log_vl: float
    terminal_lead: float
    terminal_log_vl: float
    rise_shape: float
    warp_rate: float
    terminal_width: float

    def __post_init__(self):
        check_finite(self)
        if not self.peak_time > 0:
            raise DomainError("peak_time (ia1) must be > 0")
        if not self.terminal_lead > 0:
            raise DomainError("terminal_lead (tau1) must be > 0")
        if not self.rise_shape > 1:
            raise DomainError("rise_shape (alpha1) must be > 1")
        if not self.terminal_width > 0:
            raise DomainError("terminal_width (alpha3) must be > 0")
        if not (self.peak_log_vl > self.plateau_log_vl > 0):
            raise DomainError("need peak_log_vl (M1) > plateau_log_vl (m) > 0")
        if not self.terminal_log_vl > self.plateau_log_vl:
            raise DomainError("need terminal_log_vl (M2) > plateau_log_vl (m)")
        # the rate at which age_warp_core saturates must be a double
        with np.errstate(over="ignore"):
            rate = (1.0 + np.exp(self.warp_rate)) / solve_plateau_point(self)
        if not rate < math.inf:
            raise DomainError(
                "warp_rate (alpha2) gives an age-warp rate (1 + exp(alpha2)) / "
                "x_plateau beyond double range"
            )


@dataclass(frozen=True)
class TransmissionParams:
    """Complementary log-log link for the per-act transmission probability.

    ``prob = 1 - exp(-exp(intercept + slope * vl))`` where ``vl`` is the
    linear-scale viral load.  ``intercept`` and ``slope`` are derived from
    the two anchor probabilities; use :meth:`from_anchors`.
    """

    prob_at_peak: float
    prob_at_plateau: float
    intercept: float
    slope: float

    def __post_init__(self):
        check_finite(self)
        if not (0 < self.prob_at_plateau <= self.prob_at_peak < 1):
            raise DomainError(
                "need 0 < prob_at_plateau (ptr_lo) <= prob_at_peak (ptr_hi) < 1"
            )
        if self.slope < 0:
            raise DomainError("slope must be >= 0")

    @classmethod
    def from_anchors(
        cls,
        prob_at_peak: float,
        prob_at_plateau: float,
        peak_log_vl: float,
        plateau_log_vl: float,
    ) -> "TransmissionParams":
        """Closed-form link through ``prob_at_peak`` at ``10**peak_log_vl`` and
        ``prob_at_plateau`` at ``10**plateau_log_vl``; equal anchors give
        slope = 0 (flat infectivity)."""
        if not (0 < prob_at_plateau <= prob_at_peak < 1):
            raise DomainError(
                "need 0 < prob_at_plateau (ptr_lo) <= prob_at_peak (ptr_hi) < 1"
            )
        vl_hi, vl_lo = 10.0**peak_log_vl, 10.0**plateau_log_vl
        if not vl_hi > vl_lo:
            raise DomainError("need 10**peak_log_vl (M1) > 10**plateau_log_vl (m)")
        a_hi = np.log(-np.log1p(-prob_at_peak))
        a_lo = np.log(-np.log1p(-prob_at_plateau))
        slope = (a_hi - a_lo) / (vl_hi - vl_lo)
        intercept = a_lo - slope * vl_lo
        return cls(prob_at_peak, prob_at_plateau, float(intercept), float(slope))


def early_peak_core(x: np.ndarray, p: ViralLoadParams) -> np.ndarray:
    """Gamma-shaped curve, maximal ``peak_log_vl`` exactly at ``peak_time``, for
    x >= 0: ``peak_log_vl * r**(rise_shape-1) * exp((1-rise_shape)*(r-1))``
    with ``r = x/peak_time``, as one exponential
    ``exp((rise_shape-1) * (log r - r + 1))``: finite for any rise_shape, and
    exactly the limit 0 at x = 0 through ``log 0 = -inf``."""
    r = x / p.peak_time
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    return p.peak_log_vl * np.exp((p.rise_shape - 1.0) * (log_r - r + 1.0))


def solve_plateau_point(p: ViralLoadParams) -> float:
    """Largest x at which :func:`early_peak_core` equals ``plateau_log_vl``.

    With ``r = x / peak_time`` and ``d = ln(peak_log_vl / plateau_log_vl) /
    (rise_shape - 1)``, positive by the checks in :class:`ViralLoadParams`,
    the root right of the peak solves ``r - ln r = 1 + d``,
    i.e. ``x = -peak_time * W_{-1}(-exp(-1 - d))``.  In ``s = r - 1`` this is
    ``s - log1p(s) = d``; from the branch-point series (d < 1) or the
    logarithmic start, three Halley steps reach double precision for d from
    1e-15 to 1e12 (Corless et al., "On the Lambert W function", Adv. Comput.
    Math. 5, 1996).
    """
    d = math.log(p.peak_log_vl / p.plateau_log_vl) / (p.rise_shape - 1.0)
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
    of near-equal terms for a negative warp_rate, and no overflow for any
    warp_rate whose rate ``(1 + e) / x_plateau`` is finite, which
    :class:`ViralLoadParams` requires.  Once ``t`` falls below half an ulp
    the map rounds to ``x_plateau`` itself."""
    e = math.exp(warp_rate)
    # past the double range the exponent is -inf, and t exactly 0
    with np.errstate(over="ignore"):
        t = np.exp(ia * -((1.0 + e) / x_plateau))
    return x_plateau * (1.0 - t) / (1.0 + e * t)


def terminal_peak_core(ia, iad, width: float, lead: float) -> np.ndarray:
    """Gaussian blend weight of inverse width ``width`` (``terminal_width``),
    equal to 1 exactly at ia = iad - lead; defined for any real ages."""
    return np.exp(-width * (ia - iad + lead) ** 2)


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
    return base + (p.terminal_log_vl - base) * bump


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
    return link_core(log_viral_load_core(ia, iad, viral, x_plateau), link)


def link_core(lvl, link: TransmissionParams):
    """Per-act probability at log10 viral load ``lvl``: :func:`cloglog_core`
    of :func:`linear_load_core`."""
    return cloglog_core(linear_load_core(lvl), link)


def linear_load_core(lvl):
    """Linear viral load ``10**lvl``, taken as ``exp(LN10 * lvl)``, which
    vectorizes where ``pow`` does not."""
    return np.exp(LN10 * lvl)


def cloglog_core(load, link: TransmissionParams):
    """Per-act probability ``1 - exp(-exp(intercept + slope * load))`` at
    linear viral load ``load``."""
    return -np.expm1(-np.exp(link.intercept + link.slope * load))


def peak_transmission_prob(
    viral: ViralLoadParams, link: TransmissionParams
) -> float:
    """Supremum of the per-act probability over any life course.

    The log viral load never exceeds max(peak_log_vl, terminal_log_vl) and
    the link is non-decreasing, so the bound is attained there; an
    overflowing link saturates at 1.
    """
    with np.errstate(over="ignore"):
        return float(link_core(max(viral.peak_log_vl, viral.terminal_log_vl), link))

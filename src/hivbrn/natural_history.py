"""Within-host natural history: log viral load and per-act transmission probability.

The log10 viral load over an infective life course follows a "twin peaks"
trajectory: a sharp early peak of height ``peak_log_vl`` reached
``peak_time`` years after infection, a long asymptomatic plateau at
``plateau_log_vl``, and a terminal peak of height ``terminal_log_vl``
centred ``terminal_lead`` years before death.  The trajectory is composed
from three closed-form pieces:

* :func:`early_peak_curve` - a gamma-shaped rise/decay, maximal at
  ``peak_time``;
* :func:`age_warp` - a monotone map of infective age that saturates at the
  curve's plateau crossing, freezing the early curve at the plateau level;
* :func:`terminal_peak_factor` - a Gaussian bump that blends the trajectory
  up to the terminal peak as death approaches.

Per-act transmission probability is a complementary log-log function of the
(linear-scale) viral load, anchored so that it equals ``prob_at_peak`` at
the early peak and ``prob_at_plateau`` on the plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import checked_life_course
from .errors import DomainError, NoRootError

__all__ = [
    "ViralLoadParams",
    "TransmissionParams",
    "early_peak_curve",
    "solve_plateau_point",
    "age_warp",
    "terminal_peak_factor",
    "log_viral_load",
    "derive_link",
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
        """Build link parameters from the two anchor probabilities."""
        intercept, slope = derive_link(
            prob_at_peak, prob_at_plateau, peak_log_vl, plateau_log_vl
        )
        return cls(prob_at_peak, prob_at_plateau, intercept, slope)


def _nonneg(name, value) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if np.any(out < 0):
        raise DomainError(f"{name} must be >= 0")
    return out


def _scalar_or_array(out, *inputs):
    if all(np.isscalar(v) or isinstance(v, float) for v in inputs):
        return float(out)
    return out


def early_peak_curve(x, p: ViralLoadParams):
    """Gamma-shaped curve with maximum ``peak_log_vl`` exactly at ``peak_time``.

    ``peak_log_vl * (x/peak_time)**(rise_shape-1) * exp((1-rise_shape)*(x/peak_time - 1))``

    The value at x=0 is the continuous limit 0 (rise_shape > 1).  Accepts
    scalars or arrays.
    """
    return _scalar_or_array(early_peak_core(_nonneg("x", x), p), x)


def early_peak_core(x: np.ndarray, p: ViralLoadParams) -> np.ndarray:
    """Unchecked :func:`early_peak_curve` for x >= 0, as one exponential
    ``exp((rise_shape-1) * (log r - r + 1))``: finite for any rise_shape,
    and exactly 0 at x = 0 through ``log 0 = -inf``."""
    r = x / p.peak_time
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    return p.peak_log_vl * np.exp((p.rise_shape - 1.0) * (log_r - r + 1.0))


def solve_plateau_point(p: ViralLoadParams) -> float:
    """Largest x at which :func:`early_peak_curve` equals ``plateau_log_vl``.

    With ``r = x / peak_time`` and ``d = ln(peak_log_vl / plateau_log_vl) /
    (rise_shape - 1)`` the root right of the peak solves ``r - ln r = 1 + d``,
    i.e. ``x = -peak_time * W_{-1}(-exp(-1 - d))``.  In ``s = r - 1`` this is
    ``s - log1p(s) = d``; from the branch-point series (d < 1) or the
    logarithmic start, three Halley steps reach double precision for d from
    1e-15 to 1e12 (Corless et al., "On the Lambert W function", Adv. Comput.
    Math. 5, 1996).
    """
    if not p.plateau_log_vl < p.peak_log_vl:
        raise NoRootError("plateau_log_vl must lie below peak_log_vl")
    d = math.log(p.peak_log_vl / p.plateau_log_vl) / (p.rise_shape - 1.0)
    s = math.sqrt(2.0 * d) + 2.0 * d / 3.0 if d < 1.0 else d + math.log1p(d)
    for _ in range(3):
        g = s - math.log1p(s) - d
        g1 = s / (1.0 + s)
        s -= g / (g1 - 0.5 * g / (g1 * (1.0 + s) ** 2))
    return p.peak_time * (1.0 + s)


def age_warp(ia, warp_rate: float, x_plateau: float):
    """Monotone map of infective age onto [0, x_plateau).

    Zero at ia=0, strictly increasing, saturating at the plateau point; used
    as the argument of :func:`early_peak_curve` so the early peak is followed
    by a flat plateau rather than decay to zero.
    """
    return _scalar_or_array(age_warp_core(_nonneg("ia", ia), warp_rate, x_plateau), ia)


def age_warp_core(ia: np.ndarray, warp_rate: float, x_plateau: float) -> np.ndarray:
    """Unchecked :func:`age_warp` for ia >= 0."""
    e = np.exp(warp_rate)
    gain = x_plateau * (1.0 + np.exp(-warp_rate))
    logistic = 1.0 / (1.0 + np.exp(warp_rate - ia * (1.0 + e) / x_plateau))
    return gain * (logistic - 1.0 / (1.0 + e))


def terminal_peak_factor(ia, iad, terminal_width: float, terminal_lead: float):
    """Gaussian blend weight, equal to 1 exactly at ia = iad - terminal_lead."""
    ia_a = np.asarray(ia, dtype=float)
    iad_a = np.asarray(iad, dtype=float)
    out = np.exp(-terminal_width * (ia_a - iad_a + terminal_lead) ** 2)
    return _scalar_or_array(out, ia, iad)


def log_viral_load(ia, iad, p: ViralLoadParams, x_plateau: float):
    """log10 viral load at infective age ``ia`` for a course of length ``iad``.

    Blend of the warped early-peak curve toward the terminal level:
    ``base + (terminal_log_vl - base) * terminal_peak_factor`` with
    ``base = early_peak_curve(age_warp(ia))``.  At ia = iad - terminal_lead
    the value is ``terminal_log_vl`` exactly.
    """
    out = log_viral_load_core(*checked_life_course(ia, iad), p, x_plateau)
    return _scalar_or_array(out, ia, iad)


def log_viral_load_core(ia, iad, p: ViralLoadParams, x_plateau: float) -> np.ndarray:
    """Unchecked :func:`log_viral_load` for 0 <= ia <= iad."""
    base = early_peak_core(age_warp_core(ia, p.warp_rate, x_plateau), p)
    bump = terminal_peak_factor(ia, iad, p.terminal_width, p.terminal_lead)
    return base + (p.terminal_log_vl - base) * bump


def derive_link(
    prob_at_peak: float,
    prob_at_plateau: float,
    peak_log_vl: float,
    plateau_log_vl: float,
) -> tuple[float, float]:
    """Closed-form (intercept, slope) of the complementary log-log link.

    Solves the two-anchor system
    ``prob_at_peak  = 1 - exp(-exp(intercept + slope * 10**peak_log_vl))``,
    ``prob_at_plateau = 1 - exp(-exp(intercept + slope * 10**plateau_log_vl))``.
    Equal anchors give slope = 0 (flat infectivity).
    """
    if not (0 < prob_at_plateau <= prob_at_peak < 1):
        raise DomainError(
            "need 0 < prob_at_plateau (ptr_lo) <= prob_at_peak (ptr_hi) < 1"
        )
    if not peak_log_vl > plateau_log_vl:
        raise DomainError("need peak_log_vl (M1) > plateau_log_vl (m)")
    a_hi = np.log(-np.log1p(-prob_at_peak))
    a_lo = np.log(-np.log1p(-prob_at_plateau))
    slope = (a_hi - a_lo) / (10.0**peak_log_vl - 10.0**plateau_log_vl)
    intercept = a_lo - slope * 10.0**plateau_log_vl
    return float(intercept), float(slope)


def transmission_prob(
    ia, iad, viral: ViralLoadParams, link: TransmissionParams, x_plateau: float
):
    """Per-act transmission probability at infective age ``ia``.

    ``1 - exp(-exp(intercept + slope * 10**log_viral_load(ia, iad)))``;
    strictly inside (0, 1) and non-decreasing in the viral load.
    """
    ia_a, iad_a = checked_life_course(ia, iad)
    out = transmission_prob_core(ia_a, iad_a, viral, link, x_plateau)
    return _scalar_or_array(out, ia, iad)


def transmission_prob_core(
    ia, iad, viral: ViralLoadParams, link: TransmissionParams, x_plateau: float
) -> np.ndarray:
    """Unchecked :func:`transmission_prob` for 0 <= ia <= iad."""
    return link_core(log_viral_load_core(ia, iad, viral, x_plateau), link)


def link_core(lvl, link: TransmissionParams):
    """Per-act probability at log10 viral load ``lvl``; ``10**lvl`` is taken
    as ``exp(LN10 * lvl)``, which vectorizes where ``pow`` does not."""
    return -np.expm1(-np.exp(link.intercept + link.slope * np.exp(LN10 * lvl)))


def peak_transmission_prob(
    viral: ViralLoadParams, link: TransmissionParams
) -> float:
    """Supremum of the per-act probability over any life course.

    The log viral load never exceeds max(peak_log_vl, terminal_log_vl) and
    the link is non-decreasing, so the bound is attained there.
    """
    return float(link_core(max(viral.peak_log_vl, viral.terminal_log_vl), link))

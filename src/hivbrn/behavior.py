"""Sexual-activity decline over the infection course.

Activity starts at the uninfected rate ``annual_acts`` (acts/year, all with
different partners), declines smoothly to the fraction ``residual_fraction``
of baseline at the terminal viral-load peak (``terminal_lead`` years before
death), and reaches zero at death.  Courses no longer than ``terminal_lead``
carry no activity at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, checked_call

__all__ = ["ActivityParams", "activity_fraction"]


@dataclass(frozen=True)
class ActivityParams:
    """Contact-rate parameters for one sex.

    ``annual_acts`` is the scenario key ``delta``, ``residual_fraction`` is
    ``phi`` and ``terminal_lead`` is ``tau1`` (shared with the viral-load
    trajectory).
    """

    annual_acts: float
    residual_fraction: float
    terminal_lead: float

    def __post_init__(self):
        check_finite(self)
        if self.annual_acts < 0:
            raise DomainError("annual_acts (delta) must be >= 0")
        if not 0 < self.residual_fraction < 1:
            raise DomainError("residual_fraction (phi) must be in (0, 1)")
        if not self.terminal_lead > 0:
            raise DomainError("terminal_lead (tau1) must be > 0")


def activity_fraction(ia, iad, p: ActivityParams):
    """Fraction of baseline activity remaining at infective age ``ia``.

    For iad > terminal_lead this is the ratio

        A / (A + B),  A = phi*(iad - ia)*(iad - tau1),  B = (1 - phi)*tau1*ia

    (the rational form ``(1 - ia/iad) / (1 + ia*(tau1 - phi*iad) /
    (iad*phi*(iad - tau1)))`` with numerator and denominator multiplied by
    ``phi*iad*(iad - tau1)``), which equals 1 at ia=0, ``residual_fraction``
    at ia = iad - tau1 and 0 at ia = iad; for iad <= terminal_lead it is
    identically 0.  Both terms are >= 0 on 0 <= ia <= iad, so no digits
    cancel and the value lies in [0, 1].  Accepts scalars or broadcastable
    arrays.
    """
    return checked_call(activity_fraction_core, p, ia=ia, iad=iad)


def activity_fraction_core(ia: np.ndarray, iad: np.ndarray, p: ActivityParams):
    """Unchecked :func:`activity_fraction` for 0 <= ia <= iad; divides only
    on live courses, iad > terminal_lead."""
    tau, phi = p.terminal_lead, p.residual_fraction
    e = -np.frexp(np.maximum(iad, tau))[1]
    if min(phi, tau) >= 1e-100:  # every product G can show stays normal (README)
        a = phi * (iad - ia) * np.ldexp(iad - tau, e)
        b = (1.0 - phi) * tau * np.ldexp(ia, e)
    else:  # split the factors by frexp so that none underflows (README)
        (mp, mq, mt), (kp, kq, kt) = np.frexp([phi, 1.0 - phi, tau])
        mw, kw = np.frexp(iad - tau)
        d = np.maximum(kw + (kp - kq - kt), -1126)  # no live course has less
        s = np.minimum(np.maximum(d, -960), 0)
        a = mp * np.ldexp(iad - ia, e) * np.ldexp(mw, s)
        b = mq * mt * np.ldexp(ia, e + np.maximum(s - d, -960))
    return np.divide(a, a + b, out=np.zeros(np.shape(a)), where=iad > tau)

"""Sexual-activity decline over the infection course.

Activity starts at the uninfected rate ``annual_acts`` (acts/year, all with
different partners), declines smoothly to the fraction ``residual_fraction``
of baseline at the terminal viral-load peak (``terminal_lead`` years before
death), and reaches zero at death.  Courses no longer than ``terminal_lead``
carry no activity at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import check_ranges, checked_call

__all__ = ["ActivityParams", "activity_fraction"]


@dataclass(frozen=True)
class ActivityParams:
    """Contact-rate parameters for one sex; ``KEYS`` maps each field to its
    scenario key (``terminal_lead`` is shared with the viral-load
    trajectory).
    """

    KEYS: ClassVar[dict] = dict(annual_acts="delta", residual_fraction="phi", terminal_lead="tau1")

    annual_acts: float
    residual_fraction: float
    terminal_lead: float

    def __post_init__(self):
        check_ranges(self)


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
    on live courses, iad > terminal_lead.  There, inside the parameter
    box, ``A`` is 0 or between about 1e-44 and 1e6 and ``B`` at most 1e6:
    neither overflows, and a ``B`` that underflows is negligible beside
    ``A``."""
    tau, phi = p.terminal_lead, p.residual_fraction
    a = phi * (iad - ia) * (iad - tau)
    b = (1.0 - phi) * tau * ia
    return np.divide(a, a + b, out=np.zeros(np.shape(a)), where=iad > tau)

"""Weibull distribution of the infective age at death.

Parameterized by its median ``me`` and shape ``beta``; the scale is then
``alpha = me * ln(2)**(-1/beta)``, which places exactly half the mass below
the median.  Density, tail mass and quantile are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, check_finite, checked_call

__all__ = ["SurvivalParams", "survival_density", "tail_mass"]


@dataclass(frozen=True)
class SurvivalParams:
    """Median (years) and shape of the infective-age-at-death distribution.

    ``shape`` is the scenario key ``beta``.
    """

    median: float
    shape: float

    def __post_init__(self):
        check_finite(self)
        if not self.median > 0:
            raise DomainError("median must be > 0")
        if not self.shape > 0:
            raise DomainError("shape (beta) must be > 0")

    @cached_property
    def scale(self) -> float:
        """Weibull scale ``median * ln(2)**(-1/shape)``; a tiny shape raises
        OverflowError."""
        return self.median * math.log(2.0) ** (-1.0 / self.shape)


def survival_density(x, p: SurvivalParams):
    """Weibull density ``b/a * (x/a)**(b-1) * exp(-(x/a)**b)`` at x >= 0."""
    return checked_call(survival_density_core, p, x=x)


def survival_density_core(x, p: SurvivalParams):
    """Unchecked :func:`survival_density` for x >= 0.  Past ``x = a``,
    ``z**(b-1)`` with ``z = x/a`` is below ``z**b``, which a valid horizon
    keeps finite, so a steep shape cannot overflow beside an ``exp`` that
    underflows to 0."""
    a, b = p.scale, p.shape
    z = x / a
    return b / a * (z ** (b - 1.0) * np.exp(-(z**b)))


def survival_quantile_core(u, p: SurvivalParams):
    """Inverse CDF ``a * (-ln(1-u))**(1/b)`` for u in [0, 1), unchecked;
    u = 0 gives 0."""
    return p.scale * (-np.log1p(-u)) ** (1.0 / p.shape)


def tail_mass(horizon: float, p: SurvivalParams) -> float:
    """Probability of dying later than ``horizon`` years after infection."""
    if horizon < 0:
        raise DomainError("horizon must be >= 0")
    return float(np.exp(-((horizon / p.scale) ** p.shape)))

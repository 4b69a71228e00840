"""Exception types shared across the package, the one table of parameter
ranges, and the parameter and kernel domain checks."""

import numpy as np

__all__ = ["DomainError", "QuadratureFailure", "ScenarioError"]


class DomainError(ValueError):
    """An argument or parameter lies outside a function's domain."""


class QuadratureFailure(RuntimeError):
    """The quadrature error target was not met at maximum refinement."""


class ScenarioError(ValueError):
    """A scenario file or command-line option is invalid.

    ``line`` is the 1-based line number in the scenario file when the
    problem can be pinned to one, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# each scenario key's range from its meaning, as (low, high, brackets): years,
# acts per year (delta), fractions, log10 viral loads (M1 / m stays below 1e4)
# and shapes; the public kernels' ages run from infection to the longest horizon
YEARS, LOG10_LOAD, FRACTION = (1e-3, 1e3, "[]"), (1e-3, 10.0, "[]"), (0.0, 1.0, "()")
RANGES = dict(
    ia1=YEARS, tau1=YEARS, median=YEARS, omega=YEARS, age=(0.0, YEARS[1], "[]"),
    delta=(0.0, 1e4, "[]"), phi=(1e-6, 1.0, "[)"),
    M1=LOG10_LOAD, m=LOG10_LOAD, M2=LOG10_LOAD, ptr_hi=FRACTION, ptr_lo=FRACTION,
    alpha1=(1.0, 1e3, "(]"), alpha2=(-50.0, 50.0, "[]"),
    alpha3=(0.0, 1e4, "(]"), beta=(0.1, 1e3, "[]"),
)


def check_range(value, key: str, name: str | None = None) -> None:
    """DomainError unless every element of ``value`` lies in ``RANGES[key]``;
    the message names ``name`` with its scenario key, and the range."""
    low, high, brackets = RANGES[key]
    above = value > low if brackets[0] == "(" else value >= low
    below = value < high if brackets[1] == ")" else value <= high
    inside = above & below
    # a float's or an int's comparisons give a bool, which np.all would only wrap
    scalar = isinstance(value, (float, int)) and not isinstance(value, bool)
    if not (inside if scalar else np.all(inside)):
        label = key if name in (None, key) else f"{name} ({key})"
        raise DomainError(f"{label} must be in {brackets[0]}{low:g}, {high:g}{brackets[1]}")


def check_ranges(params) -> None:
    """:func:`check_range` of each field of a parameter record under the
    scenario key its class's ``KEYS`` maps it to, in field order."""
    for name, key in params.KEYS.items():
        check_range(getattr(params, name), key, name)


def checked_call(core, *params, **arrays):
    """``core(*arrays, *params)`` for keyword arrays converted to float; a
    DomainError names an array outside the ages in ``RANGES``, or an ``ia``
    above its ``iad``.  Returns a float when every array argument is a
    scalar."""
    checked = {}
    for name, value in arrays.items():
        checked[name] = np.asarray(value, dtype=float)
        check_range(checked[name], "age", name)
    if "iad" in checked and np.any(checked["ia"] > checked["iad"]):
        raise DomainError("ia must not exceed iad")
    out = core(*checked.values(), *params)
    return float(out) if all(np.isscalar(v) for v in arrays.values()) else out

"""Exception types shared across the package, and the parameter and kernel
domain checks."""

import dataclasses
import math

import numpy as np

__all__ = ["DomainError", "QuadratureFailure", "ScenarioError"]


class DomainError(ValueError):
    """An argument or parameter lies outside a function's domain."""


class QuadratureFailure(RuntimeError):
    """The quadrature error target was not met at maximum refinement.

    ``link`` is the 0-based index of the failing link when the integral ran
    under several transmission links, else None.
    """

    def __init__(self, message: str, link: int | None = None):
        self.link = link
        super().__init__(message)


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


def checked_call(core, *params, **arrays):
    """``core(*arrays, *params)`` for keyword arrays converted to float; a
    DomainError names an array below 0, or an ``ia`` above its ``iad``.
    Returns a float when every array argument is a scalar."""
    checked = {}
    for name, value in arrays.items():
        checked[name] = np.asarray(value, dtype=float)
        if np.any(checked[name] < 0):
            raise DomainError(f"{name} must be >= 0")
    if "iad" in checked and np.any(checked["ia"] > checked["iad"]):
        raise DomainError("ia must not exceed iad")
    out = core(*checked.values(), *params)
    return float(out) if all(np.isscalar(v) for v in arrays.values()) else out


def check_finite(params) -> None:
    """DomainError naming the first field of a parameter dataclass that is
    not a finite number."""
    for field in dataclasses.fields(params):
        if not math.isfinite(getattr(params, field.name)):
            raise DomainError(f"{field.name} must be finite")

"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument or parameter lies outside a function's domain."""


class QuadratureFailure(RuntimeError):
    """The quadrature error target was not met at maximum refinement."""


class InconsistentResult(RuntimeError):
    """Two redundant formulations of the same quantity disagree."""


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

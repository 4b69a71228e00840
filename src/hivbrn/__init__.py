"""Two-sex basic reproduction number toolkit for heterosexual HIV transmission.

Closed-form models of the log viral-load trajectory, per-act transmission
probability, activity decline and Weibull survival are integrated over the
infective life course to answer the epidemic-threshold question, with an
independent Monte Carlo branching simulation validating the quadrature.
"""

from . import behavior, errors, mc_oracle, natural_history, reproduction, scenario, survival
from .behavior import *  # noqa: F403
from .errors import *  # noqa: F403
from .mc_oracle import *  # noqa: F403
from .natural_history import *  # noqa: F403
from .reproduction import *  # noqa: F403
from .scenario import *  # noqa: F403
from .survival import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"]
__all__ += behavior.__all__
__all__ += errors.__all__
__all__ += mc_oracle.__all__
__all__ += natural_history.__all__
__all__ += reproduction.__all__
__all__ += scenario.__all__
__all__ += survival.__all__

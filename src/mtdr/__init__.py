"""Distribution-on-distribution regression with transported Frechet means.

Responses and predictors are probability measures on a common compact
interval, represented by quantile grids.  The regression operator transports
each predictor (and a fixed reference) by a monotone map and mixes the
results with simplex weights; fitting alternates majorize-minimize isotonic
map steps with simplex-constrained least squares.

Each module's __all__ lists its public names, and the package re-exports
them; mtdr.cli is the command-line module, with entry points cli and main.
"""

from .quantile_core import *  # noqa: F401,F403
from .monotone_map import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .fitting import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403
from . import cli, fitting, monotone_map, quantile_core, simulation, solvers

__version__ = "0.1.0"

__all__ = [
    *quantile_core.__all__, *monotone_map.__all__, *solvers.__all__,
    *fitting.__all__, *simulation.__all__, *cli.__all__, "__version__",
]  # fmt: skip

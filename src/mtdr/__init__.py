"""Distribution-on-distribution regression with transported Frechet means.

Responses and predictors are probability measures on a common compact
interval, represented by quantile grids.  The regression operator transports
each predictor (and a fixed reference) by a monotone map and mixes the
results with simplex weights; fitting alternates majorize-minimize isotonic
map steps with simplex-constrained least squares.
"""

from .quantile_core import (
    Domain,
    ProbGrid,
    QuantileGrid,
    frechet_mean,
    quantile_from_samples,
    wasserstein_distance,
)
from .monotone_map import (
    MonotoneMap,
    NodeGrid,
    map_eval,
    map_l2_distance,
    pushforward,
)
from .solvers import (
    IsotonicProblem,
    SimplexLSProblem,
    SimplexWeights,
    simplex_least_squares,
    simplex_project,
    weighted_isotonic,
)
from .fitting import (
    DataSet,
    FitConfig,
    FitReport,
    MtdrModel,
    Subject,
    empirical_risk,
    fit,
    loss,
    map_update_problem,
    predict,
    predictive_seminorm,
)
from .simulation import (
    GeneratedData,
    NoiseSpec,
    RepResult,
    ScenarioSpec,
    StudySummary,
    awd,
    generate_dataset,
    mortality_like_samples,
    multi_predictor_scenario,
    rmse,
    run_replications,
    sine_warp,
    single_predictor_scenario,
)
from .cli import (
    IngestResult,
    cli,
    ingest,
    load_model,
    loocv,
    save_model,
    write_long_csv,
    write_study,
)

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "ProbGrid",
    "QuantileGrid",
    "quantile_from_samples",
    "wasserstein_distance",
    "frechet_mean",
    "NodeGrid",
    "MonotoneMap",
    "map_eval",
    "map_l2_distance",
    "pushforward",
    "IsotonicProblem",
    "SimplexLSProblem",
    "SimplexWeights",
    "weighted_isotonic",
    "simplex_project",
    "simplex_least_squares",
    "Subject",
    "DataSet",
    "FitConfig",
    "FitReport",
    "MtdrModel",
    "predict",
    "loss",
    "empirical_risk",
    "map_update_problem",
    "fit",
    "predictive_seminorm",
    "NoiseSpec",
    "ScenarioSpec",
    "GeneratedData",
    "RepResult",
    "StudySummary",
    "sine_warp",
    "generate_dataset",
    "run_replications",
    "rmse",
    "awd",
    "single_predictor_scenario",
    "multi_predictor_scenario",
    "mortality_like_samples",
    "IngestResult",
    "ingest",
    "write_long_csv",
    "save_model",
    "load_model",
    "write_study",
    "loocv",
    "cli",
    "__version__",
]

"""Monte Carlo studies for the distributional regression fit.

Synthetic data follow the generative model: predictor measures are Beta laws
with subject-specific parameters, the reference is uniform, the true maps
are sinusoidal warps of the unit interval, and responses are the model
output distorted by a random warp whose order has a symmetric law (so the
distortion is unbiased).  Observations are finite samples drawn from every
measure, turned back into quantile grids by the empirical estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

from .fitting import (
    DataSet,
    FitConfig,
    MtdrModel,
    Subject,
    fit,
    predict,
    predictive_seminorm,
)
from .monotone_map import MonotoneMap, NodeGrid, map_l2_distance
from .quantile_core import (
    Domain,
    ProbGrid,
    QuantileGrid,
    _guard_monotone,
    quantile_from_samples,
    wasserstein_distance,
)
from .solvers import SimplexWeights

__all__ = [
    "NoiseSpec",
    "ScenarioSpec",
    "GeneratedData",
    "RepResult",
    "StudySummary",
    "sine_warp",
    "sample_beta",
    "generate_dataset",
    "run_replications",
    "rmse",
    "awd",
    "single_predictor_scenario",
    "multi_predictor_scenario",
    "mortality_like_samples",
]


def sine_warp(order: int, x):
    """Endpoint-fixed monotone warp of [0, 1].

    Order 0 is the identity; otherwise x - sin(pi k x) / (|k| pi), which is
    nondecreasing with derivative 1 - cos(pi k x) sign-adjusted, fixes 0 and
    1, and deviates from the identity by at most 1 / (|k| pi).
    """
    k = int(order)
    if k != order:
        raise ValueError("warp order must be an integer")
    arr = np.asarray(x, dtype=float)
    if arr.size and (arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9):
        raise ValueError("warp argument outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    if k == 0:
        out = arr.copy()
    else:
        out = arr - np.sin(np.pi * k * arr) / (abs(k) * np.pi)
        out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class NoiseSpec:
    """Law of the random response warp order.

    The order is drawn uniformly from orders, a set symmetric about zero;
    include_zero adds the identity warp to the support.  An empty orders
    tuple with include_zero=True turns the distortion off.
    """

    orders: tuple = (-3, -2, -1, 1, 2, 3)
    include_zero: bool = False

    def __post_init__(self):
        orders = tuple(int(k) for k in self.orders)
        object.__setattr__(self, "orders", orders)
        if len(set(orders)) != len(orders):
            raise ValueError("warp orders must be distinct")
        if 0 in orders:
            raise ValueError("use include_zero for the identity warp")
        if set(orders) != {-k for k in orders}:
            raise ValueError("warp orders must be symmetric about zero")
        if not orders and not self.include_zero:
            raise ValueError("noise support must be nonempty")

    @property
    def support(self) -> tuple:
        extra = (0,) if self.include_zero else ()
        return tuple(sorted(self.orders + extra))

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        sup = np.asarray(self.support, dtype=int)
        return sup[rng.integers(0, sup.size, size)]

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(orders=(), include_zero=True)


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one Monte Carlo configuration.

    weights and warp_orders describe the true operator (entry j = 0 belongs
    to the uniform reference); beta_ranges[j] = ((a_lo, a_hi), (b_lo, b_hi))
    gives the uniform law of the j-th predictor's Beta parameters.
    """

    p: int
    weights: SimplexWeights
    warp_orders: tuple
    beta_ranges: tuple
    n: int
    m: int
    reps: int
    seed: int
    test_fraction: float = 0.3
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        object.__setattr__(self, "warp_orders", tuple(int(k) for k in self.warp_orders))
        object.__setattr__(
            self,
            "beta_ranges",
            tuple(
                ((float(a[0]), float(a[1])), (float(b[0]), float(b[1])))
                for a, b in self.beta_ranges
            ),
        )
        if self.p < 1:
            raise ValueError("at least one predictor required")
        if self.weights.size != self.p + 1:
            raise ValueError("weights must have length p + 1")
        if len(self.warp_orders) != self.p + 1:
            raise ValueError("one warp order per map required")
        if len(self.beta_ranges) != self.p:
            raise ValueError("one beta range per predictor required")
        for (a_lo, a_hi), (b_lo, b_hi) in self.beta_ranges:
            if not (0.0 < a_lo <= a_hi and 0.0 < b_lo <= b_hi):
                raise ValueError("beta parameter ranges must be positive")
        if self.n < 1 or self.m < 1 or self.reps < 1:
            raise ValueError("n, m and reps must be at least 1")
        if not 0.0 <= self.test_fraction <= 1.0:
            raise ValueError("test fraction must lie in [0, 1]")

    @property
    def n_test(self) -> int:
        return int(math.ceil(round(self.test_fraction * self.n, 12)))


def single_predictor_scenario(
    alpha1: float,
    n: int = 200,
    m: int = 200,
    reps: int = 30,
    seed: int = 0,
    noise: NoiseSpec | None = None,
    test_fraction: float = 0.3,
) -> ScenarioSpec:
    """One Beta predictor with parameters uniform on [1, 5].

    The default response distortion draws the warp order from {-3, 3},
    giving a root mean squared transport deviation of 1 / (3 pi sqrt(2)),
    about 0.075, which matches the reference error levels of the study.
    """
    return ScenarioSpec(
        p=1,
        weights=SimplexWeights.of([1.0 - alpha1, alpha1]),
        warp_orders=(4, 3),
        beta_ranges=(((1.0, 5.0), (1.0, 5.0)),),
        n=n,
        m=m,
        reps=reps,
        seed=seed,
        test_fraction=test_fraction,
        noise=noise if noise is not None else NoiseSpec(orders=(-3, 3)),
    )


def multi_predictor_scenario(
    weights=(0.3, 0.35, 0.35),
    n: int = 200,
    m: int = 200,
    reps: int = 30,
    seed: int = 0,
    noise: NoiseSpec | None = None,
    test_fraction: float = 0.3,
) -> ScenarioSpec:
    """Two Beta predictors, parameters uniform on [1, 5] and [2, 6].

    As in the single-predictor factory, the default distortion draws the
    response warp order from {-3, 3}.
    """
    return ScenarioSpec(
        p=2,
        weights=SimplexWeights.of(weights),
        warp_orders=(4, 3, -5),
        beta_ranges=(
            ((1.0, 5.0), (1.0, 5.0)),
            ((2.0, 6.0), (2.0, 6.0)),
        ),
        n=n,
        m=m,
        reps=reps,
        seed=seed,
        test_fraction=test_fraction,
        noise=noise if noise is not None else NoiseSpec(orders=(-3, 3)),
    )


def sample_beta(a: float, b: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m Beta(a, b) variates as a ratio of gamma variates.

    The generator's gamma sampler uses rejection for shape >= 1 and the
    boosted-uniform-power reduction below 1, so any positive shapes work.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("beta parameters must be positive")
    if m < 1:
        raise ValueError("sample size must be at least 1")
    ga = rng.standard_gamma(a, m)
    gb = rng.standard_gamma(b, m)
    return ga / (ga + gb)


@dataclass(frozen=True)
class SampleArrays:
    """Raw samples behind a generated dataset, one row per subject."""

    predictors: np.ndarray  # (n, p, m)
    responses: np.ndarray  # (n, m)


@dataclass(frozen=True)
class GeneratedData:
    """One simulated replication.

    train and test hold observed (sampled) quantile grids; test_exact holds
    the underlying exact test grids; truth is the generating operator on
    the same grids.  samples carries the raw draws when requested.
    """

    train: DataSet
    test: DataSet | None
    truth: MtdrModel
    test_exact: DataSet | None
    samples: SampleArrays | None = None


def _warp_rows(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a per-row warp order to the rows of x."""
    out = np.empty_like(x)
    for k in np.unique(ks):
        rows = ks == k
        out[rows] = sine_warp(int(k), x[rows])
    return out


def _dataset(pred_q, resp_q, domain, grid, with_responses=True) -> DataSet:
    """Assemble a DataSet from stacked quantile arrays pred_q[j] (n, t)."""
    n = pred_q[0].shape[0]
    subjects = []
    for i in range(n):
        preds = tuple(
            QuantileGrid(domain, grid, _guard_monotone(q[i], domain)) for q in pred_q
        )
        resp = (
            QuantileGrid(domain, grid, _guard_monotone(resp_q[i], domain))
            if with_responses
            else None
        )
        subjects.append(Subject(preds, resp))
    return DataSet(tuple(subjects))


def generate_dataset(
    spec: ScenarioSpec,
    rng: np.random.Generator,
    t: int = 1000,
    exact: bool = False,
    keep_samples: bool = False,
) -> GeneratedData:
    """Simulate one replication of a scenario.

    Draw order is fixed: Beta parameters per predictor, warp orders, then
    (unless exact) predictor and response uniforms, so outputs are a pure
    function of the generator state.  With exact=True the observed grids
    are the exact quantile grids and no sampling occurs; otherwise exact
    grids are computed for the test rows only.
    """
    domain = Domain.unit()
    grid = ProbGrid.midpoint(t)
    node_grid = NodeGrid.uniform(domain, t)
    n_total = spec.n + spec.n_test
    alpha = spec.weights.values
    p = spec.p

    a_par = np.empty((p, n_total))
    b_par = np.empty((p, n_total))
    for j in range(p):
        (a_lo, a_hi), (b_lo, b_hi) = spec.beta_ranges[j]
        a_par[j] = rng.uniform(a_lo, a_hi, n_total)
        b_par[j] = rng.uniform(b_lo, b_hi, n_total)
    ks = spec.noise.draw(rng, n_total)

    levels = grid.levels
    first = 0 if exact else spec.n  # first row that needs exact grids
    rows = slice(first, n_total)
    pred_true = [
        betaincinv(a_par[j][rows, None], b_par[j][rows, None], levels[None, :])
        for j in range(p)
    ]
    comp = alpha[0] * np.broadcast_to(
        sine_warp(spec.warp_orders[0], levels), (n_total - first, t)
    ).copy()
    for j in range(p):
        comp += alpha[j + 1] * sine_warp(spec.warp_orders[j + 1], pred_true[j])
    resp_true = _warp_rows(ks[rows], comp)

    if exact:
        pred_obs, resp_obs, samples = pred_true, resp_true, None
    else:
        u = rng.random((n_total, p, spec.m))
        v = rng.random((n_total, spec.m))
        pred_samples = np.empty((n_total, p, spec.m))
        comp_v = alpha[0] * sine_warp(spec.warp_orders[0], v)
        for j in range(p):
            pred_samples[:, j, :] = betaincinv(
                a_par[j][:, None], b_par[j][:, None], u[:, j, :]
            )
            inner = betaincinv(a_par[j][:, None], b_par[j][:, None], v)
            comp_v += alpha[j + 1] * sine_warp(spec.warp_orders[j + 1], inner)
        resp_samples = _warp_rows(ks, comp_v)
        pred_obs = [
            np.quantile(pred_samples[:, j, :], levels, axis=1, method="linear").T
            for j in range(p)
        ]
        resp_obs = np.quantile(resp_samples, levels, axis=1, method="linear").T
        samples = (
            SampleArrays(pred_samples, resp_samples) if keep_samples else None
        )

    truth = MtdrModel(
        reference=QuantileGrid(domain, grid, levels.copy()),
        maps=tuple(
            MonotoneMap(node_grid, sine_warp(k, node_grid.nodes))
            for k in spec.warp_orders
        ),
        weights=spec.weights,
    )

    tr = slice(0, spec.n)
    te = slice(spec.n, n_total)
    te_exact = slice(spec.n - first, None)
    train = _dataset([q[tr] for q in pred_obs], resp_obs[tr], domain, grid)
    test = test_exact = None
    if spec.n_test > 0:
        test = _dataset([q[te] for q in pred_obs], resp_obs[te], domain, grid)
        test_exact = _dataset(
            [q[te_exact] for q in pred_true], resp_true[te_exact], domain, grid
        )
    return GeneratedData(train, test, truth, test_exact, samples)


def rmse(predictions, actuals) -> float:
    """Root mean squared Wasserstein distance between paired measures."""
    predictions, actuals = list(predictions), list(actuals)
    if len(predictions) != len(actuals) or not predictions:
        raise ValueError("need equally many predictions and actuals")
    sq = [wasserstein_distance(q, r) ** 2 for q, r in zip(predictions, actuals)]
    return float(np.sqrt(np.mean(sq)))


def awd(predictions, actuals) -> float:
    """Average Wasserstein distance between paired measures."""
    predictions, actuals = list(predictions), list(actuals)
    if len(predictions) != len(actuals) or not predictions:
        raise ValueError("need equally many predictions and actuals")
    return float(np.mean([wasserstein_distance(q, r) for q, r in zip(predictions, actuals)]))


@dataclass(frozen=True)
class RepResult:
    """Error metrics of one replication.

    map_errs[j] is None when the true weight of map j is zero, since the
    map is then unidentifiable and its error is not meaningful.
    """

    pred_seminorm_err: float
    weight_err: float
    map_errs: tuple
    rmse: float
    fitted_weights: tuple
    iterations: int
    converged: bool
    trajectory: np.ndarray


@dataclass(frozen=True)
class StudySummary:
    """Aggregated Monte Carlo results for one scenario."""

    spec: ScenarioSpec
    results: tuple
    metrics: dict

    @staticmethod
    def aggregate(spec: ScenarioSpec, results) -> "StudySummary":
        results = tuple(results)

        def stat(values):
            arr = np.asarray(values, dtype=float)
            sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
            return {"mean": float(np.mean(arr)), "sd": sd}

        metrics = {
            "pred_seminorm_err": stat([r.pred_seminorm_err for r in results]),
            "weight_err": stat([r.weight_err for r in results]),
        }
        for j in range(spec.p + 1):
            if spec.weights.values[j] > 0.0:
                metrics[f"map_err_{j}"] = stat([r.map_errs[j] for r in results])
        metrics["rmse"] = stat([r.rmse for r in results])
        return StudySummary(spec, results, metrics)


def run_replications(
    spec: ScenarioSpec,
    cfg: FitConfig | None = None,
    fixed_weights: SimplexWeights | None = None,
) -> StudySummary:
    """Run a full Monte Carlo study: generate, fit, score, aggregate.

    Per-replication seeds are spawned from the scenario seed, so results
    are a pure function of the scenario and the fit configuration.  The
    reported metrics are the predictive seminorm distance to the truth on
    the exact test predictors, the weight error (absolute for one
    predictor, Euclidean otherwise), the map L2 errors where identifiable,
    and the RMSE of predictions on the observed test set.
    """
    if cfg is None:
        cfg = FitConfig()
    if spec.n_test < 1:
        raise ValueError("scenario needs a nonempty test set")
    children = np.random.SeedSequence(spec.seed).spawn(spec.reps)
    results = []
    for r in range(spec.reps):
        rng = np.random.default_rng(children[r])
        gen = generate_dataset(spec, rng, t=cfg.t)
        model, report = fit(
            gen.train, spec.p, gen.truth.reference, cfg, fixed_weights
        )
        seminorm = predictive_seminorm(model, gen.truth, gen.test_exact)
        diff = model.weights.values - spec.weights.values
        weight_err = (
            abs(diff[1]) if spec.p == 1 else float(np.linalg.norm(diff))
        )
        map_errs = tuple(
            map_l2_distance(model.maps[j], gen.truth.maps[j])
            if spec.weights.values[j] > 0.0
            else None
            for j in range(spec.p + 1)
        )
        preds = [predict(model, s.predictors) for s in gen.test.subjects]
        actuals = [s.response for s in gen.test.subjects]
        results.append(
            RepResult(
                pred_seminorm_err=seminorm,
                weight_err=weight_err,
                map_errs=map_errs,
                rmse=rmse(preds, actuals),
                fitted_weights=tuple(model.weights.values.tolist()),
                iterations=report.iterations,
                converged=report.converged,
                trajectory=report.trajectory,
            )
        )
    return StudySummary.aggregate(spec, results)


def mortality_like_samples(
    n: int = 34,
    m: int = 500,
    seed: int = 7,
    domain: Domain = Domain(0.0, 100.0),
):
    """Synthetic age-at-death style samples for two predictors and a response.

    Generates a two-predictor scenario on the unit interval and rescales the
    raw samples to the given domain.  Returns (predictor samples with shape
    (n, 2, m), response samples with shape (n, m)).
    """
    spec = multi_predictor_scenario(
        weights=(0.2, 0.4, 0.4), n=n, m=m, reps=1, seed=seed, test_fraction=0.0
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gen = generate_dataset(spec, rng, t=200, keep_samples=True)
    pred = domain.lo + domain.width * gen.samples.predictors
    resp = domain.lo + domain.width * gen.samples.responses
    return pred, resp

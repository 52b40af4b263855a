"""Monte Carlo studies for the distributional regression fit.

Synthetic data follow the generative model: predictor measures are Beta laws
with subject-specific parameters, the reference is uniform, the true maps
are sinusoidal warps of the unit interval, and responses are the model
output distorted by a random warp whose order has a symmetric law (so the
distortion is unbiased).  Observations are finite samples drawn from every
measure, turned back into quantile grids by the empirical estimator.

Each design choice is stated in one place: the warp orders and Beta ranges
of every scenario in the table _DESIGNS, the default response distortion in
NoiseSpec(), the model response in _respond, the empirical estimator in
quantile_core._type7_rows, and which maps are identifiable (those with a
nonzero true weight) in run_replications, whose map_errs carry it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fitting import (
    DataSet,
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
    _type7_rows,
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
    "generate_dataset",
    "run_replications",
    "rmse",
    "awd",
    "single_predictor_scenario",
    "multi_predictor_scenario",
    "mortality_like_samples",
]


def _warp_order(order) -> int:
    """order as an int, else a ValueError: warp orders are integers."""
    try:
        if int(order) == order:
            return int(order)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("warp order must be an integer")


def sine_warp(order: int, x):
    """Endpoint-fixed monotone warp of [0, 1].

    Order 0 is the identity; otherwise x - sin(pi k x) / (|k| pi), which is
    nondecreasing with derivative 1 - cos(pi k x) sign-adjusted, fixes 0 and
    1, and deviates from the identity by at most 1 / (|k| pi).
    """
    k = _warp_order(order)
    arr = np.asarray(x, dtype=float)
    if arr.size and not (-1e-9 <= arr.min() and arr.max() <= 1.0 + 1e-9):
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

    The order is drawn uniformly from orders, a nonempty set symmetric
    about zero, kept sorted.  Order 0 is the identity warp, so orders (0,)
    turns the distortion off.  The default {-3, 3}, which every scenario
    uses, gives a root mean squared transport deviation of
    1 / (3 pi sqrt(2)), about 0.075, which matches the reference error
    levels of the study.
    """

    orders: tuple = (-3, 3)

    def __post_init__(self):
        orders = tuple(sorted(_warp_order(k) for k in self.orders))
        object.__setattr__(self, "orders", orders)
        if len(set(orders)) != len(orders):
            raise ValueError("warp orders must be distinct")
        if set(orders) != {-k for k in orders}:
            raise ValueError("warp orders must be symmetric about zero")
        if not orders:
            raise ValueError("noise support must be nonempty")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        sup = np.asarray(self.orders, dtype=int)
        return sup[rng.integers(0, sup.size, size)]

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls((0,))


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one Monte Carlo configuration.

    weights and warp_orders describe the true operator (entry j = 0 belongs
    to the uniform reference); beta_ranges[j] = ((a_lo, a_hi), (b_lo, b_hi))
    gives the uniform law of the j-th predictor's Beta parameters.
    """

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
        object.__setattr__(self, "warp_orders", tuple(map(_warp_order, self.warp_orders)))
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
        for (a_lo, a_hi), (b_lo, b_hi) in self.beta_ranges:
            if not (0.0 < a_lo <= a_hi and 0.0 < b_lo <= b_hi):
                raise ValueError("beta parameter ranges must be positive")
        if self.n < 1 or self.m < 1 or self.reps < 1:
            raise ValueError("n, m and reps must be at least 1")
        if not 0.0 <= self.test_fraction <= 1.0:
            raise ValueError("test fraction must lie in [0, 1]")

    @property
    def p(self) -> int:
        return len(self.beta_ranges)

    @property
    def n_test(self) -> int:
        return int(math.ceil(round(self.test_fraction * self.n, 12)))


# The design of each scenario: the true maps' warp orders (the reference's
# first) and, per predictor, the ranges of its Beta parameters a and b.
_DESIGNS = {
    "single": ((4, 3), (((1.0, 5.0), (1.0, 5.0)),)),
    "multi": ((4, 3, -5), (((1.0, 5.0), (1.0, 5.0)), ((2.0, 6.0), (2.0, 6.0)))),
}


def _scenario(design, weights, n, m, reps, seed, noise, test_fraction):
    """The ScenarioSpec of design _DESIGNS[design]; noise None is NoiseSpec()."""
    warp_orders, beta_ranges = _DESIGNS[design]
    return ScenarioSpec(
        SimplexWeights.of(weights), warp_orders, beta_ranges, n, m, reps, seed,
        test_fraction, noise or NoiseSpec(),
    )  # fmt: skip


def single_predictor_scenario(
    alpha1: float,
    n: int = 200,
    m: int = 200,
    reps: int = 30,
    seed: int = 0,
    noise: NoiseSpec | None = None,
    test_fraction: float = 0.3,
) -> ScenarioSpec:
    """One Beta predictor, weights (1 - alpha1, alpha1): design "single"."""
    weights = [1.0 - alpha1, alpha1]
    return _scenario("single", weights, n, m, reps, seed, noise, test_fraction)


def multi_predictor_scenario(
    weights=(0.3, 0.35, 0.35),
    n: int = 200,
    m: int = 200,
    reps: int = 30,
    seed: int = 0,
    noise: NoiseSpec | None = None,
    test_fraction: float = 0.3,
) -> ScenarioSpec:
    """Two Beta predictors and the given weights: design "multi"."""
    return _scenario("multi", weights, n, m, reps, seed, noise, test_fraction)


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
    the same grids.  samples carries the raw draws behind the observed
    grids, and is None when no sampling occurred (exact=True).
    """

    train: DataSet
    test: DataSet | None
    truth: MtdrModel
    test_exact: DataSet | None
    samples: SampleArrays | None


def _respond(spec: ScenarioSpec, x, inner, ks: np.ndarray) -> np.ndarray:
    """The model response at levels x, row i warped by the noise order ks[i].

    inner[j] holds predictor j's quantiles at x; the composition is
    alpha_0 warp_0(x) + sum_j alpha_j warp_j(inner[j]), summed in that order.
    """
    alpha = spec.weights.values
    comp = alpha[0] * sine_warp(spec.warp_orders[0], x)
    for j, q in enumerate(inner, start=1):
        comp = comp + alpha[j] * sine_warp(spec.warp_orders[j], q)
    for k in np.unique(ks):
        comp[ks == k] = sine_warp(int(k), comp[ks == k])
    return comp


def _dataset(pred_q, resp_q, domain, grid) -> DataSet:
    """Assemble a DataSet from stacked quantile arrays pred_q[j] (n, t)."""
    n = pred_q[0].shape[0]
    subjects = []
    for i in range(n):
        preds = tuple(
            QuantileGrid(domain, grid, _guard_monotone(q[i], domain)) for q in pred_q
        )
        resp = QuantileGrid(domain, grid, _guard_monotone(resp_q[i], domain))
        subjects.append(Subject(preds, resp))
    return DataSet(tuple(subjects))


def generate_dataset(
    spec: ScenarioSpec,
    rng: np.random.Generator,
    t: int = 1000,
    exact: bool = False,
) -> GeneratedData:
    """Simulate one replication of a scenario.

    Draw order is fixed: Beta parameters per predictor, warp orders, then
    (unless exact) predictor and response uniforms, so outputs are a pure
    function of the generator state.  With exact=True the observed grids
    are the exact quantile grids and no sampling occurs; otherwise exact
    grids are computed for the test rows only, and the raw draws come back
    as samples.
    """
    # imported here, not with the module: scipy.special is most of the time
    # and memory that importing mtdr would take, and only this function needs it
    from scipy.special import betaincinv

    domain = Domain.unit()
    grid = ProbGrid.midpoint(t)
    node_grid = NodeGrid.uniform(domain, t)
    n_total = spec.n + spec.n_test
    p = spec.p

    # a then b for each predictor in turn; a_par[j] and b_par[j] are (n_total,)
    draws = [rng.uniform(lo, hi, n_total) for ab in spec.beta_ranges for lo, hi in ab]
    a_par, b_par = np.array(draws[0::2]), np.array(draws[1::2])
    ks = spec.noise.draw(rng, n_total)

    levels = grid.levels
    first = 0 if exact else spec.n  # first row that needs exact grids
    rows = slice(first, n_total)
    pred_true = [
        betaincinv(a_par[j][rows, None], b_par[j][rows, None], levels[None, :])
        for j in range(p)
    ]
    resp_true = _respond(spec, levels, pred_true, ks[rows])

    if exact:
        pred_obs, resp_obs, samples = pred_true, resp_true, None
    else:
        u = rng.random((n_total, p, spec.m))
        v = rng.random((n_total, spec.m))
        pred_samples = betaincinv(a_par.T[:, :, None], b_par.T[:, :, None], u)
        inner = (betaincinv(a_par[j][:, None], b_par[j][:, None], v) for j in range(p))
        resp_samples = _respond(spec, v, inner, ks)
        pred_obs = [_type7_rows(pred_samples[:, j, :], grid) for j in range(p)]
        resp_obs = _type7_rows(resp_samples, grid)
        samples = SampleArrays(pred_samples, resp_samples)

    truth = MtdrModel(
        reference=QuantileGrid(domain, grid, node_grid.nodes),
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


def _paired_distances(predictions, actuals) -> list:
    """Wasserstein distance of each prediction to its paired actual."""
    predictions, actuals = list(predictions), list(actuals)
    if len(predictions) != len(actuals) or not predictions:
        raise ValueError("need equally many predictions and actuals")
    return [wasserstein_distance(q, r) for q, r in zip(predictions, actuals)]


def rmse(predictions, actuals) -> float:
    """Root mean squared Wasserstein distance between paired measures."""
    sq = [d ** 2 for d in _paired_distances(predictions, actuals)]
    return float(np.sqrt(np.mean(sq)))


def awd(predictions, actuals) -> float:
    """Average Wasserstein distance between paired measures."""
    return float(np.mean(_paired_distances(predictions, actuals)))


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
    """Aggregated Monte Carlo results for one scenario fitted at grid size t."""

    spec: ScenarioSpec
    t: int
    results: tuple
    metrics: dict

    @staticmethod
    def aggregate(spec: ScenarioSpec, t: int, results) -> "StudySummary":
        results = tuple(results)

        def stat(values):
            arr = np.asarray(values, dtype=float)
            sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
            return {"mean": float(np.mean(arr)), "sd": sd}

        metrics = {
            "pred_seminorm_err": stat([r.pred_seminorm_err for r in results]),
            "weight_err": stat([r.weight_err for r in results]),
        }
        for j, errs in enumerate(zip(*(r.map_errs for r in results))):
            if None not in errs:  # map j is identifiable
                metrics[f"map_err_{j}"] = stat(errs)
        metrics["rmse"] = stat([r.rmse for r in results])
        return StudySummary(spec, t, results, metrics)


def run_replications(
    spec: ScenarioSpec,
    t: int = 1000,
    fixed_weights: SimplexWeights | None = None,
) -> StudySummary:
    """Run a full Monte Carlo study: generate, fit, score, aggregate.

    Replications are generated on grids of size t from seeds spawned from
    the scenario seed, so results are a pure function of the arguments.
    The reported metrics are the predictive seminorm distance to the truth
    on the exact test predictors, the weight error (absolute for one
    predictor, Euclidean otherwise), the map L2 errors where identifiable,
    and the RMSE of predictions on the observed test set.
    """
    if spec.n_test < 1:
        raise ValueError("scenario needs a nonempty test set")
    children = np.random.SeedSequence(spec.seed).spawn(spec.reps)
    results = []
    for r in range(spec.reps):
        rng = np.random.default_rng(children[r])
        gen = generate_dataset(spec, rng, t=t)
        model, report = fit(
            gen.train, spec.p, gen.truth.reference, fixed_weights=fixed_weights
        )
        seminorm = predictive_seminorm(model, gen.truth, gen.test_exact)
        diff = model.weights.values - spec.weights.values
        weight_err = abs(diff[1]) if spec.p == 1 else float(np.linalg.norm(diff))
        map_errs = tuple(  # None where the true weight is 0: not identifiable
            map_l2_distance(fitted, true) if a > 0.0 else None
            for fitted, true, a in zip(model.maps, gen.truth.maps, spec.weights.values)
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
    return StudySummary.aggregate(spec, t, results)


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
    gen = generate_dataset(spec, rng, t=200)
    pred = domain.lo + domain.width * gen.samples.predictors
    resp = domain.lo + domain.width * gen.samples.responses
    return pred, resp

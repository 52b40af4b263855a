"""Distribution-on-distribution regression by alternating convex updates.

The model sends a vector of predictor measures to the weighted Frechet mean
of their images under per-predictor monotone maps, with a fixed reference
measure acting as intercept.  On quantile grids the predicted quantile
vector is

    q_hat = sum_j weight_j * T_j(q_j),    j = 0 .. p,

where q_0 is the reference quantile vector.  Fitting alternates exact
isotonic updates of each map with a simplex-constrained least squares update
of the weights, decreasing the empirical squared-Wasserstein risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monotone_map import MonotoneMap, NodeGrid
from .quantile_core import (
    Domain,
    ProbGrid,
    QuantileGrid,
    _guard_monotone,
    _readonly,
    cdf_at,
    quantile_at,
    wasserstein_distance,
)
from .solvers import (
    IsotonicProblem,
    SimplexLSProblem,
    SimplexWeights,
    simplex_least_squares,
    simplex_project,
    weighted_isotonic,
)

__all__ = [
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
]


@dataclass(frozen=True)
class Subject:
    """One observation unit: p predictor measures and optionally a response."""

    predictors: tuple
    response: QuantileGrid | None = None

    def __post_init__(self):
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if len(self.predictors) == 0 and self.response is None:
            raise ValueError("subject carries no measures at all")


@dataclass(frozen=True)
class DataSet:
    """A sample of subjects sharing one domain and one probability grid."""

    subjects: tuple

    def __post_init__(self):
        subjects = tuple(self.subjects)
        object.__setattr__(self, "subjects", subjects)
        if not subjects:
            raise ValueError("empty dataset")
        head = subjects[0]
        first = head.predictors[0] if head.predictors else head.response
        p = len(head.predictors)
        for s in subjects:
            if len(s.predictors) != p:
                raise ValueError("all subjects must have the same predictor count")
            grids = list(s.predictors) + ([s.response] if s.response else [])
            for g in grids:
                if g.domain != first.domain or not g.grid.matches(first.grid):
                    raise ValueError("all measures must share domain and grid")

    @property
    def n(self) -> int:
        return len(self.subjects)

    @property
    def p(self) -> int:
        return len(self.subjects[0].predictors)

    def _first_measure(self) -> QuantileGrid:
        head = self.subjects[0]
        return head.predictors[0] if head.predictors else head.response

    @property
    def domain(self) -> Domain:
        return self._first_measure().domain

    @property
    def prob_grid(self) -> ProbGrid:
        return self._first_measure().grid

    @property
    def has_responses(self) -> bool:
        return all(s.response is not None for s in self.subjects)


@dataclass(frozen=True)
class FitConfig:
    """Tuning constants of the alternating fit.

    t is the spatial node count for map updates; rel_tol stops the outer
    loop once an iteration decreases the objective by less than
    rel_tol * (initial objective); weights below alpha_floor freeze their
    map update; min_slope >= 0 optionally keeps fitted maps strictly
    increasing.
    """

    t: int = 1000
    max_outer_iter: int = 200
    rel_tol: float = 1e-8
    alpha_floor: float = 1e-8
    min_slope: float = 0.0

    def __post_init__(self):
        if self.t < 2 or self.max_outer_iter < 1:
            raise ValueError("t and max_outer_iter must be positive")
        if self.rel_tol < 0.0 or self.alpha_floor < 0.0 or self.min_slope < 0.0:
            raise ValueError("tolerances must be nonnegative")


@dataclass(frozen=True, eq=False)
class FitReport:
    """Objective trajectory of one fit.

    trajectory[0] is the risk after initialization, one entry per outer
    iteration follows.  The trajectory is nonincreasing up to a slack of
    1e-6 times the initial objective.
    """

    trajectory: np.ndarray
    converged: bool

    def __post_init__(self):
        tr = _readonly(np.atleast_1d(self.trajectory))
        object.__setattr__(self, "trajectory", tr)
        if tr.size == 0 or not np.all(np.isfinite(tr)):
            raise ValueError("trajectory must be nonempty and finite")
        if tr.size > 1:
            slack = 1e-6 * tr[0]
            if np.max(np.diff(tr)) > slack:
                raise ValueError("objective trajectory increased beyond slack")

    @property
    def iterations(self) -> int:
        return self.trajectory.size - 1

    @property
    def final_objective(self) -> float:
        return float(self.trajectory[-1])


@dataclass(frozen=True, eq=False)
class MtdrModel:
    """Fitted or constructed regression operator.

    maps[0] transports the reference, maps[j] the j-th predictor; weights
    mix the transported measures.  All maps share one node grid and the
    reference lives on the probability grid used for prediction.
    """

    reference: QuantileGrid
    maps: tuple
    weights: SimplexWeights

    def __post_init__(self):
        maps = tuple(self.maps)
        object.__setattr__(self, "maps", maps)
        if not maps:
            raise ValueError("model needs at least the reference map")
        if self.weights.size != len(maps):
            raise ValueError("one weight per map required")
        grid = maps[0].grid
        for T in maps:
            if not T.grid.matches(grid):
                raise ValueError("all maps must share one node grid")
        if self.reference.domain != grid.domain:
            raise ValueError("reference domain must match map domain")

    @property
    def p(self) -> int:
        return len(self.maps) - 1

    @property
    def domain(self) -> Domain:
        return self.reference.domain

    @property
    def prob_grid(self) -> ProbGrid:
        return self.reference.grid

    @property
    def node_grid(self) -> NodeGrid:
        return self.maps[0].grid


# -- internal evaluation on stacked arrays --------------------------------


def _map_knots(node_grid: NodeGrid, values: np.ndarray):
    dom = node_grid.domain
    x_ext = np.concatenate(([dom.lo], node_grid.nodes, [dom.hi]))
    z_ext = np.concatenate(([dom.lo], values, [dom.hi]))
    return x_ext, z_ext


def _predictor_stacks(data: DataSet, reference: QuantileGrid) -> list:
    """Quantile stacks Q[j] of shape (n, t) for j = 0 (reference) .. p."""
    n, t = data.n, data.prob_grid.size
    stacks = [np.broadcast_to(reference.values, (n, t))]
    for j in range(data.p):
        stacks.append(np.stack([s.predictors[j].values for s in data.subjects]))
    return stacks


def _response_stack(data: DataSet) -> np.ndarray:
    if not data.has_responses:
        raise ValueError("dataset lacks responses")
    return np.stack([s.response.values for s in data.subjects])


def _design(stacks, node_grid: NodeGrid, map_values) -> np.ndarray:
    """Transported quantile stacks B[j] = T_j(Q[j]), shape (p+1, n, t)."""
    B = np.empty((len(stacks),) + stacks[0].shape)
    for j, z in enumerate(map_values):
        x_ext, z_ext = _map_knots(node_grid, z)
        B[j] = np.interp(stacks[j], x_ext, z_ext)
    return B


def _risk(B, alpha, resp, step) -> float:
    resid = resp - np.tensordot(alpha, B, axes=1)
    return float(step * np.mean(np.einsum("nt,nt->n", resid, resid)))


def _weight_problem(B, resp, step) -> SimplexLSProblem:
    n = resp.shape[0]
    gram = np.einsum("jnt,knt->jk", B, B) * (step / n)
    gram = 0.5 * (gram + gram.T)
    lin = np.einsum("jnt,nt->j", B, resp) * (step / n)
    return SimplexLSProblem(gram, lin)


class _KSlice:
    """Data-dependent pieces of the map-update problem for one index k.

    All arrays have shape (n, node count) and depend only on the data, the
    reference and the node grid, so they are computed once per fit:
    levels are the CDF values of the k-th source measure at the nodes,
    cell_w its cell masses, target the response quantiles at those levels,
    and inner[j] the j-th source quantiles at those levels.
    """

    def __init__(self, data, reference, node_grid, k, with_target):
        t = node_grid.size
        n = data.n
        dom = node_grid.domain
        plev = data.prob_grid.levels
        x_all = np.concatenate((node_grid.nodes, node_grid.edges))
        self.levels = np.empty((n, t))
        self.cell_w = np.empty((n, t))
        self.target = np.empty((n, t)) if with_target else None
        self.inner = {}
        p = data.p
        for j in range(p + 1):
            if j != k:
                self.inner[j] = np.empty((n, t))
        for i, s in enumerate(data.subjects):
            src = reference.values if k == 0 else s.predictors[k - 1].values
            lv_all = cdf_at(src, dom, plev, x_all)
            lv = lv_all[:t]
            self.levels[i] = lv
            self.cell_w[i] = np.maximum(np.diff(lv_all[t:]), 0.0)
            if with_target:
                self.target[i] = quantile_at(s.response.values, dom, plev, lv)
            for j in range(p + 1):
                if j == k:
                    continue
                other = reference.values if j == 0 else s.predictors[j - 1].values
                self.inner[j][i] = quantile_at(other, dom, plev, lv)
        self.node_w = self.cell_w.sum(axis=0)


def _assemble_k(kslice: _KSlice, node_grid, map_values, alpha, k) -> IsotonicProblem:
    terms = np.zeros_like(kslice.target)
    for j, z in enumerate(map_values):
        if j == k or alpha[j] == 0.0:
            continue
        x_ext, z_ext = _map_knots(node_grid, z)
        terms += alpha[j] * np.interp(kslice.inner[j], x_ext, z_ext)
    y = (kslice.target - terms) / alpha[k]
    sw = kslice.node_w
    num = np.einsum("nt,nt->t", kslice.cell_w, y)
    yhat = np.divide(num, sw, out=np.zeros_like(sw), where=sw > 0.0)
    dom = node_grid.domain
    return IsotonicProblem(yhat, sw / kslice.cell_w.shape[0], dom.lo, dom.hi)


def _solve_map_update(prob: IsotonicProblem, node_grid: NodeGrid, min_slope: float):
    if min_slope == 0.0:
        return weighted_isotonic(prob)
    # slope floor via the standard shift: subtract min_slope * x, solve the
    # plain isotonic problem, shift back.  The shifted problem's box holds
    # every target, so its clip changes nothing; box clipping afterwards may
    # locally override the floor near the domain ends.
    shift = min_slope * (node_grid.nodes - node_grid.nodes[0])
    y = prob.targets - shift
    box = (min(y.min(), prob.lo), max(y.max(), prob.hi))
    z = weighted_isotonic(IsotonicProblem(y, prob.weights, *box))
    return np.maximum.accumulate(np.clip(z + shift, prob.lo, prob.hi))


def _check_reference(reference: QuantileGrid, data: DataSet) -> None:
    if reference.domain != data.domain or not reference.grid.matches(data.prob_grid):
        raise ValueError("reference must share the data domain and grid")
    if np.any(np.diff(reference.values) <= 0.0):
        raise ValueError("reference must have strictly increasing quantiles")


# -- public operations ----------------------------------------------------


def predict(model: MtdrModel, predictors) -> QuantileGrid:
    """Predicted response measure for one vector of predictor measures."""
    predictors = tuple(predictors)
    if len(predictors) != model.p:
        raise ValueError("predictor count must match the model")
    for g in predictors:
        if g.domain != model.domain or not g.grid.matches(model.prob_grid):
            raise ValueError("predictors must share the model domain and grid")
    alpha = model.weights.values
    q = alpha[0] * model.maps[0](model.reference.values)
    for j, g in enumerate(predictors, start=1):
        q = q + alpha[j] * model.maps[j](g.values)
    return QuantileGrid(model.domain, model.prob_grid, _guard_monotone(q, model.domain))


def loss(model: MtdrModel, predictors, response: QuantileGrid) -> float:
    """Squared Wasserstein distance between response and prediction."""
    return wasserstein_distance(response, predict(model, predictors)) ** 2


def empirical_risk(model: MtdrModel, data: DataSet) -> float:
    """Mean squared-Wasserstein prediction error over a dataset."""
    if data.p != model.p:
        raise ValueError("predictor count must match the model")
    if data.domain != model.domain or not data.prob_grid.matches(model.prob_grid):
        raise ValueError("dataset must share the model domain and grid")
    resp = _response_stack(data)
    stacks = _predictor_stacks(data, model.reference)
    B = _design(stacks, model.node_grid, [T.values for T in model.maps])
    return _risk(B, model.weights.values, resp, data.prob_grid.step)


def map_update_problem(
    model: MtdrModel, data: DataSet, k: int, alpha_floor: float = 1e-8
) -> IsotonicProblem:
    """Isotonic subproblem whose solution is the optimal k-th map.

    Holding the weights and the other maps fixed, the risk restricted to the
    k-th map discretizes, per node, to a weighted least squares problem with
    monotonicity constraints.  Node targets average, over subjects, the
    response quantiles minus the contribution of the other transported
    predictors, read off at the levels the k-th source measure assigns to
    the nodes; node weights are the mean cell masses under that source.
    """
    if not 0 <= k <= model.p:
        raise ValueError("map index out of range")
    if data.p != model.p:
        raise ValueError("predictor count must match the model")
    if data.domain != model.domain or not data.prob_grid.matches(model.prob_grid):
        raise ValueError("dataset must share the model domain and grid")
    alpha = model.weights.values
    if alpha[k] < alpha_floor:
        raise ValueError("weight below floor: map update is undefined")
    if not data.has_responses:
        raise ValueError("dataset lacks responses")
    kslice = _KSlice(data, model.reference, model.node_grid, k, with_target=True)
    return _assemble_k(
        kslice, model.node_grid, [T.values for T in model.maps], alpha, k
    )


def fit(
    data: DataSet,
    p: int,
    reference: QuantileGrid,
    cfg: FitConfig = FitConfig(),
    fixed_weights: SimplexWeights | None = None,
):
    """Fit the regression operator by alternating convex updates.

    Starting from identity maps, repeats: exact isotonic update of each map
    with weight above the floor (in index order), then a simplex least
    squares update of the weights (skipped when fixed_weights is given).
    Stops once an outer iteration decreases the empirical risk by at most
    rel_tol times the initial risk, or after max_outer_iter iterations.  A
    sweep that raises the risk (possible because the map update minimises
    a node-binned surrogate) is discarded in favour of the previous
    iterate, so the recorded trajectory never increases.

    Returns
    -------
    (MtdrModel, FitReport)
    """
    if data.p != p:
        raise ValueError("dataset predictor count does not match p")
    _check_reference(reference, data)
    if fixed_weights is not None and fixed_weights.size != p + 1:
        raise ValueError("fixed weights must have length p + 1")

    dom = data.domain
    step = data.prob_grid.step
    node_grid = NodeGrid.uniform(dom, cfg.t)
    resp = _response_stack(data)
    stacks = _predictor_stacks(data, reference)
    slices = [
        _KSlice(data, reference, node_grid, k, with_target=True)
        for k in range(p + 1)
    ]

    map_values = [node_grid.nodes.copy() for _ in range(p + 1)]
    B = _design(stacks, node_grid, map_values)
    if fixed_weights is not None:
        alpha = fixed_weights.values.copy()
    else:
        alpha = simplex_least_squares(_weight_problem(B, resp, step)).values
    trajectory = [_risk(B, alpha, resp, step)]

    converged = False
    for _ in range(cfg.max_outer_iter):
        prev_maps = [z.copy() for z in map_values]
        prev_alpha = alpha.copy()
        for k in range(p + 1):
            if alpha[k] < cfg.alpha_floor:
                continue
            prob = _assemble_k(slices[k], node_grid, map_values, alpha, k)
            map_values[k] = _solve_map_update(prob, node_grid, cfg.min_slope)
        B = _design(stacks, node_grid, map_values)
        if fixed_weights is None:
            alpha = simplex_least_squares(_weight_problem(B, resp, step)).values
        new_risk = _risk(B, alpha, resp, step)
        if new_risk > trajectory[-1]:
            # The map update minimises a node-binned surrogate of the risk,
            # so on coarse grids a sweep can overshoot slightly; keep the
            # better iterate and stop.
            map_values = prev_maps
            alpha = prev_alpha
            converged = True
            break
        trajectory.append(new_risk)
        if trajectory[-2] - trajectory[-1] <= cfg.rel_tol * trajectory[0]:
            converged = True
            break

    maps = tuple(MonotoneMap(node_grid, z) for z in map_values)
    weights = (
        fixed_weights
        if fixed_weights is not None
        else SimplexWeights(simplex_project(alpha))
    )
    model = MtdrModel(reference, maps, weights)
    report = FitReport(np.asarray(trajectory), converged)
    return model, report


def predictive_seminorm(model_a: MtdrModel, model_b: MtdrModel, data: DataSet) -> float:
    """Root mean squared Wasserstein gap between two models' predictions.

    Averages the squared distance between the two predicted measures over
    the subjects of data (responses, if any, are ignored).  This is the
    empirical predictive seminorm of the parameter difference.
    """
    if model_a.p != model_b.p or model_a.domain != model_b.domain:
        raise ValueError("models must share predictor count and domain")
    if not model_a.prob_grid.matches(model_b.prob_grid):
        raise ValueError("models must share the probability grid")
    if data.p != model_a.p:
        raise ValueError("predictor count must match the models")
    if data.domain != model_a.domain or not data.prob_grid.matches(model_a.prob_grid):
        raise ValueError("dataset must share the model domain and grid")
    step = data.prob_grid.step
    sa = _predictor_stacks(data, model_a.reference)
    sb = _predictor_stacks(data, model_b.reference)
    Ba = _design(sa, model_a.node_grid, [T.values for T in model_a.maps])
    Bb = _design(sb, model_b.node_grid, [T.values for T in model_b.maps])
    pa = np.tensordot(model_a.weights.values, Ba, axes=1)
    pb = np.tensordot(model_b.weights.values, Bb, axes=1)
    diff = pa - pb
    gaps = step * np.einsum("nt,nt->n", diff, diff)
    return float(np.sqrt(np.mean(gaps)))

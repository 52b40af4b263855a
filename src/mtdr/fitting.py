"""Distribution-on-distribution regression by alternating convex updates.

The model sends a vector of predictor measures to the weighted Frechet mean
of their images under per-predictor monotone maps, with a fixed reference
measure acting as intercept.  On quantile grids the predicted quantile
vector is

    q_hat = sum_j weight_j * T_j(q_j),    j = 0 .. p,

where q_0 is the reference quantile vector.  Reading a map at a quantile
stack is a fixed linear interpolation of its node values, so for fixed
weights the empirical squared-Wasserstein risk is a quadratic in each map's
node values, and for fixed maps a quadratic in the weights.  An ordinary
sweep of the fit takes a majorize-minimize step for each map (one weighted
isotonic regression), then an exact simplex least squares step for the
weights; neither step raises the risk.  _Objective builds that risk, its
prediction alpha @ B and both steps in one place, for fit and for the
functions that evaluate a model.  The sweep is a fixed-point map of the
map node values and weights, and the fit accelerates it by SQUAREM
(Varadhan & Roland 2008): every two sweeps it extrapolates, repairs the
jump into monotone maps (the monotone guard, not a solver) and simplex
weights, and keeps one sweep from there only if it does not raise the risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monotone_map import MonotoneMap, NodeGrid, _Interp
from .quantile_core import (
    Domain,
    ProbGrid,
    QuantileGrid,
    _count,
    _guard_monotone,
    _readonly,
    _sumsq,
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
        first = self._first_measure()
        p = self.p
        for s in subjects:
            if len(s.predictors) != p:
                raise ValueError("all subjects must have the same predictor count")
            grids = list(s.predictors) + ([s.response] if s.response else [])
            for g in grids:
                if g.domain != first.domain or g.grid != first.grid:
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
    """Stopping rule of the alternating fit.

    rel_tol >= 0 stops the fit once a kept iterate decreases the objective
    by at most rel_tol * (initial objective); the integer max_outer_iter >= 1
    caps the kept iterates (ordinary sweeps plus accepted stabilising sweeps,
    see fit), so a fit runs at most 1.5 * max_outer_iter sweeps.
    """

    max_outer_iter: int = 200
    rel_tol: float = 1e-8

    def __post_init__(self):
        cap = _count(self.max_outer_iter, "max_outer_iter", 1)
        object.__setattr__(self, "max_outer_iter", cap)
        if not self.rel_tol >= 0.0:
            raise ValueError(f"rel_tol must be at least 0, not {self.rel_tol}")


@dataclass(frozen=True, eq=False)
class FitReport:
    """Objective trajectory of one fit.

    trajectory[0] is the risk after initialization; one entry follows for
    each iterate the fit kept: every ordinary sweep and every accepted
    stabilising sweep of its SQUAREM cycles (a discarded stabilising sweep
    adds none).  The fit keeps only iterates that do not raise the risk, so
    the trajectory is nonincreasing up to rounding; construction rejects an
    increase beyond 1e-6 times the initial objective.  iterations counts
    the kept iterates and equals max_outer_iter when the fit was capped.
    converged is True when the last kept iterate decreased the risk by at
    most rel_tol times the initial objective, False when the fit stopped
    at max_outer_iter.
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
            if T.grid != grid:
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


# -- the objective ---------------------------------------------------------


# weights below this floor freeze their map: its majorize-minimize step
# divides the risk gradient by the weight
_WEIGHT_FLOOR = 1e-8


class _Objective:
    """The empirical risk of a dataset at one iterate, and its block steps.

    Built once per dataset, reference and starting maps, whose node grid
    it keeps: one interpolation operator per quantile stack (ops[0] reads
    the reference at every subject, ops[j] the j-th predictors), the
    response stack, and the scale step / n that makes scale * |r|^2 the
    risk of a residual r.  It keeps the iterate theta: node values map by
    map, then the weights, with maps (one row per map) and alpha as views.
    Row k of B is map k read through ops[k]; the prediction is alpha @ B.
    Weights not given start at the exact weight step and are free; given
    weights stay fixed.  The solvers are called by their names in this
    module, which perfbench/tracing.py wraps while it traces.
    """

    def __init__(self, data: DataSet, reference: QuantileGrid, maps, weights=None):
        if reference.domain != data.domain or reference.grid != data.prob_grid:
            raise ValueError("reference must share the data domain and grid")
        n, t = data.n, data.prob_grid.size
        stacks = [np.broadcast_to(reference.values, (n, t))] + [
            np.stack([s.predictors[j].values for s in data.subjects])
            for j in range(data.p)
        ]
        self.ops = [_Interp(maps[0].grid, Q) for Q in stacks]
        self._resp = (
            np.concatenate([s.response.values for s in data.subjects])
            if data.has_responses
            else None
        )
        self.scale, self.domain = data.prob_grid.step / n, data.domain
        self.theta = np.concatenate([T.values for T in maps] + [np.zeros(len(maps))])
        cut = len(maps) * maps[0].grid.size
        self.maps, self.alpha = self.theta[:cut].reshape(len(maps), -1), self.theta[cut:]
        self.B = np.stack([op(z) for op, z in zip(self.ops, self.maps)])
        self.free = weights is None
        self.alpha[:] = self.weight_step() if self.free else weights.values

    @classmethod
    def of(cls, model: MtdrModel, data: DataSet) -> "_Objective":
        """The objective of data at the model's maps and weights."""
        if data.p != model.p:
            raise ValueError("predictor count must match the model")
        return cls(data, model.reference, model.maps, model.weights)

    @property
    def resp(self) -> np.ndarray:
        """Response quantiles of all subjects, flattened to one vector."""
        if self._resp is None:
            raise ValueError("dataset lacks responses")
        return self._resp

    def prediction(self) -> np.ndarray:
        return self.alpha @ self.B

    def residual(self) -> np.ndarray:
        return self.prediction() - self.resp

    def risk(self, resid: np.ndarray) -> float:
        return self.scale * _sumsq(resid)

    def weight_step(self) -> np.ndarray:
        """The weights that minimize the risk for the current maps."""
        # B @ B.T keeps its bits at any BLAS thread count; an einsum is 3.6x slower
        gram = (self.B @ self.B.T) * self.scale
        lin = np.einsum("ij,j->i", self.B, self.resp) * self.scale
        return simplex_least_squares(SimplexLSProblem(gram, lin)).values

    def updatable(self, k: int) -> bool:
        """Whether map k takes map updates.

        It does not when its weight is below _WEIGHT_FLOOR, or when no node
        carries mass (the data read the map only at its pinned endpoints).
        """
        return self.alpha[k] >= _WEIGHT_FLOOR and self.ops[k].mass.any()

    def map_step(self, k: int, resid: np.ndarray) -> IsotonicProblem:
        """map_update_problem for map k, at the iterate with residual resid."""
        op, mass = self.ops[k], self.ops[k].mass
        step = np.divide(
            op.adjoint(resid),
            self.alpha[k] * mass,
            out=np.zeros_like(mass),
            where=mass > 0.0,
        )
        return IsotonicProblem(self.maps[k] - step, mass, self.domain.lo, self.domain.hi)

    def sweep(self, resid: np.ndarray) -> np.ndarray:
        """One ordinary sweep from the iterate with residual resid.

        Updates resid in place while the maps move, and returns the residual
        of the new iterate.
        """
        for k, (op, z) in enumerate(zip(self.ops, self.maps)):
            if not self.updatable(k):
                continue
            z[:] = weighted_isotonic(self.map_step(k, resid))
            moved = op(z)
            resid += self.alpha[k] * (moved - self.B[k])
            self.B[k] = moved
        if self.free:
            self.alpha[:] = self.weight_step()
        return self.residual()

    def load(self, theta: np.ndarray) -> np.ndarray:
        """Make theta the iterate and return its residual."""
        self.theta[:] = theta
        for op, z, row in zip(self.ops, self.maps, self.B):
            row[:] = op(z)
        return self.residual()

    def project(self, jump: np.ndarray) -> np.ndarray:
        """The jump made feasible in place: maps guarded, free weights projected."""
        cut = self.maps.size
        maps = jump[:cut].reshape(self.maps.shape)  # a view: the guard writes into jump
        maps[:] = _guard_monotone(maps, self.domain)
        if self.free:
            jump[cut:] = simplex_project(jump[cut:])
        return jump


# -- public operations ----------------------------------------------------


def predict(model: MtdrModel, predictors) -> QuantileGrid:
    """Predicted response measure for one vector of predictor measures."""
    predictors = tuple(predictors)
    if len(predictors) != model.p:
        raise ValueError("predictor count must match the model")
    for g in predictors:
        if g.domain != model.domain or g.grid != model.prob_grid:
            raise ValueError("predictors must share the model domain and grid")
    stacks = np.reshape([g.values for g in predictors], (model.p, 1, model.prob_grid.size))
    return QuantileGrid(model.domain, model.prob_grid, _predictions(model, stacks)[0])


def _predictions(model: MtdrModel, stacks: np.ndarray) -> np.ndarray:
    """Predicted quantile rows of n subjects, each with predict's bits.

    stacks has shape (p, n, t): stacks[j - 1] holds the j-th predictor's
    quantiles on the model's grid, one row per subject.  The reference
    term alpha[0] T_0(ref) comes first, then alpha[j] T_j(stacks[j - 1])
    is added in index order, so the arithmetic is elementwise and a row
    does not depend on the other rows.
    """
    alpha = model.weights.values
    q = alpha[0] * model.maps[0](model.reference.values)
    for j, stack in enumerate(stacks, start=1):
        q = q + alpha[j] * model.maps[j](stack)
    return _guard_monotone(np.broadcast_to(q, stacks.shape[1:]), model.domain)


def empirical_risk(model: MtdrModel, data: DataSet) -> float:
    """Mean squared-Wasserstein prediction error over a dataset."""
    obj = _Objective.of(model, data)
    return obj.risk(obj.residual())


def map_update_problem(model: MtdrModel, data: DataSet, k: int) -> IsotonicProblem:
    """Isotonic subproblem of one majorize-minimize step for the k-th map.

    Holding the weights and the other maps fixed, the risk is a quadratic
    in the k-th map's node values, with Hessian proportional to a^2 P'P for
    the k-th weight a and the interpolation operator P that reads the map
    at the k-th quantile stack.  P is nonnegative with row sums at most one,
    so diag(mass), the node masses of P, majorizes P'P, and solving the
    returned problem (weights: node masses; targets: the current node
    values minus P'resid / (a mass), or the current value at a node without
    mass) never raises the risk.  A map that fit keeps frozen has no such
    problem: a ValueError is raised when the k-th weight is below 1e-8 or
    no node carries mass of the k-th stack.
    """
    if not 0 <= k <= model.p:
        raise ValueError("map index out of range")
    obj = _Objective.of(model, data)
    if not obj.updatable(k):
        raise ValueError(
            f"map {k} has weight below floor or no node mass: map update is undefined"
        )
    return obj.map_step(k, obj.residual())


def fit(
    data: DataSet,
    p: int,
    reference: QuantileGrid,
    cfg: FitConfig = FitConfig(),
    fixed_weights: SimplexWeights | None = None,
):
    """Fit the regression operator by accelerated alternating block descent.

    The maps live on the uniform node grid of the data's domain with as
    many nodes as the data's probability grid has levels.  An ordinary
    sweep F takes one majorize-minimize step for each map with
    weight at least 1e-8 and some node mass, in index order (the other maps
    stay frozen, see map_update_problem), then a simplex least squares
    update of the weights (skipped when fixed_weights is given); it never
    raises the empirical risk.  Starting from identity maps, the fit
    repeats a SQUAREM cycle on theta, the map node values and the weights.
    Two ordinary sweeps give theta1 = F(theta0) and theta2 = F(theta1).
    With r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0, the jump
    theta0 + 2a r + a^2 v takes the SqS3 step length a = max(1, |r| / |v|),
    bounded by a step_max that starts at 1, grows fourfold after a kept
    cycle that used it and shrinks fourfold (not below 1) after a discarded
    one.  The jump is repaired, not projected: each map becomes the least
    nondecreasing majorant of its values clipped to the domain (a map
    frozen for the whole cycle jumps to where it stands), and free weights
    go onto the simplex.  One stabilising sweep follows; it is kept only if
    its risk is at most the risk at theta2, else the fit goes on from theta2.

    The fit returns its last kept iterate.  The report's trajectory holds
    the risk of every iterate kept (each ordinary sweep and each accepted
    stabilising sweep), so it is nonincreasing and ends at the returned
    model's empirical risk.  The fit stops once a kept iterate decreases
    the risk by at most rel_tol times the initial risk (converged), or once
    the trajectory holds max_outer_iter entries after the initial one.  A
    discarded stabilising sweep adds no entry and a cycle discards at most
    one, so a fit runs at most 1.5 max_outer_iter sweeps.  An ordinary
    sweep that raises the risk, which only rounding can do (near a zero
    risk, say), is not kept either: the fit stops at the last kept
    iterate, converged.

    Returns
    -------
    (MtdrModel, FitReport)
    """
    if data.p != p:
        raise ValueError("dataset predictor count does not match p")
    if fixed_weights is not None and fixed_weights.size != p + 1:
        raise ValueError("fixed weights must have length p + 1")

    node_grid = NodeGrid(data.domain, data.prob_grid.size)
    identity = (MonotoneMap.identity(node_grid),) * (p + 1)
    obj = _Objective(data, reference, identity, fixed_weights)
    # the objective holds the live iterate; cycle states are copies of it
    resid = obj.residual()
    trajectory = [obj.risk(resid)]
    cycle = [obj.theta.copy()]
    step_max = 1.0
    converged = False
    while not converged and len(trajectory) <= cfg.max_outer_iter:
        if len(cycle) < 3:  # the cycle's ordinary sweeps theta1, theta2
            resid = obj.sweep(resid)
            risk = obj.risk(resid)
            if risk > trajectory[-1]:  # only rounding: stop at the last kept
                obj.load(cycle[-1])
                converged = True
                break
            cycle.append(obj.theta.copy())
        else:
            theta0, theta1, theta2 = cycle
            r = theta1 - theta0
            v = theta2 - theta1 - r
            norm_v = np.sqrt(_sumsq(v))
            a = min(step_max, max(1.0, np.sqrt(_sumsq(r)) / norm_v)) if norm_v else 1.0
            jump = theta0 + 2.0 * a * r + a * a * v
            resid = obj.sweep(obj.load(obj.project(jump)))  # stabilising
            risk = obj.risk(resid)
            if risk > trajectory[-1]:  # discard it, continue from theta2
                if a == step_max:
                    step_max = max(1.0, step_max / 4.0)
                resid = obj.load(theta2)
                cycle = [theta2]
                continue
            if a == step_max:
                step_max *= 4.0
            cycle = [obj.theta.copy()]
        converged = trajectory[-1] - risk <= cfg.rel_tol * trajectory[0]
        trajectory.append(risk)

    maps = tuple(MonotoneMap(node_grid, z) for z in obj.maps)
    model = MtdrModel(reference, maps, SimplexWeights(obj.alpha))
    return model, FitReport(np.asarray(trajectory), converged)


def predictive_seminorm(model_a: MtdrModel, model_b: MtdrModel, data: DataSet) -> float:
    """Root mean squared Wasserstein gap between two models' predictions.

    Averages the squared distance between the two predicted measures over
    the subjects of data (responses, if any, are ignored).  This is the
    empirical predictive seminorm of the parameter difference.  Both models
    must share the data's predictor count, domain and probability grid.
    """
    obj_a, obj_b = _Objective.of(model_a, data), _Objective.of(model_b, data)
    return float(np.sqrt(obj_a.risk(obj_a.prediction() - obj_b.prediction())))

"""Solvers for the two convex subproblems of the alternating fit.

Map updates reduce to weighted isotonic regression with box constraints,
solved exactly by pool-adjacent-violators over a stack of blocks, then
clipping.  Weight updates are least squares over the probability simplex
in p + 1 unknowns, solved exactly by a primal active set on one
stationarity (KKT) system (Lawson & Hanson 1974), with no cap on p.  It
starts at the centre of the simplex, so when every weight of the
minimizer is positive it ends after one small solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quantile_core import _readonly

__all__ = [
    "IsotonicProblem",
    "SimplexLSProblem",
    "SimplexWeights",
    "weighted_isotonic",
    "simplex_project",
    "simplex_least_squares",
]


@dataclass(frozen=True, eq=False)
class IsotonicProblem:
    """Weighted isotonic regression with box constraints.

    minimize sum_r weights[r] (z_r - targets[r])^2
    subject to z nondecreasing and lo <= z_r <= hi.

    Weights may be zero (those coordinates are free) but not all of them.
    """

    targets: np.ndarray
    weights: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        y = _readonly(np.atleast_1d(self.targets))
        w = _readonly(np.atleast_1d(self.weights))
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "weights", w)
        if y.size != w.size or y.size == 0:
            raise ValueError("targets and weights must share a positive length")
        if not np.all(np.isfinite(y)):
            raise ValueError("targets must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        if not np.any(w > 0.0):
            raise ValueError("at least one weight must be positive")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("box requires finite lo < hi")


def _pava(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pool adjacent violators for strictly positive weights.

    Each value starts a block (mean, weight, length) on a stack; while the
    block below has a larger mean, the two merge into their weighted mean.
    Runs in linear time.
    """
    means, weights, counts = [], [], []
    for m, ws in zip(y.tolist(), w.tolist()):
        count = 1
        while means and means[-1] > m:
            pw = weights.pop()
            tw = pw + ws
            m = (pw * means.pop() + ws * m) / tw
            ws = tw
            count += counts.pop()
        means.append(m)
        weights.append(ws)
        counts.append(count)
    return np.repeat(means, counts)


def weighted_isotonic(prob: IsotonicProblem) -> np.ndarray:
    """Exact solution of a weighted isotonic problem with box constraints.

    Zero-weight coordinates do not constrain the fit; they inherit the value
    of the nearest positive-weight block to the left (or the first block).
    Clipping the unconstrained isotonic solution into the box is exact
    because the objective is separable and the box is an interval.
    """
    y, w = prob.targets, prob.weights
    pos = w > 0.0
    z = _pava(y[pos], w[pos])[np.maximum(np.cumsum(pos) - 1, 0)]
    return np.clip(z, prob.lo, prob.hi)


def simplex_project(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold: find the largest k such that shifting the top k
    coordinates by a common offset lands on the simplex, then clip.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("projection expects a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("projection expects finite entries")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    support = np.nonzero(u + (1.0 - css) / k > 0.0)[0]
    if support.size == 0:
        raise ValueError("projection entries too large: 1 - sum cancels in float64")
    rho = support[-1]
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + tau, 0.0)


@dataclass(frozen=True, eq=False)
class SimplexLSProblem:
    """Least squares over the simplex in normal-equation form.

    minimize a' gram a - 2 lin' a  subject to a in the probability simplex.
    gram must be symmetric positive semidefinite.  Validation also keeps the
    problem's scale, the largest entry of gram and lin in absolute value,
    and the least eigenvalue of gram, which bounds the curvature of every
    face of the simplex from below.
    """

    gram: np.ndarray
    lin: np.ndarray
    _scale: float = field(init=False, repr=False)
    _least_eig: float = field(init=False, repr=False)

    def __post_init__(self):
        G = _readonly(np.atleast_2d(self.gram))
        c = _readonly(np.atleast_1d(self.lin))
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "lin", c)
        n = c.size
        if G.shape != (n, n) or n == 0:
            raise ValueError("gram must be square and match lin")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(c))):
            raise ValueError("gram and lin must be finite")
        g_max = float(np.abs(G).max())
        scale = max(g_max, 1.0)
        if np.abs(G - G.T).max() > 1e-10 * scale:
            raise ValueError("gram must be symmetric")
        least = float(np.linalg.eigvalsh(G).min())
        if least < -1e-10 * scale:
            raise ValueError("gram must be positive semidefinite")
        object.__setattr__(self, "_scale", max(g_max, float(np.abs(c).max())))
        object.__setattr__(self, "_least_eig", least)


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """A point of the probability simplex."""

    values: np.ndarray

    def __post_init__(self):
        a = _readonly(np.atleast_1d(self.values))
        object.__setattr__(self, "values", a)
        if a.size == 0:
            raise ValueError("weights must be nonempty")
        if not np.all(np.isfinite(a)):
            raise ValueError("weights must be finite")
        if np.any(a < 0.0) or abs(a.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to one")

    @classmethod
    def of(cls, values) -> "SimplexWeights":
        """Build from near-simplex input, renormalizing tiny float drift."""
        a = np.asarray(values, dtype=float)
        if a.size == 0:
            raise ValueError("weights must be nonempty")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        s = a.sum()
        if abs(s - 1.0) > 1e-6:
            raise ValueError("weights must sum to one")
        return cls(a / s)

    @property
    def size(self) -> int:
        return self.values.size


# Rounding-level tolerance of simplex_least_squares, relative to the scale
# of G and c: for its optimality test and for telling flat faces.
_TOL = 1e-12


def _face(G: np.ndarray, c: np.ndarray, support: list) -> np.ndarray:
    """The weights solving a support's stationarity system.

    The system's rows are the support's in ascending order, then the border.
    """
    k = len(support)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * G.take(support, 0).take(support, 1)
    kkt[k, k] = 0.0
    rhs = np.ones(k + 1)
    rhs[:k] = 2.0 * c.take(support)
    z = np.linalg.solve(kkt, rhs)
    if not np.isfinite(z).all():
        raise ValueError("simplex least squares overflowed")
    return z[:k]


def _flat(G: np.ndarray, support: list, tol: float):
    """A direction of a support's face along which G does not curve, else None.

    Its entries follow the support's order and sum to zero.  Curvature is
    measured in the basis e_i - e_first of the face's directions.
    """
    if len(support) < 2:
        return None
    Gs = G.take(support, 0).take(support, 1)
    curv, dirs = np.linalg.eigh(Gs[1:, 1:] - Gs[1:, :1] - Gs[:1, 1:] + Gs[0, 0])
    if curv[0] > tol:
        return None
    return np.concatenate(([-dirs[:, 0].sum()], dirs[:, 0]))


def _point(n: int, support: list, z: np.ndarray) -> np.ndarray:
    """Face weights z clipped at zero and renormalized onto the simplex."""
    a = np.zeros(n)
    a[support] = np.maximum(z, 0.0)
    return a / a.sum()


def simplex_least_squares(prob: SimplexLSProblem) -> SimplexWeights:
    """Minimize a' G a - 2 c' a over the simplex by a primal active set.

    A support is a set of weights allowed to be nonzero.  Its face weights
    solve the principal subsystem, the support's rows in ascending order
    and then the border, of the stationarity (KKT) system

        [2 G  1] [a  ]   [2 c]
        [1'   0] [lam] = [1  ],

    and its point is those weights clipped at zero and renormalized onto
    the simplex.  With g = G a - c, a point is optimal exactly when every
    reduced gradient g_j - a'g is nonnegative.  From the centre of the
    simplex, every weight 1 / n on the full support, the method moves
    toward the face weights, dropping each weight that reaches zero on the
    way, then adds the index of least reduced gradient and moves again,
    until no reduced gradient is below -1e-12 times the scale of G and c;
    ties go to the lowest index.  When every weight of the minimizer is
    positive, that is one solve.  Where a face is flat (collinear or
    duplicated columns, a zero G), the objective is linear along it, and
    the step follows it downhill to the boundary instead, toward the
    support's lowest index when level.  Only a G whose least eigenvalue is
    at most that tolerance has flat faces.  Each added index lowers the
    objective, so supports do not repeat and the method is finite; a
    repeat, which only rounding can cause, ends it.  There is no dimension
    cap.
    """
    G, c, tol = prob.gram, prob.lin, _TOL * prob._scale
    n = c.size
    support = list(range(n))
    a = np.full(n, 1.0 / n)
    seen = set()
    while True:
        while True:
            a_s = a[support]
            d = _flat(G, support, tol) if prob._least_eig <= tol else None
            if d is None:
                z = _face(G, c, support)
                if z.min() >= 0.0:
                    a = _point(n, support, z)
                    break
                d = z - a_s  # z has a negative weight: one reaches zero first
            else:  # flat: the objective is linear along d
                slope = (G @ a - c)[support] @ d
                if slope > 0.0 or (slope == 0.0 and d[0] < 0.0):
                    d = -d
            falling = np.flatnonzero(d < 0.0)
            ratios = a_s[falling] / -d[falling]
            k = int(np.argmin(ratios))
            a_s = np.maximum(a_s + ratios[k] * d, 0.0)
            a_s[falling[k]] = 0.0
            a = np.zeros(n)
            a[support] = a_s
            support = [i for i in support if a[i] > 0.0]
        g = G @ a - c
        red = g - a @ g
        red[support] = np.inf
        j = int(np.argmin(red))
        if red[j] >= -tol or tuple(support) in seen:
            return SimplexWeights(a)
        seen.add(tuple(support))
        support = sorted(support + [j])

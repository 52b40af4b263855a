"""Solvers for the two convex subproblems of the alternating fit.

Map updates reduce to weighted isotonic regression with box constraints,
solved exactly by pool-adjacent-violators over a stack of blocks, then
clipping.  Weight updates are least squares over the probability simplex
in p + 1 unknowns, solved exactly by enumerating supports and solving each
support's principal subsystem of one stationarity (KKT) system.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# largest simplex dimension whose supports simplex_least_squares enumerates
_MAX_SIMPLEX_DIM = 16


@dataclass(frozen=True, eq=False)
class SimplexLSProblem:
    """Least squares over the simplex in normal-equation form.

    minimize a' gram a - 2 lin' a  subject to a in the probability simplex.
    gram must be symmetric positive semidefinite.
    """

    gram: np.ndarray
    lin: np.ndarray

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
        scale = max(float(np.abs(G).max()), 1.0)
        if np.abs(G - G.T).max() > 1e-10 * scale:
            raise ValueError("gram must be symmetric")
        if np.linalg.eigvalsh(G).min() < -1e-10 * scale:
            raise ValueError("gram must be positive semidefinite")


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
        if a.size == 0 or not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        s = a.sum()
        if abs(s - 1.0) > 1e-6:
            raise ValueError("weights must sum to one")
        return cls(a / s)

    @property
    def size(self) -> int:
        return self.values.size


def simplex_least_squares(prob: SimplexLSProblem) -> SimplexWeights:
    """Minimize a' G a - 2 c' a over the simplex by support enumeration.

    Some minimizer has a minimal support S whose stationarity system

        [2 G_SS  1] [a_S]   [2 c_S]
        [1'      0] [lam] = [1    ]

    is nonsingular, and its solution is that minimizer.  So solving, for
    every nonempty support, its principal subsystem of the bordered system
    of all n columns, keeping the solutions that are primal feasible (up to
    roundoff, then clipped and renormalized onto the simplex) and returning
    the one with the least objective is exact.
    Every kept candidate is a point of the simplex, and singleton supports
    always solve, so the vertices are always candidates; this covers one
    column and a zero Gram matrix.  The cost is 2^n small solves, so
    dimensions above 16 are refused.
    """
    G, c = prob.gram, prob.lin
    n = c.size
    if n > _MAX_SIMPLEX_DIM:
        raise ValueError(
            f"simplex least squares enumerates supports; dimension {n}"
            f" exceeds the limit of {_MAX_SIMPLEX_DIM}"
        )
    feas_tol = 1e-9 * max(float(np.abs(G).max()), float(np.abs(c).max()), 1.0)
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = 2.0 * G
    kkt[n, n] = 0.0
    rhs = np.append(2.0 * c, 1.0)
    best, best_obj = None, np.inf
    for mask in range(1, 1 << n):
        support = [j for j in range(n) if mask >> j & 1]
        rows = support + [n]
        try:
            a_s = np.linalg.solve(kkt[np.ix_(rows, rows)], rhs[rows])[:-1]
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(a_s)) or a_s.min() < -feas_tol:
            continue
        a = np.zeros(n)
        a[support] = np.maximum(a_s, 0.0)
        a /= a.sum()
        obj = float(a @ (G @ a) - 2.0 * (c @ a))
        if obj < best_obj:
            best, best_obj = a, obj
    return SimplexWeights(best)

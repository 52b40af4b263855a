"""Solvers for the two convex subproblems of the alternating fit.

Map updates reduce to weighted isotonic regression with box constraints,
solved exactly by pool-adjacent-violators followed by clipping.  Weight
updates are least squares over the probability simplex in p + 1 unknowns,
solved exactly by enumerating supports and solving each support's
stationarity system.
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

    Maintains a stack of blocks holding weighted means; merging two blocks
    replaces them by their combined weighted mean.  Runs in linear time.
    """
    n = y.size
    means = np.empty(n)
    wsum = np.empty(n)
    count = np.empty(n, dtype=np.intp)
    top = -1
    for i in range(n):
        top += 1
        means[top] = y[i]
        wsum[top] = w[i]
        count[top] = 1
        while top > 0 and means[top - 1] > means[top]:
            tw = wsum[top - 1] + wsum[top]
            means[top - 1] = (wsum[top - 1] * means[top - 1] + wsum[top] * means[top]) / tw
            wsum[top - 1] = tw
            count[top - 1] += count[top]
            top -= 1
    return np.repeat(means[: top + 1], count[: top + 1])


def weighted_isotonic(prob: IsotonicProblem) -> np.ndarray:
    """Exact solution of a weighted isotonic problem with box constraints.

    Zero-weight coordinates do not constrain the fit; they inherit the value
    of the nearest positive-weight block to the left (or the first block).
    Clipping the unconstrained isotonic solution into the box is exact
    because the objective is separable and the box is an interval.
    """
    y, w = prob.targets, prob.weights
    pos = w > 0.0
    z = np.empty_like(y)
    z[pos] = _pava(y[pos], w[pos])
    if not np.all(pos):
        idx = np.where(pos, np.arange(y.size), -1)
        idx = np.maximum.accumulate(idx)
        idx[idx < 0] = int(np.argmax(pos))
        z = z[idx]
    return np.clip(z, prob.lo, prob.hi)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Projection core without input validation (hot path).

    Sort-and-threshold: find the largest k such that shifting the top k
    coordinates by a common offset lands on the simplex, then clip.  Small
    vectors take a plain-Python route to dodge array overhead.
    """
    n = v.size
    if n <= 8:
        u = sorted(v.tolist(), reverse=True)
        css = 0.0
        tau = 0.0
        for i, ui in enumerate(u):
            css += ui
            offset = (1.0 - css) / (i + 1.0)
            if ui + offset > 0.0:
                tau = offset
        return np.maximum(v + tau, 0.0)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, n + 1)
    rho = np.nonzero(u + (1.0 - css) / k > 0.0)[0][-1]
    tau = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + tau, 0.0)


def simplex_project(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("projection expects a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("projection expects finite entries")
    return _project_simplex(v)


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
        if n <= _MAX_SIMPLEX_DIM and np.linalg.eigvalsh(G).min() < -1e-10 * scale:
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

    is nonsingular, and its solution is that minimizer.  So solving the
    system for every nonempty support, keeping the solutions that are
    primal feasible (up to roundoff, then clipped and renormalized onto the
    simplex) and returning the one with the least objective is exact.
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
    best, best_obj = None, np.inf
    for mask in range(1, 1 << n):
        support = [j for j in range(n) if mask >> j & 1]
        k = len(support)
        sys_mat = np.zeros((k + 1, k + 1))
        sys_mat[:k, :k] = 2.0 * G[np.ix_(support, support)]
        sys_mat[:k, k] = 1.0
        sys_mat[k, :k] = 1.0
        rhs = np.append(2.0 * c[support], 1.0)
        try:
            a_s = np.linalg.solve(sys_mat, rhs)[:k]
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

"""Endpoint-pinned monotone maps of a compact interval, stored on node grids.

A map is represented by its values on spatial nodes, the t probability levels
carried onto the domain: the midpoints of t equal cells.  Evaluation
interpolates the piecewise linear curve through (lo, lo), (x_r, z_r),
(hi, hi), so every map fixes both endpoints and is nondecreasing whenever its
node values are.  The node grid holds these knots lo, nodes..., hi; _Interp
reads maps through them at a quantile stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quantile_core import Domain, ProbGrid, QuantileGrid
from .quantile_core import _checked, _grid_size, _guard_monotone, _sumsq

__all__ = [
    "NodeGrid",
    "MonotoneMap",
    "map_eval",
    "map_l2_distance",
    "pushforward",
]


@dataclass(frozen=True)
class NodeGrid:
    """The t probability levels carried onto a domain: lo + width * level.

    Node r is the midpoint of the r-th of t equal cells.  The nodes are the
    one spelling of the uniform reference's quantiles, so that reference
    reads every map at its nodes exactly.  Every node is strictly interior, and
    evaluation pins the endpoints by augmentation.  knots is the read-only
    (lo, nodes..., hi), built once; evaluation divides by its gaps, so each
    float knot must exceed the last.  A grid is its domain and size: two
    grids are equal when both are, and knots is not compared.
    """

    domain: Domain
    t: int
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t", _grid_size(self.t))
        if self.t < 2:
            raise ValueError("node grid size must be at least 2")
        dom, t = self.domain, self.t
        x = np.concatenate(([dom.lo], dom.lo + dom.width * ProbGrid(t).levels, [dom.hi]))
        if not np.all(x[1:] > x[:-1]):
            raise ValueError(f"domain [{x[0]}, {x[-1]}] cannot hold {t} distinct nodes")
        x.setflags(write=False)
        object.__setattr__(self, "knots", x)

    @classmethod
    def uniform(cls, domain: Domain, t: int) -> "NodeGrid":
        return cls(domain, t)

    @property
    def size(self) -> int:
        return self.t

    @property
    def nodes(self) -> np.ndarray:
        return self.knots[1:-1]


@dataclass(frozen=True, eq=False)
class MonotoneMap:
    """Nondecreasing endpoint-pinned self-map of the domain."""

    grid: NodeGrid
    values: np.ndarray

    def __post_init__(self):
        z = _checked(self.values, self.grid.size, self.grid.domain, "map")
        object.__setattr__(self, "values", z)

    @classmethod
    def identity(cls, grid: NodeGrid) -> "MonotoneMap":
        return cls(grid, grid.nodes)

    def __call__(self, x):
        return map_eval(self, x)


def map_eval(T: MonotoneMap, x):
    """Evaluate the map at points x inside the domain."""
    x_arr = np.asarray(x, dtype=float)
    dom = T.grid.domain
    dom.check_inside(x_arr, "map argument")
    out = np.interp(x_arr, T.grid.knots, np.concatenate(([dom.lo], T.values, [dom.hi])))
    return float(out) if np.isscalar(x) else out


def map_l2_distance(T1: MonotoneMap, T2: MonotoneMap) -> float:
    """L2 distance between maps under the normalized cell quadrature.

    Every cell is 1/t of the domain, so this is sqrt( sum_r (z1_r - z2_r)^2 / t ).
    """
    if T1.grid != T2.grid:
        raise ValueError("node grid mismatch between maps")
    return float(np.sqrt(_sumsq(T1.values - T2.values) / T1.grid.size))


def pushforward(T: MonotoneMap, mu: QuantileGrid) -> QuantileGrid:
    """Image measure of mu under T, as a quantile grid on mu's levels."""
    if T.grid.domain != mu.domain:
        raise ValueError("domain mismatch between map and measure")
    q = map_eval(T, mu.values)
    return QuantileGrid(mu.domain, mu.grid, _guard_monotone(q, mu.domain))


class _Interp:
    """Reading maps on a node grid at fixed points: an affine operator.

    At q in knot segment s at fraction f, node values z read z_ext[s] +
    f (z_ext[s+1] - z_ext[s]), where z_ext = (lo, z, hi) pins the ends; one
    searchsorted fixes s and f for a whole quantile stack.  The adjoint of
    the linear part is two bincounts kept at the nodes, and mass, the
    adjoint of ones, is the interpolation weight each node carries.
    """

    def __init__(self, grid: NodeGrid, points: np.ndarray):
        x, q = grid.knots, np.ravel(points)
        self.s = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.size - 2)
        self.s1 = self.s + 1
        self.f = (q - x[self.s]) / (x[self.s1] - x[self.s])
        self.ext = x.copy()  # z_ext: the ends stay lo and hi, each call sets the nodes
        self.mass = self.adjoint(np.ones(q.size))

    def __call__(self, z: np.ndarray) -> np.ndarray:
        self.ext[1:-1] = z
        base = self.ext[self.s]
        return base + self.f * (self.ext[self.s1] - base)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        fv, size = self.f * v, self.ext.size
        out = np.bincount(self.s, v - fv, minlength=size)
        return (out + np.bincount(self.s1, fv, minlength=size))[1:-1]

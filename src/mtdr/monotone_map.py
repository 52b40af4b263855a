"""Endpoint-pinned monotone maps of a compact interval, stored on node grids.

A map is represented by its values on spatial nodes, the midpoints of t equal
cells of the domain.  Evaluation interpolates the piecewise linear curve
through (lo, lo), (x_r, z_r), (hi, hi), so every map fixes both endpoints and
is nondecreasing whenever its node values are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantile_core import Domain, QuantileGrid, _checked, _guard_monotone

__all__ = [
    "NodeGrid",
    "MonotoneMap",
    "map_eval",
    "map_l2_distance",
    "pushforward",
]


@dataclass(frozen=True)
class NodeGrid:
    """A domain cut into t equal cells, each carrying its midpoint as node.

    edges has t + 1 entries from domain.lo to domain.hi, and node r is the
    midpoint of [edges[r], edges[r+1]], so every node is strictly interior
    and evaluation can pin the endpoints by augmentation; it divides by the
    gaps of the knots lo, nodes..., hi, so each float knot must exceed the
    last.  A grid is its domain and size: two grids are equal when both are.
    """

    domain: Domain
    t: int

    def __post_init__(self):
        if self.t < 2:
            raise ValueError("node grid size must be at least 2")
        x = np.concatenate(([self.domain.lo], self.nodes, [self.domain.hi]))
        if not np.all(x[1:] > x[:-1]):
            raise ValueError(f"domain [{x[0]}, {x[-1]}] cannot hold {self.t} distinct nodes")

    @classmethod
    def uniform(cls, domain: Domain, t: int) -> "NodeGrid":
        return cls(domain, t)

    @property
    def size(self) -> int:
        return self.t

    @property
    def nodes(self) -> np.ndarray:
        dom = self.domain
        return dom.lo + dom.width * (np.arange(self.t) + 0.5) / self.t

    @property
    def edges(self) -> np.ndarray:
        dom = self.domain
        edges = dom.lo + dom.width * np.arange(self.t + 1) / self.t
        # pin the end edges, which lo + width * t / t can miss by rounding
        edges[0], edges[-1] = dom.lo, dom.hi
        return edges

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


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

    def knots(self):
        """Augmented polyline knots pinning both endpoints."""
        dom = self.grid.domain
        x_ext = np.concatenate(([dom.lo], self.grid.nodes, [dom.hi]))
        z_ext = np.concatenate(([dom.lo], self.values, [dom.hi]))
        return x_ext, z_ext

    def __call__(self, x):
        return map_eval(self, x)


def map_eval(T: MonotoneMap, x):
    """Evaluate the map at points x inside the domain."""
    x_arr = np.asarray(x, dtype=float)
    T.grid.domain.check_inside(x_arr, "map argument")
    x_ext, z_ext = T.knots()
    out = np.interp(x_arr, x_ext, z_ext)
    return float(out) if np.isscalar(x) else out


def map_l2_distance(T1: MonotoneMap, T2: MonotoneMap) -> float:
    """L2 distance between maps under the normalized cell quadrature.

    sqrt( sum_r (z1_r - z2_r)^2 h_r / (hi - lo) ), with h_r the cell widths.
    """
    if T1.grid != T2.grid:
        raise ValueError("node grid mismatch between maps")
    diff = T1.values - T2.values
    w = T1.grid.widths / T1.grid.domain.width
    return float(np.sqrt(np.dot(diff * diff, w)))


def pushforward(T: MonotoneMap, mu: QuantileGrid) -> QuantileGrid:
    """Image measure of mu under T, as a quantile grid on mu's levels."""
    if T.grid.domain != mu.domain:
        raise ValueError("domain mismatch between map and measure")
    q = map_eval(T, mu.values)
    return QuantileGrid(mu.domain, mu.grid, _guard_monotone(q, mu.domain))

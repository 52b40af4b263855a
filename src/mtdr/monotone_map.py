"""Endpoint-pinned monotone maps of a compact interval, stored on node grids.

A map is represented by its values on spatial nodes, one node per cell of a
partition of the domain.  Evaluation interpolates the piecewise linear curve
through (lo, lo), (x_r, z_r), (hi, hi), so every map fixes both endpoints and
is nondecreasing whenever its node values are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantile_core import Domain, QuantileGrid, _guard_monotone, _readonly

__all__ = [
    "NodeGrid",
    "MonotoneMap",
    "map_eval",
    "compose_through",
    "map_l2_distance",
    "pushforward",
]


@dataclass(frozen=True, eq=False)
class NodeGrid:
    """Partition of a domain into cells, each carrying one interior node.

    edges has one more entry than nodes, starts at domain.lo and ends at
    domain.hi; node r lies in [edges[r], edges[r+1]].  Nodes are required to
    be strictly interior to the domain so that evaluation can pin the
    endpoints by augmentation.
    """

    domain: Domain
    nodes: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        x = _readonly(np.atleast_1d(self.nodes))
        e = _readonly(np.atleast_1d(self.edges))
        object.__setattr__(self, "nodes", x)
        object.__setattr__(self, "edges", e)
        if x.size < 2:
            raise ValueError("node grid needs at least 2 nodes")
        if e.size != x.size + 1:
            raise ValueError("edges must have one more entry than nodes")
        if e[0] != self.domain.lo or e[-1] != self.domain.hi:
            raise ValueError("edges must span the domain exactly")
        if np.any(np.diff(e) <= 0.0) or np.any(np.diff(x) <= 0.0):
            raise ValueError("edges and nodes must be strictly increasing")
        if np.any(x < e[:-1]) or np.any(x > e[1:]):
            raise ValueError("each node must lie in its cell")
        if x[0] <= self.domain.lo or x[-1] >= self.domain.hi:
            raise ValueError("nodes must be strictly interior to the domain")

    @classmethod
    def uniform(cls, domain: Domain, t: int) -> "NodeGrid":
        """t equal cells with midpoint nodes.

        The end edges are pinned to the domain ends, which lo + width * t / t
        can miss by rounding.
        """
        if t < 2:
            raise ValueError("node grid size must be at least 2")
        edges = domain.lo + domain.width * np.arange(t + 1) / t
        edges[0], edges[-1] = domain.lo, domain.hi
        nodes = domain.lo + domain.width * (np.arange(t) + 0.5) / t
        return cls(domain, nodes, edges)

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def matches(self, other: "NodeGrid") -> bool:
        return (
            self.domain == other.domain
            and self.nodes.size == other.nodes.size
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.edges, other.edges)
        )


@dataclass(frozen=True, eq=False)
class MonotoneMap:
    """Nondecreasing endpoint-pinned self-map of the domain."""

    grid: NodeGrid
    values: np.ndarray

    def __post_init__(self):
        z = _readonly(np.atleast_1d(self.values))
        object.__setattr__(self, "values", z)
        if z.size != self.grid.size:
            raise ValueError("map value length must match node grid size")
        if not np.all(np.isfinite(z)):
            raise ValueError("map values must be finite")
        if np.any(np.diff(z) < 0.0):
            raise ValueError("map values must be nondecreasing")
        dom = self.grid.domain
        if z[0] < dom.lo or z[-1] > dom.hi:
            raise ValueError("map values must lie inside the domain")

    @classmethod
    def identity(cls, grid: NodeGrid) -> "MonotoneMap":
        return cls(grid, grid.nodes.copy())

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


def compose_through(T: MonotoneMap, inner, x):
    """Evaluate T(inner(x)), clamping inner values within a 1e-9 band.

    inner is any callable returning points that should lie in the domain;
    values beyond the clamp band raise.
    """
    y = np.asarray(inner(x), dtype=float)
    y = T.grid.domain.clamp(y, "inner map value")
    out = map_eval(T, y)
    return float(out) if np.isscalar(x) and np.ndim(out) == 0 else out


def map_l2_distance(T1: MonotoneMap, T2: MonotoneMap) -> float:
    """L2 distance between maps under the normalized cell quadrature.

    sqrt( sum_r (z1_r - z2_r)^2 h_r / (hi - lo) ), with h_r the cell widths.
    """
    if not T1.grid.matches(T2.grid):
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

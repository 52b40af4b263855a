"""Quantile-grid representation of probability measures on a compact interval.

A measure is stored through the values of its quantile function on a fixed
grid of probability levels.  This makes one-dimensional Wasserstein geometry
explicit: the 2-Wasserstein distance is the L2 distance between quantile
vectors and barycenters are weighted averages of quantile functions.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "ProbGrid",
    "QuantileGrid",
    "quantile_from_samples",
    "wasserstein_distance",
    "frechet_mean",
]

# Relative width of the clamp band accepted around the domain before an
# input is declared out of range.
CLAMP_REL = 1e-9


def _readonly(a) -> np.ndarray:
    """A read-only float copy of a, so no caller's array aliases it."""
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Domain:
    """Closed interval [lo, hi] carrying all measures and transport maps."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("domain endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError("domain requires lo < hi")
        if not np.isfinite(self.hi - self.lo):
            raise ValueError("domain width must be finite")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @classmethod
    def unit(cls) -> "Domain":
        return cls(0.0, 1.0)

    def check_inside(self, x: np.ndarray, what: str = "value") -> None:
        x = np.asarray(x, dtype=float)
        if x.size and not (self.lo <= x.min() and x.max() <= self.hi):
            raise ValueError(
                f"{what} outside domain [{self.lo}, {self.hi}]"
            )

    def clamp(self, x: np.ndarray, what: str = "value") -> np.ndarray:
        """Clip x into [lo, hi], allowing only a 1e-9-relative overshoot."""
        x = np.asarray(x, dtype=float)
        band = CLAMP_REL * self.width
        if x.size and not (self.lo - band <= x.min() and x.max() <= self.hi + band):
            raise ValueError(
                f"{what} outside domain [{self.lo}, {self.hi}] beyond clamp band"
            )
        return np.clip(x, self.lo, self.hi)


@dataclass(frozen=True)
class ProbGrid:
    """The t midpoint levels (r + 0.5) / t, r = 0 .. t - 1, of [0, 1].

    One level sits at the midpoint of each of t equal subintervals of
    [0, 1], so integrals of squared quantile differences become plain
    averages times the step 1/t.  A grid is its size: two grids are equal
    when their sizes are.
    """

    t: int

    def __post_init__(self):
        object.__setattr__(self, "t", _count(self.t, "grid size", 2))

    @property
    def size(self) -> int:
        return self.t

    @property
    def levels(self) -> np.ndarray:
        return (np.arange(self.t) + 0.5) / self.t

    @property
    def step(self) -> float:
        """Quadrature weight per level, equal to the spacing of the levels."""
        return 1.0 / self.t


def _count(value, what: str, least: int) -> int:
    """value as an int of at least least, else a ValueError naming what."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer") from None
    if count < least:
        raise ValueError(f"{what} must be at least {least}, not {count}")
    return count


def _check_common_gridding(a: "QuantileGrid", b: "QuantileGrid") -> None:
    if a.domain != b.domain:
        raise ValueError("domain mismatch between quantile grids")
    if a.grid != b.grid:
        raise ValueError("grid mismatch between quantile grids")


@dataclass(frozen=True, eq=False)
class QuantileGrid:
    """A probability measure on a domain, stored as quantile values.

    values[r] is the quantile at grid.levels[r]; the vector is nondecreasing
    and confined to [domain.lo, domain.hi].
    """

    domain: Domain
    grid: ProbGrid
    values: np.ndarray

    def __post_init__(self):
        v = _checked(self.values, self.grid.size, self.domain, "quantile")
        object.__setattr__(self, "values", v)


def _checked(values, size: int, domain: Domain, noun: str) -> np.ndarray:
    """values as a read-only vector that holds the invariant, else a ValueError.

    Quantile and map vectors share one invariant: size entries, finite,
    nondecreasing and inside the domain.  noun ("quantile" or "map") names
    the values in the error.
    """
    v = _readonly(np.atleast_1d(values))
    if v.size != size:
        raise ValueError(f"{noun} vector length {v.size} does not match grid size {size}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{noun} values must be finite")
    if np.any(np.diff(v) < 0.0):
        raise ValueError(f"{noun} values must be nondecreasing")
    if v[0] < domain.lo or v[-1] > domain.hi:
        raise ValueError(f"{noun} values must lie inside the domain")
    return v


def _sumsq(x: np.ndarray) -> float:
    """The sum of squares of x, the one rule for every grid sum and norm.

    np.dot and np.linalg.norm leave the summation order to BLAS, which
    splits long vectors over its threads; numpy's own sum does not depend
    on them, so no result changes with the BLAS thread count.
    """
    return float(np.square(x).sum())


def _guard_monotone(q: np.ndarray, domain: Domain) -> np.ndarray:
    """The least nondecreasing majorant of q clipped to the domain, row by row."""
    return np.maximum.accumulate(np.clip(q, domain.lo, domain.hi), axis=-1)


# -- operations ----------------------------------------------------------


def quantile_from_samples(samples, domain: Domain, grid: ProbGrid) -> QuantileGrid:
    """Empirical quantile grid from raw observations of one measure.

    Order statistics are interpolated linearly at rank h = p (m - 1) + 1,
    the classical type-7 estimator.  Samples may overshoot the domain by at
    most a 1e-9-relative band and are clipped back; anything worse raises.

    Parameters
    ----------
    samples : array_like
        Observations, at least one.
    domain : Domain
        Interval the measure lives on.
    grid : ProbGrid
        Levels at which quantiles are recorded.
    """
    s = np.asarray(samples, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    return QuantileGrid(domain, grid, _quantile_rows(s, domain, grid))


def _quantile_rows(stack: np.ndarray, domain: Domain, grid: ProbGrid) -> np.ndarray:
    """quantile_from_samples' values for each row of a stack of finite samples.

    Clamps, applies the type-7 estimator and guards monotonicity.  Every
    step works elementwise along the last axis, so a row of a stack gets
    the bits it gets alone.
    """
    s = domain.clamp(stack, "sample value")
    return _guard_monotone(_type7_rows(s, grid), domain)


def _type7_rows(samples: np.ndarray, grid: ProbGrid) -> np.ndarray:
    """quantile_from_samples' type-7 estimator, applied to each row of samples.

    Reproduces np.quantile(samples, grid.levels, axis=-1, method="linear")
    bit for bit, as rows of shape (..., t): it sorts each row and repeats
    numpy's index and interpolation arithmetic, with the read positions and
    weights computed once per sample size and grid size.
    """
    prev, succ, gamma, upper, rest = _type7_positions(samples.shape[-1], grid.t)
    s = np.sort(samples, axis=-1)
    a, b = s[..., prev], s[..., succ]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * rest, out=out, where=upper)
    return out


@functools.lru_cache(maxsize=64)
def _type7_positions(m: int, t: int) -> tuple:
    """Read positions and weights of the type-7 estimator for m samples.

    Numpy's linear method: virtual index v = (m - 1) * level, read at
    floor(v) and floor(v) + 1, both -1 (the last sample) where v >= m - 1,
    with weight gamma = v - floor(v); the interpolation counts down from
    the upper sample, b - (b - a) * (1 - gamma), where gamma >= 0.5.
    """
    v = (m - 1) * ProbGrid(t).levels
    prev = np.floor(v)
    prev[v >= m - 1] = -1
    succ = np.where(prev < 0, -1, prev + 1).astype(np.intp)
    gamma = v - prev
    arrays = (prev.astype(np.intp), succ, gamma, gamma >= 0.5, 1 - gamma)
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def wasserstein_distance(mu: QuantileGrid, nu: QuantileGrid) -> float:
    """2-Wasserstein distance between two measures on a common grid.

    Equals the L2 distance between quantile vectors under the grid's
    quadrature: sqrt(sum_r (q_mu[r] - q_nu[r])^2 / t).
    """
    _check_common_gridding(mu, nu)
    diff = mu.values - nu.values
    return float(np.sqrt(_sumsq(diff) * mu.grid.step))


def frechet_mean(measures, weights) -> QuantileGrid:
    """Wasserstein barycenter of measures on a common grid.

    The barycenter's quantile vector is the weighted average of the input
    quantile vectors.

    Parameters
    ----------
    measures : sequence of QuantileGrid
        At least one measure; all on the same domain and grid.
    weights : array_like
        Nonnegative weights summing to one.
    """
    measures = list(measures)
    if not measures:
        raise ValueError("empty measure list")
    lam = np.asarray(weights, dtype=float)
    if lam.shape != (len(measures),):
        raise ValueError("one weight per measure required")
    if not (np.all(lam >= 0.0) and abs(lam.sum() - 1.0) <= 1e-12):
        raise ValueError("weights must be nonnegative and sum to one")
    first = measures[0]
    for m in measures[1:]:
        _check_common_gridding(first, m)
    stack = np.stack([m.values for m in measures])
    q = np.einsum("i,ij->j", lam, stack)  # lam @ stack, summed without BLAS
    return QuantileGrid(first.domain, first.grid, _guard_monotone(q, first.domain))

"""Independent brute-force solvers used only to cross-check the fast ones.

Each oracle here follows a different algorithmic route than the library
implementation it checks, so agreement is meaningful evidence rather than
a restatement.
"""

import itertools

import numpy as np


def isotonic_oracle(y, w, lo, hi):
    """Exact box-constrained isotonic least squares by block enumeration.

    Any optimum of min sum w_r (z_r - y_r)^2 subject to z nondecreasing and
    lo <= z <= hi is piecewise constant on consecutive blocks, each block at
    the clip of its weighted mean.  Enumerating all 2^(t-1) consecutive-block
    partitions and keeping the feasible candidate with the smallest objective
    therefore finds the exact solution.  Only practical for small t.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    t = y.size
    if t > 12:
        raise ValueError("oracle is exponential in t; keep t small")
    best, best_obj = None, np.inf
    for cuts in itertools.product([False, True], repeat=t - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [t]
        z = np.empty(t)
        prev = -np.inf
        feasible = True
        for a, b in zip(bounds[:-1], bounds[1:]):
            wsum = w[a:b].sum()
            mean = float(w[a:b] @ y[a:b] / wsum) if wsum > 0 else prev
            val = min(max(mean, lo), hi)
            if val < prev - 1e-15:
                feasible = False
                break
            val = max(val, prev)
            z[a:b] = val
            prev = val
        if not feasible:
            continue
        obj = float(w @ (z - y) ** 2)
        if obj < best_obj:
            best, best_obj = z, obj
    return best


def _ragged_arange(counts):
    """Concatenate arange(c) for every c in counts without a Python loop."""
    counts = np.asarray(counts)
    total = int(counts.sum())
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total) - offsets


def simplex_lattice_blocks(n, steps):
    """Yield blocks of the lattice {a in simplex : steps * a integral}.

    Blocks are float arrays of shape (N, n).  Dimensions 2 and 3 come as a
    single block; dimension 4 is split by its first coordinate so no block
    exceeds a few hundred thousand rows.
    """
    if n == 2:
        i = np.arange(steps + 1)
        yield np.column_stack((i, steps - i)) / steps
    elif n == 3:
        counts = steps + 1 - np.arange(steps + 1)
        i = np.repeat(np.arange(steps + 1), counts)
        j = _ragged_arange(counts)
        yield np.column_stack((i, j, steps - i - j)) / steps
    elif n == 4:
        for i in range(steps + 1):
            rem = steps - i
            counts = rem + 1 - np.arange(rem + 1)
            j = np.repeat(np.arange(rem + 1), counts)
            k = _ragged_arange(counts)
            block = np.column_stack((np.full(j.size, i), j, k, rem - j - k))
            yield block / steps
    else:
        raise ValueError("lattice oracle supports dimensions 2 through 4")


def dense_simplex_minima(grams, lins, resolution):
    """Best lattice objective of a' G a - 2 c' a for a batch of problems.

    All problems must share one dimension; the lattice is generated once and
    every problem is evaluated on each block, which keeps memory flat and
    amortizes the lattice construction.  Returns the array of minima.
    """
    grams = [np.asarray(g, dtype=float) for g in grams]
    lins = [np.asarray(c, dtype=float) for c in lins]
    n = lins[0].size
    steps = int(round(1.0 / resolution))
    best = np.full(len(grams), np.inf)
    for block in simplex_lattice_blocks(n, steps):
        for idx, (G, c) in enumerate(zip(grams, lins)):
            vals = np.einsum("ij,ij->i", block @ G, block) - 2.0 * block @ c
            best[idx] = min(best[idx], float(vals.min()))
    return best


def simplex_projection_bisect(v, iters=200):
    """Simplex projection via bisection on the threshold, for cross-checking.

    The projection is max(v - tau, 0) with tau chosen so the result sums to
    one; the sum is continuous and decreasing in tau, so bisection nails it.
    """
    v = np.asarray(v, dtype=float)
    lo, hi = v.min() - 1.0, v.max()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def riemann_quantile_l2(qa, qb, step):
    """Plain-loop Riemann sum of the squared quantile difference."""
    total = 0.0
    for a, b in zip(qa, qb):
        total += (a - b) ** 2 * step
    return total

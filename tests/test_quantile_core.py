"""Tests for domains, probability grids, quantile grids, and transport ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdr.quantile_core import (
    Domain,
    ProbGrid,
    QuantileGrid,
    _guard_monotone,
    _type7_rows,
    frechet_mean,
    quantile_from_samples,
    wasserstein_distance,
)
from mtdr.fitting import FitReport
from mtdr.monotone_map import MonotoneMap, NodeGrid
from mtdr.solvers import IsotonicProblem, SimplexLSProblem, SimplexWeights

UNIT = Domain(0.0, 1.0)


def uniform_grid(domain, grid):
    """Quantile grid of the uniform law on the domain."""
    return QuantileGrid(domain, grid, domain.lo + domain.width * grid.levels)


def random_quantile_grid(rng, domain=UNIT, t=16):
    grid = ProbGrid(t)
    vals = np.sort(rng.uniform(domain.lo, domain.hi, size=t))
    return QuantileGrid(domain, grid, vals)


class TestDomain:
    def test_basic_fields(self):
        d = Domain(-1.0, 3.0)
        assert d.width == 4.0
        assert Domain.unit() == UNIT

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError, match="lo < hi"):
            Domain(1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            Domain(0.0, np.inf)
        with pytest.raises(ValueError, match="domain width must be finite"):
            Domain(-1e308, 1e308)

    def test_clamp_band(self):
        d = UNIT
        out = d.clamp(np.array([-1e-10, 0.5, 1.0 + 1e-10]))
        assert out[0] == 0.0 and out[-1] == 1.0
        with pytest.raises(ValueError):
            d.clamp(np.array([-1e-3]))
        with pytest.raises(ValueError, match="beyond clamp band"):
            d.clamp(np.array([np.nan, 0.5]))


class TestProbGrid:
    def test_midpoint_levels(self):
        g = ProbGrid(4)
        assert np.allclose(g.levels, [0.125, 0.375, 0.625, 0.875])
        assert g.size == 4 and g.step == 0.25

    def test_step_is_level_spacing(self):
        g = ProbGrid(3)
        assert np.allclose(g.levels, [1 / 6, 1 / 2, 5 / 6])
        assert np.allclose(np.diff(g.levels), g.step)
        assert g.levels[0] > 0.0 and g.levels[-1] < 1.0

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="at least 2"):
            ProbGrid(1)
        with pytest.raises(ValueError, match="at least 2"):
            ProbGrid(0)
        for size in (2.5, 5.0, "5"):
            with pytest.raises(ValueError, match="grid size must be an integer"):
                ProbGrid(size)
        assert ProbGrid(np.int64(5)) == ProbGrid(5)
        assert type(ProbGrid(np.int64(5)).size) is int

    def test_matches(self):
        assert ProbGrid(5) == ProbGrid(5)
        assert hash(ProbGrid(5)) == hash(ProbGrid(5))
        assert ProbGrid(5) != ProbGrid(6)


class TestQuantileGrid:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            QuantileGrid(UNIT, ProbGrid(3), np.array([0.5, 0.4, 0.6]))

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError, match="inside the domain"):
            QuantileGrid(UNIT, ProbGrid(3), np.array([0.1, 0.5, 1.5]))


@pytest.mark.parametrize(
    "build, field, values",
    [
        (lambda v: QuantileGrid(UNIT, ProbGrid(2), v), "values", [0.1, 0.5]),
        (lambda v: MonotoneMap(NodeGrid(UNIT, 2), v), "values", [0.2, 0.6]),
        (SimplexWeights, "values", [0.25, 0.75]),
        (lambda v: FitReport(v, True), "trajectory", [1.0, 0.5]),
        (lambda v: IsotonicProblem(v, np.ones(2), 0.0, 1.0), "targets", [0.3, 0.1]),
        (lambda v: SimplexLSProblem(np.eye(2), v), "lin", [0.3, 0.1]),
    ],
    ids=["QuantileGrid", "MonotoneMap", "SimplexWeights", "FitReport",
         "IsotonicProblem", "SimplexLSProblem"],
)  # fmt: skip
def test_value_objects_own_their_arrays(build, field, values):
    # built from a row of a writable array, an object neither freezes the
    # row nor follows later writes to it
    base = np.array([values])
    row = base[0]
    obj = build(row)
    base[0, 0] = 7.0
    assert getattr(obj, field).tolist() == values
    assert row.flags.writeable and not getattr(obj, field).flags.writeable


class TestGuardMonotone:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_output_valid_and_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-0.2, 1.2, size=12)
        out = _guard_monotone(raw, UNIT)
        assert np.all(np.diff(out) >= 0.0)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.array_equal(_guard_monotone(out, UNIT), out)

    def test_no_change_when_already_valid(self):
        vals = np.array([0.1, 0.4, 0.4, 0.9])
        assert np.array_equal(_guard_monotone(vals, UNIT), vals)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_stack_is_guarded_row_by_row(self, seed):
        # the fit repairs its whole map block, one map per row, in one call
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-0.2, 1.2, size=(4, 12))
        out = _guard_monotone(raw, UNIT)
        assert np.array_equal(out, [_guard_monotone(row, UNIT) for row in raw])
        # each row is the least nondecreasing majorant of its clipped input
        for row, c in zip(out, np.clip(raw, 0.0, 1.0)):
            assert np.array_equal(row, [c[: i + 1].max() for i in range(c.size)])


class TestQuantileFromSamples:
    def test_two_point_sample_hand_values(self):
        grid = ProbGrid(4)
        qg = quantile_from_samples([0.2, 0.8], UNIT, grid)
        assert np.allclose(qg.values, [0.275, 0.425, 0.575, 0.725], atol=1e-15)

    def test_degenerate_sample(self):
        qg = quantile_from_samples([0.3] * 9, UNIT, ProbGrid(6))
        assert np.all(qg.values == 0.3)

    def test_uniform_monte_carlo_identity(self):
        rng = np.random.default_rng(77)
        grid = ProbGrid(100)
        qg = quantile_from_samples(rng.uniform(size=10**5), UNIT, grid)
        assert np.max(np.abs(qg.values - grid.levels)) < 0.01

    def test_empty_and_invalid(self):
        with pytest.raises(ValueError, match="empty sample"):
            quantile_from_samples([], UNIT, ProbGrid(3))
        with pytest.raises(ValueError):
            quantile_from_samples([0.2, 2.0], UNIT, ProbGrid(3))

    def test_band_overshoot_clipped(self):
        qg = quantile_from_samples([-1e-11, 1.0 + 1e-11], UNIT, ProbGrid(4))
        assert qg.values.min() >= 0.0 and qg.values.max() <= 1.0


class TestType7Rows:
    """The sort-based kernel is numpy's type-7 estimator, bit for bit."""

    SAMPLES = {
        "random": lambda rng, shape: rng.normal(size=shape),
        "tied": lambda rng, shape: rng.integers(0, 4, size=shape) / 4.0,
        "constant": lambda rng, shape: np.full(shape, 0.3),
    }

    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    @pytest.mark.parametrize("m", [1, 2, 3, 10, 200, 399])
    @pytest.mark.parametrize("rows", [None, 5])
    def test_equals_numpy_linear(self, kind, m, rows):
        rng = np.random.default_rng(m)
        shape = (m,) if rows is None else (rows, m)
        for t in (2, 3, 7, 299, 300, 499):
            samples = self.SAMPLES[kind](rng, shape)
            grid = ProbGrid(t)
            expected = np.quantile(samples, grid.levels, axis=-1, method="linear").T
            got = _type7_rows(samples, grid)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_leaves_samples_unchanged(self):
        samples = np.random.default_rng(5).random((3, 20))
        before = samples.copy()
        _type7_rows(samples, ProbGrid(9))
        assert np.array_equal(samples, before)


class TestWassersteinDistance:
    def test_identity_and_translation(self):
        grid = ProbGrid(50)
        dom = Domain(0.0, 3.0)
        mu = QuantileGrid(dom, grid, 0.5 + grid.levels)
        nu = QuantileGrid(dom, grid, 0.9 + grid.levels)
        assert wasserstein_distance(mu, mu) == 0.0
        assert wasserstein_distance(mu, nu) == pytest.approx(0.4, abs=1e-12)

    def test_uniform_scaling_closed_form(self):
        grid = ProbGrid(1000)
        dom = Domain(0.0, 2.0)
        mu = QuantileGrid(dom, grid, grid.levels)
        nu = QuantileGrid(dom, grid, 2.0 * grid.levels)
        assert wasserstein_distance(mu, nu) == pytest.approx(1 / np.sqrt(3), abs=2e-3)

    def test_grid_mismatch(self):
        a = uniform_grid(UNIT, ProbGrid(4))
        b = uniform_grid(UNIT, ProbGrid(5))
        with pytest.raises(ValueError, match="grid mismatch"):
            wasserstein_distance(a, b)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120)
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_quantile_grid(rng, t=12) for _ in range(3))
        dab = wasserstein_distance(a, b)
        assert dab == wasserstein_distance(b, a)
        assert dab <= wasserstein_distance(a, c) + wasserstein_distance(c, b) + 1e-12
        assert wasserstein_distance(a, a) == 0.0


class TestFrechetMean:
    def test_single_measure(self, rng):
        mu = random_quantile_grid(rng)
        out = frechet_mean([mu], [1.0])
        assert np.array_equal(out.values, mu.values)

    def test_two_uniforms(self):
        grid = ProbGrid(100)
        dom = Domain(0.0, 2.0)
        mu = QuantileGrid(dom, grid, grid.levels)
        nu = QuantileGrid(dom, grid, 2.0 * grid.levels)
        out = frechet_mean([mu, nu], [0.5, 0.5])
        assert np.allclose(out.values, 1.5 * grid.levels, atol=1e-15)

    def test_constant_linearity(self):
        grid = ProbGrid(6)
        a = QuantileGrid(UNIT, grid, np.full(6, 0.2))
        b = QuantileGrid(UNIT, grid, np.full(6, 0.8))
        out = frechet_mean([a, b], [0.25, 0.75])
        assert np.allclose(out.values, 0.65, atol=1e-15)

    def test_weight_validation(self, rng):
        mu = random_quantile_grid(rng)
        with pytest.raises(ValueError, match="sum to one"):
            frechet_mean([mu, mu], [0.5, 0.6])
        with pytest.raises(ValueError, match="nonnegative and sum to one"):
            frechet_mean([mu, mu], [np.nan, np.nan])
        with pytest.raises(ValueError, match="empty measure list"):
            frechet_mean([], [])

    @given(seed=st.integers(0, 2**32 - 1))
    def test_minimizes_weighted_squared_distance(self, seed):
        rng = np.random.default_rng(seed)
        measures = [random_quantile_grid(rng, t=10) for _ in range(3)]
        lam = rng.dirichlet(np.ones(3))
        mean = frechet_mean(measures, lam)

        def objective(qg):
            return sum(
                w * wasserstein_distance(qg, m) ** 2 for w, m in zip(lam, measures)
            )

        base = objective(mean)
        for _ in range(5):
            bumped = _guard_monotone(
                mean.values + rng.normal(scale=0.01, size=10), UNIT
            )
            other = QuantileGrid(UNIT, mean.grid, bumped)
            assert objective(other) >= base - 1e-12

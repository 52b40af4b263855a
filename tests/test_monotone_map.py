"""Tests for node grids, piecewise-linear monotone maps, and pushforwards."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtdr.cli import _resolve_reference
from mtdr.fitting import DataSet, Subject
from mtdr.monotone_map import (
    MonotoneMap,
    NodeGrid,
    _Interp,
    map_eval,
    map_l2_distance,
    pushforward,
)
from mtdr.quantile_core import Domain, ProbGrid, QuantileGrid
from mtdr.simulation import generate_dataset, sine_warp, single_predictor_scenario

UNIT = Domain(0.0, 1.0)


def random_map(rng, grid):
    vals = np.sort(rng.uniform(0.0, 1.0, size=grid.size))
    return MonotoneMap(grid, vals)


class TestNodeGrid:
    def test_uniform_midpoints(self):
        g = NodeGrid(UNIT, 4)
        assert np.array_equal(g.knots, [0.0, 0.125, 0.375, 0.625, 0.875, 1.0])

    def test_scales_with_domain(self):
        g = NodeGrid(Domain(0.0, 100.0), 5)
        assert g.knots[0] == 0.0 and g.knots[-1] == 100.0
        assert np.allclose(g.nodes, [10.0, 30.0, 50.0, 70.0, 90.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            NodeGrid(UNIT, 1)
        with pytest.raises(ValueError, match="at least 2"):
            NodeGrid(UNIT, 0)
        for size in (4.5, 4.0, "4"):
            with pytest.raises(ValueError, match="grid size must be an integer"):
                NodeGrid(UNIT, size)
        assert NodeGrid(UNIT, np.int64(4)) == NodeGrid(UNIT, 4)

    def test_knots_are_ends_and_nodes(self):
        dom = Domain(-2.0, 5.0)
        g = NodeGrid(dom, 6)
        assert np.array_equal(g.knots, np.concatenate(([dom.lo], g.nodes, [dom.hi])))
        assert np.array_equal(g.nodes, dom.lo + dom.width * ProbGrid(6).levels)
        with pytest.raises(ValueError, match="read-only"):
            g.knots[1] = 0.0

    @pytest.mark.parametrize(
        "domain",
        # at t = 100 the knots lo, nodes..., hi hold 33 and 41 distinct floats
        [Domain(1e16, 1e16 + 64), Domain(0.0, 2e-322)],
        ids=["far_from_zero", "subnormal"],
    )
    def test_rejects_domains_without_distinct_knots(self, domain):
        with pytest.raises(ValueError, match="cannot hold 100 distinct nodes"):
            NodeGrid(domain, 100)

    @pytest.mark.parametrize("t", [2, 20, 300, 1000])
    @pytest.mark.parametrize(
        "domain",
        [(0.0, 100.0), (-1.0, 0.9), (10.0, 20.0), (0.0, 1e-3), (0.0, 1.0)],
        ids=str,
    )
    def test_nodes_are_the_uniform_reference(self, domain, t):
        # the cli's uniform reference is built from the nodes, so every map
        # reads there at its own node values
        dom = Domain(*domain)
        grid = NodeGrid(dom, t)
        subject = Subject((), QuantileGrid(dom, ProbGrid(t), np.full(t, dom.lo)))
        reference = _resolve_reference("uniform", DataSet((subject,))).values
        assert np.array_equal(grid.nodes, reference)
        assert np.all(_Interp(grid, reference).f == 0.0)
        T = MonotoneMap(grid, np.sort(np.random.default_rng(t).uniform(*domain, size=t)))
        assert np.array_equal(T(reference), T.values)
        if dom == UNIT:  # the simulation's truth reference is the same grid
            spec = single_predictor_scenario(0.5, n=1, m=2, reps=1)
            truth = generate_dataset(spec, np.random.default_rng(0), t=t).truth
            assert truth.reference.values.tobytes() == grid.nodes.tobytes()

    def test_matches(self):
        assert NodeGrid(UNIT, 6) == NodeGrid(UNIT, 6)
        assert hash(NodeGrid(UNIT, 6)) == hash(NodeGrid(UNIT, 6))
        assert "knots" not in repr(NodeGrid(UNIT, 6))
        assert NodeGrid(UNIT, 6) != NodeGrid(UNIT, 7)
        assert NodeGrid(UNIT, 6) != NodeGrid(Domain(0.0, 2.0), 6)


class TestMonotoneMap:
    def test_identity_fixed_points(self):
        grid = NodeGrid(UNIT, 10)
        ident = MonotoneMap.identity(grid)
        x = np.linspace(0.0, 1.0, 33)
        assert np.allclose(ident(x), x, atol=1e-15)

    def test_eval_at_nodes_exact(self, rng):
        grid = NodeGrid(UNIT, 12)
        T = random_map(rng, grid)
        assert np.array_equal(np.asarray(T(grid.nodes)), T.values)

    def test_endpoints_pinned_to_domain(self, rng):
        grid = NodeGrid(UNIT, 7)
        T = random_map(rng, grid)
        # knots extend through (lo, lo) and (hi, hi)
        assert T(0.0) == 0.0 and T(1.0) == 1.0

    def test_interpolation_error_against_direct_formula(self):
        grid = NodeGrid(UNIT, 200)
        T = MonotoneMap(grid, sine_warp(1, grid.nodes))
        x = np.linspace(0.0, 1.0, 501)
        assert np.max(np.abs(np.asarray(T(x)) - sine_warp(1, x))) < 5e-4

    def test_validation(self):
        grid = NodeGrid(UNIT, 3)
        with pytest.raises(ValueError, match="nondecreasing"):
            MonotoneMap(grid, np.array([0.5, 0.2, 0.8]))
        with pytest.raises(ValueError, match="inside the domain"):
            MonotoneMap(grid, np.array([0.1, 0.5, 1.4]))
        for x in (1.5, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="map argument outside domain"):
                MonotoneMap.identity(grid)(x)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_eval_is_monotone(self, seed):
        rng = np.random.default_rng(seed)
        grid = NodeGrid(UNIT, 9)
        T = random_map(rng, grid)
        x = np.sort(rng.uniform(size=25))
        out = np.asarray(T(x))
        assert np.all(np.diff(out) >= -1e-15)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestInterp:
    """The fit's operator reads maps as map_eval does, and has an exact adjoint."""

    DOM = Domain(-2.0, 5.0)

    def stack(self, rng, grid):
        # random points plus every knot, where segments meet
        q = rng.uniform(self.DOM.lo, self.DOM.hi, size=(4, 30))
        return np.concatenate((q.ravel(), grid.knots))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_map_eval(self, seed):
        rng = np.random.default_rng(seed)
        grid = NodeGrid(self.DOM, 11)
        T = MonotoneMap(grid, np.sort(rng.uniform(self.DOM.lo, self.DOM.hi, 11)))
        Q = self.stack(rng, grid)
        got = _Interp(grid, Q)(T.values)
        assert np.max(np.abs(got - map_eval(T, Q))) <= 1e-15 * self.DOM.width

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_identity(self, seed):
        rng = np.random.default_rng(seed)
        grid = NodeGrid(self.DOM, 11)
        Q = self.stack(rng, grid)
        P = _Interp(grid, Q)
        z1, z2 = rng.normal(size=(2, 11))
        v = rng.normal(size=Q.size)
        # P is affine in the node values, so differences remove the pinned ends
        lhs = np.dot(P(z1) - P(z2), v)
        assert lhs == pytest.approx(np.dot(z1 - z2, P.adjoint(v)), rel=1e-12)

    def test_mass_is_adjoint_of_ones(self, rng):
        grid = NodeGrid(self.DOM, 11)
        Q = self.stack(rng, grid)
        P = _Interp(grid, Q)
        assert P.mass.shape == (11,)
        assert np.array_equal(P.mass, P.adjoint(np.ones(Q.size)))


class TestMapL2Distance:
    def test_zero_on_self(self, rng):
        grid = NodeGrid(UNIT, 15)
        T = random_map(rng, grid)
        assert map_l2_distance(T, T) == 0.0

    def test_identity_vs_first_warp_closed_form(self):
        grid = NodeGrid(UNIT, 2000)
        ident = MonotoneMap.identity(grid)
        warped = MonotoneMap(grid, sine_warp(1, grid.nodes))
        # L2 norm of sin(pi x)/pi on [0, 1]
        assert map_l2_distance(ident, warped) == pytest.approx(
            1.0 / (np.pi * np.sqrt(2.0)), abs=1e-6
        )

    def test_symmetry_and_mismatch(self, rng):
        grid = NodeGrid(UNIT, 9)
        a, b = random_map(rng, grid), random_map(rng, grid)
        assert map_l2_distance(a, b) == map_l2_distance(b, a)
        with pytest.raises(ValueError, match="node grid mismatch"):
            map_l2_distance(a, random_map(rng, NodeGrid(UNIT, 10)))

    def test_normalized_by_domain_width(self):
        dom = Domain(0.0, 4.0)
        grid = NodeGrid(dom, 100)
        lowered = MonotoneMap(grid, np.clip(grid.nodes - 1.0, 0.0, 4.0))
        ident = MonotoneMap.identity(grid)
        # difference is x on [0,1] and 1 on [1,4]: integral 10/3 over width 4
        assert map_l2_distance(ident, lowered) == pytest.approx(
            np.sqrt(5.0 / 6.0), abs=0.02
        )

    def test_root_mean_square_of_node_gaps(self, rng):
        # every cell is 1/t of the domain, so the quadrature is a plain mean
        grid = NodeGrid(Domain(-3.0, 7.0), 257)
        a, b = (MonotoneMap(grid, np.sort(rng.uniform(-3.0, 7.0, 257))) for _ in "ab")
        assert map_l2_distance(a, b) == np.sqrt(np.mean((a.values - b.values) ** 2))


class TestPushforward:
    def test_identity_keeps_measure(self, rng):
        grid = NodeGrid(UNIT, 11)
        prob = ProbGrid(11)
        mu = QuantileGrid(UNIT, prob, np.sort(rng.uniform(size=11)))
        out = pushforward(MonotoneMap.identity(grid), mu)
        assert np.allclose(out.values, mu.values, atol=1e-15)

    def test_uniform_through_warp(self):
        t = 300
        grid = NodeGrid(UNIT, t)
        prob = ProbGrid(t)
        mu = QuantileGrid(UNIT, prob, prob.levels)
        T = MonotoneMap(grid, sine_warp(2, grid.nodes))
        out = pushforward(T, mu)
        assert np.max(np.abs(out.values - sine_warp(2, prob.levels))) < 1e-4

    def test_result_is_valid_grid(self, rng):
        grid = NodeGrid(UNIT, 20)
        prob = ProbGrid(20)
        mu = QuantileGrid(UNIT, prob, np.sort(rng.uniform(size=20)))
        out = pushforward(random_map(rng, grid), mu)
        assert np.all(np.diff(out.values) >= 0.0)
        assert out.domain == mu.domain

    def test_domain_mismatch(self, rng):
        grid = NodeGrid(Domain(0.0, 2.0), 6)
        prob = ProbGrid(6)
        mu = QuantileGrid(UNIT, prob, np.sort(rng.uniform(size=6)))
        with pytest.raises(ValueError, match="domain mismatch"):
            pushforward(MonotoneMap.identity(grid), mu)

    def test_quantile_identity_with_map_eval(self, rng):
        grid = NodeGrid(UNIT, 16)
        prob = ProbGrid(16)
        mu = QuantileGrid(UNIT, prob, np.sort(rng.uniform(size=16)))
        T = random_map(rng, grid)
        out = pushforward(T, mu)
        assert np.allclose(out.values, np.asarray(T(mu.values)), atol=1e-15)

"""Tests for weighted isotonic regression and simplex-constrained least squares."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdr.solvers import (
    IsotonicProblem,
    SimplexLSProblem,
    SimplexWeights,
    simplex_least_squares,
    simplex_project,
    weighted_isotonic,
)
from oracles import (
    dense_simplex_minima,
    isotonic_oracle,
    simplex_ls_oracle,
    simplex_projection_bisect,
)


def random_psd_problem(rng, n, cols=8):
    """Gram and linear term from a random least-squares design."""
    B = rng.normal(size=(cols, n))
    target = rng.normal(size=cols)
    return SimplexLSProblem(B.T @ B, B.T @ target), B, target


PROBLEM_KINDS = [
    "random", "rank_deficient", "duplicated", "near_collinear", "zero_gram", "off_range",
]


def problem_of_kind(rng, kind, n):
    """A simplex least squares problem of one of PROBLEM_KINDS.

    All but the last two come from a design B and a target y (G = B'B,
    c = B'y); zero_gram has G = 0, and off_range a rank-deficient G with
    a linear term outside its range, so that faces can be flat (the
    objective linear along a direction of the face).
    """
    rows = n + 3
    B = rng.normal(size=(rows, n)) * rng.uniform(0.1, 10.0)
    y = rng.normal(size=rows) * np.abs(B).max()
    if kind == "rank_deficient":
        B = B[: max(1, n // 2)]
        y = y[: B.shape[0]]
    elif kind == "duplicated" and n > 1:
        B[:, rng.integers(1, n)] = B[:, 0]
    elif kind == "near_collinear" and n > 1:
        B[:, -1] = B[:, 0] + 1e-4 * rng.normal(size=rows)
    elif kind == "zero_gram":
        return SimplexLSProblem(np.zeros((n, n)), rng.normal(size=n))
    elif kind == "off_range":
        B = np.round(B[: int(rng.integers(1, n + 1))])
        return SimplexLSProblem(B.T @ B, np.round(2.0 * rng.normal(size=n)))
    return SimplexLSProblem(B.T @ B, B.T @ y)


def objective(prob, a):
    return float(a @ (prob.gram @ a) - 2.0 * (prob.lin @ a))


class TestIsotonicProblem:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive length"):
            IsotonicProblem(np.array([]), np.array([]), 0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            IsotonicProblem(np.array([np.nan]), np.array([1.0]), 0.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            IsotonicProblem(np.array([0.5]), np.array([-1.0]), 0.0, 1.0)
        with pytest.raises(ValueError, match="at least one weight"):
            IsotonicProblem(np.array([0.5, 0.5]), np.zeros(2), 0.0, 1.0)
        with pytest.raises(ValueError, match="lo < hi"):
            IsotonicProblem(np.array([0.5]), np.array([1.0]), 1.0, 0.0)


class TestWeightedIsotonic:
    def test_monotone_input_unchanged(self):
        y = np.array([0.1, 0.3, 0.3, 0.8])
        out = weighted_isotonic(IsotonicProblem(y, np.ones(4), 0.0, 1.0))
        assert np.array_equal(out, y)

    def test_unweighted_pooling_example(self):
        prob = IsotonicProblem(np.array([0.0, 0.6, 0.4, 1.0]), np.ones(4), 0.0, 1.0)
        assert np.allclose(weighted_isotonic(prob), [0.0, 0.5, 0.5, 1.0], atol=1e-15)

    def test_weighted_pooling_example(self):
        prob = IsotonicProblem(
            np.array([0.0, 0.9, 0.1, 1.0]), np.array([1.0, 3.0, 1.0, 1.0]), 0.0, 1.0
        )
        assert np.allclose(weighted_isotonic(prob), [0.0, 0.7, 0.7, 1.0], atol=1e-15)

    def test_box_clipping(self):
        prob = IsotonicProblem(np.array([-0.5, 0.2, 1.7]), np.ones(3), 0.0, 1.0)
        out = weighted_isotonic(prob)
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_zero_weight_nodes_follow_left_neighbor(self):
        y = np.array([0.2, 9.0, 0.6])
        w = np.array([1.0, 0.0, 1.0])
        out = weighted_isotonic(IsotonicProblem(y, w, 0.0, 10.0))
        assert out[1] == out[0]
        # leading zero-weight nodes copy the first positive one
        out2 = weighted_isotonic(
            IsotonicProblem(np.array([5.0, 0.3, 0.7]), np.array([0.0, 1.0, 1.0]), 0.0, 10.0)
        )
        assert out2[0] == out2[1]

    def test_idempotent(self, rng):
        y, w = rng.uniform(size=9), rng.uniform(0.1, 2.0, size=9)
        out = weighted_isotonic(IsotonicProblem(y, w, 0.0, 1.0))
        again = weighted_isotonic(IsotonicProblem(out, w, 0.0, 1.0))
        assert np.allclose(again, out, atol=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 8), zeros=st.booleans())
    @settings(max_examples=150)
    def test_matches_block_enumeration_oracle(self, seed, t, zeros):
        rng = np.random.default_rng(seed)
        y = rng.uniform(-0.3, 1.3, size=t)
        w = rng.uniform(0.1, 3.0, size=t)
        if zeros:
            w[rng.uniform(size=t) < 0.5] = 0.0
            w[rng.integers(t)] = 1.0
        out = weighted_isotonic(IsotonicProblem(y, w, 0.0, 1.0))
        best = isotonic_oracle(y, w, 0.0, 1.0)
        assert np.all(np.diff(out) >= 0.0) and out.min() >= 0.0 and out.max() <= 1.0
        # zero-weight nodes make the optimum non-unique: compare objectives
        assert w @ (out - y) ** 2 - w @ (best - y) ** 2 <= 1e-12
        if not zeros:
            assert np.max(np.abs(out - best)) < 1e-9

    @pytest.mark.parametrize("t", [50, 300, 1000])
    def test_long_inputs_match_independent_pava(self, rng, t):
        from scipy.optimize import isotonic_regression

        for _ in range(5):
            y = np.linspace(0.0, 4.0, t) + rng.normal(size=t)
            w = np.exp(rng.uniform(-6.0, 6.0, size=t))
            out = weighted_isotonic(IsotonicProblem(y, w, y.min(), y.max()))
            ref = isotonic_regression(y, weights=w).x
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.abs(y).max()

    @given(seed=st.integers(0, 2**32 - 1))
    def test_output_feasible(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 30))
        y = rng.normal(size=t)
        w = rng.uniform(0.0, 1.0, size=t)
        if not np.any(w > 0):
            w[0] = 1.0
        out = weighted_isotonic(IsotonicProblem(y, w, -0.5, 0.5))
        assert np.all(np.diff(out) >= 0.0)
        assert out.min() >= -0.5 and out.max() <= 0.5


class TestSimplexProject:
    def test_fixed_points_and_vertex(self):
        assert np.allclose(simplex_project(np.array([0.2, 0.5, 0.3])), [0.2, 0.5, 0.3])
        assert np.allclose(simplex_project(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_threshold_example(self):
        assert np.allclose(simplex_project(np.array([0.8, 0.4])), [0.7, 0.3], atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            simplex_project(np.array([]))
        with pytest.raises(ValueError, match="finite"):
            simplex_project(np.array([np.inf, 0.0]))
        # entries so large that 1 - sum cancels leave no threshold to pick
        for v in ([1e20], [3e16, 1.0]):
            with pytest.raises(ValueError, match="too large"):
                simplex_project(np.array(v))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    @settings(max_examples=150)
    def test_matches_bisection_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        v = rng.normal(scale=3.0, size=n)
        out = simplex_project(v)
        assert np.allclose(out, simplex_projection_bisect(v), atol=1e-10)
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_idempotent_and_nonexpansive(self, seed):
        rng = np.random.default_rng(seed)
        v, u = rng.normal(size=(2, 5))
        pv, pu = simplex_project(v), simplex_project(u)
        assert np.allclose(simplex_project(pv), pv, atol=1e-12)
        assert np.linalg.norm(pv - pu) <= np.linalg.norm(v - u) + 1e-12

    def test_shift_invariance(self, rng):
        v = rng.normal(size=6)
        assert np.allclose(simplex_project(v), simplex_project(v + 13.7), atol=1e-9)


class TestSimplexLSProblem:
    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            SimplexLSProblem(np.ones((2, 3)), np.ones(3))
        with pytest.raises(ValueError, match="symmetric"):
            SimplexLSProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            SimplexLSProblem(np.full((2, 2), np.nan), np.ones(2))
        with pytest.raises(ValueError, match="semidefinite"):
            SimplexLSProblem(np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones(2))


class TestSimplexWeights:
    def test_strict_constructor(self):
        w = SimplexWeights(np.array([0.25, 0.75]))
        assert w.values.sum() == 1.0
        with pytest.raises(ValueError, match="sum to one"):
            SimplexWeights(np.array([0.3, 0.3]))
        with pytest.raises(ValueError, match="nonnegative"):
            SimplexWeights(np.array([-0.1, 1.1]))

    def test_of_normalizes_small_drift(self):
        w = SimplexWeights.of([0.5 + 2e-7, 0.5])
        assert w.values.sum() == pytest.approx(1.0, abs=1e-15)


class TestSimplexLeastSquares:
    def test_single_column(self):
        prob = SimplexLSProblem(np.array([[2.0]]), np.array([0.3]))
        assert np.array_equal(simplex_least_squares(prob).values, [1.0])

    def test_recovers_interior_mixture(self, rng):
        B = rng.normal(size=(30, 3))
        alpha = np.array([0.2, 0.5, 0.3])
        target = B @ alpha
        prob = SimplexLSProblem(B.T @ B, B.T @ target)
        out = simplex_least_squares(prob)
        assert np.max(np.abs(out.values - alpha)) < 1e-8

    def test_recovers_even_mixture(self, rng):
        B = rng.normal(size=(20, 2))
        target = 0.5 * B[:, 0] + 0.5 * B[:, 1]
        prob = SimplexLSProblem(B.T @ B, B.T @ target)
        assert np.max(np.abs(simplex_least_squares(prob).values - 0.5)) < 1e-8

    def test_boundary_solution(self, rng):
        B = rng.normal(size=(20, 2))
        prob = SimplexLSProblem(B.T @ B, B.T @ B[:, 1])
        out = simplex_least_squares(prob)
        assert np.max(np.abs(out.values - np.array([0.0, 1.0]))) < 1e-8

    def test_beats_vertices_and_uniform(self, rng):
        for _ in range(10):
            prob, _, _ = random_psd_problem(rng, 4)
            G, c = prob.gram, prob.lin

            def obj(a):
                return a @ G @ a - 2.0 * c @ a

            best = obj(simplex_least_squares(prob).values)
            for k in range(4):
                vertex = np.zeros(4)
                vertex[k] = 1.0
                assert best <= obj(vertex) + 1e-10
            assert best <= obj(np.full(4, 0.25)) + 1e-10

    def test_near_collinear_columns(self, rng):
        base = rng.normal(size=40)
        B = np.column_stack([base, base + 1e-4 * rng.normal(size=40)])
        target = base + rng.normal(scale=0.1, size=40)
        prob = SimplexLSProblem(B.T @ B, B.T @ target)
        out = simplex_least_squares(prob)
        assert out.values.min() >= 0.0
        assert out.values.sum() == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
    @settings(max_examples=40)
    def test_matches_coarse_grid_search(self, seed, n):
        rng = np.random.default_rng(seed)
        prob, _, _ = random_psd_problem(rng, n)
        out = simplex_least_squares(prob).values
        ours = float(out @ prob.gram @ out - 2.0 * prob.lin @ out)
        grid_best = dense_simplex_minima([prob.gram], [prob.lin], 0.01)[0]
        assert ours <= grid_best + 1e-9

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_kkt_certificate_beyond_lattice_oracle(self, rng, n):
        # optimality on the simplex: the gradient is smallest, and equal,
        # on the support of the solution
        dup_cols = rng.normal(size=(8, n))
        dup_cols[:, 1] = dup_cols[:, 0]
        problems = [
            random_psd_problem(rng, n)[0],
            random_psd_problem(rng, n, cols=n // 2)[0],
            SimplexLSProblem(dup_cols.T @ dup_cols, dup_cols.T @ rng.normal(size=8)),
            SimplexLSProblem(np.zeros((n, n)), rng.normal(size=n)),
        ]
        for prob in problems:
            G, c = prob.gram, prob.lin
            a = simplex_least_squares(prob).values
            scale = max(np.abs(G).max(), np.abs(c).max(), 1.0)
            grad = 2.0 * (G @ a - c)
            support = a > 0.0
            assert np.all(grad[support] - grad.min() <= 1e-9 * scale)

    def test_zero_gram_picks_largest_linear_term(self):
        c = np.array([0.1, 0.7, -0.2, 0.7])
        out = simplex_least_squares(SimplexLSProblem(np.zeros((4, 4)), c))
        assert np.array_equal(out.values, [0.0, 1.0, 0.0, 0.0])

    def test_flat_face_is_crossed(self):
        # G = b b' has rank one and c is outside its range, so the face of
        # all three weights is flat: the objective is linear along it
        b = np.array([0.0, 1.0, 3.0])
        prob = SimplexLSProblem(np.outer(b, b), np.array([0.0, 1.0, 5.0]))
        out = simplex_least_squares(prob).values
        assert np.allclose(out, [4.0 / 9.0, 0.0, 5.0 / 9.0], atol=1e-15)
        assert objective(prob, out) == pytest.approx(-25.0 / 9.0, abs=1e-14)

    @pytest.mark.parametrize("n", [17, 40])
    def test_no_dimension_cap(self, rng, n):
        # dimensions the support enumeration refused; the KKT certificate
        # (gradient least, and equal, on the support) proves optimality
        wide, narrow = random_psd_problem(rng, n, cols=2 * n), random_psd_problem(rng, n)
        for prob in (wide[0], narrow[0]):
            a = simplex_least_squares(prob).values
            grad = prob.gram @ a - prob.lin
            scale = max(np.abs(prob.gram).max(), np.abs(prob.lin).max())
            assert np.all(grad[a > 0.0] - grad.min() <= 1e-10 * scale)
        eye = simplex_least_squares(SimplexLSProblem(np.eye(n), np.ones(n))).values
        assert np.allclose(eye, 1.0 / n, atol=1e-15)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        kind=st.sampled_from(PROBLEM_KINDS),
    )
    @settings(max_examples=80)
    def test_matches_enumeration_oracle(self, seed, n, kind):
        # agreement in objective: with singular G the minimizer need not be
        # unique, but its objective is
        prob = problem_of_kind(np.random.default_rng(seed), kind, n)
        ours = simplex_least_squares(prob).values
        best = simplex_ls_oracle(prob.gram, prob.lin)
        scale = max(np.abs(prob.gram).max(), np.abs(prob.lin).max())
        assert ours.min() >= 0.0 and ours.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(objective(prob, ours) - objective(prob, best)) <= 1e-12 * scale

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    @settings(max_examples=80)
    def test_answer_is_its_support_face_point(self, seed, n):
        # whatever route the method takes, the answer is its support's
        # bordered KKT solution, clipped and renormalized, bit for bit
        prob = problem_of_kind(np.random.default_rng(seed), "random", n)
        ours = simplex_least_squares(prob).values
        support = np.flatnonzero(ours > 0.0)
        k = support.size
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * prob.gram[np.ix_(support, support)]
        kkt[k, k] = 0.0
        z = np.linalg.solve(kkt, np.append(2.0 * prob.lin[support], 1.0))[:k]
        face = np.zeros(n)
        face[support] = np.maximum(z, 0.0)
        assert ours.tobytes() == (face / face.sum()).tobytes()

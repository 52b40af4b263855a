"""Tests for the model type, the risk pieces, and the alternating fit."""

import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mtdr import fitting
from mtdr.cli import ingest, write_long_csv
from mtdr.fitting import (
    DataSet,
    FitConfig,
    FitReport,
    MtdrModel,
    Subject,
    empirical_risk,
    fit,
    loss,
    map_update_problem,
    predict,
    predictive_seminorm,
)
from mtdr.monotone_map import (
    MonotoneMap,
    NodeGrid,
    _Interp,
    map_l2_distance,
    pushforward,
)
from mtdr.quantile_core import (
    Domain,
    ProbGrid,
    QuantileGrid,
    frechet_mean,
    wasserstein_distance,
)
from mtdr.simulation import (
    NoiseSpec,
    generate_dataset,
    mortality_like_samples,
    multi_predictor_scenario,
    sine_warp,
    single_predictor_scenario,
)
from mtdr.solvers import SimplexWeights, weighted_isotonic
from oracles import riemann_quantile_l2

UNIT = Domain(0.0, 1.0)
REPO = Path(__file__).resolve().parents[1]


def uniform_reference(t):
    grid = ProbGrid(t)
    return QuantileGrid(UNIT, grid, grid.levels)


def random_measure(rng, t):
    return QuantileGrid(UNIT, ProbGrid(t), np.sort(rng.uniform(size=t)))


def toy_model(t, weights, warp_orders):
    node = NodeGrid(UNIT, t)
    maps = [MonotoneMap(node, sine_warp(k, node.nodes)) for k in warp_orders]
    return MtdrModel(uniform_reference(t), tuple(maps), SimplexWeights.of(weights))


def warped_subjects(rng, t, n, p):
    """n subjects of a toy model with p predictors, responses warped off it."""
    weights = np.r_[0.2, np.full(p, 0.8 / p)]
    truth = toy_model(t, weights, rng.integers(-3, 4, p + 1))
    subjects = []
    for _ in range(n):
        preds = tuple(random_measure(rng, t) for _ in range(p))
        q = predict(truth, preds).values
        q = 0.8 * q + 0.2 * sine_warp(int(rng.choice([-2, 2])), q)
        subjects.append(Subject(preds, QuantileGrid(UNIT, truth.prob_grid, q)))
    return subjects


def noiseless_exact_data(alpha1=0.5, n=100, t=300, seed=3):
    spec = single_predictor_scenario(
        alpha1, n=n, m=1, reps=1, seed=seed, noise=NoiseSpec.none(), test_fraction=0.0
    )
    rng = np.random.default_rng(seed)
    return generate_dataset(spec, rng, t=t, exact=True)


def assert_descends(report, cfg=FitConfig()):
    """Nonincreasing risk, and converged only by the rel_tol rule."""
    tr = report.trajectory
    assert np.all(np.diff(tr) <= 1e-12 * tr[0])
    if report.converged:
        assert tr[-2] - tr[-1] <= cfg.rel_tol * tr[0]
    else:
        assert report.iterations == cfg.max_outer_iter


class TestDataSet:
    def test_validation(self, rng):
        with pytest.raises(ValueError, match="empty dataset"):
            DataSet(())
        a = Subject((random_measure(rng, 8),), random_measure(rng, 8))
        b = Subject((random_measure(rng, 8), random_measure(rng, 8)), None)
        with pytest.raises(ValueError, match="same predictor count"):
            DataSet((a, b))
        c = Subject((random_measure(rng, 9),), None)
        with pytest.raises(ValueError, match="share domain and grid"):
            DataSet((a, c))

    def test_properties(self, rng):
        subj = Subject((random_measure(rng, 8),), random_measure(rng, 8))
        data = DataSet((subj, subj))
        assert data.n == 2 and data.p == 1 and data.has_responses


class TestFitConfig:
    def test_fields_and_bounds(self):
        assert [f.name for f in fields(FitConfig)] == ["max_outer_iter", "rel_tol"]
        FitConfig(max_outer_iter=1, rel_tol=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_outer_iter": 0}, {"rel_tol": -1e-9}, {"rel_tol": float("nan")}],
    )
    def test_rejects_out_of_range(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be at least"):
            FitConfig(**kwargs)

    def test_iteration_cap_is_an_integer(self):
        for cap in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="max_outer_iter must be an integer"):
                FitConfig(max_outer_iter=cap)
        assert FitConfig(max_outer_iter=np.int64(3)) == FitConfig(max_outer_iter=3)
        assert type(FitConfig(max_outer_iter=np.int64(3)).max_outer_iter) is int


class TestFitReport:
    def test_rejects_increasing_trajectory(self):
        with pytest.raises(ValueError, match="increased beyond slack"):
            FitReport(np.array([1.0, 0.5, 0.8]), converged=True)

    def test_fields(self):
        rep = FitReport(np.array([1.0, 0.4, 0.3]), converged=False)
        assert rep.iterations == 2
        assert rep.final_objective == 0.3


class TestPredict:
    def test_identity_maps_give_frechet_mean(self, rng):
        t = 50
        mu = random_measure(rng, t)
        node = NodeGrid(UNIT, t)
        ident = MonotoneMap.identity(node)
        model = MtdrModel(mu, (ident, ident), SimplexWeights.of([0.4, 0.6]))
        out = predict(model, (mu,))
        assert np.max(np.abs(out.values - mu.values)) < 1e-12

    def test_pure_intercept_ignores_predictors(self, rng):
        t = 200
        model = toy_model(t, [1.0, 0.0], (4, 3))
        out_a = predict(model, (random_measure(rng, t),))
        out_b = predict(model, (random_measure(rng, t),))
        assert np.array_equal(out_a.values, out_b.values)
        expected = pushforward(model.maps[0], model.reference)
        assert np.max(np.abs(out_a.values - expected.values)) < 1e-12

    def test_single_map_on_uniform_predictor(self):
        t = 400
        model = toy_model(t, [0.0, 1.0], (4, 3))
        out = predict(model, (uniform_reference(t),))
        levels = model.prob_grid.levels
        assert np.max(np.abs(out.values - sine_warp(3, levels))) < 1e-4

    def test_validates_structure(self, rng):
        model = toy_model(20, [0.5, 0.5], (4, 3))
        with pytest.raises(ValueError, match="predictor count"):
            predict(model, ())
        with pytest.raises(ValueError, match="share the model domain"):
            predict(model, (random_measure(rng, 21),))


class TestLossAndRisk:
    def test_zero_on_own_prediction(self, rng):
        t = 30
        model = toy_model(t, [0.3, 0.7], (4, 3))
        xi = random_measure(rng, t)
        assert loss(model, (xi,), predict(model, (xi,))) == 0.0

    def test_translation_squared(self, rng):
        t = 60
        dom = Domain(0.0, 20.0)
        grid = ProbGrid(t)
        node = NodeGrid(dom, t)
        ref = QuantileGrid(dom, grid, 10.0 * grid.levels)
        model = MtdrModel(
            ref,
            (MonotoneMap.identity(node), MonotoneMap.identity(node)),
            SimplexWeights.of([0.5, 0.5]),
        )
        xi = QuantileGrid(dom, grid, 10.0 * grid.levels)
        pred = predict(model, (xi,))
        shifted = QuantileGrid(dom, grid, pred.values + 0.25)
        assert loss(model, (xi,), shifted) == pytest.approx(0.25**2, rel=1e-12)

    def test_loss_matches_riemann_oracle(self, rng):
        t = 40
        model = toy_model(t, [0.2, 0.8], (4, 3))
        xi, eta = random_measure(rng, t), random_measure(rng, t)
        pred = predict(model, (xi,))
        oracle = riemann_quantile_l2(pred.values, eta.values, model.prob_grid.step)
        assert loss(model, (xi,), eta) == pytest.approx(oracle, rel=1e-12)

    def test_empirical_risk_is_mean_loss(self, rng):
        t = 25
        model = toy_model(t, [0.6, 0.4], (4, 3))
        subjects = tuple(
            Subject((random_measure(rng, t),), random_measure(rng, t))
            for _ in range(3)
        )
        data = DataSet(subjects)
        losses = [loss(model, s.predictors, s.response) for s in subjects]
        assert empirical_risk(model, data) == pytest.approx(np.mean(losses), rel=1e-12)

    def test_risk_requires_responses(self, rng):
        t = 25
        model = toy_model(t, [0.6, 0.4], (4, 3))
        data = DataSet((Subject((random_measure(rng, t),), None),))
        with pytest.raises(ValueError, match="lacks responses"):
            empirical_risk(model, data)


class TestMapUpdateProblem:
    def test_noiseless_single_subject_recovers_map(self):
        t = 150
        node = NodeGrid(UNIT, t)
        true_map = MonotoneMap(node, sine_warp(3, node.nodes))
        ref = uniform_reference(t)
        response = pushforward(true_map, ref)
        data = DataSet((Subject((), response),))
        model = MtdrModel(ref, (MonotoneMap.identity(node),), SimplexWeights.of([1.0]))
        prob = map_update_problem(model, data, 0)
        pos = prob.weights > 0
        assert np.max(np.abs(prob.targets[pos] - true_map.values[pos])) < 2e-3

    def test_constant_residual_targets(self, rng):
        t = 80
        node = NodeGrid(UNIT, t)
        ref = uniform_reference(t)
        c = 0.4
        response = QuantileGrid(UNIT, ref.grid, np.full(t, c))
        data = DataSet((Subject((), response),))
        model = MtdrModel(ref, (MonotoneMap.identity(node),), SimplexWeights.of([1.0]))
        prob = map_update_problem(model, data, 0)
        pos = prob.weights > 0
        assert np.max(np.abs(prob.targets[pos] - c)) < 1e-9

    def test_two_subjects_average_equally_weighted_targets(self):
        t = 60
        node = NodeGrid(UNIT, t)
        ref = uniform_reference(t)
        shift_up = QuantileGrid(UNIT, ref.grid, np.clip(ref.values * 0.5 + 0.4, 0, 1))
        shift_dn = QuantileGrid(UNIT, ref.grid, np.clip(ref.values * 0.5 + 0.1, 0, 1))
        data = DataSet((Subject((), shift_up), Subject((), shift_dn)))
        model = MtdrModel(ref, (MonotoneMap.identity(node),), SimplexWeights.of([1.0]))
        prob = map_update_problem(model, data, 0)
        # both subjects see the same uniform predictor, so node weights agree
        # and the aggregated target is the plain average of the two targets
        single_up = map_update_problem(
            MtdrModel(ref, model.maps, model.weights),
            DataSet((Subject((), shift_up),)),
            0,
        )
        single_dn = map_update_problem(
            MtdrModel(ref, model.maps, model.weights),
            DataSet((Subject((), shift_dn),)),
            0,
        )
        pos = prob.weights > 0
        avg = 0.5 * (single_up.targets + single_dn.targets)
        assert np.max(np.abs(prob.targets[pos] - avg[pos])) < 1e-12

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_solution_never_raises_risk(self, p):
        rng = np.random.default_rng(500 + p)
        t, nodes, n = 40, 25, 6
        grid = ProbGrid(t)
        node = NodeGrid(UNIT, nodes)
        improved = False
        for trial in range(15):
            # predictors live on [0, 0.6], so upper nodes carry no mass
            subjects = tuple(
                Subject(
                    tuple(
                        QuantileGrid(UNIT, grid, 0.6 * np.sort(rng.uniform(size=t)))
                        for _ in range(p)
                    ),
                    random_measure(rng, t),
                )
                for _ in range(n)
            )
            data = DataSet(subjects)
            # a Frechet reference does not sit on the node grid
            ref = frechet_mean([s.response for s in subjects], np.full(n, 1.0 / n))
            maps = tuple(
                MonotoneMap(node, np.sort(rng.uniform(size=nodes)))
                for _ in range(p + 1)
            )
            alpha = rng.dirichlet(np.ones(p + 1))
            if p > 0 and trial % 3 == 0:
                alpha[trial % (p + 1)] = 1.5e-8  # just above the default floor
                alpha /= alpha.sum()
            model = MtdrModel(ref, maps, SimplexWeights.of(alpha))
            base = empirical_risk(model, data)
            for k in range(p + 1):
                prob = map_update_problem(model, data, k)
                if k > 0:
                    assert np.any(prob.weights == 0.0)
                stepped = list(maps)
                stepped[k] = MonotoneMap(node, weighted_isotonic(prob))
                risk = empirical_risk(
                    MtdrModel(ref, tuple(stepped), model.weights), data
                )
                assert risk <= base * (1.0 + 1e-12)
                improved |= risk < base * (1.0 - 1e-3)
        assert improved

    def test_rejects_small_weight(self, rng):
        t = 20
        model = toy_model(t, [1.0, 0.0], (4, 3))
        data = DataSet(
            (Subject((random_measure(rng, t),), random_measure(rng, t)),)
        )
        with pytest.raises(ValueError, match="below floor"):
            map_update_problem(model, data, 1)
        with pytest.raises(ValueError, match="out of range"):
            map_update_problem(model, data, 5)
        # an atom at the upper end reads the map only at its pinned endpoint,
        # so no node carries mass: fit freezes that map, and it has no update
        atom = QuantileGrid(UNIT, ProbGrid(t), np.ones(t))
        spread = toy_model(t, [0.5, 0.5], (4, 3))
        massless = DataSet((Subject((atom,), random_measure(rng, t)),))
        with pytest.raises(ValueError, match="map update is undefined"):
            map_update_problem(spread, massless, 1)
        assert map_update_problem(spread, massless, 0).weights.any()


class TestFit:
    def test_noiseless_recovery(self):
        gen = noiseless_exact_data(alpha1=0.5, n=100, t=300)
        model, report = fit(gen.train, 1, gen.truth.reference)
        assert abs(model.weights.values[1] - 0.5) < 0.01
        for j in range(2):
            err = map_l2_distance(model.maps[j], gen.truth.maps[j])
            assert err < 0.02
        assert report.converged
        assert_descends(report)

    def test_trajectory_decreases_and_matches_risk(self):
        gen = noiseless_exact_data(alpha1=0.3, n=40, t=150, seed=9)
        model, report = fit(gen.train, 1, gen.truth.reference)
        assert_descends(report)
        assert empirical_risk(model, gen.train) == pytest.approx(
            report.final_objective, rel=1e-9
        )

    def test_fixed_weights_respected(self):
        gen = noiseless_exact_data(alpha1=0.7, n=30, t=100, seed=11)
        fixed = SimplexWeights.of([0.0, 1.0])
        model, _ = fit(gen.train, 1, gen.truth.reference, fixed_weights=fixed)
        assert np.array_equal(model.weights.values, fixed.values)

    def test_predictor_without_node_mass(self):
        # a predictor that is an atom at the upper end reads every map at its
        # pinned endpoint, so no node carries mass and its map stays put
        gen = noiseless_exact_data(n=20, t=60, seed=5)
        atom = QuantileGrid(UNIT, ProbGrid(60), np.ones(60))
        data = DataSet(tuple(Subject((atom,), s.response) for s in gen.train.subjects))
        model, report = fit(data, 1, gen.truth.reference)
        assert_descends(report)
        assert np.array_equal(model.maps[1].values, model.node_grid.nodes)

    def test_isotonic_problems_are_map_steps(self, monkeypatch):
        # the fit poses one isotonic regression per majorize-minimize step,
        # weighted by the node masses of one map's quantile stack; SQUAREM
        # repairs its jump without a solver
        t, n = 40, 20
        subjects = warped_subjects(np.random.default_rng(31), t, n, 1)
        data = DataSet(tuple(subjects))
        reference = frechet_mean([s.response for s in subjects], np.full(n, 1.0 / n))
        stacks = [np.broadcast_to(reference.values, (n, t))] + [
            np.stack([s.predictors[0].values for s in subjects])
        ]
        masses = [_Interp(NodeGrid(UNIT, t), Q).mass for Q in stacks]
        posed = []

        def recorded(prob):
            posed.append(prob)
            return weighted_isotonic(prob)

        monkeypatch.setattr(fitting, "weighted_isotonic", recorded)
        _, report = fit(data, 1, reference)
        assert report.iterations >= 3  # at least one SQUAREM cycle ran
        assert posed
        for prob in posed:
            assert any(np.array_equal(prob.weights, mass) for mass in masses)

    def test_twenty_predictors(self):
        # 21 weights: the weight step has no dimension cap
        rng = np.random.default_rng(20)
        t, p = 30, 20
        reference = uniform_reference(t)
        mix = rng.dirichlet(np.ones(p))
        subjects = []
        for _ in range(25):
            preds = tuple(random_measure(rng, t) for _ in range(p))
            q = sum(w * g.values for w, g in zip(mix, preds))
            q = 0.8 * q + 0.2 * sine_warp(int(rng.choice([-2, 2])), q)
            subjects.append(Subject(preds, QuantileGrid(UNIT, reference.grid, q)))
        model, report = fit(DataSet(tuple(subjects)), p, reference, FitConfig(20))
        assert model.weights.size == p + 1
        assert np.all(model.weights.values >= 0.0)
        assert model.weights.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert_descends(report, FitConfig(20))

    @pytest.mark.parametrize("alpha0", [0.5, 0.7, 0.1])
    def test_exact_data_stop_at_rounding(self, alpha0):
        # responses the model generates exactly: the risk starts near zero,
        # where an ordinary sweep can raise it by rounding; the fit stops at
        # the last kept iterate instead of reporting the rise
        rng = np.random.default_rng(0)
        reference = uniform_reference(50)
        subjects = []
        for _ in range(20):
            x = np.sort(rng.uniform(0.05, 0.95, 50))
            pred = QuantileGrid(UNIT, reference.grid, x)
            q = alpha0 * reference.values + (1.0 - alpha0) * pred.values
            subjects.append(Subject((pred,), QuantileGrid(UNIT, reference.grid, q)))
        data = DataSet(tuple(subjects))
        model, report = fit(data, 1, reference)
        assert report.converged
        assert np.all(np.diff(report.trajectory) <= 0.0)
        assert np.allclose(model.weights.values, [alpha0, 1.0 - alpha0])
        assert report.final_objective == empirical_risk(model, data)

    def test_permutation_equivariance(self):
        spec = multi_predictor_scenario(
            n=40, m=1, reps=1, seed=21, noise=NoiseSpec.none(), test_fraction=0.0
        )
        rng = np.random.default_rng(21)
        gen = generate_dataset(spec, rng, t=150, exact=True)
        base = gen.train
        cfg = FitConfig(rel_tol=1e-12, max_outer_iter=1000)
        model, report = fit(base, 2, gen.truth.reference, cfg=cfg)
        assert_descends(report, cfg)
        swapped = DataSet(
            tuple(
                Subject((s.predictors[1], s.predictors[0]), s.response)
                for s in base.subjects
            )
        )
        model_sw, _ = fit(swapped, 2, gen.truth.reference, cfg=cfg)
        # the parameters sit in a nearly flat valley (weight mass trades off
        # against map shape), so they mirror loosely while the identifiable
        # object, the prediction map, mirrors tightly
        perm = (0, 2, 1)
        for j in range(3):
            assert model.weights.values[j] == pytest.approx(
                model_sw.weights.values[perm[j]], abs=0.01
            )
            assert map_l2_distance(model.maps[j], model_sw.maps[perm[j]]) < 0.01
        for s, t_ in zip(base.subjects, swapped.subjects):
            pa = predict(model, s.predictors)
            pb = predict(model_sw, t_.predictors)
            assert wasserstein_distance(pa, pb) < 5e-4

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("case", ["free", "fixed", "zero_weight", "no_mass"])
    def test_accelerated_fit_keeps_report_exact(self, p, case):
        # a Frechet reference does not sit on the node grid, so no map step
        # is exact
        rng = np.random.default_rng(700 + p)
        t, n = 40, 20
        subjects = warped_subjects(rng, t, n, p)
        if case == "no_mass":
            atom = QuantileGrid(UNIT, ProbGrid(t), np.ones(t))
            subjects = [
                Subject((atom,) + s.predictors[1:], s.response) for s in subjects
            ]
        data = DataSet(tuple(subjects))
        reference = frechet_mean([s.response for s in subjects], np.full(n, 1.0 / n))
        fixed = None
        if case == "fixed":
            fixed = SimplexWeights.of(rng.dirichlet(np.ones(p + 1)))
        elif case == "zero_weight":
            fixed = SimplexWeights.of(np.r_[rng.dirichlet(np.ones(p)), 0.0])
        model, report = fit(data, p, reference, fixed_weights=fixed)
        assert_descends(report)
        # one objective computes both, at the same maps and weights
        assert report.final_objective == empirical_risk(model, data)
        if fixed is not None:
            assert np.array_equal(model.weights.values, fixed.values)
        if case == "zero_weight":
            assert np.array_equal(model.maps[p].values, model.node_grid.nodes)
        if case == "no_mass":
            assert np.array_equal(model.maps[1].values, model.node_grid.nodes)

    def test_loocv_fold_does_not_stop_early(self, tmp_path):
        # one fold of the mortality-like file as `mtdr loocv` fits it; the
        # plain sweep needs more than the default cap on it
        pred, resp = mortality_like_samples(n=34, m=500, seed=7)
        path = tmp_path / "mortality_like.csv"
        write_long_csv(path, pred, resp)
        grid = ProbGrid(300)
        data = ingest(str(path), Domain(0.0, 100.0), grid, 2).dataset
        fold = DataSet(data.subjects[1:])
        responses = [s.response for s in fold.subjects]
        reference = frechet_mean(responses, np.full(fold.n, 1.0 / fold.n))
        _, report = fit(fold, 2, reference)
        assert report.converged
        assert_descends(report)
        # the rel_tol rule itself stops a few 1e-6 (relative) above the
        # optimum on these folds, which a stationarity test would tighten
        tight = FitConfig(rel_tol=1e-12, max_outer_iter=3000)
        _, best = fit(fold, 2, reference, tight)
        gap = report.final_objective - best.final_objective
        assert 0.0 <= gap <= 1e-5 * best.final_objective

    def test_nodes_are_the_data_grid(self):
        gen = noiseless_exact_data(n=10, t=40, seed=2)
        model, _ = fit(gen.train, 1, gen.truth.reference, FitConfig())
        assert model.node_grid == NodeGrid(UNIT, 40)

    def test_reference_must_match(self, rng):
        gen = noiseless_exact_data(n=10, t=50, seed=2)
        bad = random_measure(rng, 49)
        with pytest.raises(ValueError, match="share the data domain"):
            fit(gen.train, 1, bad)
        # a reference may have atoms, as a predictor may: a point mass fits
        flat = QuantileGrid(UNIT, ProbGrid(50), np.full(50, 0.5))
        model, report = fit(gen.train, 1, flat)
        assert report.converged and model.reference is flat
        assert_descends(report)
        for subject in gen.train.subjects:
            # a QuantileGrid is finite, nondecreasing and inside the domain
            assert isinstance(predict(model, subject.predictors), QuantileGrid)

    def test_rejects_mismatched_p(self):
        gen = noiseless_exact_data(n=10, t=50, seed=2)
        with pytest.raises(ValueError, match="does not match p"):
            fit(gen.train, 2, gen.truth.reference)


class TestPredictiveSeminorm:
    def test_zero_on_same_model(self, rng):
        t = 40
        model = toy_model(t, [0.5, 0.5], (4, 3))
        data = DataSet((Subject((random_measure(rng, t),), None),))
        assert predictive_seminorm(model, model, data) == 0.0

    def test_symmetry(self, rng):
        t = 40
        a = toy_model(t, [0.5, 0.5], (4, 3))
        b = toy_model(t, [0.3, 0.7], (4, -2))
        data = DataSet(
            tuple(Subject((random_measure(rng, t),), None) for _ in range(4))
        )
        assert predictive_seminorm(a, b, data) == predictive_seminorm(b, a, data)

    def test_is_rms_of_pairwise_distances(self, rng):
        t = 40
        a = toy_model(t, [0.5, 0.5], (4, 3))
        b = toy_model(t, [0.3, 0.7], (4, -2))
        subjects = tuple(
            Subject((random_measure(rng, t),), None) for _ in range(5)
        )
        data = DataSet(subjects)
        sq = [
            wasserstein_distance(predict(a, s.predictors), predict(b, s.predictors))
            ** 2
            for s in subjects
        ]
        assert predictive_seminorm(a, b, data) == pytest.approx(
            np.sqrt(np.mean(sq)), rel=1e-12
        )

    def test_structure_mismatch(self, rng):
        a = toy_model(30, [0.5, 0.5], (4, 3))
        b = toy_model(31, [0.5, 0.5], (4, 3))
        data = DataSet((Subject((random_measure(rng, 30),), None),))
        with pytest.raises(ValueError, match="share"):
            predictive_seminorm(a, b, data)


# Sizes at which a BLAS dot or matrix-vector product splits its sum over
# threads: 20,000 measures, t = 20,000, and p = 10 with n * t = 200,000.
_LARGE_SIZES = textwrap.dedent(
    """
    import numpy as np
    from mtdr.fitting import DataSet, Subject, _Objective
    from mtdr.monotone_map import MonotoneMap, NodeGrid
    from mtdr.quantile_core import (
        Domain, ProbGrid, QuantileGrid, frechet_mean, wasserstein_distance,
    )

    rng = np.random.default_rng(5)
    dom = Domain(0.0, 1.0)

    def measures(count, t):
        q = np.sort(rng.uniform(size=(count, t)), axis=1)
        return [QuantileGrid(dom, ProbGrid(t), row) for row in q]

    mean = frechet_mean(measures(20000, 50), np.full(20000, 1 / 20000))
    print(mean.values.tobytes().hex())
    print(wasserstein_distance(*measures(2, 20000)).hex())
    n, t, p = 20, 10000, 10
    data = DataSet(tuple(Subject(measures(p, t), measures(1, t)[0]) for _ in range(n)))
    maps = [MonotoneMap(NodeGrid(dom, t), np.sort(rng.uniform(size=t))) for _ in range(p + 1)]
    reference = QuantileGrid(dom, ProbGrid(t), ProbGrid(t).levels)
    print(_Objective(data, reference, maps).alpha.tobytes().hex())
    """
)


def test_large_sizes_do_not_depend_on_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _LARGE_SIZES],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]

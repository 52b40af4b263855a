"""Tests for warps, scenario specs, data generation, and the study harness."""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdr.fitting import predict
from mtdr.quantile_core import Domain, wasserstein_distance
from mtdr.simulation import (
    NoiseSpec,
    ScenarioSpec,
    _pmap,
    awd,
    generate_dataset,
    mortality_like_samples,
    multi_predictor_scenario,
    rmse,
    run_replications,
    sine_warp,
    single_predictor_scenario,
)
from mtdr.solvers import SimplexWeights


class TestSineWarp:
    def test_zero_order_is_identity(self):
        x = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(sine_warp(0, x), x)

    def test_endpoints_fixed_any_order(self):
        for k in (-5, -1, 1, 2, 3, 4):
            assert sine_warp(k, 0.0) == 0.0
            assert sine_warp(k, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_point_closed_form(self):
        assert sine_warp(1, 0.5) == pytest.approx(0.5 - 1.0 / np.pi, abs=1e-15)

    def test_symmetric_orders_average_to_identity(self):
        x = np.linspace(0.0, 1.0, 37)
        for k in (1, 2, 3, 5):
            avg = 0.5 * (sine_warp(k, x) + sine_warp(-k, x))
            assert np.allclose(avg, x, atol=1e-15)

    @given(k=st.sampled_from([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]))
    def test_monotone_and_bounded_deviation(self, k):
        x = np.linspace(0.0, 1.0, 2001)
        y = sine_warp(k, x)
        assert np.all(np.diff(y) >= -1e-12)
        assert np.max(np.abs(y - x)) <= 1.0 / (abs(k) * np.pi) + 1e-12

    def test_rejects_non_integer_and_out_of_range(self):
        for order in (1.5, 1.7, np.nan, "3"):
            with pytest.raises(ValueError, match="warp order must be an integer"):
                sine_warp(order, 0.3)
        with pytest.raises(ValueError, match="outside"):
            sine_warp(2, 1.2)
        with pytest.raises(ValueError, match="outside"):
            sine_warp(2, np.nan)


class TestNoiseSpec:
    def test_default_support_symmetric(self):
        # the law every scenario uses unless given another
        spec = NoiseSpec()
        assert spec.orders == (-3, 3)
        assert single_predictor_scenario(0.5).noise == spec
        assert multi_predictor_scenario().noise == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            NoiseSpec(orders=(1, 1, -1))
        with pytest.raises(ValueError, match="symmetric"):
            NoiseSpec(orders=(1, 2, -1))
        with pytest.raises(ValueError, match="nonempty"):
            NoiseSpec(orders=())
        # non-integer orders fail sine_warp's check, not a later one
        for orders in ((1.7, -1.7), (0.5, -0.5)):
            with pytest.raises(ValueError, match="warp order must be an integer"):
                NoiseSpec(orders=orders)
        assert NoiseSpec(orders=(3.0, -3.0)).orders == (-3, 3)
        # the identity warp is an ordinary order
        assert NoiseSpec(orders=(2, 0, -2)).orders == (-2, 0, 2)

    def test_none_is_identity_only(self):
        spec = NoiseSpec.none()
        assert spec.orders == (0,)
        rng = np.random.default_rng(0)
        assert np.all(spec.draw(rng, 100) == 0)

    def test_draw_deterministic_and_supported(self):
        spec = NoiseSpec(orders=(-3, 3))
        a = spec.draw(np.random.default_rng(42), 50)
        b = spec.draw(np.random.default_rng(42), 50)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {-3, 3}

    def test_noise_law_is_unbiased(self):
        # the warps of the law's orders average exactly to the identity
        spec = NoiseSpec()
        x = np.linspace(0.0, 1.0, 1001)
        mean = np.mean([sine_warp(k, x) for k in spec.orders], axis=0)
        assert np.max(np.abs(mean - x)) <= 1e-15
        # and draw picks each order equally often, up to sampling error
        ks = spec.draw(np.random.default_rng(7), 2000)
        freq = np.array([np.mean(ks == k) for k in spec.orders])
        assert np.all(np.abs(freq - 1.0 / len(spec.orders)) < 0.05)


class TestScenarioSpec:
    def test_single_factory(self):
        spec = single_predictor_scenario(0.5)
        assert spec.p == 1
        assert spec.warp_orders == (4, 3)
        assert np.allclose(spec.weights.values, [0.5, 0.5])
        assert spec.noise.orders == (-3, 3)
        assert spec.n_test == 60

    def test_multi_factory(self):
        spec = multi_predictor_scenario()
        assert spec.p == 2
        assert spec.warp_orders == (4, 3, -5)
        assert np.allclose(spec.weights.values, [0.3, 0.35, 0.35])

    def test_n_test_rounding(self):
        spec = single_predictor_scenario(0.5, n=10, test_fraction=0.3)
        assert spec.n_test == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="length p \\+ 1"):
            ScenarioSpec(
                weights=SimplexWeights.of([0.2, 0.3, 0.5]),
                warp_orders=(4, 3),
                beta_ranges=(((1.0, 5.0), (1.0, 5.0)),),
                n=10,
                m=10,
                reps=1,
                seed=0,
            )
        with pytest.raises(ValueError, match="test fraction"):
            single_predictor_scenario(0.5, test_fraction=1.5)
        with pytest.raises(ValueError, match="warp order must be an integer"):
            ScenarioSpec(
                weights=SimplexWeights.of([0.5, 0.5]),
                warp_orders=(1.5, 2),
                beta_ranges=(((1.0, 5.0), (1.0, 5.0)),),
                n=10,
                m=10,
                reps=1,
                seed=0,
            )


    @pytest.mark.parametrize(
        "size, message",
        [
            ({"n": 20.5}, "n must be an integer"),
            ({"m": 30.5}, "m must be an integer"),
            ({"reps": 1.5}, "reps must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": -1}, "seed must be at least 0, not -1"),
            ({"n": 0}, "n must be at least 1, not 0"),
            ({"reps": 0}, "reps must be at least 1, not 0"),
        ],
    )
    def test_sizes_are_counts(self, size, message):
        # each bad size fails where the scenario is built, naming its field,
        # not later inside run_replications
        with pytest.raises(ValueError, match=message):
            single_predictor_scenario(0.5, **size)

    def test_numpy_integer_sizes_read_as_int(self):
        spec = single_predictor_scenario(0.5, n=np.int64(10), seed=np.uint8(3))
        assert (spec.n, spec.seed) == (10, 3)
        assert type(spec.n) is int and type(spec.seed) is int


class TestGenerateDataset:
    def test_shapes_and_split(self):
        spec = single_predictor_scenario(0.5, n=10, m=8, reps=1, seed=0)
        gen = generate_dataset(spec, np.random.default_rng(0), t=20)
        assert gen.train.n == 10 and gen.test.n == 3
        assert gen.train.p == 1
        assert gen.train.prob_grid.size == 20
        assert gen.train.has_responses and gen.test.has_responses

    def test_deterministic_under_seed(self):
        spec = multi_predictor_scenario(n=6, m=5, reps=1, seed=0)
        a = generate_dataset(spec, np.random.default_rng(9), t=15)
        b = generate_dataset(spec, np.random.default_rng(9), t=15)
        for sa, sb in zip(a.train.subjects, b.train.subjects):
            assert np.array_equal(sa.response.values, sb.response.values)
            for pa, pb in zip(sa.predictors, sb.predictors):
                assert np.array_equal(pa.values, pb.values)

    def test_truth_model_structure(self):
        spec = multi_predictor_scenario(n=4, m=3, reps=1, seed=1)
        gen = generate_dataset(spec, np.random.default_rng(1), t=25)
        truth = gen.truth
        assert np.array_equal(truth.weights.values, spec.weights.values)
        levels = truth.prob_grid.levels
        assert np.allclose(truth.reference.values, levels, atol=1e-15)
        for T, k in zip(truth.maps, spec.warp_orders):
            assert np.allclose(T.values, sine_warp(k, truth.node_grid.nodes))

    def test_pure_intercept_degeneracy(self):
        spec = single_predictor_scenario(
            0.0, n=5, m=4, reps=1, seed=2, noise=NoiseSpec.none()
        )
        gen = generate_dataset(spec, np.random.default_rng(2), t=30, exact=True)
        levels = gen.train.prob_grid.levels
        expected = sine_warp(4, levels)
        for s in gen.train.subjects:
            assert np.max(np.abs(s.response.values - expected)) < 1e-12

    def test_identity_map_noiseless_passthrough(self):
        spec = ScenarioSpec(
            weights=SimplexWeights.of([0.0, 1.0]),
            warp_orders=(4, 0),
            beta_ranges=(((1.0, 5.0), (1.0, 5.0)),),
            n=6,
            m=4,
            reps=1,
            seed=3,
            noise=NoiseSpec.none(),
        )
        gen = generate_dataset(spec, np.random.default_rng(3), t=40, exact=True)
        for s in gen.train.subjects:
            assert np.allclose(s.response.values, s.predictors[0].values, atol=1e-12)

    def test_exact_responses_match_truth_predictions(self):
        spec = multi_predictor_scenario(n=5, m=3, reps=1, seed=4, noise=NoiseSpec.none())
        gen = generate_dataset(spec, np.random.default_rng(4), t=200, exact=True)
        for s in gen.train.subjects:
            pred = predict(gen.truth, s.predictors)
            assert wasserstein_distance(pred, s.response) < 2e-3

    def test_keep_samples(self):
        spec = single_predictor_scenario(0.5, n=7, m=9, reps=1, seed=5)
        gen = generate_dataset(spec, np.random.default_rng(5), t=12)
        total = spec.n + spec.n_test
        assert gen.samples.predictors.shape == (total, 1, 9)
        assert gen.samples.responses.shape == (total, 9)
        exact = generate_dataset(spec, np.random.default_rng(5), t=12, exact=True)
        assert exact.samples is None


class TestMetrics:
    def test_rmse_and_awd_hand_values(self, rng):
        from mtdr.quantile_core import ProbGrid, QuantileGrid

        grid = ProbGrid(10)
        dom = Domain(0.0, 2.0)
        base = QuantileGrid(dom, grid, grid.levels)
        off1 = QuantileGrid(dom, grid, grid.levels + 0.1)
        off3 = QuantileGrid(dom, grid, grid.levels + 0.3)
        assert rmse([base, base], [base, base]) == 0.0
        assert awd([off1, off3], [base, base]) == pytest.approx(0.2, abs=1e-12)
        assert rmse([off1, off3], [base, base]) == pytest.approx(
            np.sqrt((0.01 + 0.09) / 2.0), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equally many"):
            rmse([], [None])
        with pytest.raises(ValueError, match="equally many"):
            awd([None], [])


class TestRunReplications:
    def test_smoke_and_determinism(self):
        spec = single_predictor_scenario(0.5, n=16, m=12, reps=2, seed=12)
        a = run_replications(spec, t=40)
        b = run_replications(spec, t=40)
        assert len(a.results) == 2 and a.t == 40
        for ra, rb in zip(a.results, b.results):
            assert ra.pred_seminorm_err == rb.pred_seminorm_err
            assert ra.rmse == rb.rmse
            assert ra.fitted_weights == rb.fitted_weights
        assert set(a.metrics) == {
            "pred_seminorm_err",
            "weight_err",
            "map_err_0",
            "map_err_1",
            "rmse",
        }

    def test_zero_weight_map_excluded(self):
        spec = single_predictor_scenario(1.0, n=12, m=10, reps=1, seed=6)
        summary = run_replications(spec, t=30)
        assert "map_err_0" not in summary.metrics
        assert summary.results[0].map_errs[0] is None

    def test_noiseless_recovery_study(self):
        spec = single_predictor_scenario(
            0.5, n=60, m=50, reps=1, seed=8, noise=NoiseSpec.none()
        )
        summary = run_replications(spec, t=250)
        # the response law is noiseless but the measures are still observed
        # through m samples each, so the bound reflects sampling error
        assert summary.metrics["pred_seminorm_err"]["mean"] < 0.04

    def test_requires_test_subjects(self):
        spec = single_predictor_scenario(0.5, n=8, m=5, reps=1, seed=0, test_fraction=0.0)
        with pytest.raises(ValueError, match="test set"):
            run_replications(spec)


def _square_unless_three(offset, i):
    if i == 3:
        raise ValueError(f"task {i} failed")
    return offset + i * i


def _pmap_in_worker(count):
    return _pmap(_square_unless_three, 10, count)


class TestPmap:
    def test_results_in_index_order(self):
        # more tasks than CPUs, so workers take several each
        assert _pmap(_square_unless_three, 10, 3) == [10, 11, 14]
        assert _pmap(_square_unless_three, 0, 2) == [0, 1]
        assert _pmap(_square_unless_three, 0, 1) == [0]
        assert _pmap(_square_unless_three, 0, 0) == []

    def test_error_is_raised_in_the_caller(self):
        with pytest.raises(ValueError, match="task 3 failed"):
            _pmap(_square_unless_three, 0, 8)
        assert multiprocessing.active_children() == []

    def test_nested_call_runs_serially(self):
        # a pool worker is daemonic and may not start children of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_pmap_in_worker, (3,)).get(60) == [10, 11, 14]
            with pytest.raises(ValueError, match="task 3 failed"):
                pool.apply_async(_pmap_in_worker, (5,)).get(60)
        assert multiprocessing.active_children() == []


class TestMortalityLikeSamples:
    def test_shape_domain_and_determinism(self):
        pred_a, resp_a = mortality_like_samples(n=12, m=40, seed=7)
        pred_b, resp_b = mortality_like_samples(n=12, m=40, seed=7)
        assert pred_a.shape == (12, 2, 40)
        assert resp_a.shape == (12, 40)
        assert np.array_equal(pred_a, pred_b)
        assert np.array_equal(resp_a, resp_b)
        assert resp_a.min() >= 0.0 and resp_a.max() <= 100.0
        assert pred_a.min() >= 0.0 and pred_a.max() <= 100.0

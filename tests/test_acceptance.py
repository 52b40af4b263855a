"""End-to-end acceptance gate.

Ten numbered criteria cover the full surface: four Monte Carlo accuracy
studies with pinned master seeds and tolerance windows, two solver-vs-oracle
sweeps, the quadratic growth identity of the population objective, reference
invariance of the fitted predictions, descent of every recorded fit
trajectory, and the leave-one-out cross-validation harness on synthetic
mortality-like data.  Each test records a PASS or FAIL line; the summary
hook in conftest prints one line per criterion at the end of the run.

The studies are expensive (roughly twenty minutes in total on one core);
they run once per session and are shared across criteria.
"""

import json
import time

import numpy as np
import pytest

from conftest import record_criterion
from oracles import dense_simplex_minima, isotonic_oracle

from mtdr.cli import cli, write_long_csv
from mtdr.fitting import (
    FitConfig,
    MtdrModel,
    empirical_risk,
    fit,
    predict,
    predictive_seminorm,
)
from mtdr.monotone_map import MonotoneMap
from mtdr.quantile_core import QuantileGrid, frechet_mean, wasserstein_distance
from mtdr.simulation import (
    NoiseSpec,
    generate_dataset,
    mortality_like_samples,
    run_replications,
    scenario,
    sine_warp,
)
from mtdr.solvers import (
    IsotonicProblem,
    SimplexLSProblem,
    SimplexWeights,
    simplex_least_squares,
    simplex_project,
    weighted_isotonic,
)


@pytest.fixture(scope="session")
def study_single_mixture():
    """30 replications, one predictor, true weight 0.5, n = m = 200."""
    spec = scenario("single", (0.5, 0.5), n=200, m=200, reps=30, seed=101)
    start = time.perf_counter()
    summary = run_replications(spec)
    return summary, time.perf_counter() - start


@pytest.fixture(scope="session")
def study_sample_size_trend():
    """True weight 0.25 at n in {50, 200, 400}, m = 200, 30 replications."""
    out = {}
    for n, seed in ((50, 201), (200, 202), (400, 203)):
        spec = scenario("single", (0.75, 0.25), n=n, m=200, reps=30, seed=seed)
        out[n] = run_replications(spec)
    return out


@pytest.fixture(scope="session")
def study_transport_equivalence():
    """True weight 1.0: free weights versus weights fixed at (0, 1)."""
    spec = scenario("single", (0.0, 1.0), n=200, m=200, reps=30, seed=301)
    free = run_replications(spec)
    fixed = run_replications(spec, fixed_weights=SimplexWeights.of([0.0, 1.0]))
    return free, fixed


@pytest.fixture(scope="session")
def study_three_transport():
    """Two predictors plus reference, weights (0.3, 0.35, 0.35), 30 reps."""
    spec = scenario("multi", (0.3, 0.35, 0.35), n=200, m=200, reps=30, seed=401)
    return run_replications(spec)


def test_criterion_01_single_mixture_accuracy(study_single_mixture):
    summary, elapsed = study_single_mixture
    seminorm = summary.metrics["pred_seminorm_err"]["mean"]
    weight = summary.metrics["weight_err"]["mean"]
    ok = (
        0.006 <= seminorm <= 0.012
        and 0.005 <= weight <= 0.035
        and elapsed < 600.0
    )
    record_criterion(
        1,
        ok,
        f"seminorm {seminorm:.4f} in [0.006, 0.012], "
        f"weight err {weight:.4f} in [0.005, 0.035], {elapsed:.0f}s < 600s",
    )
    assert 0.006 <= seminorm <= 0.012
    assert 0.005 <= weight <= 0.035
    assert elapsed < 600.0


def test_criterion_02_error_decreases_with_n(study_sample_size_trend):
    means = [
        study_sample_size_trend[n].metrics["pred_seminorm_err"]["mean"]
        for n in (50, 200, 400)
    ]
    ok = means[0] > means[1] > means[2]
    record_criterion(
        2,
        ok,
        "seminorm means "
        + " > ".join(f"{v:.4f}" for v in means)
        + " across n in {50, 200, 400}",
    )
    assert means[0] > means[1] > means[2]


def test_criterion_03_reduces_to_transport_regression(study_transport_equivalence):
    free, fixed = study_transport_equivalence
    rmse_free = free.metrics["rmse"]["mean"]
    rmse_fixed = fixed.metrics["rmse"]["mean"]
    gap = abs(rmse_free - rmse_fixed)
    ok = gap < 0.005
    record_criterion(
        3,
        ok,
        f"test RMSE free {rmse_free:.4f} vs fixed (0,1) {rmse_fixed:.4f}, "
        f"gap {gap:.2e} < 5e-3",
    )
    assert gap < 0.005


def test_criterion_04_three_transport_accuracy(study_three_transport):
    summary = study_three_transport
    seminorm = summary.metrics["pred_seminorm_err"]["mean"]
    weight = summary.metrics["weight_err"]["mean"]
    ok = 0.007 <= seminorm <= 0.013 and 0.02 <= weight <= 0.07
    record_criterion(
        4,
        ok,
        f"seminorm {seminorm:.4f} in [0.007, 0.013], "
        f"weight l2 err {weight:.4f} in [0.02, 0.07]",
    )
    assert 0.007 <= seminorm <= 0.013
    assert 0.02 <= weight <= 0.07


def test_criterion_05_isotonic_matches_oracle():
    # strictly positive weights keep the optimum unique, which is what makes
    # the coordinatewise comparison against the enumeration oracle sharp
    rng = np.random.default_rng(5001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        t = int(rng.integers(1, 9))
        lo = float(rng.uniform(-1.0, 0.5))
        hi = lo + float(rng.uniform(0.3, 2.5))
        y = rng.uniform(lo - 0.8, hi + 0.8, size=t)
        w = rng.uniform(0.05, 3.0, size=t)
        ours = weighted_isotonic(IsotonicProblem(y, w, lo, hi))
        oracle = isotonic_oracle(y, w, lo, hi)
        worst = max(worst, float(np.max(np.abs(ours - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    record_criterion(
        5,
        ok,
        f"500 instances (t <= 8): worst coordinate gap {worst:.2e} < 1e-6, "
        f"{elapsed:.1f}s < 30s",
    )
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_06_simplex_ls_matches_grid():
    # On a quadratic the dense lattice value can only sit at or above the
    # true minimum, so the solver must land at or below every lattice value;
    # the 1e-8 slack covers roundoff in the two objective evaluations.
    rng = np.random.default_rng(6001)
    worst = -np.inf
    checked = 0
    for n, count in ((2, 100), (3, 80), (4, 20)):
        grams, lins, ours = [], [], []
        for _ in range(count):
            k = n + int(rng.integers(0, 5))
            A = rng.normal(size=(k, n)) * rng.uniform(0.3, 3.0)
            if rng.random() < 0.2:
                A[:, -1] = A[:, 0] + 1e-4 * rng.normal(size=k)
            y = rng.normal(size=k) * rng.uniform(0.5, 2.0)
            G, c = A.T @ A, A.T @ y
            a = simplex_least_squares(SimplexLSProblem(G, c)).values
            grams.append(G)
            lins.append(c)
            ours.append(float(a @ (G @ a) - 2.0 * (c @ a)))
        grid_best = dense_simplex_minima(grams, lins, resolution=2e-3)
        worst = max(worst, float(np.max(np.asarray(ours) - grid_best)))
        checked += count
    ok = checked >= 200 and worst <= 1e-8
    record_criterion(
        6,
        ok,
        f"{checked} problems (p <= 3): worst objective excess over the "
        f"2e-3 lattice {worst:.2e} <= 1e-8",
    )
    assert checked >= 200
    assert worst <= 1e-8


def test_criterion_07_quadratic_growth():
    spec = scenario(
        "multi", (0.3, 0.35, 0.35), n=50, m=10, reps=1, seed=71,
        noise=NoiseSpec((0,)), test_fraction=0.0,
    )
    gen = generate_dataset(spec, np.random.default_rng(71), t=1000, exact=True)
    truth, data = gen.truth, gen.train
    base_risk = empirical_risk(truth, data)
    rng = np.random.default_rng(72)
    node_grid = truth.node_grid
    worst = 0.0
    for _ in range(50):
        maps = []
        for T in truth.maps:
            blend = rng.uniform(0.05, 0.25)
            order = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            values = (1 - blend) * T.values + blend * sine_warp(
                order, node_grid.nodes
            )
            maps.append(MonotoneMap(node_grid, values))
        alpha = simplex_project(
            truth.weights.values + rng.uniform(-0.15, 0.15, 3)
        )
        model = MtdrModel(truth.reference, tuple(maps), SimplexWeights.of(alpha))
        risk = empirical_risk(model, data)
        gap_sq = predictive_seminorm(model, truth, data) ** 2
        worst = max(worst, abs((risk - base_risk) - gap_sq) / risk)
    ok = worst < 0.02
    record_criterion(
        7,
        ok,
        f"50 perturbations on exact noiseless data: max relative gap "
        f"between risk excess and squared seminorm {worst:.2e} < 0.02",
    )
    assert worst < 0.02


def test_criterion_08_reference_invariance():
    spec = scenario("single", (0.5, 0.5), n=60, m=200, reps=1, seed=81)
    gen = generate_dataset(spec, np.random.default_rng(81), t=1000)
    train = gen.train
    grid, dom = train.prob_grid, train.domain
    uniform_ref = QuantileGrid(dom, grid, dom.lo + dom.width * grid.levels)
    responses = [s.response for s in train.subjects]
    lam = np.full(len(responses), 1.0 / len(responses))
    frechet_ref = frechet_mean(responses, lam)
    model_u, _ = fit(train, 1, uniform_ref, FitConfig())
    model_f, _ = fit(train, 1, frechet_ref, FitConfig())
    gaps = [
        wasserstein_distance(
            predict(model_u, s.predictors), predict(model_f, s.predictors)
        )
        for s in train.subjects
    ]
    worst = max(gaps)
    ok = worst < 5e-3
    record_criterion(
        8,
        ok,
        f"uniform vs Frechet-mean reference: max training prediction "
        f"gap {worst:.2e} < 5e-3 over {len(gaps)} subjects",
    )
    assert worst < 5e-3


def test_criterion_09_every_fit_descends(
    study_single_mixture,
    study_sample_size_trend,
    study_transport_equivalence,
    study_three_transport,
):
    results = list(study_single_mixture[0].results)
    for summary in study_sample_size_trend.values():
        results.extend(summary.results)
    results.extend(study_transport_equivalence[0].results)
    results.extend(study_transport_equivalence[1].results)
    results.extend(study_three_transport.results)
    worst = -np.inf
    for rep in results:
        trajectory = np.asarray(rep.trajectory, dtype=float)
        if trajectory.size < 2:
            continue
        slack = 1e-6 * trajectory[0]
        worst = max(worst, float(np.max(np.diff(trajectory))) - slack)
    ok = worst <= 0.0
    record_criterion(
        9,
        ok,
        f"{len(results)} fit trajectories: max increase minus slack "
        f"{worst:.2e} <= 0",
    )
    assert worst <= 0.0


def test_criterion_10_loocv_harness(tmp_path):
    pred, resp = mortality_like_samples(n=34, m=500, seed=7)
    data = tmp_path / "mortality_like.csv"
    write_long_csv(data, pred, resp)
    reports = {}
    for reference in ("uniform", "frechet"):
        out = tmp_path / f"loocv_{reference}.json"
        code = cli(
            [
                "loocv",
                "--data", str(data),
                "--p", "2",
                "--domain", "0,100",
                "--t", "300",
                "--reference", reference,
                "--out", str(out),
            ]
        )
        assert code == 0
        reports[reference] = json.loads(out.read_text())
    distances = [f["distance"] for f in reports["uniform"]["folds"]]
    mean_gap = abs(float(np.mean(distances)) - reports["uniform"]["awd"])
    ref_gap = abs(reports["uniform"]["awd"] - reports["frechet"]["awd"])
    ok = len(distances) == 34 and mean_gap <= 1e-15 and ref_gap < 5e-3
    record_criterion(
        10,
        ok,
        f"34-subject mortality-like loocv: awd equals fold mean "
        f"(gap {mean_gap:.1e}), uniform vs frechet awd gap {ref_gap:.2e} < 5e-3",
    )
    assert len(distances) == 34
    assert mean_gap <= 1e-15
    assert ref_gap < 5e-3

"""Smoke test of the benchmark at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name, unit in units.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and np.isfinite(value)
        assert f"{workload} {name} {value!r} {unit}" in lines
    assert f"{workload} fail_frac 0.0 ratio" in lines
    env = json.loads(lines[0][len("env "):])
    assert env["mtdr_file"].startswith(os.path.join(ROOT, "src", "mtdr"))
    assert env["blas_threads"] <= env["nproc"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))  # fmt: skip
    proc = bench(str(tmp_path), "--workload", "cli_score", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def write_predictions(path, rows):
    with open(path, "w") as fh:
        fh.write("subject_id,p,quantile\n")
        for sid, p, q in rows:
            fh.write(f"{sid},{p!r},{q!r}\n")


def test_prediction_check_catches_corruption(tmp_path):
    path = str(tmp_path / "predictions.csv")
    levels = [0.125, 0.375, 0.625, 0.875]
    good = [(sid, p, 10.0 + 80.0 * p) for sid in ("s1", "s2") for p in levels]
    write_predictions(path, good)
    assert workloads.check_predictions(path, ("s1", "s2"), 4, (0.0, 100.0)) == []

    swapped = list(good)
    swapped[5], swapped[6] = swapped[6], swapped[5]
    write_predictions(path, [(s, p, q) for (s, p, _), (_, _, q) in zip(good, swapped)])
    problems = workloads.check_predictions(path, ("s1", "s2"), 4, (0.0, 100.0))
    assert problems == ["predictions for s2 are not nondecreasing"]

    write_predictions(path, good[:-1] + [("s2", 0.875, 100.5)])
    problems = workloads.check_predictions(path, ("s1", "s2"), 4, (0.0, 100.0))
    assert problems == ["predictions for s2 leave the domain"]

    write_predictions(path, good[:-1])
    assert workloads.check_predictions(path, ("s1", "s2"), 4, (0.0, 100.0))


def test_loocv_summary_and_simplex_checks():
    folds = [{"subject_id": f"s{i}", "distance": d, "alpha": [0.2, 0.3, 0.5]}
             for i, d in enumerate([1.0, 2.0, 4.0])]  # fmt: skip
    doc = {"folds": folds, "awd": 7.0 / 3.0}
    assert workloads.check_loocv(doc, 3) == []
    assert workloads.check_loocv(doc, 4)
    assert workloads.check_loocv(dict(doc, awd=2.5), 3)
    folds[1]["alpha"] = [-0.1, 0.6, 0.5]
    assert workloads.check_loocv(doc, 3)
    assert workloads.check_simplex([0.5, 0.6], "w")
    summary = {"metrics": {"pred_seminorm_err": {"mean": 0.01, "sd": 0.0}}}
    assert workloads.check_summary(summary) == []
    summary["metrics"]["rmse"] = {"mean": float("nan"), "sd": 0.0}
    assert workloads.check_summary(summary)


class _Failing(workloads.Workload):
    ops = 3

    def __init__(self, exit_code, problems):
        self.exit_code, self.found = exit_code, problems

    def commands(self, state, r):
        return [["fit"]]

    def check(self, state, r):
        return self.found, 1.0


@pytest.mark.parametrize("exit_code, found", [(1, []), (0, ["bad output"])])
def test_failed_round_counts_its_ops(exit_code, found):
    runner = run.Runner(_Failing(exit_code, found), {"outputs": []}, None)
    runner.round(0, lambda argv: exit_code)
    assert (runner.attempted, runner.failed, runner.pred_errs) == (3, 3, [])


def test_stop_reason():
    from mtdr.fitting import FitReport

    assert tracing.stop_reason(FitReport(np.array([1.0, 0.5]), False), 1e-8) == "max_iter"
    assert tracing.stop_reason(FitReport(np.array([1.0, 0.5, 0.5]), True), 1e-8) == "rel_tol"
    assert tracing.stop_reason(FitReport(np.array([1.0, 0.5]), True), 1e-8) == "risk_up"

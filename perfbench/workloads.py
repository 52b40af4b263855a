"""The four benchmark workloads and the checks on their outputs.

Every workload drives mtdr only through its command line entry point,
``mtdr.cli.cli(argv)``, in this process.  A workload has a set-up, which
writes its input files, and a round: the command sequence that is timed.
After each round, ``check`` reads the outputs, returns the problems it
found and the round's accuracy (``pred_err``).  Inputs are a pure function
of the benchmark seed and the round number.
"""

from __future__ import annotations

import csv
import json
import math
import os

# Problem sizes.  FULL is what the benchmark measures; TINY is for the smoke
# test.  README.md says why these sizes and not larger ones.
FULL = {
    "study_single": {"n": 60, "m": 200, "t": 200},
    "study_multi": {"n": 50, "m": 200, "t": 300},
    "cli_loocv": {"n": 34, "m": 500, "t": 300},
    "cli_score": {"n_train": 17, "n_score": 200, "m": 200, "t": 300},
}
TINY = {
    "study_single": {"n": 12, "m": 30, "t": 20},
    "study_multi": {"n": 12, "m": 30, "t": 20},
    "cli_loocv": {"n": 4, "m": 40, "t": 20},
    "cli_score": {"n_train": 6, "n_score": 5, "m": 40, "t": 20},
}

DOMAIN = (0.0, 100.0)  # age range of the mortality-like files
SIMPLEX_TOL = 1e-9


def data_seed(seed: int, index: int) -> int:
    """Seed of the index-th input of a run made with the given benchmark seed."""
    return seed * 1_000_000 + index


# -- output checks --------------------------------------------------------


def check_simplex(values, what: str) -> list:
    """Weights must be nonnegative and sum to one."""
    vals = [float(v) for v in values]
    if not vals or min(vals) < -SIMPLEX_TOL or abs(math.fsum(vals) - 1.0) > SIMPLEX_TOL:
        return [f"{what}: weights {vals} are not on the simplex"]
    return []


def check_summary(doc: dict) -> list:
    """Every mean and sd in a simulate summary.json must be finite."""
    metrics = doc.get("metrics") or {}
    problems = [] if "pred_seminorm_err" in metrics else ["summary lacks pred_seminorm_err"]
    for name, stat in metrics.items():
        for key in ("mean", "sd"):
            value = stat.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"summary {name}.{key} is {value!r}")
    return problems


def check_loocv(doc: dict, n: int) -> list:
    """n folds, fold weights on the simplex, awd equal to the fold mean."""
    folds = doc.get("folds") or []
    if len(folds) != n:
        return [f"loocv has {len(folds)} folds, expected {n}"]
    problems = []
    for fold in folds:
        problems += check_simplex(fold["alpha"], f"loocv fold {fold['subject_id']}")
    dists = [float(f["distance"]) for f in folds]
    mean = sum(dists) / n
    awd = doc.get("awd")
    if not isinstance(awd, float) or not all(map(math.isfinite, dists + [awd])):
        problems.append(f"loocv awd {awd!r} or a fold distance is not finite")
    elif abs(awd - mean) > 1e-12 * max(1.0, abs(mean)):
        problems.append(f"loocv awd {awd!r} differs from the fold mean {mean!r}")
    return problems


def check_predictions(path: str, subject_ids, t: int, domain) -> list:
    """n*t rows in subject order; each quantile row nondecreasing, in domain."""
    lo, hi = domain
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["subject_id", "p", "quantile"]:
        return ["predictions header is wrong"]
    rows = rows[1:]
    if len(rows) != len(subject_ids) * t:
        return [f"predictions have {len(rows)} rows, expected {len(subject_ids) * t}"]
    problems = []
    for i, sid in enumerate(subject_ids):
        block = rows[i * t : (i + 1) * t]
        if any(r[0] != sid for r in block):
            problems.append(f"predictions for {sid} are not in one block")
            continue
        q = [float(r[2]) for r in block]
        if not all(math.isfinite(v) and lo <= v <= hi for v in q):
            problems.append(f"predictions for {sid} leave the domain")
        if any(b < a for a, b in zip(q, q[1:])):
            problems.append(f"predictions for {sid} are not nondecreasing")
    return problems


def _model_alpha(path: str) -> list:
    with open(path) as fh:
        return json.load(fh)["alpha"]


def _write_mortality_like(path: str, n: int, m: int, seed: int) -> int:
    """Write a mortality-like long CSV; returns its number of data rows."""
    from mtdr.cli import write_long_csv
    from mtdr.quantile_core import Domain
    from mtdr.simulation import mortality_like_samples

    pred, resp = mortality_like_samples(n=n, m=m, seed=seed, domain=Domain(*DOMAIN))
    write_long_csv(path, pred, resp)
    return n * 3 * m


def _fit_argv(command: str, data: str, t: int, out: str) -> list:
    return [command, "--data", data, "--p", "2", "--domain", "%r,%r" % DOMAIN,
            "--t", str(t), "--reference", "frechet", "--out", out]  # fmt: skip


# -- workloads --------------------------------------------------------------


class Workload:
    """Set-up, timed commands and output checks of one workload.

    ``setup`` returns a state dict whose "outputs" are deleted before each
    round, so a check never reads a file left by an earlier round, and whose
    "rows" maps each input CSV to its number of data rows.
    """

    ops = 1  # ops per round

    def expect(self, state: dict) -> list:
        """Untimed preparation of the checks; returns problems found."""
        return []


class Study(Workload):
    """One ``mtdr simulate`` replication per round; an op is a replication."""

    def __init__(self, scenario: str, alpha: str, size: dict):
        self.scenario, self.alpha, self.size = scenario, alpha, size

    def setup(self, work: str, seed: int, cli) -> dict:
        out = os.path.join(work, "study")
        summary = os.path.join(out, "summary.json")
        return {"seed": seed, "out": out, "summary": summary, "outputs": [summary], "rows": {}}

    def commands(self, state: dict, r: int) -> list:
        s = self.size
        return [["simulate", "--scenario", self.scenario, "--alpha", self.alpha,
                 "--n", str(s["n"]), "--m", str(s["m"]), "--t", str(s["t"]),
                 "--reps", "1", "--seed", str(data_seed(state["seed"], r)),
                 "--out", state["out"]]]  # fmt: skip

    def check(self, state: dict, r: int):
        with open(state["summary"]) as fh:
            doc = json.load(fh)
        problems = check_summary(doc)
        if doc.get("reps") != 1 or doc.get("seed") != data_seed(state["seed"], r):
            problems.append("summary.json is not from this round")
        if problems:
            return problems, math.nan
        return [], doc["metrics"]["pred_seminorm_err"]["mean"]


class Loocv(Workload):
    """``mtdr fit`` then ``mtdr loocv`` on the mortality-like file.

    The file is the one ``scripts/make_mortality_like.py`` writes by default
    (34 subjects, 500 samples per variable, generator seed 7), so every
    seed measures the same fits: how many folds run into the iteration cap
    changes from dataset to dataset and with it the cost of a round, by up
    to a factor of two.  The benchmark seed permutes the rows within each
    subject's variable, which changes the file but not the quantiles read
    from it.  An op is one fit: the full fit plus one per fold.
    """

    def __init__(self, size: dict):
        self.size = size
        self.ops = 1 + size["n"]

    def setup(self, work: str, seed: int, cli) -> dict:
        import numpy as np

        from mtdr.cli import write_long_csv
        from mtdr.quantile_core import Domain
        from mtdr.simulation import mortality_like_samples

        s = self.size
        pred, resp = mortality_like_samples(n=s["n"], m=s["m"], domain=Domain(*DOMAIN))
        rng = np.random.default_rng(seed)
        data = os.path.join(work, "samples.csv")
        write_long_csv(data, rng.permuted(pred, axis=2), rng.permuted(resp, axis=1))
        model = os.path.join(work, "model.json")
        report = os.path.join(work, "loocv.json")
        return {"data": data, "rows": {data: s["n"] * 3 * s["m"]}, "model": model,
                "report": report, "outputs": [model, report]}  # fmt: skip

    def commands(self, state: dict, r: int) -> list:
        t = self.size["t"]
        return [
            _fit_argv("fit", state["data"], t, state["model"]),
            _fit_argv("loocv", state["data"], t, state["report"]),
        ]

    def check(self, state: dict, r: int):
        problems = check_simplex(_model_alpha(state["model"]), "fit")
        with open(state["report"]) as fh:
            doc = json.load(fh)
        problems += check_loocv(doc, self.size["n"])
        return problems, (math.nan if problems else doc["awd"])


class Score(Workload):
    """``mtdr predict`` then ``mtdr evaluate --metric awd`` with a fitted model.

    Set-up writes a training file and a scoring file and fits the model; an
    op is one subject scored by one of the two commands.
    """

    def __init__(self, size: dict):
        self.size = size
        self.ops = 2 * size["n_score"]

    def setup(self, work: str, seed: int, cli) -> dict:
        s = self.size
        train = os.path.join(work, "train.csv")
        score = os.path.join(work, "score.csv")
        model = os.path.join(work, "model.json")
        _write_mortality_like(train, s["n_train"], s["m"], data_seed(seed, 0))
        rows = {score: _write_mortality_like(score, s["n_score"], s["m"], data_seed(seed, 1))}
        if cli(_fit_argv("fit", train, s["t"], model)) != 0:
            raise RuntimeError("set-up fit failed")
        predictions = os.path.join(work, "predictions.csv")
        evaluate = os.path.join(work, "evaluate.json")
        return {
            "score": score,
            "model": model,
            "rows": rows,
            "predictions": predictions,
            "evaluate": evaluate,
            "outputs": [predictions, evaluate],
        }

    def expect(self, state: dict) -> list:
        """Recompute in process what evaluate should report; check the model."""
        from mtdr.cli import ingest, load_model
        from mtdr.fitting import predict
        from mtdr.simulation import awd

        model, _ = load_model(state["model"])
        res = ingest(state["score"], model.domain, model.prob_grid, model.p)
        preds = [predict(model, s.predictors) for s in res.dataset.subjects]
        state["expected"] = awd(preds, [s.response for s in res.dataset.subjects])
        state["subject_ids"] = res.subject_ids
        return check_simplex(model.weights.values, "set-up fit")

    def commands(self, state: dict, r: int) -> list:
        model, data = state["model"], state["score"]
        return [
            ["predict", "--model", model, "--data", data, "--out", state["predictions"]],
            ["evaluate", "--model", model, "--data", data, "--metric", "awd",
             "--out", state["evaluate"]],
        ]  # fmt: skip

    def check(self, state: dict, r: int):
        problems = check_predictions(
            state["predictions"], state["subject_ids"], self.size["t"], DOMAIN
        )
        with open(state["evaluate"]) as fh:
            value = json.load(fh)["value"]
        if state["stdout"] != f"{value!r}\n":
            problems.append(f"evaluate printed {state['stdout']!r}, wrote {value!r}")
        if not math.isclose(value, state["expected"], rel_tol=1e-9, abs_tol=0.0):
            problems.append(f"evaluate gave {value!r}, recomputed {state['expected']!r}")
        return problems, (math.nan if problems else value)


def make(name: str, sizes: dict):
    size = sizes[name]
    if name == "study_single":
        return Study("single", "0.5", size)
    if name == "study_multi":
        return Study("multi", "0.3,0.35,0.35", size)
    if name == "cli_loocv":
        return Loocv(size)
    if name == "cli_score":
        return Score(size)
    raise KeyError(name)

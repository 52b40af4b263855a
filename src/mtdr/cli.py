"""Command line interface and file formats.

Long sample files are CSV with header subject_id,variable,value; variable is
"response" or "pred1".."predP" and each row carries one raw observation.
Models are JSON documents with format_version 1 whose floats round-trip
exactly (shortest-repr serialization).  All commands are deterministic given
their inputs and the seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .fitting import (
    DataSet,
    FitConfig,
    FitReport,
    MtdrModel,
    Subject,
    fit,
    predict,
)
from .monotone_map import MonotoneMap, NodeGrid
from .quantile_core import (
    CLAMP_REL,
    Domain,
    ProbGrid,
    QuantileGrid,
    frechet_mean,
    quantile_from_samples,
    wasserstein_distance,
)
from .simulation import (
    NoiseSpec,
    awd,
    multi_predictor_scenario,
    rmse,
    run_replications,
    single_predictor_scenario,
)
from .solvers import SimplexWeights

__all__ = [
    "IngestResult",
    "ingest",
    "write_long_csv",
    "save_model",
    "load_model",
    "loocv",
    "cli",
    "main",
]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class IngestResult:
    """A parsed dataset plus the subject identifiers, in file order."""

    dataset: DataSet
    subject_ids: tuple


def ingest(
    path: str,
    domain: Domain,
    grid: ProbGrid,
    p: int,
    require_response: bool = True,
) -> IngestResult:
    """Read a long sample CSV into a dataset of empirical quantile grids.

    Every subject must carry every declared variable (pred1..predP, plus
    response unless require_response is False).  Malformed rows, unknown
    variables and out-of-domain values are reported with their row number.
    """
    allowed = {f"pred{j}" for j in range(1, p + 1)} | {"response"}
    band = CLAMP_REL * domain.width
    samples: dict = {}
    order: list = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [
            "subject_id",
            "variable",
            "value",
        ]:
            raise ValueError("expected header subject_id,variable,value")
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"row {row_no}: expected 3 fields")
            sid, var, raw = row[0].strip(), row[1].strip(), row[2].strip()
            if var not in allowed:
                raise ValueError(f"row {row_no}: unknown variable {var!r}")
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"row {row_no}: non-numeric value {raw!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"row {row_no}: non-finite value")
            if value < domain.lo - band or value > domain.hi + band:
                raise ValueError(
                    f"row {row_no}: value {value} outside domain"
                    f" [{domain.lo}, {domain.hi}]"
                )
            if sid not in samples:
                samples[sid] = {}
                order.append(sid)
            samples[sid].setdefault(var, []).append(value)
    if not order:
        raise ValueError("no data rows")
    needed = [f"pred{j}" for j in range(1, p + 1)]
    if require_response:
        needed.append("response")
    subjects = []
    for sid in order:
        got = samples[sid]
        for var in needed:
            if var not in got:
                raise ValueError(f"subject {sid!r} is missing variable {var!r}")
        preds = tuple(
            quantile_from_samples(got[f"pred{j}"], domain, grid)
            for j in range(1, p + 1)
        )
        resp = (
            quantile_from_samples(got["response"], domain, grid)
            if "response" in got
            else None
        )
        subjects.append(Subject(preds, resp))
    return IngestResult(DataSet(tuple(subjects)), tuple(order))


def write_long_csv(path, pred_samples, resp_samples=None, subject_ids=None) -> None:
    """Write raw samples as a long CSV (see module docstring for schema)."""
    pred_samples = np.asarray(pred_samples, dtype=float)
    n, p, _ = pred_samples.shape
    if subject_ids is None:
        width = max(3, len(str(n)))
        subject_ids = [f"s{i + 1:0{width}d}" for i in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "variable", "value"])
        for i in range(n):
            if resp_samples is not None:
                for x in np.asarray(resp_samples[i], dtype=float):
                    writer.writerow([subject_ids[i], "response", repr(float(x))])
            for j in range(p):
                for x in pred_samples[i, j]:
                    writer.writerow([subject_ids[i], f"pred{j + 1}", repr(float(x))])


# -- model file ------------------------------------------------------------


def _probgrid_json(grid: ProbGrid) -> dict:
    t = grid.size
    if np.array_equal(grid.levels, ProbGrid.midpoint(t).levels):
        return {"kind": "midpoint", "size": t}
    return {"kind": "explicit", "levels": grid.levels.tolist()}


def _probgrid_from_json(spec: dict) -> ProbGrid:
    if spec["kind"] == "midpoint":
        return ProbGrid.midpoint(int(spec["size"]))
    return ProbGrid(np.asarray(spec["levels"], dtype=float))


def _nodegrid_json(grid: NodeGrid) -> dict:
    t = grid.size
    if grid.matches(NodeGrid.uniform(grid.domain, t)):
        return {"kind": "uniform", "size": t}
    return {
        "kind": "explicit",
        "nodes": grid.nodes.tolist(),
        "edges": grid.edges.tolist(),
    }


def _nodegrid_from_json(spec: dict, domain: Domain) -> NodeGrid:
    if spec["kind"] == "uniform":
        return NodeGrid.uniform(domain, int(spec["size"]))
    return NodeGrid(
        domain,
        np.asarray(spec["nodes"], dtype=float),
        np.asarray(spec["edges"], dtype=float),
    )


def save_model(path: str, model: MtdrModel, report: FitReport | None = None) -> None:
    """Serialize a model (and optionally its fit report) to JSON."""
    doc = {
        "format_version": FORMAT_VERSION,
        "domain": {"s0": model.domain.lo, "s1": model.domain.hi},
        "t": model.node_grid.size,
        "prob_grid": _probgrid_json(model.prob_grid),
        "node_grid": _nodegrid_json(model.node_grid),
        "alpha": model.weights.values.tolist(),
        "maps": [T.values.tolist() for T in model.maps],
        "reference_quantiles": model.reference.values.tolist(),
    }
    if report is not None:
        doc["fit_report"] = {
            "trajectory": report.trajectory.tolist(),
            "iterations": report.iterations,
            "converged": report.converged,
            "final_objective": report.final_objective,
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str):
    """Load a model JSON written by save_model.

    Returns (model, report); report is None when the file carries none.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported model format_version")
    domain = Domain(float(doc["domain"]["s0"]), float(doc["domain"]["s1"]))
    prob_grid = _probgrid_from_json(doc["prob_grid"])
    node_grid = _nodegrid_from_json(doc["node_grid"], domain)
    reference = QuantileGrid(
        domain, prob_grid, np.asarray(doc["reference_quantiles"], dtype=float)
    )
    maps = tuple(
        MonotoneMap(node_grid, np.asarray(z, dtype=float)) for z in doc["maps"]
    )
    weights = SimplexWeights.of(np.asarray(doc["alpha"], dtype=float))
    model = MtdrModel(reference, maps, weights)
    report = None
    if "fit_report" in doc:
        rep = doc["fit_report"]
        report = FitReport(
            np.asarray(rep["trajectory"], dtype=float), bool(rep["converged"])
        )
    return model, report


# -- reference resolution ----------------------------------------------------


def _resolve_reference(
    choice: str, domain: Domain, grid: ProbGrid, data: DataSet | None
) -> QuantileGrid:
    """uniform | frechet | path to a JSON file with a "quantiles" array."""
    if choice == "uniform":
        return QuantileGrid(domain, grid, domain.lo + domain.width * grid.levels)
    if choice == "frechet":
        if data is None or not data.has_responses:
            raise ValueError("frechet reference needs a dataset with responses")
        responses = [s.response for s in data.subjects]
        lam = np.full(len(responses), 1.0 / len(responses))
        return frechet_mean(responses, lam)
    with open(choice) as fh:
        doc = json.load(fh)
    return QuantileGrid(domain, grid, np.asarray(doc["quantiles"], dtype=float))


# -- leave-one-out cross validation ------------------------------------------


def loocv(
    data: DataSet,
    subject_ids,
    p: int,
    domain: Domain,
    grid: ProbGrid,
    reference_choice: str,
    cfg: FitConfig,
) -> dict:
    """Hold out each subject once, fit on the rest, score the prediction.

    The reference is resolved per fold from the training subjects, so a
    frechet reference never sees the held-out response.  Returns the report
    document with per-fold distances and weights; the reported awd is the
    mean of the fold distances.
    """
    if data.n < 2:
        raise ValueError("leave-one-out needs at least two subjects")
    if not data.has_responses:
        raise ValueError("leave-one-out needs responses")
    folds = []
    distances = []
    for i in range(data.n):
        rest = DataSet(tuple(s for j, s in enumerate(data.subjects) if j != i))
        reference = _resolve_reference(reference_choice, domain, grid, rest)
        model, _ = fit(rest, p, reference, cfg)
        held = data.subjects[i]
        dist = wasserstein_distance(held.response, predict(model, held.predictors))
        distances.append(dist)
        folds.append(
            {
                "subject_id": subject_ids[i],
                "distance": dist,
                "alpha": model.weights.values.tolist(),
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "reference": reference_choice,
        "folds": folds,
        "awd": float(np.mean(distances)),
    }


# -- argument parsing ---------------------------------------------------------


def _parse_domain(text: str) -> Domain:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("domain must be LO,HI")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("domain must be numeric") from None
    return Domain(lo, hi)


def _parse_float_list(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers") from None


def _parse_int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtdr",
        description="Distribution-on-distribution regression via transported"
        " Frechet means",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--scenario", choices=["single", "multi"], required=True)
    sim.add_argument("--alpha", type=_parse_float_list, required=True)
    sim.add_argument("--n", type=int, default=200)
    sim.add_argument("--m", type=int, default=200)
    sim.add_argument("--reps", type=int, default=30)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--t", type=int, default=1000)
    sim.add_argument("--noise-orders", type=_parse_int_list, default=None)
    sim.add_argument("--include-zero-order", action="store_true")
    sim.add_argument("--out", required=True, help="output directory")

    fit_p = sub.add_parser("fit", help="fit a model to a long sample CSV")
    fit_p.add_argument("--data", required=True)
    fit_p.add_argument("--p", type=int, required=True)
    fit_p.add_argument("--domain", type=_parse_domain, required=True)
    fit_p.add_argument("--reference", default="uniform")
    fit_p.add_argument("--t", type=int, default=1000)
    fit_p.add_argument("--fixed-weights", type=_parse_float_list, default=None)
    fit_p.add_argument("--out", required=True, help="model JSON path")

    pred = sub.add_parser("predict", help="predict responses for new subjects")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True, help="predictions CSV path")

    ev = sub.add_parser("evaluate", help="score predictions against responses")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--metric", choices=["rmse", "awd"], default="rmse")
    ev.add_argument("--out", default=None, help="optional JSON output path")

    lo = sub.add_parser("loocv", help="leave-one-out cross validation")
    lo.add_argument("--data", required=True)
    lo.add_argument("--p", type=int, required=True)
    lo.add_argument("--domain", type=_parse_domain, required=True)
    lo.add_argument("--reference", default="uniform")
    lo.add_argument("--t", type=int, default=1000)
    lo.add_argument("--out", required=True, help="report JSON path")
    return parser


def _cmd_simulate(args) -> int:
    noise = None
    if args.noise_orders is not None or args.include_zero_order:
        noise = NoiseSpec(
            orders=tuple(args.noise_orders or ()),
            include_zero=args.include_zero_order,
        )
    if args.scenario == "single":
        if len(args.alpha) == 1:
            alpha1 = args.alpha[0]
        elif len(args.alpha) == 2:
            alpha1 = args.alpha[1]
        else:
            raise ValueError("single scenario takes 1 or 2 alpha values")
        spec = single_predictor_scenario(
            alpha1, n=args.n, m=args.m, reps=args.reps, seed=args.seed, noise=noise
        )
    else:
        if len(args.alpha) != 3:
            raise ValueError("multi scenario takes 3 alpha values")
        spec = multi_predictor_scenario(
            tuple(args.alpha),
            n=args.n,
            m=args.m,
            reps=args.reps,
            seed=args.seed,
            noise=noise,
        )
    summary = run_replications(spec, FitConfig(t=args.t))
    os.makedirs(args.out, exist_ok=True)
    alpha_text = ";".join(repr(a) for a in spec.weights.values.tolist())
    with open(os.path.join(args.out, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "p", "alpha_star", "n", "m", "reps", "seed", "metric", "mean", "sd"]
        )
        for name, stat in summary.metrics.items():
            writer.writerow(
                [
                    args.scenario,
                    spec.p,
                    alpha_text,
                    spec.n,
                    spec.m,
                    spec.reps,
                    spec.seed,
                    name,
                    repr(stat["mean"]),
                    repr(stat["sd"]),
                ]
            )
    doc = {
        "format_version": FORMAT_VERSION,
        "scenario": args.scenario,
        "p": spec.p,
        "alpha_star": spec.weights.values.tolist(),
        "n": spec.n,
        "m": spec.m,
        "reps": spec.reps,
        "seed": spec.seed,
        "t": args.t,
        "noise_orders": list(spec.noise.support),
        "metrics": summary.metrics,
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _cmd_fit(args) -> int:
    grid = ProbGrid.midpoint(args.t)
    res = ingest(args.data, args.domain, grid, args.p, require_response=True)
    reference = _resolve_reference(args.reference, args.domain, grid, res.dataset)
    fixed = None
    if args.fixed_weights is not None:
        fixed = SimplexWeights.of(args.fixed_weights)
    model, report = fit(res.dataset, args.p, reference, FitConfig(t=args.t), fixed)
    save_model(args.out, model, report)
    return 0


def _cmd_predict(args) -> int:
    model, _ = load_model(args.model)
    res = ingest(
        args.data, model.domain, model.prob_grid, model.p, require_response=False
    )
    levels = model.prob_grid.levels
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "p", "quantile"])
        for sid, subject in zip(res.subject_ids, res.dataset.subjects):
            q = predict(model, subject.predictors)
            for level, value in zip(levels, q.values):
                writer.writerow([sid, repr(float(level)), repr(float(value))])
    return 0


def _cmd_evaluate(args) -> int:
    model, _ = load_model(args.model)
    res = ingest(
        args.data, model.domain, model.prob_grid, model.p, require_response=True
    )
    preds = [predict(model, s.predictors) for s in res.dataset.subjects]
    actuals = [s.response for s in res.dataset.subjects]
    value = rmse(preds, actuals) if args.metric == "rmse" else awd(preds, actuals)
    sys.stdout.write(repr(value) + "\n")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {"format_version": FORMAT_VERSION, "metric": args.metric, "value": value},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    return 0


def _cmd_loocv(args) -> int:
    grid = ProbGrid.midpoint(args.t)
    res = ingest(args.data, args.domain, grid, args.p, require_response=True)
    report = loocv(
        res.dataset,
        res.subject_ids,
        args.p,
        args.domain,
        grid,
        args.reference,
        FitConfig(t=args.t),
    )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "loocv": _cmd_loocv,
}


def cli(argv=None) -> int:
    """Entry point returning an exit code: 0 ok, 1 runtime error, 2 usage."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()

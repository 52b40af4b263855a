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
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .fitting import (
    DataSet,
    FitReport,
    MtdrModel,
    Subject,
    _predictions,
    fit,
    predict,
)
from .monotone_map import MonotoneMap, NodeGrid
from .quantile_core import (
    CLAMP_REL,
    Domain,
    ProbGrid,
    QuantileGrid,
    _quantile_rows,
    frechet_mean,
    wasserstein_distance,
)
# kept only so perfbench/tracing.py's patch of mtdr.cli.quantile_from_samples
# resolves; ingest estimates through _quantile_rows, so that patch counts no call
from .quantile_core import quantile_from_samples  # noqa: F401
from .simulation import (
    NoiseSpec,
    StudySummary,
    _pmap,
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
    "write_study",
    "loocv",
]

FORMAT_VERSION = 1

# Subjects scored, and sample lists estimated, per numpy call: a block of
# 32 keeps the Python work per subject small, while one block of every
# subject would grow the peak memory with the file.
BLOCK = 32


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
    The file is read as UTF-8, with or without a byte-order mark.

    The file is streamed row by row.  A row whose raw (subject_id, variable)
    fields were seen before takes the fast path: float() of the value
    (which strips whitespace as str.strip does) and a range test, then an
    append to its sample list.  That list is the last accepted row's when
    the fields equal that row's, which spares a tuple and a dict lookup per
    row in files that keep a pair's rows together, and one dict lookup
    away otherwise.  Every other row (the first of its pair, a blank row,
    or one that fails the float or range test) takes _checked_row's checks
    in order, so the first bad row in the file is reported, with the same
    message either way.

    The quantile grids are then estimated in blocks of up to BLOCK sample
    lists of equal length, with the bits quantile_from_samples gives each
    list alone.
    """
    band = CLAMP_REL * domain.width
    low, high = domain.lo - band, domain.hi + band
    allowed = {f"pred{j}" for j in range(1, p + 1)} | {"response"}
    samples: dict = {}  # subject id -> variable -> sample list, in file order
    seen: dict = {}  # raw (subject_id, variable) fields -> that sample list
    dest = last_sid = last_var = None  # the last accepted row's list and raw fields
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != [
                "subject_id",
                "variable",
                "value",
            ]:
                raise ValueError("expected header subject_id,variable,value")
            for row_no, row in enumerate(reader, start=2):
                try:
                    sid, var, raw = row
                    value = float(raw)
                except ValueError:
                    value = math.nan  # fails the range test: the row is checked
                if low <= value <= high:
                    if sid == last_sid and var == last_var:
                        dest.append(value)
                        continue
                    known = seen.get((sid, var))
                    if known is not None:
                        dest, last_sid, last_var = known, sid, var
                        dest.append(value)
                        continue
                checked = _checked_row(row, row_no, allowed, domain, low, high)
                if checked is not None:
                    sid, var, value = checked
                    dest = samples.setdefault(sid, {}).setdefault(var, [])
                    dest.append(value)
                    last_sid, last_var = row[0], row[1]
                    seen[last_sid, last_var] = dest
        except csv.Error as exc:
            raise ValueError(f"row {reader.line_num}: {exc}") from None
    if not samples:
        raise ValueError("no data rows")
    needed = [f"pred{j}" for j in range(1, p + 1)]
    if require_response:
        needed.append("response")
    lists = []  # every sample list: each subject's predictors, then its response
    for sid, got in samples.items():
        for var in needed:
            if var not in got:
                raise ValueError(f"subject {sid!r} is missing variable {var!r}")
        lists += [got[f"pred{j}"] for j in range(1, p + 1)]
        lists.append(got.get("response"))
    by_size: dict = {}  # sample count -> indices into lists
    for k, values in enumerate(lists):
        if values is not None:
            by_size.setdefault(len(values), []).append(k)
    grids = [None] * len(lists)
    for ks in by_size.values():
        for start in range(0, len(ks), BLOCK):
            block = ks[start : start + BLOCK]
            rows = _quantile_rows(np.array([lists[k] for k in block]), domain, grid)
            for k, row in zip(block, rows):
                grids[k] = QuantileGrid(domain, grid, row)
    subjects = [
        Subject(grids[k : k + p], grids[k + p]) for k in range(0, len(grids), p + 1)
    ]
    return IngestResult(DataSet(tuple(subjects)), tuple(samples))


def _checked_row(row, row_no, allowed, domain, low, high):
    """(subject_id, variable, value) of a data row; None for a blank row.

    A row that is malformed, names an unknown variable, or carries a value
    that is not a finite number inside [low, high] raises a ValueError
    naming its row number.
    """
    if not row or (len(row) == 1 and not row[0].strip()):
        return None
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
    if value < low or value > high:
        raise ValueError(
            f"row {row_no}: value {value} outside domain [{domain.lo}, {domain.hi}]"
        )
    return sid, var, value


def _write_rows(fh, lead, tails) -> None:
    """Write the CSV rows lead + tail, one per tail, in one fh.write.

    The leading fields are quoted once, as csv.writer quotes them.  Each
    tail is the rest of its row with its fields joined by commas, so they
    must need no quoting, as the repr of a float does not.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow([*lead, ""])  # lead's fields, then a comma and "\r\n"
    prefix = buf.getvalue()[:-2]
    tails = list(tails)
    if tails:
        fh.write(prefix + ("\r\n" + prefix).join(tails) + "\r\n")


def write_long_csv(path, pred_samples, resp_samples=None, subject_ids=None) -> None:
    """Write raw samples as a long CSV (see module docstring for schema)."""
    pred_samples = np.asarray(pred_samples, dtype=float)
    n, p, _ = pred_samples.shape
    if subject_ids is None:
        width = max(3, len(str(n)))
        subject_ids = [f"s{i + 1:0{width}d}" for i in range(n)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["subject_id", "variable", "value"])
        for i in range(n):
            if resp_samples is not None:
                resp = np.asarray(resp_samples[i], dtype=float).tolist()
                _write_rows(fh, (subject_ids[i], "response"), map(repr, resp))
            for j in range(p):
                pred = pred_samples[i, j].tolist()
                _write_rows(fh, (subject_ids[i], f"pred{j + 1}"), map(repr, pred))


# -- model file ------------------------------------------------------------


_NUMBER = (int, float)
_JSON_KINDS = {
    dict: "a JSON object",
    int: "an integer",
    _NUMBER: "a number",
    bool: "true or false",
}


def _typed(value, kind, what: str):
    """A value read from a JSON file, else a ValueError naming it.

    JSON true and false are no numbers, though Python's bool is an int.
    """
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}")
    return value


def _field(doc: dict, path: str, file: str = "model file"):
    """doc's entry under the last key of the dotted path, else a ValueError."""
    key = path.rpartition(".")[2]
    if key not in doc:
        raise ValueError(f'{file} lacks "{path}"')
    return doc[key]


def _restated(doc: dict, what: str, kind, value, of: str) -> None:
    """A field (the last word of what) that restates value must equal it."""
    key = what.rpartition(" ")[2]
    if key in doc and _typed(doc[key], kind, what) != value:
        raise ValueError(f"{what} {doc[key]!r} does not match {of} ({value!r})")


def _float(value, what: str) -> float:
    """A JSON number read from a file, as a float."""
    try:
        return float(_typed(value, _NUMBER, what))
    except OverflowError:
        raise ValueError(f"{what} is out of float range") from None


def _floats(value, what: str, ndim: int = 1) -> np.ndarray:
    """A JSON array of numbers (ndim 1) or of number arrays (ndim 2), as floats.

    Every entry is checked before the cast, which would read strings and
    booleans as numbers.
    """
    if not isinstance(value, list):
        raise ValueError(f"{what} must be an array of numbers")
    entries = (x for row in value for x in (row if isinstance(row, list) else [row]))
    if not all(isinstance(x, _NUMBER) and not isinstance(x, bool) for x in entries):
        raise ValueError(f"{what} must be an array of numbers")
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} holds a number out of float range") from None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != ndim:
        shape = "a flat array" if ndim == 1 else "an array of equal-length arrays"
        raise ValueError(f"{what} must be {shape} of numbers")
    return arr


def _named(what: str, build, *args):
    """build(*args), else its ValueError with what, the input's name, in front."""
    try:
        return build(*args)
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None


def _read_json(path: str, what: str) -> dict:
    """The JSON object in a file, else a ValueError naming what the file is."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = _named(f"{what} {path}", json.load, fh)
        except RecursionError:
            raise ValueError(f"{what} {path}: nested too deeply") from None
    return _typed(doc, dict, what)


def _write_json(path: str, doc) -> None:
    """Write a JSON document with sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# A grid is stored as its kind and size: "midpoint" probability grids and
# "uniform" node grids are the only kinds.  Each size is checked against the
# array it indexes before any grid of that size is built.
_GRID_KINDS = {
    "prob_grid": ("midpoint", "the reference quantile count"),
    "node_grid": ("uniform", "the map length"),
}


def _sized(doc, what: str, size: int) -> int:
    """The size of the grid stored under doc[what], checked against size."""
    kind, of = _GRID_KINDS[what]
    spec = _typed(_field(doc, what), dict, what)
    if _field(spec, f"{what}.kind") != kind:
        raise ValueError(f"{what} kind {spec['kind']!r} is not {kind!r}")
    declared = _typed(_field(spec, f"{what}.size"), int, f"{what} size")
    if declared != size:
        raise ValueError(f"{what} size {declared} does not match {of} ({size})")
    return declared


def save_model(path: str, model: MtdrModel, report: FitReport | None = None) -> None:
    """Serialize a model (and optionally its fit report) to JSON."""
    doc = {
        "format_version": FORMAT_VERSION,
        "domain": {"s0": model.domain.lo, "s1": model.domain.hi},
        "t": model.node_grid.size,
        "prob_grid": {"kind": _GRID_KINDS["prob_grid"][0], "size": model.prob_grid.size},
        "node_grid": {"kind": _GRID_KINDS["node_grid"][0], "size": model.node_grid.size},
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
    _write_json(path, doc)


def load_model(path: str):
    """Load a model JSON written by save_model.

    Returns (model, report); report is None when the file carries none.
    Fields restating others (t, iterations, final_objective) must agree.
    """
    doc = _read_json(path, "model file")
    if _typed(_field(doc, "format_version"), int, "format_version") != FORMAT_VERSION:
        raise ValueError("unsupported model format_version")
    dom = _typed(_field(doc, "domain"), dict, "domain")
    domain = Domain(
        *(_float(_field(dom, f"domain.{k}"), f"domain {k}") for k in ("s0", "s1"))
    )
    ref_values = _floats(_field(doc, "reference_quantiles"), "reference_quantiles")
    map_values = _floats(_field(doc, "maps"), "maps", ndim=2)
    prob_grid = ProbGrid(_sized(doc, "prob_grid", ref_values.size))
    node_grid = NodeGrid(domain, _sized(doc, "node_grid", map_values.shape[1]))
    reference = _named("reference_quantiles", QuantileGrid, domain, prob_grid, ref_values)
    maps = tuple(
        _named(f"maps[{k}]", MonotoneMap, node_grid, z) for k, z in enumerate(map_values)
    )
    weights = SimplexWeights.of(_floats(_field(doc, "alpha"), "alpha"))
    model = MtdrModel(reference, maps, weights)
    report = None
    if "fit_report" in doc:
        rep = _typed(doc["fit_report"], dict, "fit_report")
        report = FitReport(
            _floats(_field(rep, "fit_report.trajectory"), "fit_report trajectory"),
            _typed(_field(rep, "fit_report.converged"), bool, "fit_report converged"),
        )
    _restated(doc, "t", int, node_grid.size, "the map length")
    if report is not None:
        n_iter, last = report.iterations, report.final_objective
        _restated(rep, "fit_report iterations", int, n_iter, "the trajectory")
        _restated(rep, "fit_report final_objective", _NUMBER, last, "the trajectory")
    return model, report


# -- reference resolution ----------------------------------------------------


def _resolve_reference(choice: str, data: DataSet) -> QuantileGrid:
    """uniform | frechet | path to a JSON file with a "quantiles" array."""
    domain, grid = data.domain, data.prob_grid
    if choice == "uniform":
        return QuantileGrid(domain, grid, NodeGrid(domain, grid.size).nodes)
    if choice == "frechet":
        responses = [s.response for s in data.subjects]
        lam = np.full(len(responses), 1.0 / len(responses))
        return frechet_mean(responses, lam)
    doc = _read_json(choice, "reference file")
    values = _floats(_field(doc, "quantiles", "reference file"), "reference quantiles")
    return _named(f"reference file {choice}", QuantileGrid, domain, grid, values)


# -- leave-one-out cross validation ------------------------------------------


def loocv(data: DataSet, subject_ids, reference_choice: str) -> dict:
    """Hold out each subject once, fit on the rest, score the prediction.

    The predictor count, domain and probability grid are those of the data.
    A uniform or file reference is resolved once; a frechet reference is
    resolved per fold from the training subjects, so it never sees the
    held-out response.  References are resolved here, then the folds are
    fitted in parallel (see simulation._pmap).  Returns the report document
    with each fold's distance, weights, and the iterations and converged
    flag of its fit; the reported awd is the mean of the fold distances.
    """
    if data.n < 2:
        raise ValueError("leave-one-out needs at least two subjects")
    if not data.has_responses:
        raise ValueError("leave-one-out needs responses")
    rests = [
        DataSet(tuple(s for j, s in enumerate(data.subjects) if j != i))
        for i in range(data.n)
    ]
    if reference_choice == "frechet":
        references = [_resolve_reference(reference_choice, rest) for rest in rests]
    else:
        references = [_resolve_reference(reference_choice, data)] * data.n
    scored = _pmap(_fold, (data, rests, references), data.n)
    folds = [
        {
            "subject_id": sid,
            "distance": dist,
            "alpha": alpha,
            "iterations": iterations,
            "converged": converged,
        }
        for sid, (dist, alpha, iterations, converged) in zip(subject_ids, scored)
    ]
    return {
        "format_version": FORMAT_VERSION,
        "reference": reference_choice,
        "folds": folds,
        "awd": float(np.mean([dist for dist, *_ in scored])),
    }


def _fold(state, i: int):
    """Fold i: fit without subject i, then score its prediction."""
    data, rests, references = state
    model, report = fit(rests[i], data.p, references[i])
    held = data.subjects[i]
    dist = wasserstein_distance(held.response, predict(model, held.predictors))
    return dist, model.weights.values.tolist(), report.iterations, report.converged


# -- study summaries ----------------------------------------------------------


def write_study(
    out_dir: str, stem: str, label: str, summary: StudySummary, extra=None
) -> None:
    """Write a Monte Carlo study summary as <stem>.csv and <stem>.json.

    label fills the scenario column of the CSV and the scenario key of the
    JSON document; extra is merged into the JSON document.  The scenario
    and the grid size t of its fits are read from summary.
    """
    spec = summary.spec
    os.makedirs(out_dir, exist_ok=True)
    alpha_text = ";".join(repr(a) for a in spec.weights.values.tolist())
    study = [label, spec.p, alpha_text, spec.n, spec.m, spec.reps, spec.seed]
    with open(os.path.join(out_dir, f"{stem}.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "p", "alpha_star", "n", "m", "reps", "seed", "metric", "mean", "sd"]
        )
        for name, stat in summary.metrics.items():
            writer.writerow(study + [name, repr(stat["mean"]), repr(stat["sd"])])
    doc = {
        "format_version": FORMAT_VERSION,
        "scenario": label,
        "p": spec.p,
        "alpha_star": spec.weights.values.tolist(),
        "n": spec.n,
        "m": spec.m,
        "reps": spec.reps,
        "seed": spec.seed,
        "t": summary.t,
        "noise_orders": list(spec.noise.orders),
        "metrics": summary.metrics,
        "replications": [
            {"iterations": r.iterations, "converged": r.converged}
            for r in summary.results
        ],
    }
    _write_json(os.path.join(out_dir, f"{stem}.json"), {**doc, **(extra or {})})


# -- argument parsing ---------------------------------------------------------


def _parse_domain(text: str) -> Domain:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("domain must be LO,HI")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("domain must be numeric") from None
    try:
        return Domain(lo, hi)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_count(least: int):
    """An argparse type reading an integer of at least `least`, such as a count."""

    def parse(text: str) -> int:
        try:
            count = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if count < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {count}")
        return count

    return parse


def _parse_list(cast, what: str):
    """An argparse type reading a comma-separated list of `what`."""

    def parse(text: str) -> list:
        try:
            return [cast(x) for x in text.split(",") if x.strip() != ""]
        except ValueError:
            message = f"expected comma-separated {what}"
            raise argparse.ArgumentTypeError(message) from None

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtdr",
        description="Distribution-on-distribution regression via transported"
        " Frechet means",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    numbers = _parse_list(float, "numbers")
    noise_default = ",".join(str(k) for k in NoiseSpec().orders)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--scenario", choices=["single", "multi"], required=True)
    sim.add_argument("--alpha", type=numbers, required=True)
    sim.add_argument("--n", type=_parse_count(1), default=200)
    sim.add_argument("--m", type=_parse_count(1), default=200)
    sim.add_argument("--reps", type=_parse_count(1), default=30)
    sim.add_argument("--seed", type=_parse_count(0), default=0)
    sim.add_argument("--t", type=_parse_count(2), default=1000)
    sim.add_argument(
        "--noise-orders",
        type=_parse_list(int, "integers"),
        help=f"response warp orders, symmetric about 0 (default {noise_default}); 0"
        " is the identity warp, so --noise-orders=0 turns the noise off",
    )
    sim.add_argument("--out", required=True, help="output directory")

    data_args = argparse.ArgumentParser(add_help=False)
    data_args.add_argument("--data", required=True)
    data_args.add_argument("--p", type=_parse_count(0), required=True)
    data_args.add_argument("--domain", type=_parse_domain, required=True)
    data_args.add_argument(
        "--reference",
        default="uniform",
        help="uniform (default), frechet (the barycenter of the training responses,"
        ' rebuilt for each loocv fold), or a JSON file with a "quantiles" array',
    )
    data_args.add_argument("--t", type=_parse_count(2), default=1000)

    fit_p = sub.add_parser(
        "fit", parents=[data_args], help="fit a model to a long sample CSV"
    )
    fit_p.add_argument("--fixed-weights", type=numbers, default=None)
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

    lo = sub.add_parser(
        "loocv", parents=[data_args], help="leave-one-out cross validation"
    )
    lo.add_argument("--out", required=True, help="report JSON path")
    return parser


def _cmd_simulate(args) -> int:
    noise = None if args.noise_orders is None else NoiseSpec(tuple(args.noise_orders))
    size = dict(n=args.n, m=args.m, reps=args.reps, seed=args.seed, noise=noise)
    if args.scenario == "single":
        if len(args.alpha) == 1:
            spec = single_predictor_scenario(args.alpha[0], **size)
        elif len(args.alpha) == 2:  # the pair as given, not rebuilt from alpha1
            weights = SimplexWeights.of(args.alpha)
            spec = single_predictor_scenario(weights.values[1], **size)
            spec = replace(spec, weights=weights)
        else:
            raise ValueError("single scenario takes 1 or 2 alpha values")
    else:
        if len(args.alpha) != 3:
            raise ValueError("multi scenario takes 3 alpha values")
        spec = multi_predictor_scenario(tuple(args.alpha), **size)
    summary = run_replications(spec, args.t)
    write_study(args.out, "summary", args.scenario, summary)
    return 0


def _cmd_fit(args) -> int:
    res = ingest(args.data, args.domain, ProbGrid(args.t), args.p)
    reference = _resolve_reference(args.reference, res.dataset)
    fixed = None
    if args.fixed_weights is not None:
        fixed = SimplexWeights.of(args.fixed_weights)
    model, report = fit(res.dataset, args.p, reference, fixed_weights=fixed)
    save_model(args.out, model, report)
    return 0


def _cmd_predict(args) -> int:
    model, _ = load_model(args.model)
    res = ingest(
        args.data, model.domain, model.prob_grid, model.p, require_response=False
    )
    levels = [f"{level!r}," for level in model.prob_grid.levels.tolist()]
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerow(["subject_id", "p", "quantile"])
        for sid, q in zip(res.subject_ids, _predicted_rows(model, res.dataset)):
            _write_rows(fh, (sid,), map(str.__add__, levels, map(repr, q.tolist())))
    return 0


def _predicted_rows(model: MtdrModel, data: DataSet):
    """predict's quantile values for each subject of data, computed BLOCK at a time.

    data must come from ingest with the model's domain, grid and p.
    """
    for start in range(0, data.n, BLOCK):
        block = data.subjects[start : start + BLOCK]
        stacks = [s.predictors[j].values for j in range(model.p) for s in block]
        shape = (model.p, len(block), model.prob_grid.size)
        yield from _predictions(model, np.reshape(stacks, shape))


def _cmd_evaluate(args) -> int:
    model, _ = load_model(args.model)
    res = ingest(args.data, model.domain, model.prob_grid, model.p)
    preds = [
        QuantileGrid(model.domain, model.prob_grid, q)
        for q in _predicted_rows(model, res.dataset)
    ]
    actuals = [s.response for s in res.dataset.subjects]
    value = rmse(preds, actuals) if args.metric == "rmse" else awd(preds, actuals)
    sys.stdout.write(repr(value) + "\n")
    if args.out:
        doc = {"format_version": FORMAT_VERSION, "metric": args.metric, "value": value}
        _write_json(args.out, doc)
    return 0


def _cmd_loocv(args) -> int:
    res = ingest(args.data, args.domain, ProbGrid(args.t), args.p)
    report = loocv(res.dataset, res.subject_ids, args.reference)
    _write_json(args.out, report)
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
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()

"""Snapshot the outputs of every mtdr command into a directory.

Usage, with mtdr importable from the source tree to snapshot:

    PYTHONPATH=src python scripts/cli_snapshot.py OUT

The script runs a fixed list of ``mtdr`` command lines in this process
through ``mtdr.cli.cli``.  Its inputs, written to OUT/inputs, are the
mortality-like file that scripts/make_mortality_like.py writes by default
(34 subjects, 500 samples per variable, domain 0,100), the same file with
every sample rounded to a multiple of 5 (ages in 5-year bands, fitted at
t = 300, where the Frechet reference has flat stretches), a 6-subject file
with 50 samples per variable (fitted and scored at t = 12000, a size at
which BLAS sums split over threads), a 40-subject file whose subject ids
need quoting and whose sample counts differ (scored in more than one
block), a reference JSON, a model and a
reference file that lack a field, and a model and a reference file cut
off mid-JSON.  Each command line
runs in its own directory OUT/<case>, which ends up holding the files the
command wrote plus ``argv``, ``exit`` (the exit code), ``stdout`` and
``stderr``.  Paths in the command lines are relative, and help text is
wrapped at 80 columns, so two snapshots of the same code are
byte-identical: compare two source trees with

    PYTHONPATH=a/src python scripts/cli_snapshot.py snap_a
    PYTHONPATH=b/src python scripts/cli_snapshot.py snap_b
    diff -r snap_a snap_b

Sizes are small: the whole snapshot takes about 14 s in one process on a
two-core machine.  OUT must not exist yet, or be empty.
"""

import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width

from mtdr.cli import cli, write_long_csv  # noqa: E402
from mtdr.quantile_core import Domain  # noqa: E402
from mtdr.simulation import mortality_like_samples  # noqa: E402

DATA = "../inputs/mortality_like.csv"
FIT_T = "100"


def _fit_args(reference: str, data: str = DATA, t: str = FIT_T) -> list:
    return ["--data", data, "--p", "2", "--domain", "0,100", "--t", t,
            "--reference", reference]  # fmt: skip


# the binned file's Frechet reference over all 34 subjects has 26 zero
# quantile steps at t = 300 and none at t = 100
BINNED_ARGS = _fit_args("frechet", "../inputs/mortality_like_binned.csv", "300")

LARGE_T_DATA = "../inputs/mortality_like_6x50.csv"

QUOTED_DATA = "../inputs/quoted_ids.csv"
# ids with a comma, a quote, CR, LF, padding (stripped on reading), non-ASCII
# letters, and an empty id
ODD_IDS = ["a,b", 'say "hi"', "cr\rid", "lf\nid", " padded ", "\u00fcn\u00ef", ""]


def _simulate(scenario: str, alpha: str, *noise: str) -> list:
    return ["simulate", "--scenario", scenario, "--alpha", alpha, "--n", "40",
            "--m", "100", "--reps", "2", "--seed", "1", "--t", "100", *noise,
            "--out", "."]  # fmt: skip


MODEL = "../fit_uniform/model.json"

CASES = [
    ("simulate_single", _simulate("single", "0.5")),
    # a pair alpha0,alpha1 is used as given, not rebuilt from alpha1
    ("simulate_single_pair", _simulate("single", "0.3,0.7")),
    ("simulate_single_noise_-2,0,2", _simulate("single", "0.5", "--noise-orders=-2,0,2")),
    ("simulate_single_noise_0", _simulate("single", "0.5", "--noise-orders=0")),
    ("simulate_multi", _simulate("multi", "0.2,0.4,0.4")),
    ("simulate_multi_noise_-2,0,2", _simulate("multi", "0.2,0.4,0.4", "--noise-orders=-2,0,2")),
    ("simulate_multi_noise_0", _simulate("multi", "0.2,0.4,0.4", "--noise-orders=0")),
    ("fit_uniform", ["fit", *_fit_args("uniform"), "--out", "model.json"]),
    ("fit_frechet", ["fit", *_fit_args("frechet"), "--out", "model.json"]),
    ("fit_reference_file", ["fit", *_fit_args("../inputs/reference.json"), "--out", "model.json"]),
    ("fit_fixed_weights", ["fit", *_fit_args("uniform"), "--fixed-weights", "0.2,0.5,0.3",
                           "--out", "model.json"]),
    # a zero weight freezes map 0 for the whole fit: it stays at the nodes
    ("fit_fixed_weights_zero", ["fit", *_fit_args("uniform"), "--fixed-weights", "0,0.6,0.4",
                                "--out", "model.json"]),
    ("loocv_uniform", ["loocv", *_fit_args("uniform"), "--out", "report.json"]),
    ("loocv_frechet", ["loocv", *_fit_args("frechet"), "--out", "report.json"]),
    ("loocv_reference_file", ["loocv", *_fit_args("../inputs/reference.json"),
                              "--out", "report.json"]),
    ("fit_frechet_binned", ["fit", *BINNED_ARGS, "--out", "model.json"]),
    ("loocv_frechet_binned", ["loocv", *BINNED_ARGS, "--out", "report.json"]),
    ("predict", ["predict", "--model", MODEL, "--data", DATA, "--out", "predictions.csv"]),
    ("evaluate_rmse", ["evaluate", "--model", MODEL, "--data", DATA, "--metric", "rmse",
                       "--out", "score.json"]),
    ("evaluate_awd", ["evaluate", "--model", MODEL, "--data", DATA, "--metric", "awd",
                      "--out", "score.json"]),
    ("predict_quoted_ids", ["predict", "--model", MODEL, "--data", QUOTED_DATA,
                            "--out", "predictions.csv"]),
    ("evaluate_quoted_ids", ["evaluate", "--model", MODEL, "--data", QUOTED_DATA,
                             "--metric", "awd", "--out", "score.json"]),
    ("fit_large_t", ["fit", *_fit_args("uniform", LARGE_T_DATA, "12000"), "--out", "model.json"]),
    ("evaluate_large_t", ["evaluate", "--model", "../fit_large_t/model.json",
                          "--data", LARGE_T_DATA, "--out", "score.json"]),
    ("help", ["--help"]),
    *[(f"help_{cmd}", [cmd, "--help"])
      for cmd in ("simulate", "fit", "predict", "evaluate", "loocv")],
    # usage errors: exit code 2
    ("usage_no_arguments", []),
    ("usage_unknown_command", ["frobnicate"]),
    ("usage_unknown_flag", ["fit", "--bogus", "1"]),
    ("usage_bad_domain", ["fit", "--data", DATA, "--p", "2", "--domain", "zero,one",
                          "--out", "model.json"]),
    # "--domain=" because the value starts with "-"
    ("usage_domain_infinite_width", ["fit", "--data", DATA, "--p", "2",
                                     "--domain=-1e308,1e308", "--out", "model.json"]),
    ("usage_bad_alpha", ["simulate", "--scenario", "single", "--alpha", "half",
                         "--out", "."]),
    # runtime errors: exit code 1
    ("error_missing_data", ["fit", "--data", "absent.csv", "--p", "2", "--domain", "0,100",
                            "--out", "model.json"]),
    ("error_missing_model", ["predict", "--model", "absent.json", "--data", DATA,
                             "--out", "predictions.csv"]),
    ("error_model_lacks_field", ["predict", "--model", "../inputs/model_lacks_domain.json",
                                 "--data", DATA, "--out", "predictions.csv"]),
    ("error_reference_lacks_field", ["fit", *_fit_args("../inputs/reference_lacks_quantiles.json"),
                                     "--out", "model.json"]),
    ("error_model_not_json", ["predict", "--model", "../inputs/model_not_json.json",
                              "--data", DATA, "--out", "predictions.csv"]),
    ("error_reference_not_json", ["fit", *_fit_args("../inputs/reference_not_json.json"),
                                  "--out", "model.json"]),
    ("error_wrong_predictor_count", ["fit", "--data", DATA, "--p", "3", "--domain", "0,100",
                                     "--out", "model.json"]),
    ("error_outside_domain", ["fit", "--data", DATA, "--p", "2", "--domain", "0,50",
                              "--out", "model.json"]),
    ("error_multi_alpha_count", ["simulate", "--scenario", "multi", "--alpha", "0.5,0.5",
                                 "--out", "."]),
    ("error_noise_not_symmetric", _simulate("single", "0.5", "--noise-orders=1,2")),
]  # fmt: skip


def _write_inputs(inputs: str) -> None:
    """The mortality-like files, a reference, and model and reference files
    that lack a field or are cut off mid-JSON."""
    pred, resp = mortality_like_samples(domain=Domain(0.0, 100.0))
    write_long_csv(os.path.join(inputs, "mortality_like.csv"), pred, resp)
    write_long_csv(os.path.join(inputs, "mortality_like_binned.csv"),
                   5.0 * np.round(pred / 5.0), 5.0 * np.round(resp / 5.0))  # fmt: skip
    pred, resp = mortality_like_samples(n=6, m=50, domain=Domain(0.0, 100.0))
    write_long_csv(os.path.join(inputs, "mortality_like_6x50.csv"), pred, resp)
    pred, resp = mortality_like_samples(n=40, m=60, domain=Domain(0.0, 100.0))
    ids = ODD_IDS + [f"{ODD_IDS[i % len(ODD_IDS)]}{i}" for i in range(len(ODD_IDS), 40)]
    with open(os.path.join(inputs, "quoted_ids.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "variable", "value"])
        for i, sid in enumerate(ids):
            for k, (var, x) in enumerate([("response", resp[i]), ("pred1", pred[i, 0]),
                                          ("pred2", pred[i, 1])]):  # fmt: skip
                count = 60 - 5 * ((i + k) % 4)
                writer.writerows([sid, var, repr(float(v))] for v in x[:count])
    t = int(FIT_T)
    docs = {
        "reference.json": {"quantiles": [100.0 * ((r + 0.5) / t) ** 1.5 for r in range(t)]},
        "reference_lacks_quantiles.json": {"values": [50.0] * t},
        "model_lacks_domain.json": {"format_version": 1},
    }
    for name, doc in docs.items():
        with open(os.path.join(inputs, name), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    cut = {"model_not_json.json": '{"format_version": 1, "alpha": [0.5,',
           "reference_not_json.json": '{"quantiles": [0.1,'}  # fmt: skip
    for name, text in cut.items():
        with open(os.path.join(inputs, name), "w") as fh:
            fh.write(text)


def _run(case_dir: str, argv: list) -> None:
    """Run one command line in case_dir and record its exit code and streams."""
    os.makedirs(case_dir)
    home = os.getcwd()
    os.chdir(case_dir)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli(argv)
    finally:
        os.chdir(home)
    for name, text in (("argv", " ".join(argv) + "\n"), ("exit", f"{code}\n"),
                       ("stdout", out.getvalue()), ("stderr", err.getvalue())):  # fmt: skip
        with open(os.path.join(case_dir, name), "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        sys.stderr.write("usage: python scripts/cli_snapshot.py OUT\n")
        return 2
    out = args[0]
    if os.path.exists(out) and os.listdir(out):
        sys.stderr.write(f"error: {out} is not empty\n")
        return 1
    os.makedirs(os.path.join(out, "inputs"), exist_ok=True)
    _write_inputs(os.path.join(out, "inputs"))
    for name, case_argv in CASES:
        _run(os.path.join(out, name), case_argv)
    print(f"wrote {len(CASES)} cases to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

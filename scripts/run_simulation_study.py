"""Reproduce the full Monte Carlo study suite and write summary tables.

Four studies are run with fixed master seeds:

* single_mixture: one predictor with true weight 0.5 at n = m = 200.
* sample_size_trend: one predictor with true weight 0.25 at n in
  {50, 200, 400}, m = 200, to show the error shrinking with n.
* transport_equivalence: one predictor with true weight 1.0, fitted both
  with free weights and with weights fixed at (0, 1); the two test RMSEs
  should agree closely because the model then reduces to a plain optimal
  transport regression.
* three_transport: two predictors plus reference with true weights
  (0.3, 0.35, 0.35) at n = m = 200.

Each study writes <name>.csv and <name>.json into the output directory
through mtdr.cli.write_study, the writer of `mtdr simulate`, so both files
have the format of that command's summary.csv and summary.json with the
study name as the scenario; transport_equivalence.json also carries the
fixed-weight metrics.  overview.json holds the wall time of each study.
Each study fits its replications on one worker per usable CPU.  The full
suite took about 1.5 min (79 s and 92 s) on two cores with one BLAS thread,
where one replication at a time took 174 s; --quick runs a reduced suite in
about 1.5 s (1.3-1.8 s) on the same two cores.
"""

import argparse
import json
import os
import time

from mtdr.cli import _parse_count, write_study
from mtdr.simulation import run_replications, scenario
from mtdr.solvers import SimplexWeights


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--reps", type=_parse_count(1), default=30)
    parser.add_argument("--t", type=_parse_count(2), default=1000, help="grid size")
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for a fast smoke run (changes the numbers)",
    )
    args = parser.parse_args()

    reps, t = args.reps, args.t
    n_single, m = 200, 200
    trend_ns = (50, 200, 400)
    if args.quick:
        reps, t, n_single, m = min(reps, 3), min(t, 300), 50, 50
        trend_ns = (20, 40, 80)
    os.makedirs(args.out, exist_ok=True)

    size = {"m": m, "reps": reps}

    def single(a, n, seed):
        return scenario("single", (1 - a, a), n=n, seed=seed, **size)

    studies = [("single_mixture", single(0.5, n_single, 101))]
    studies += [
        (f"sample_size_trend_n{n}", single(0.25, n, seed))
        for n, seed in zip(trend_ns, (201, 202, 203))
    ]
    multi = scenario("multi", (0.3, 0.35, 0.35), n=n_single, seed=401, **size)
    studies += [
        ("transport_equivalence", single(1.0, n_single, 301)),
        ("three_transport", multi),
    ]
    overview = {}
    for name, spec in studies:
        t0 = time.perf_counter()
        summary = run_replications(spec, t)
        extra = None
        if name == "transport_equivalence":
            fixed = run_replications(spec, t, SimplexWeights.of([0.0, 1.0]))
            extra = {"fixed_weight_metrics": fixed.metrics}
        write_study(args.out, name, name, summary, extra)
        overview[f"{name}_secs"] = round(time.perf_counter() - t0, 1)
        print(f"{name} done", flush=True)

    with open(os.path.join(args.out, "overview.json"), "w") as fh:
        json.dump(overview, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote", args.out)


if __name__ == "__main__":
    main()

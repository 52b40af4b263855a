"""Collect benchmark runs of two source trees into one committed record.

Usage, from the root of a checkout:

    python scripts/bench_record.py BENCH_19.json parent=RUNS_A change=RUNS_B

Each RUNS directory holds copies of the result-*.json files that
``perfbench/run.py --trace 0`` writes under perfbench/out/ (that file is
overwritten by the next run of the same workload and seed, so copy it after
every run).  Files are read in path order: the k-th run of a workload in the
first directory pairs with its k-th run in the second, so name the copies
by pair number.  The record holds, per workload and side, the median and
quartiles of each end-to-end metric of BENCHMARK.json, the pairs in which
the second side is better, and every run's metrics and environment (core
count, Python, numpy and scipy versions, BLAS threads).  A table of the
medians is printed as well.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV_KEYS = ("nproc", "python", "numpy", "scipy", "blas_threads")


def load_runs(directory: str) -> list:
    """Every untraced run found under directory, in path order."""
    paths = sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True))
    runs = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("trace"):
            continue
        runs.append({
            "file": os.path.relpath(path, directory),
            "workload": doc["workload"],
            "seed": doc["seed"],
            "seconds": doc["seconds"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "env": {key: doc["env"].get(key) for key in ENV_KEYS},
            "metrics": {name: m["value"] for name, m in doc["metrics"].items()},
        })  # fmt: skip
    if not runs:
        raise SystemExit(f"error: no untraced result files under {directory}")
    return runs


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of a list of run values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(sides: dict, declared: list) -> dict:
    """Each side's spread per metric, and the pairs won, per workload both ran."""
    (first, a_runs), (second, b_runs) = sides.items()
    workloads = {}
    names = {r["workload"] for r in a_runs} & {r["workload"] for r in b_runs}
    for name in sorted(names):
        a = [r for r in a_runs if r["workload"] == name]
        b = [r for r in b_runs if r["workload"] == name]
        entry = {}
        for side, runs in ((first, a), (second, b)):
            entry[side] = {
                "runs": len(runs),
                "seeds": [r["seed"] for r in runs],
                "failed": sum(r["failed"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                **{m["name"]: spread([r["metrics"][m["name"]] for r in runs])
                   for m in declared},
            }  # fmt: skip
        pairs = list(zip(a, b))
        entry["pairs"] = len(pairs)
        entry[f"{second}_better"] = {
            m["name"]: sum(
                (y["metrics"][m["name"]] < x["metrics"][m["name"]])
                if m["better"] == "lower"
                else (y["metrics"][m["name"]] > x["metrics"][m["name"]])
                for x, y in pairs
            )
            for m in declared
        }
        workloads[name] = entry
    return workloads


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3 or not all("=" in arg for arg in argv[1:]):
        raise SystemExit(__doc__.split("\n\n")[1])
    out = argv[0]
    sides = {}
    for arg in argv[1:]:
        label, directory = arg.split("=", 1)
        sides[label] = load_runs(directory)
    if len(sides) != 2:
        raise SystemExit("error: the two sides need different labels")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    first, second = sides
    record = {
        "format_version": 1,
        "sides": list(sides),
        "metrics": {m["name"]: {k: m[k] for k in ("unit", "better", "bound")} for m in declared},
        "workloads": summarize(sides, declared),
        "runs": sides,
    }
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, entry in record["workloads"].items():
        for m in declared:
            a, b = entry[first][m["name"]], entry[second][m["name"]]
            won = entry[f"{second}_better"][m["name"]]
            print(f"{name} {m['name']} {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}]"
                  f" -> {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                  f" {second} better in {won}/{entry['pairs']}")  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())

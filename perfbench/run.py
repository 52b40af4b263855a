"""Benchmark of mtdr's simulation studies, CLI LOOCV and batch scoring.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study_single --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run imports mtdr from the checkout's src/, sets a workload up several
times (set-up time is the median), then repeats the workload's round (a
fixed sequence of ``mtdr`` commands, driven in process through
``mtdr.cli.cli``) until the next round would end after --seconds; a run
always makes at least one round.  Every round's outputs are checked.  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer metrics.
A traced run alternates untraced and traced rounds on the same inputs; the
traced ones record spans around the public functions of each module
(perfbench/tracing.py), and the median difference is trace.overhead_s.
Results, environment and spans are also written under perfbench/out/.

``--workload all`` runs every workload, each in a fresh process, and prints
one table.  ``--tiny`` shrinks every problem for the smoke test.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("study_single", "study_multi", "cli_loocv", "cli_score")
SETUP_REPEATS = 3
BLAS_THREADS = 1  # one sequential process; never more than nproc
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")



def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_mtdr():
    """Import mtdr from this checkout's src/, never from an installed copy."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isdir(os.path.join(SRC, "mtdr")):
        raise ImportError(f"no mtdr package under {SRC}")
    sys.path.insert(0, SRC)
    import mtdr

    if os.path.dirname(os.path.dirname(os.path.abspath(mtdr.__file__))) != SRC:
        raise ImportError(f"mtdr was imported from {mtdr.__file__}, not {SRC}")
    return mtdr


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment(mtdr):
    import numpy
    import scipy

    return {
        "mtdr_file": mtdr.__file__,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


class Runner:
    """Runs the rounds of one workload and keeps their bookkeeping."""

    def __init__(self, wl, state, cli):
        self.wl, self.state, self.cli = wl, state, cli
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pred_errs = []

    def round(self, r, call):
        """Run round r through call(argv); returns its wall time in seconds."""
        for path in self.state["outputs"]:
            if os.path.exists(path):
                os.remove(path)
        problems = []
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            t0 = time.perf_counter()
            try:
                for argv in self.wl.commands(self.state, r):
                    code = call(argv)
                    if code != 0:
                        problems.append(f"mtdr {argv[0]} exited with code {code}")
                        break
            except Exception:
                problems.append(traceback.format_exc())
            dt = time.perf_counter() - t0
        self.state["stdout"] = printed.getvalue()
        if not problems:
            try:
                found, pred_err = self.wl.check(self.state, r)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found, pred_err = [f"output check failed: {exc!r}"], math.nan
            problems += found
        self.attempted += self.wl.ops
        if problems:
            self.failed += self.wl.ops
            self.problems.append({"round": r, "problems": problems})
            sys.stderr.write(f"round {r} failed: {problems}\n")
        else:
            self.pred_errs.append(pred_err)
        return dt


def run_untraced(runner, seconds):
    times = []
    start = time.perf_counter()
    r = 0
    while True:
        times.append(runner.round(r, runner.cli))
        r += 1
        if time.perf_counter() - start + statistics.fmean(times) > seconds:
            return times


def run_traced(runner, seconds, tracer):
    """Pairs of rounds on the same inputs: untraced, then traced."""
    plain, traced = [], []
    start = time.perf_counter()
    q = 0
    while True:
        plain.append(runner.round(q, runner.cli))
        tracer.run_id = q
        with tracer:
            traced.append(
                runner.round(q, lambda argv: tracer.span("cli.command", runner.cli, argv))
            )
        q += 1
        pair = statistics.fmean(a + b for a, b in zip(plain, traced))
        if time.perf_counter() - start + pair > seconds:
            return plain, traced


def run_one(args):
    try:
        mtdr = import_mtdr()
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import mtdr from this checkout: {exc}\n")
        return 2
    import_s = time.perf_counter() - T_START
    cli = importlib.import_module("mtdr.cli").cli
    env = environment(mtdr)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    wl = workloads.make(args.workload, workloads.TINY if args.tiny else workloads.FULL)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            t0 = time.perf_counter()
            state = wl.setup(work, args.seed, cli)
            setups.append(time.perf_counter() - t0)
        setup_problems = wl.expect(state)
        runner = Runner(wl, state, cli)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.rows = state["rows"]
            plain, traced = run_traced(runner, args.seconds, tracer)
            overhead = statistics.median(b - a for a, b in zip(plain, traced))
            metrics = tracer.metrics(len(traced), overhead)
            for *_, weights in tracer.fits:
                setup_problems += workloads.check_simplex(weights, "traced fit")
            tracer.dump(os.path.join(OUT, f"spans-{tag}.json"))
            rounds = {"untraced_s": plain, "traced_s": traced}
        else:
            times = run_untraced(runner, args.seconds)
            ok_ops = runner.attempted - runner.failed
            metrics = {
                "setup_s": import_s + statistics.median(setups),
                "wall_s": statistics.fmean(times),
                "ops_per_s": ok_ops / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pred_err": statistics.fmean(runner.pred_errs) if runner.pred_errs else 0.0,
            }
            rounds = {"round_s": times}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    fail_frac = runner.failed / runner.attempted
    result = {
        "correct": runner.failed == 0 and not setup_problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(
            dict(
                result,
                workload=args.workload,
                seed=args.seed,
                seconds=args.seconds,
                trace=args.trace,
                env=env,
                import_s=import_s,
                setups_s=setups,
                fail_frac=fail_frac,
                problems=setup_problems + runner.problems,
                **rounds,
            ),
            fh,
            indent=1,
        )
        fh.write("\n")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    print(f"{args.workload} fail_frac {fail_frac!r} ratio")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

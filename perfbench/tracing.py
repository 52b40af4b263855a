"""In-memory span tracing around the public functions of each mtdr module.

A span is (name, start, end, parent, run id).  Spans are recorded by
wrappers that the tracer installs where each function is looked up (for
example ``mtdr.fitting.weighted_isotonic``, which is the name ``fit``
calls), so the program itself is not changed.  ``Tracer.metrics`` turns the
recorded spans into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

# (module where the name is looked up, attribute, span name)
PATCHES = (
    ("mtdr.simulation", "generate_dataset", "simulation.generate_dataset"),
    ("mtdr.simulation", "predictive_seminorm", "simulation.score"),
    ("mtdr.simulation", "predict", "simulation.score"),
    ("mtdr.simulation", "rmse", "simulation.score"),
    ("mtdr.simulation", "fit", "fitting.fit"),
    ("mtdr.cli", "fit", "fitting.fit"),
    ("mtdr.fitting", "weighted_isotonic", "solvers.weighted_isotonic"),
    ("mtdr.fitting", "simplex_least_squares", "solvers.simplex_least_squares"),
    ("mtdr.cli", "ingest", "cli.ingest"),
    ("mtdr.cli", "quantile_from_samples", "quantile_core.quantile_from_samples"),
    ("mtdr.cli", "predict", "fitting.predict"),
    ("mtdr.monotone_map", "map_eval", "monotone_map.map_eval"),
    ("mtdr.cli", "save_model", "cli.save_model"),
    ("mtdr.cli", "load_model", "cli.load_model"),
    ("mtdr.cli", "frechet_mean", "quantile_core.frechet_mean"),
    ("mtdr.cli", "wasserstein_distance", "quantile_core.wasserstein_distance"),
    ("mtdr.simulation", "wasserstein_distance", "quantile_core.wasserstein_distance"),
)

SOLVER_SPANS = ("solvers.weighted_isotonic", "solvers.simplex_least_squares")

# Spans whose calls are counted; TIMED_ONLY spans report busy time only.
COUNTED = (
    "simulation.generate_dataset",
    "fitting.fit",
    "solvers.weighted_isotonic",
    "solvers.simplex_least_squares",
    "cli.ingest",
    "quantile_core.quantile_from_samples",
    "fitting.predict",
    "monotone_map.map_eval",
    "quantile_core.frechet_mean",
    "quantile_core.wasserstein_distance",
)
TIMED_ONLY = ("simulation.score", "cli.save_model", "cli.load_model")


def stop_reason(report, rel_tol: float) -> str:
    """Why a fit stopped, worked out from its FitReport.

    ``max_iter``: not converged.  ``rel_tol``: the last recorded decrease is
    at most rel_tol times the initial risk.  ``risk_up``: converged
    otherwise, which happens only when the fit discarded a sweep that raised
    the risk.
    """
    if not report.converged:
        return "max_iter"
    tr = report.trajectory
    if tr.size > 1 and tr[-2] - tr[-1] <= rel_tol * tr[0]:
        return "rel_tol"
    return "risk_up"


class Tracer:
    """Records spans while installed; restores every patched name on exit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.fits = []  # (span index, FitReport, FitConfig, weights)
        self.rows = {}  # CSV path -> data rows, filled in by the workload
        self._stack = []
        self._saved = []
        self.run_id = 0

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        if name == "fitting.fit":

            def wrapper(data, p, reference, cfg=None, *rest, **kw):
                cfg = tracer._default_cfg if cfg is None else cfg
                idx = len(tracer.spans)
                model, report = tracer.span(name, fn, data, p, reference, cfg, *rest, **kw)
                tracer.fits.append((idx, report, cfg, model.weights.values.copy()))
                return model, report

        elif name == "cli.ingest":

            def wrapper(path, *args, **kwargs):
                idx = len(tracer.spans)
                try:
                    return tracer.span(name, fn, path, *args, **kwargs)
                finally:
                    tracer.spans[idx].append(tracer.rows.get(path, 0))

        else:

            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        self._default_cfg = importlib.import_module("mtdr.fitting").FitConfig()
        for module, attr, name in PATCHES:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False

    # -- reporting ---------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span, with its self time, as one JSON document."""
        self_times = self._self_times()
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run_id", "self_s"],
                    "spans": [s[:5] + [self_times[i]] for i, s in enumerate(self.spans)],
                },
                fh,
            )
            fh.write("\n")

    def _self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def _outermost(self, name):
        """Spans of one name that are not nested inside a span of that name."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics; counts and busy times are per traced round."""
        spans = self.spans
        dur = lambda i: spans[i][2] - spans[i][1]  # noqa: E731
        out = {}
        for name in COUNTED + TIMED_ONLY:
            idx = self._outermost(name)
            if name in COUNTED:
                out[f"{name}.calls"] = len(idx)
            out[f"{name}.s"] = sum(dur(i) for i in idx)

        self_times = self._self_times()
        fit_idx = [f[0] for f in self.fits]
        fit_s = [dur(i) for i in fit_idx]
        out["fitting.fit.s.p50"] = statistics.median(fit_s) if fit_s else 0.0
        out["fitting.fit.s.max"] = max(fit_s, default=0.0)
        first_solver = {}
        for i, s in enumerate(spans):
            if s[0] in SOLVER_SPANS and s[3] >= 0 and s[3] not in first_solver:
                first_solver[s[3]] = s[1]
        out["fitting.fit.self_s"] = sum(self_times[i] for i in fit_idx)
        out["fitting.fit.prep_s"] = sum(
            first_solver.get(i, spans[i][2]) - spans[i][1] for i in fit_idx
        )
        iters = sum(f[1].iterations for f in self.fits)
        out["fitting.fit.iters"] = iters
        out["fitting.fit.s_per_iter"] = sum(fit_s) / iters if iters else 0.0
        reasons = [stop_reason(f[1], f[2].rel_tol) for f in self.fits]
        for reason in ("max_iter", "rel_tol", "risk_up"):
            out[f"fitting.fit.stop.{reason}"] = reasons.count(reason)
        risks = [f[1].final_objective for f in self.fits]
        out["fitting.fit.final_risk"] = statistics.fmean(risks) if risks else 0.0

        rows = sum(spans[i][5] for i in self._outermost("cli.ingest"))
        ingest_s = out["cli.ingest.s"]
        out["cli.ingest.rows_per_s"] = rows / ingest_s if ingest_s > 0 else 0.0
        cmd = self._outermost("cli.command")
        out["cli.command.calls"] = len(cmd)
        out["cli.command.self_s"] = sum(self_times[i] for i in cmd)
        for key in list(out):
            if key.endswith((".calls", ".s", "self_s", "prep_s", ".iters")) or ".stop." in key:
                out[key] /= rounds
        out["trace.rounds"] = rounds
        out["trace.overhead_s"] = overhead_s
        return out

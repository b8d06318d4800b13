"""Span tracer installed from the benchmark's own files, and the per-layer
metrics computed from its spans.

The tracer wraps the public functions each layer of ``cv_arbiter`` calls
through.  A target is named by its defining module and attribute; every
binding of that same function object in any ``cv_arbiter`` module is
replaced, so ``selection.fit_procedure`` and ``diagnostics.fit_procedure``
are both traced, each span recording the module it was called through
(its *site*).  A target that a later refactor removes is reported as
absent.

Spans stay in memory and are written out once, after the body.  Each
thread keeps its own parent stack; a span opened on a thread with an
empty stack (a harness pool worker) takes the main thread's open span as
its parent.  A span's self time is its duration minus the union of its
children's intervals.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _reps_failed(args, kwargs, result):
    return {"reps_failed": sum(1 for row in result.rows for w in row.winners if w < 0)}


def _disqualified(args, kwargs, result):
    return {"disqualified": len(result.disqualified)}


def _plan_size(args, kwargs, result):
    return {"splits": len(result)}


def _fit_key(args, kwargs, result):
    spec, sample = args[0], args[1]
    return {"proc": spec.id, "n1": int(sample.n)}


def _draws(args, kwargs, result):
    return {"draws": int(result.size)}


# (layer module, attribute path in it, hook turning (args, kwargs, result)
# into span attributes)
TARGETS = (
    ("cli", "main", None),
    ("harness", "run_experiment", _reps_failed),
    ("harness", "load_xy_csv", None),
    ("harness", "FrequencyTable.write", None),
    ("selection", "run_selection", _disqualified),
    ("selection", "cv_criterion", None),
    ("splits", "make_splits", _plan_size),
    ("estimators", "fit_procedure", _fit_key),
    ("scenarios", "gen_sample", None),
    ("rng", "stream", None),
    ("rng", "normals", _draws),
    ("nested_mean", "selection_prob", None),
    ("nested_mean", "enumeration_check", None),
    ("nested_mean", "f_reference_prob", None),
    ("diagnostics", "empirical_norm", None),
    ("diagnostics", "rate_slope", None),
    ("diagnostics", "condition_scales", None),
    ("diagnostics", "better_prob", None),
    ("diagnostics", "loss_ratio_prob", None),
    ("plots", "emit_plot", None),
)

# Span fields, in the order they are stored and written.
ID, PARENT, NAME, SITE, THREAD, T0, T1, ATTRS = range(8)


class Tracer:
    def __init__(self, package: str = "cv_arbiter"):
        self.package = package
        self.spans: list[tuple] = []
        self.installed: list[str] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, site: str, hook):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, site, threading.get_ident(), t0, t1,
                                   {"error": type(exc).__name__}))
                raise
            t1 = time.perf_counter_ns()
            stack.pop()
            attrs = None
            if hook is not None:
                try:
                    attrs = hook(args, kwargs, result)
                except Exception:  # a changed signature must not break the traced run
                    attrs = {"hook_error": True}
            self.spans.append((sid, parent, name, site, threading.get_ident(), t0, t1, attrs))
            return result

        return traced

    def install(self) -> None:
        modules = [
            (mname.rsplit(".", 1)[-1], mod)
            for mname, mod in list(sys.modules.items())
            if mod is not None and (mname == self.package or mname.startswith(self.package + "."))
        ]
        for layer, path, hook in TARGETS:
            name = f"{layer}.{path}"
            try:
                owner = importlib.import_module(f"{self.package}.{layer}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if outer:  # a method: patch it on its class
                setattr(owner, attr, self._wrap(original, name, layer, hook))
            else:
                for site, mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, self._wrap(original, name, site, hook))
            self.installed.append(name)

    def dump(self, path: str) -> dict:
        with open(path, "w") as fh:
            json.dump({"installed": self.installed, "absent": self.absent,
                       "spans": self.spans}, fh)
        return {"spans": len(self.spans), "installed": self.installed, "absent": self.absent}


# --- per-layer metrics ---------------------------------------------------------

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

# Every (procedure, n1) pair the four workloads fit, fixed when the
# benchmark was defined.
FIT_SIZES = {
    "poly1": (50, 90, 200, 360, 800, 1440, 1600, 3200),
    "poly2": (50, 90, 100, 200, 360, 400, 800, 1440, 1600, 3200),
    "spline": (50, 90, 100, 200, 360, 400, 800, 1440, 1600, 3200),
    "loclin-auto": (800, 1600, 3200),
}
DIAGNOSTIC_PROBES = ("empirical_norm", "rate_slope", "condition_scales", "better_prob",
                     "loss_ratio_prob")
REPLICATION_STEPS = ("rng.stream", "scenarios.gen_sample", "selection.run_selection")


def proc_key(proc_id: str) -> str:
    """Name-safe form of a procedure id: poly:1 -> poly1, loclin:auto -> loclin-auto."""
    return proc_id.replace("poly:", "poly").replace(":", "-")


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolation percentile of an ascending list; 0 when empty."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values: list[float]) -> tuple[float, float | None, int]:
    """(value, percentile, samples) at the highest ladder percentile with at
    least ten samples beyond it; the percentile is None when no rung has."""
    n = len(sorted_values)
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    if best is None:
        return (sorted_values[-1] if sorted_values else 0.0), None, n
    return percentile(sorted_values, best), best, n


def _union_length(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanSet:
    """Spans of one traced body, indexed for the metric definitions."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_name: dict[str, list] = defaultdict(list)
        self.children: dict[int, list] = defaultdict(list)
        for s in spans:
            self.by_name[s[NAME]].append(s)
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(s)

    @staticmethod
    def dur(s) -> int:
        return s[T1] - s[T0]

    def self_ns(self, s) -> int:
        kids = [(c[T0], c[T1]) for c in self.children.get(s[ID], ())]
        return self.dur(s) - _union_length(kids, s[T0], s[T1])

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def busy_s(self, name: str) -> float:
        return sum(self.dur(s) for s in self.by_name.get(name, ())) / 1e9

    def self_s(self, name: str) -> float:
        return sum(self.self_ns(s) for s in self.by_name.get(name, ())) / 1e9

    def durations(self, name: str, where=None) -> list[int]:
        return sorted(self.dur(s) for s in self.by_name.get(name, ()) if where is None or where(s))

    def attr_sum(self, name: str, key: str) -> int:
        return sum((s[ATTRS] or {}).get(key, 0) for s in self.by_name.get(name, ()))


def layer_metrics(spans: list[list], workers: int, overhead_s: float,
                  failed_frac: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced body.

    Returns ({name: (value, unit)}, {name: note}); notes give the
    percentile and sample count behind each tail value.
    """
    ss = SpanSet(spans)
    m: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}

    runs = ss.by_name.get("harness.run_experiment", [])
    run_wall = sum(ss.dur(s) for s in runs)
    rep_busy = sum(ss.dur(c) for s in runs for c in ss.children.get(s[ID], ())
                   if c[NAME] in REPLICATION_STEPS)
    m["harness.run_experiment.self_s"] = (ss.self_s("harness.run_experiment"), "s")
    m["harness.pool_util"] = (rep_busy / (workers * run_wall) if run_wall else 0.0, "ratio")
    m["harness.write.ms"] = (ss.busy_s("harness.FrequencyTable.write") * 1e3, "ms")
    m["harness.load_xy_csv.ms"] = (ss.busy_s("harness.load_xy_csv") * 1e3, "ms")
    m["harness.reps_failed"] = (ss.attr_sum("harness.run_experiment", "reps_failed"), "count")

    sel = ss.durations("selection.run_selection")
    sel_calls = len(sel)
    tail_v, tail_p, tail_n = tail(sel)
    m["selection.run_selection.calls"] = (sel_calls, "count")
    m["selection.run_selection.p50_ms"] = (percentile(sel, 50.0) / 1e6, "ms")
    m["selection.run_selection.tail_ms"] = (tail_v / 1e6, "ms")
    notes["selection.run_selection.tail_ms"] = (
        f"p{tail_p:g} of {tail_n} samples" if tail_p is not None else f"max of {tail_n} samples"
    )
    m["selection.run_selection.self_s"] = (ss.self_s("selection.run_selection"), "s")
    m["selection.cv_criterion.calls"] = (ss.calls("selection.cv_criterion"), "count")
    m["selection.cv_criterion.busy_s"] = (ss.busy_s("selection.cv_criterion"), "s")
    fits = ss.by_name.get("estimators.fit_procedure", [])
    sel_fits = sum(1 for s in fits if s[SITE] == "selection")
    m["selection.fits_per_rep"] = (sel_fits / sel_calls if sel_calls else 0.0, "count")
    m["selection.disqualified"] = (ss.attr_sum("selection.run_selection", "disqualified"), "count")

    plans = ss.durations("splits.make_splits")
    m["splits.make_splits.calls"] = (len(plans), "count")
    m["splits.make_splits.p50_ms"] = (percentile(plans, 50.0) / 1e6, "ms")
    m["splits.make_splits.busy_s"] = (ss.busy_s("splits.make_splits"), "s")
    m["splits.splits_per_plan"] = (
        ss.attr_sum("splits.make_splits", "splits") / len(plans) if plans else 0.0, "count")

    by_fit: dict[tuple[str, int], list[int]] = defaultdict(list)
    for s in fits:
        attrs = s[ATTRS] or {}
        if "proc" in attrs:
            by_fit[(proc_key(attrs["proc"]), attrs["n1"])].append(ss.dur(s))
    for proc, sizes in FIT_SIZES.items():
        for n1 in sizes:
            m[f"estimators.fit.{proc}.n1-{n1}.p50_us"] = (
                percentile(sorted(by_fit.get((proc, n1), [])), 50.0) / 1e3, "us")
        mine = [d for (p, _), ds in by_fit.items() if p == proc for d in ds]
        m[f"estimators.fit.{proc}.calls"] = (len(mine), "count")
        m[f"estimators.fit.{proc}.busy_s"] = (sum(mine) / 1e9, "s")

    gen = ss.durations("scenarios.gen_sample")
    m["scenarios.gen_sample.calls"] = (len(gen), "count")
    m["scenarios.gen_sample.p50_us"] = (percentile(gen, 50.0) / 1e3, "us")
    m["scenarios.gen_sample.busy_s"] = (ss.busy_s("scenarios.gen_sample"), "s")

    streams = ss.durations("rng.stream")
    m["rng.stream.calls"] = (len(streams), "count")
    m["rng.stream.p50_us"] = (percentile(streams, 50.0) / 1e3, "us")
    draws = ss.attr_sum("rng.normals", "draws")
    m["rng.normals.draws"] = (draws, "count")
    m["rng.normals.ns_per_draw"] = (
        ss.busy_s("rng.normals") * 1e9 / draws if draws else 0.0, "ns")

    m["nested_mean.selection_prob.busy_s"] = (ss.busy_s("nested_mean.selection_prob"), "s")
    m["nested_mean.selection_prob.self_s"] = (ss.self_s("nested_mean.selection_prob"), "s")
    m["nested_mean.enumeration_check.ms"] = (ss.busy_s("nested_mean.enumeration_check") * 1e3, "ms")
    m["nested_mean.f_reference_prob.us"] = (ss.busy_s("nested_mean.f_reference_prob") * 1e6, "us")

    for probe in DIAGNOSTIC_PROBES:
        m[f"diagnostics.{probe}.busy_s"] = (ss.busy_s(f"diagnostics.{probe}"), "s")
    m["diagnostics.fits"] = (sum(1 for s in fits if s[SITE] == "diagnostics"), "count")

    m["plots.emit_plot.ms"] = (ss.busy_s("plots.emit_plot") * 1e3, "ms")
    m["cli.main.self_s"] = (ss.self_s("cli.main"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["failed_frac"] = (failed_frac, "ratio")
    return m, notes

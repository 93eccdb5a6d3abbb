"""Span tracing for the benchmark's traced run.

Tracer.install() replaces every public function of the program's layer
modules (bandred.kernels, runtime, sevp, svd, depgraph) by a wrapper that
records a span, in every bandred namespace that holds the function: the
defining module, and also sevp and svd, which import the kernel names and
run_phase. So each call between layers is seen where its caller looks the
name up, and nothing inside the program changes. uninstall() puts the
originals back.

A span is (id, name, start_ns, end_ns, parent id, thread id, note). Each
thread keeps its own stack of open spans. Two places cross threads: the
run_phase wrapper times every task of the plan it runs as a child of the
run_phase span, and Workers.map hands its caller's open span to the pool
threads that run its chunks.
"""

import functools
import importlib
import inspect
import itertools
import json
import re
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("kernels", "runtime", "sevp", "svd", "depgraph")

# Task kinds: a task id up to its first "-" or "@".
TASK_KINDS = ("qr", "lq", "mid", "xprod1", "xprod2", "xprod3", "trail",
              "left", "right", "zleft", "zright", "xprod", "dsub")

KERNELS_TIMED = ("symm_lower", "syr2k_lower", "qr_panel", "lq_panel",
                 "house_gen", "apply_wy_left", "apply_wy_right")
SEVP_VARIANTS = ("reference", "v1", "v2")
SVD_VARIANTS = ("reference", "simultaneous", "triband")
REDUCTIONS = ("sevp.reduce_sym_band", "svd.reduce_band_svd", "svd.reduce_tri_band")
DEPGRAPH_TIMED = ("enumerate_tasks", "build_dag", "analyze_overlap")


def task_kind(task_id):
    return re.split("[-@]", task_id, maxsplit=1)[0]


def _sevp_nominal(n):
    return 4 * n**3 / 3


def _svd_nominal(m, n):
    m, n = max(m, n), min(m, n)
    return 4 * (m * n * n - n**3 / 3)


def _matmul_note(result, alpha, A, B, *args, **kwargs):
    m, k = A.shape
    n = B.shape[1]
    flops = 2 * m * k * n if alpha != 0.0 else 0
    return k > max(m, n), flops  # (dot-shaped, flops)


def _sevp_note(result, A, cfg, *args, **kwargs):
    return cfg.variant.value, _sevp_nominal(cfg.n)


def _svd_note(result, A, cfg, *args, **kwargs):
    variant = "triband" if cfg.form.value == "triband" else cfg.variant.value
    return variant, _svd_nominal(cfg.m, cfg.n)


def _tri_note(result, A, *args, **kwargs):
    return "triband", _svd_nominal(*A.shape)


def _dag_note(result, tasks, *args, **kwargs):
    return len(tasks), len(result.edges)


# Per-function notes: fn(result, *args, **kwargs) -> what the metrics need.
NOTES = {
    "kernels.matmul": _matmul_note,
    "sevp.reduce_sym_band": _sevp_note,
    "svd.reduce_band_svd": _svd_note,
    "svd.reduce_tri_band": _tri_note,
    "depgraph.build_dag": _dag_note,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped = None
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, parent=None, note=None):
        """fn(*args, **kwargs), recorded as a span. parent defaults to this
        thread's innermost open span; note(result, *args, **kwargs) gives
        the span's note."""
        kwargs = kwargs or {}
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
        info = note(result, *args, **kwargs) if note else None
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), info))
        return result

    def _wrap(self, fn, name):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note=note)

        return traced

    def _wrap_run_phase(self, run_phase, Task, PhasePlan):
        def traced_run_phase(plan, groups):
            # Mirrors run_phase: the two groups run at once only when there
            # are sequential tasks and both groups have workers.
            two = bool(plan.seq_tasks) and groups.ts_count >= 1 and groups.tp_count >= 1

            def run():
                phase = self._stack()[-1]

                def timed(task, group):
                    def fn(workers):
                        self.call("runtime.task", task.fn, (workers,), parent=phase,
                                  note=lambda *_: (task_kind(task.task_id), group))

                    return Task(task.task_id, fn, task.writes)

                return run_phase(PhasePlan([timed(t, "seq") for t in plan.seq_tasks],
                                           [timed(t, "par") for t in plan.par_tasks],
                                           plan.label), groups)

            return self.call("runtime.run_phase", run, note=lambda *_: two)

        return functools.wraps(run_phase)(traced_run_phase)

    def install(self):
        runtime = importlib.import_module("bandred.runtime")
        if self._wrapped is None:
            self._wrapped = {}
            for layer in LAYERS:
                mod = importlib.import_module(f"bandred.{layer}")
                for name, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not name.startswith("_")):
                        self._wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
            self._wrapped[runtime.run_phase] = self._wrap_run_phase(
                runtime.run_phase, runtime.Task, runtime.PhasePlan)
            self._map = self._wrap_map(runtime.Workers.map)
        for modname, mod in list(sys.modules.items()):
            if modname != "bandred" and not modname.startswith("bandred."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrapped:
                    setattr(mod, name, self._wrapped[obj])
                    self._undo.append((mod, name, obj))
        self._undo.append((runtime.Workers, "map", runtime.Workers.map))
        runtime.Workers.map = self._map

    def _wrap_map(self, map_):
        def traced_map(workers, fn, items):
            stack = self._stack()
            parent = stack[-1] if stack else None

            def adopted(item):
                own = self._stack()
                if own:
                    return fn(item)
                own.append(parent)
                try:
                    return fn(item)
                finally:
                    own.pop()

            return map_(workers, adopted, items)

        return functools.wraps(map_)(traced_map)

    def uninstall(self):
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)

    def take(self):
        """The spans recorded so far; the tracer starts a new list."""
        spans, self.spans = self.spans, []
        return spans


def _covered_ns(t0, t1, intervals):
    """Length of [t0, t1) covered by the union of intervals."""
    total, end = 0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> self time in ns: its duration minus the part of it that
    its child spans, on any thread, cover."""
    kids = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            kids[s[4]].append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - _covered_ns(s[2], s[3], kids.get(s[0], ())) for s in spans}


def layer_self_s(spans):
    """Layer (the part of a span name before its first dot) -> self seconds."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s[1].split(".", 1)[0]] += own[s[0]] / 1e9
    return dict(out)


def layer_metrics(spans):
    """The per-layer metrics of one pass, from its spans."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def dur(ss):
        return sum(s[3] - s[2] for s in ss) / 1e9

    def gflops(flops, seconds):
        return flops / seconds / 1e9 if seconds > 0 else 0.0

    m = {}
    matmuls = by_name["kernels.matmul"]
    m["kernels.matmul.calls"] = len(matmuls)
    for label, pick in (("", lambda dot: True), ("rank_b.", lambda dot: not dot),
                        ("dot.", lambda dot: dot)):
        ss = [s for s in matmuls if pick(s[6][0])]
        t = sum(own[s[0]] for s in ss) / 1e9
        m[f"kernels.matmul.{label}self_s"] = t
        m[f"kernels.matmul.{label}gflops"] = gflops(sum(s[6][1] for s in ss), t)
    for k in KERNELS_TIMED:
        m[f"kernels.{k}.s"] = dur(by_name[f"kernels.{k}"])
    m["kernels.house_gen.calls"] = len(by_name["kernels.house_gen"])

    phases = by_name["runtime.run_phase"]
    tasks = by_name["runtime.task"]
    m["runtime.phases"] = len(phases)
    m["runtime.tasks"] = len(tasks)
    for kind in TASK_KINDS:
        m[f"runtime.task.{kind}.s"] = dur(s for s in tasks if s[6][0] == kind)
    busy = defaultdict(lambda: {"seq": 0, "par": 0})
    for s in tasks:
        busy[s[4]][s[6][1]] += s[3] - s[2]
    seq_busy = par_busy = seq_idle = par_idle = overhead = 0
    for p in phases:
        wall, b = p[3] - p[2], busy[p[0]]
        seq_busy += b["seq"]
        par_busy += b["par"]
        if p[6]:  # two groups at once: the less busy one idles
            seq_idle += wall - b["seq"]
            par_idle += wall - b["par"]
            overhead += wall - max(b["seq"], b["par"])
        else:  # one runner takes the sequential list, then the parallel one
            overhead += wall - b["seq"] - b["par"]
    for key, ns in (("seq_busy_s", seq_busy), ("par_busy_s", par_busy), ("seq_idle_s", seq_idle),
                    ("par_idle_s", par_idle), ("overhead_s", overhead)):
        m[f"runtime.{key}"] = ns / 1e9

    # Only the outermost reduction of a call counts: reduce_band_svd hands
    # the triangular-band form and m < n inputs on to another reduction.
    outer = [s for name in REDUCTIONS for s in by_name[name]
             if s[4] is None or by_id.get(s[4], (0, ""))[1] not in REDUCTIONS]
    for layer, variants in (("sevp", SEVP_VARIANTS), ("svd", SVD_VARIANTS)):
        for v in variants:
            ss = [s for s in outer if s[1].startswith(layer + ".") and s[6][0] == v]
            t = dur(ss)
            m[f"{layer}.{v}.s"] = t
            m[f"{layer}.{v}.gflops"] = gflops(sum(s[6][1] for s in ss), t)
        m[f"{layer}.driver_s"] = sum(
            own[s[0]] for name in REDUCTIONS if name.startswith(layer + ".")
            for s in by_name[name]) / 1e9

    for f in DEPGRAPH_TIMED:
        m[f"depgraph.{f}.s"] = dur(by_name[f"depgraph.{f}"])
    m["depgraph.tasks"] = sum(s[6][0] for s in by_name["depgraph.build_dag"])
    m["depgraph.edges"] = sum(s[6][1] for s in by_name["depgraph.build_dag"])
    return m


def write_chrome_trace(spans, path):
    """Write spans as Chrome trace-event JSON (opens in Perfetto or
    chrome://tracing), times in microseconds from the first span."""
    base = min((s[2] for s in spans), default=0)
    tids = {}
    events = []
    for sid, name, t0, t1, parent, thread, note in spans:
        events.append({
            "name": name.split(".", 1)[-1], "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3, "pid": 1,
            "tid": tids.setdefault(thread, len(tids)),
            "args": {"id": sid, "parent": parent, "note": repr(note)},
        })
    events.sort(key=lambda e: e["ts"])
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)

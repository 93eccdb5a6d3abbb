"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sevp-lookahead --seed 0 --seconds 42 --trace 0

Run from the repository root: the program is imported from ./src. The
workload's fixed case list is run in whole passes, one op after another,
for as long as another pass still fits in --seconds; every output is
checked.

--trace 0 reports the end-to-end metrics:
  pass_s       sum over the ops of one pass of each op's minimum time over
               the run's passes. The ops are interleaved, so an op's repeats
               are spread over the whole run and a host stall of a few
               seconds cannot raise its minimum.
  setup_s      median over three set-ups (this process and two fresh
               interpreters) of: import, input generation and warm-up.
  peak_rss_mb  this process's peak resident memory.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (medians over the traced passes) and the tracing overhead, prints
the self-time table to stderr and writes the first traced pass as a Chrome
trace to perfbench/results/.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the exit code is 0 when that line was printed.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sevp-lookahead", "svd-tall", "analyze")
SETUP_CHILDREN = 2


def setup(workload, seed):
    """Import the program, make the workload's inputs and warm it up.
    Returns (workload, seconds taken)."""
    t0 = time.perf_counter()
    if not (SRC / "bandred" / "__init__.py").is_file():
        sys.exit(f"run.py: no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads  # imports bandred before numpy

    if Path(sys.modules["bandred"].__file__).resolve().parent != SRC / "bandred":
        sys.exit("run.py: bandred was imported from outside ./src")
    wl = workloads.WORKLOADS[workload](seed)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def child_setup_seconds(workload, seed):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


class Run:
    """Timings, checks and counts of one measurement."""

    def __init__(self, wl):
        import bandred

        self.wl = wl
        self.flops = bandred.FLOPS
        self.times = defaultdict(lambda: defaultdict(list))  # mode -> op -> [s]
        self.digests = {}  # op -> digest of its first output
        self.checked = set()  # cases whose first outputs went through case.check
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.per_pass = []  # per traced pass: its per-layer metrics
        self.first_spans = None  # the spans of the first traced pass

    def run_pass(self, mode, tracer=None):
        """One pass over the case list; mode names the timing bucket."""
        flops = defaultdict(int)
        for case in self.wl.cases:
            outputs = {}
            for name, call in case.ops:
                self.attempted += 1
                before = self.flops.snapshot()
                try:
                    t0 = time.perf_counter()
                    if tracer is None:
                        out = call()
                    else:
                        out = tracer.call("bench.op", call)
                    dt = time.perf_counter() - t0
                except Exception:
                    self.failed += 1
                    traceback.print_exc()
                    continue
                after = self.flops.snapshot()
                for key in ("matmul", "house"):
                    flops[key] += after.get(key, 0) - before.get(key, 0)
                self.times[mode][name].append(dt)
                outputs[name] = out
            if len(outputs) == len(case.ops):
                self.check(case, outputs, mode)
        if tracer is not None:
            self.summarize(tracer.take(), flops)

    def check(self, case, outputs, mode):
        """Full check of a case's first outputs; every later output must
        equal the first one of its op bit for bit, so it passes too."""
        for name, out in outputs.items():
            digest = case.digest(out)
            if self.digests.setdefault(name, digest) != digest:
                self.problems.append(f"{name}: {mode} output differs bitwise from the first one")
        if case.name not in self.checked:
            self.checked.add(case.name)
            self.problems += case.check(outputs)

    def summarize(self, spans, flops):
        from tracing import layer_metrics, layer_self_s

        m = layer_metrics(spans)
        m["flops.matmul"], m["flops.house"] = flops["matmul"], flops["house"]
        m.update({f"layer.{k}.self_s": v for k, v in layer_self_s(spans).items()})
        self.per_pass.append(m)
        if self.first_spans is None:
            self.first_spans = spans

    def pass_s(self, mode):
        return sum(min(ts) for ts in self.times[mode].values())


def measure(wl, seconds, trace):
    """Run whole rounds while one as long as the longest so far (after the
    first) still ends before the deadline. A round is one pass, or with trace
    an untraced pass then a traced one."""
    run = Run(wl)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        run.run_pass("untraced")
        if trace:
            tracer.install()
            try:
                run.run_pass("traced", tracer)
            finally:
                tracer.uninstall()
        run.rounds += 1
        now = time.perf_counter()
        durations.append(now - t0)
        # The first round also runs the full output checks.
        if now - start + max(durations[1:] or durations) > seconds:
            return run


def build_dag_peak_mb(wl):
    """Traced allocation peak of build_dag on the workload's largest task
    list (0 when it builds no DAG), measured in one untimed call."""
    import tracemalloc

    import bandred

    if not wl.dag_shapes:
        return 0.0
    tasks, args = max(((bandred.enumerate_tasks(*a), a) for a in wl.dag_shapes),
                      key=lambda ta: len(ta[0]))
    tracemalloc.start()
    try:
        bandred.build_dag(tasks, *args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced_metrics(run, seed, per_layer_names):
    """Per-layer metrics (medians over the traced passes) and the tracing
    overhead; prints the self-time table and writes the trace file."""
    from tracing import write_chrome_trace

    def median(name):
        return statistics.median(p.get(name, 0) for p in run.per_pass)

    metrics = {name: median(name) for name in per_layer_names}
    untraced, traced = run.pass_s("untraced"), run.pass_s("traced")
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    metrics["depgraph.build_dag.peak_mb"] = build_dag_peak_mb(run.wl)

    layers = {k.split(".")[1]: median(k) for k in run.per_pass[0] if k.startswith("layer.")}
    total = sum(layers.values())
    print(f"self time per traced pass, by layer ({len(run.per_pass)} passes, medians):",
          file=sys.stderr)
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {s:10.4f} s {100.0 * s / total:6.1f} %", file=sys.stderr)
    print(f"  {'total':<10} {total:10.4f} s   pass_s untraced {untraced:.4f} s, "
          f"traced {traced:.4f} s", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{run.wl.name}-seed{seed}.json"
    write_chrome_trace(run.first_spans, path)
    print(f"trace of the first traced pass: {path}", file=sys.stderr)
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    wl, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    run = measure(wl, args.seconds, args.trace)
    if args.trace:
        metrics = traced_metrics(run, args.seed, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        samples = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                               for _ in range(SETUP_CHILDREN)]
        metrics = {
            "pass_s": run.pass_s("untraced"),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for msg in run.problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "rounds": run.rounds, "nproc": os.cpu_count(),
           "times": {mode: dict(ops) for mode, ops in run.times.items()}}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

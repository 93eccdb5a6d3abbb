"""Static look-ahead execution substrate.

Workers are split into a sequential group and a parallel group that share
one thread pool. Each phase runs one ordered task list per group,
concurrently, and returns only when both lists are done (the barrier): the
sequential list on a pool thread, the parallel list on the calling thread.
Every task declares the spans it reads and writes; a phase in which a write
of one list meets a read or a write of the other (a RAW, WAR or WAW hazard
between the groups) is rejected before any task runs. Within a list,
overlap is legal -- tasks there run in order and may build on each other.

Every submission to the pool runs in a copy of the submitter's context, so
context variables such as the open flop scopes (bandred.flops) reach the
pool threads that run a reduction's tasks; the lists that run on the
calling thread run in its own context.

Logical time is a monotonic counter, not wall clock, so trace assertions
(task A finished before task B started) are reproducible.
"""

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Task",
    "PhasePlan",
    "EventTrace",
    "ExecGroups",
    "Workers",
    "WriteOverlapError",
    "run_phase",
]


class WriteOverlapError(ValueError):
    """A declared write of one group of a phase meets a declared read or
    write of the other group."""


@dataclass(frozen=True)
class Span:
    """Half-open range on a named target: rows [r0, r1) x cols [c0, c1).

    Targets are names ("A" for the matrix being reduced, buffer names for
    intermediates); spans on different targets never overlap.
    """

    target: str
    rows: tuple
    cols: tuple

    def intersects(self, other):
        if self.target != other.target:
            return False
        return (
            self.rows[0] < other.rows[1]
            and other.rows[0] < self.rows[1]
            and self.cols[0] < other.cols[1]
            and other.cols[0] < self.cols[1]
        )


@dataclass
class Task:
    """A closure plus the spans it touches. fn receives a Workers handle
    sized to the group the task lands on.

    writes lists every range the body stores to. reads lists every range
    whose value on entry the body uses, so a range updated in place is in
    both lists, and an output the body overwrites without reading is only
    in writes. A task that applies a panel's factors lists that panel's
    range first in reads: the factors are the panel factorization's result.
    """

    task_id: str
    fn: object
    writes: list
    reads: list = field(default_factory=list)


@dataclass
class PhasePlan:
    seq_tasks: list = field(default_factory=list)
    par_tasks: list = field(default_factory=list)
    label: str = ""


class EventTrace:
    """Ordered (task_id, group, start_tick, end_tick) records."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counter = 0
        self.records = []

    def tick(self):
        with self._lock:
            self._counter += 1
            return self._counter

    def append(self, task_id, group, start, end):
        with self._lock:
            self.records.append((task_id, group, start, end))

    def of_group(self, group):
        return [r for r in self.records if r[1] == group]

    def find(self, prefix):
        return [r for r in self.records if r[0].startswith(prefix)]

    def dump(self, path):
        with open(path, "w") as f:
            for task_id, group, start, end in self.records:
                f.write(f"{task_id}\t{group}\t{start}\t{end}\n")


def _submit(pool, fn, *args):
    # Run fn in a copy of the caller's context: one copy per submission,
    # since a context cannot be entered by two threads at once.
    return pool.submit(contextvars.copy_context().run, fn, *args)


class Workers:
    """Data-parallel map over count workers of a pool.

    The calling thread (the one that runs the group's list) executes the
    first chunk inline and submits the remaining count-1 chunks, so a group
    of size c runs on its own thread plus c-1 pool threads. map returns or
    raises only after every chunk has finished, so no chunk still writes
    into the caller's arrays; it raises the first error, the inline
    chunk's before the submitted chunks' in order.
    """

    def __init__(self, pool, count):
        self.pool = pool
        self.count = max(1, int(count))

    def map(self, fn, items):
        items = list(items)
        if not items:
            return
        c = min(self.count, len(items))
        if c <= 1:
            for it in items:
                fn(it)
            return
        bounds = [(len(items) * q) // c for q in range(c + 1)]
        chunks = [items[bounds[q] : bounds[q + 1]] for q in range(c)]
        futures = [_submit(self.pool, self._run_chunk, fn, ch) for ch in chunks[1:]]
        try:
            self._run_chunk(fn, chunks[0])
        finally:
            wait(futures)
        for fut in futures:
            fut.result()

    @staticmethod
    def _run_chunk(fn, chunk):
        for it in chunk:
            fn(it)


class ExecGroups:
    """total_workers workers split into a sequential group (ts_count) and a
    parallel group (tp_count = total_workers - ts_count), on one thread pool
    of total_workers threads.

    A phase runs its two lists at once only when it has sequential tasks and
    both groups have workers: the sequential list goes to the pool, the
    parallel list runs on the thread that called run_phase. Otherwise that
    thread runs both lists in order at full width. Either way a phase needs
    at most total_workers - 1 pool threads (the sequential runner plus
    ts_count - 1 and tp_count - 1 map chunks), because Workers.map is never
    nested: kernels call their inner matmuls without a Workers handle. So a
    one-worker groups object never starts a thread.

    Owns the EventTrace of the phases run on it. Each reduction starts it
    afresh, so it holds the records of the latest reduction only.
    """

    def __init__(self, total_workers=1, ts_count=1):
        total_workers = int(total_workers)
        ts_count = int(ts_count)
        if total_workers < 1:
            raise ValueError("total_workers >= 1")
        if not (0 <= ts_count <= total_workers):
            raise ValueError("need 0 <= ts_count <= total_workers")
        self.total_workers = total_workers
        self.ts_count = ts_count
        self.tp_count = total_workers - ts_count
        self.trace = EventTrace()
        self._closed = False
        self._pool = ThreadPoolExecutor(max_workers=total_workers)

    def close(self):
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _run_list(tasks, workers, group, trace):
    for task in tasks:
        start = trace.tick()
        task.fn(workers)
        end = trace.tick()
        trace.append(task.task_id, group, start, end)


def _check_hazards(plan):
    for st in plan.seq_tasks:
        for pt in plan.par_tasks:
            for writer, other in ((st, pt), (pt, st)):
                for ws in writer.writes:
                    for sp in (*other.writes, *other.reads):
                        if ws.intersects(sp):
                            verb = "writes" if sp in other.writes else "reads"
                            raise WriteOverlapError(
                                f"phase {plan.label!r}: task {writer.task_id!r} "
                                f"writes {ws.target} rows {ws.rows}x{ws.cols} and "
                                f"task {other.task_id!r} of the other group {verb} "
                                f"{sp.rows}x{sp.cols}"
                            )


def run_phase(plan, groups):
    """Execute one phase: seq list in order on the sequential group while the
    par list runs in order on the parallel group; return after both finish.

    Rejects the whole phase (nothing runs) if a write span of either list
    intersects a read or write span of the other, or if groups is closed.
    Returns the groups' EventTrace.
    """
    _check_hazards(plan)
    if groups._closed:
        raise RuntimeError("run_phase on a closed ExecGroups")
    trace, pool = groups.trace, groups._pool

    if not plan.seq_tasks or groups.ts_count < 1 or groups.tp_count < 1:
        # One group at full width: seq list (if any), then par.
        w = Workers(pool, groups.total_workers)
        _run_list(plan.seq_tasks, w, "seq", trace)
        _run_list(plan.par_tasks, w, "par", trace)
        return trace
    fs = _submit(pool, _run_list, plan.seq_tasks, Workers(pool, groups.ts_count), "seq", trace)
    try:
        _run_list(plan.par_tasks, Workers(pool, groups.tp_count), "par", trace)
    finally:
        fs.result()  # join the sequential group before returning or raising
    return trace

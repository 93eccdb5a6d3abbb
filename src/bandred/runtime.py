"""Static look-ahead execution substrate.

Workers are split into a sequential group and a parallel group. Each phase
runs one ordered task list per group, concurrently, and returns only when
both lists are done (the barrier). Every task declares the spans it writes;
a phase whose two lists' declared writes intersect is rejected before any
task runs. Within a list, overlap is legal -- tasks there run in order and
may build on each other.

Logical time is a monotonic counter, not wall clock, so trace assertions
(task A finished before task B started) are reproducible.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
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
    """Declared write ranges of the two groups of one phase intersect."""


@dataclass(frozen=True)
class Span:
    """Half-open write range on a named target: rows [r0, r1) x cols [c0, c1).

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
    """A closure plus its declared write spans. fn receives a Workers handle
    sized to the group the task lands on."""

    task_id: str
    fn: object
    writes: list


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


class Workers:
    """Data-parallel map over one group's pool.

    The calling thread (a group runner, which already occupies one pool slot)
    executes the first chunk inline and submits the remaining count-1 chunks,
    so a group of size c uses exactly c slots and can never deadlock on its
    own pool.
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
        futures = [self.pool.submit(self._run_chunk, fn, ch) for ch in chunks[1:]]
        self._run_chunk(fn, chunks[0])
        for fut in futures:
            fut.result()

    @staticmethod
    def _run_chunk(fn, chunk):
        for it in chunk:
            fn(it)


class ExecGroups:
    """Worker pools split into a sequential group (ts_count) and a parallel
    group (total_workers - ts_count), plus a full-width pool used when a
    phase has no sequential work (or ts_count = 0: no look-ahead at all).

    Owns the cumulative EventTrace and a log of every task's declared writes.
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
        self.write_log = []  # (task_id, group, [Span])
        self._all = ThreadPoolExecutor(max_workers=total_workers)
        self._seq = ThreadPoolExecutor(max_workers=ts_count) if ts_count >= 1 else None
        self._par = (
            ThreadPoolExecutor(max_workers=self.tp_count)
            if ts_count >= 1 and self.tp_count >= 1
            else None
        )

    def close(self):
        for pool in (self._seq, self._par, self._all):
            if pool is not None:
                pool.shutdown(wait=True)

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


def run_phase(plan, groups):
    """Execute one phase: seq list in order on the sequential group while the
    par list runs in order on the parallel group; return after both finish.

    Rejects the whole phase (nothing runs) if any seq write span intersects
    any par write span. Returns the cumulative EventTrace.
    """
    for st in plan.seq_tasks:
        for pt in plan.par_tasks:
            for ws in st.writes:
                for wp in pt.writes:
                    if ws.intersects(wp):
                        raise WriteOverlapError(
                            f"phase {plan.label!r}: task {st.task_id!r} and "
                            f"task {pt.task_id!r} both write {ws.target} "
                            f"rows {ws.rows}x{ws.cols} / {wp.rows}x{wp.cols}"
                        )
    trace = groups.trace
    for task in plan.seq_tasks:
        groups.write_log.append((task.task_id, "seq", list(task.writes)))
    for task in plan.par_tasks:
        groups.write_log.append((task.task_id, "par", list(task.writes)))

    if groups.ts_count == 0 or not plan.seq_tasks:
        # Single-pool execution at full width: seq list (if any), then par.
        w = Workers(groups._all, groups.total_workers)

        def run_all():
            _run_list(plan.seq_tasks, w, "seq", trace)
            _run_list(plan.par_tasks, w, "par", trace)

        groups._all.submit(run_all).result()
    elif groups.tp_count == 0:
        w = Workers(groups._seq, groups.ts_count)

        def run_both():
            _run_list(plan.seq_tasks, w, "seq", trace)
            _run_list(plan.par_tasks, w, "par", trace)

        groups._seq.submit(run_both).result()
    else:
        ws = Workers(groups._seq, groups.ts_count)
        wp = Workers(groups._par, groups.tp_count)
        fs = groups._seq.submit(_run_list, plan.seq_tasks, ws, "seq", trace)
        fp = groups._par.submit(_run_list, plan.par_tasks, wp, "par", trace)
        err = None
        for fut in (fs, fp):
            try:
                fut.result()
            except BaseException as e:  # join both groups before raising
                err = err or e
        if err is not None:
            raise err
    return trace

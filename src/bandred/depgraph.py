"""Block-range dependency analysis for the band reduction schedules.

The reduction loops are abstracted into a task list at a fixed grain:
one task per panel factorization, and one task per width-``b`` column
block (left) or row block (right) of each trailing update.  Every task
carries the index ranges it reads and writes.  A dependency DAG is then
built from range intersections in program order, and a static analysis
of that DAG answers which look-ahead overlaps are legal for a given
bandwidth/block-size ratio ``w/b``.

``build_dag`` works on task-level hazard matrices.  The boxes of one
role (reads or writes) are held as four contiguous int32 coordinate
columns per slot, slot ``p`` holding the ``p``-th box of every task, so
a block of ``ROW_BLOCK`` source tasks is tested against the tasks from
the block on with one comparison and three in-place ``&=`` per slot
pair, and the hits are OR-ed straight into the task rows.  This yields three
strictly upper ``T x T`` boolean matrices (RAW, WAR, WAW), and the edge
list is read off their union.  Peak memory is O(``ROW_BLOCK`` * T + T^2)
and no per-pair Python object exists before the output list itself.

``analyze_overlap`` relies on the order of that list: an essential path
into a task can only pass through earlier tasks, so each reachability
query scans only the out-edge slices of tasks below its target, found
by bisection in the sorted edges, and stops each slice at the target.
The search checks the order of every slice it scans and raises
``ValueError`` where it finds it broken.

Two granularities of truth live here:

* ``build_dag`` applies the raw read/write rule verbatim, so the DAG
  also contains edges between left updates and right updates that touch
  the same block.  Those pairs commute algebraically (an orthogonal
  transform from the left and one from the right act on disjoint sides
  of the product), and any schedule is free to reorder them.
* ``analyze_overlap`` therefore drops update/update edges between
  opposite sides before searching for paths.  Panels never commute with
  anything that touches their range, so all panel edges are kept.

The task list is not a second copy of the reduction loop:
``enumerate_tasks`` plans the Reference schedule of ``reduce_band_svd``
from the task streams the reductions run, and splits each update on the
global ``b`` grid with the planner's splitter, ``lookahead._intervals``;
the acceptance check compares it with a captured run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import svd
from .lookahead import _intervals, plan, schedule
from .svd import SvdForm

__all__ = [
    "TaskKind",
    "TaskNode",
    "TaskDag",
    "OverlapReport",
    "enumerate_tasks",
    "build_dag",
    "essential_adjacency",
    "analyze_overlap",
    "to_dot",
]

Range2D = tuple[tuple[int, int], tuple[int, int]]


class TaskKind(Enum):
    """Task classes of the reduction loop, at look-ahead granularity."""

    QR_PANEL = "qr_panel"
    LQ_PANEL = "lq_panel"
    LEFT_UPDATE = "left_update"
    RIGHT_UPDATE = "right_update"


# Side of each task kind: 0 for a panel, 1 and 2 for the two update
# sides.  _COMMUTES[a][c] is True when an edge from side a to side c
# joins the two different update sides, so it commutes and is not
# essential (see essential_adjacency).
_SIDE = {TaskKind.QR_PANEL: 0, TaskKind.LQ_PANEL: 0,
         TaskKind.LEFT_UPDATE: 1, TaskKind.RIGHT_UPDATE: 2}
_COMMUTES = tuple(tuple(a != 0 and c != 0 and a != c for c in range(3))
                  for a in range(3))
# Hazard labels by priority code, as Python str objects for the edge list.
_CAUSES = np.array(("RAW", "WAR", "WAW"), dtype=object)
# Source tasks per broadcast block in build_dag: bounds its box-level
# temporaries at ROW_BLOCK x T booleans.
ROW_BLOCK = 256
_UNSORTED = "dag.edges must be sorted by (src, dst) with src < dst"
# Padding for a task with fewer boxes than its role has slots: a0 < b1
# fails whether the padding is the source or the destination box, so it
# meets nothing.
_NO_BOX = np.array([[np.iinfo(np.int32).max], [np.iinfo(np.int32).min]] * 2,
                   dtype=np.int32)


@dataclass(frozen=True)
class TaskNode:
    """One scheduled task and the half-open ranges it touches.

    ``block`` is the global block index of a fine update (column block
    for left updates, row block for right updates) and ``None`` for
    panels.  ``reads`` always includes every range in ``writes``: a
    trailing update overwrites data it first has to read, and a panel
    factorization works in place.
    """

    kind: TaskKind
    iteration: int
    block: Optional[int]
    reads: tuple[Range2D, ...]
    writes: tuple[Range2D, ...]

    def label(self) -> str:
        stem = f"{self.kind.value}@{self.iteration}"
        return stem if self.block is None else f"{stem}:{self.block}"


@dataclass
class TaskDag:
    """Tasks in program order plus one typed edge per dependent pair.

    ``edges`` holds ``(src, dst, cause)`` index triples with
    ``src < dst``, so the graph is acyclic by construction, sorted by
    ``(src, dst)``: the out-edges of a task are one contiguous slice in
    ascending ``dst`` order.  ``analyze_overlap`` relies on both
    properties, which ``build_dag`` guarantees, and raises
    ``ValueError`` where its search finds them broken.  When a pair is related
    through several hazard classes only the strongest cause is recorded
    (RAW over WAR over WAW).
    """

    nodes: list[TaskNode]
    edges: list[tuple[int, int, str]]
    m: int
    n: int
    w: int
    b: int
    form: SvdForm

    def node_index(self, kind: TaskKind, iteration: int,
                   block: Optional[int] = None) -> int:
        for i, t in enumerate(self.nodes):
            if t.kind is kind and t.iteration == iteration and t.block == block:
                return i
        raise KeyError(f"no task {kind.value}@{iteration}:{block}")


@dataclass
class OverlapReport:
    """Feasibility of the static look-ahead overlaps for one ratio.

    ``left_feasible``: every steady iteration can factorize the next
    left panel while the tail of the current left update is running.
    ``right_feasible``: the analogous statement for the right side.
    ``both_feasible``: one schedule can exploit both overlaps at once.
    """

    left_feasible: bool
    right_feasible: bool
    both_feasible: bool
    w: int
    b: int
    form: SvdForm
    steady_iterations: list[int] = field(default_factory=list)


def _update_nodes(kind: TaskKind, it: int, panel: Range2D,
                  region_rows: tuple[int, int], region_cols: tuple[int, int],
                  b: int) -> list[TaskNode]:
    """The update's tasks on the global ``b`` grid: its columns (left) or
    rows (right) split at the multiples of ``b``, each block indexed by the
    grid block it lies in."""
    left = kind is TaskKind.LEFT_UPDATE
    span = region_cols if left else region_rows
    out = []
    for g0, g1 in _intervals(span, range(span[0] // b * b, span[1], b)):
        own = (region_rows, (g0, g1)) if left else ((g0, g1), region_cols)
        out.append(TaskNode(kind, it, g0 // b, (panel, own), (own,)))
    return out


# Task kinds by task-id prefix ("qr", "lq", "left", "right"), the id up to
# its first "-" or "@".
_KINDS = {kind.value.split("_")[0]: kind for kind in TaskKind}


def _phase_nodes(phases, b: int) -> list[TaskNode]:
    """The tasks of Reference phases (all on the parallel list) as TaskNodes,
    in order: the kind from the task-id prefix, the iteration from the phase
    index, and each update split on the global ``b`` grid, its panel the
    first span it reads."""
    out: list[TaskNode] = []
    for it, phase in enumerate(phases):
        for task in phase.par_tasks:
            kind = _KINDS[task.task_id.split("@")[0].split("-")[0]]
            (own,) = task.writes
            if kind in (TaskKind.QR_PANEL, TaskKind.LQ_PANEL):
                rng = (own.rows, own.cols)
                out.append(TaskNode(kind, it, None, (rng,), (rng,)))
            else:
                panel = task.reads[0]
                out += _update_nodes(kind, it, (panel.rows, panel.cols),
                                     own.rows, own.cols, b)
    return out


def enumerate_tasks(m: int, n: int, w: int, b: int, form: SvdForm,
                    iters: Optional[int] = None) -> list[TaskNode]:
    """List the reduction's tasks in program order.

    Plans the Reference schedule of ``reduce_band_svd`` (no matrix, no task
    run) and converts its phases with ``_phase_nodes``, so the iteration
    guard (``lookahead.schedule``), fringe panel widths and row split are
    the reduction's own.
    ``iters`` truncates to the first iterations; by default the full
    reduction is enumerated.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if b < 1 or b > w:
        raise ValueError("block size must satisfy 1 <= b <= w")
    if w % b != 0:
        raise ValueError("task enumeration requires w to be a multiple of b")
    if iters is not None and iters < 1:
        raise ValueError("iters must be at least 1 when given")
    if not isinstance(form, SvdForm):
        raise TypeError("form must be an SvdForm")
    if m < n:
        raise ValueError(f"task enumeration requires m >= n: the reduction "
                         f"runs {m} x {n} as its {n} x {m} transpose")
    state = svd._BandState(None, svd.SvdConfig(m, n, w, b, form))
    widths = schedule(m, n, state.s, b)
    ks = list(widths)[:iters]
    return _phase_nodes(plan(lambda k: svd._band_stream(state, k, widths[k], False), ks), b)


def _ranges_to_array(tasks: Sequence[TaskNode], attr: str) -> np.ndarray:
    # Boxes of one role as a (slots, 4, T) int32 array: slot p, row k is
    # coordinate k of (r0, r1, c0, c1) of the p-th box of every task,
    # padded with _NO_BOX.  Coordinates outside int32 raise OverflowError.
    flat = [(p, i, r0, r1, c0, c1)
            for i, t in enumerate(tasks)
            for p, ((r0, r1), (c0, c1)) in enumerate(getattr(t, attr))]
    at = np.array(flat, dtype=np.int64).reshape(-1, 6)
    if len(at) and (at.min() < _NO_BOX.min() or at.max() > _NO_BOX.max()):
        raise OverflowError(f"task {attr} coordinates must fit in int32")
    at = at.astype(np.int32)
    slots = int(at[:, 0].max()) + 1 if len(at) else 0
    boxes = np.empty((slots, 4, len(tasks)), dtype=np.int32)
    boxes[:] = _NO_BOX
    boxes[at[:, 0], :, at[:, 1]] = at[:, 2:]
    return boxes


def _meets(src: np.ndarray, dst: np.ndarray, n_tasks: int) -> np.ndarray:
    # T x T task matrix, True at (i, j) with i < j when some box of i in
    # src meets some box of j in dst; the lower triangle stays False.
    # Each slot holds at most one box per task, so the hits of a slot
    # pair are already task-level and OR straight into the block's rows.
    # ROW_BLOCK source tasks go through the broadcast at a time against
    # every task from the block's first on, so the box-level temporaries
    # stay O(ROW_BLOCK * T) whatever the task count.
    hit_tasks = np.zeros((n_tasks, n_tasks), dtype=bool)
    above = ~np.tri(ROW_BLOCK, dtype=bool)
    for s in range(0, n_tasks, ROW_BLOCK):
        e = min(s + ROW_BLOCK, n_tasks)
        rows = hit_tasks[s:e, s:]
        for a0, a1, a2, a3 in src[:, :, s:e, None]:
            for b0, b1, b2, b3 in dst[:, :, s:]:
                hit = a0 < b1
                hit &= b0 < a1
                hit &= a2 < b3
                hit &= b2 < a3
                rows |= hit
        rows[:, :e - s] &= above[:e - s, :e - s]
    return hit_tasks


def build_dag(tasks: Sequence[TaskNode], m: int, n: int, w: int, b: int,
              form: SvdForm) -> TaskDag:
    """Build the dependency DAG over ``tasks`` in program order.

    Each hazard class becomes one strictly upper ``T x T`` boolean task
    matrix: RAW marks ``(i, j)``, ``i < j``, when a write of ``i`` meets
    a read of ``j``, WAR when a read of ``i`` meets a write of ``j``,
    WAW when two writes meet.  The rectangle tests run over ``ROW_BLOCK``
    source tasks at a time against the tasks after them, so peak memory
    is O(``ROW_BLOCK`` * T + T^2) rather than O(boxes^2); the work grows
    with the largest box count of a task in each role, which is 1 or 2
    for enumerated tasks.  Edges come out of the union in row-major
    order, i.e. sorted by ``(src, dst)``, labelled read-after-write over
    write-after-read over write-after-write when a pair qualifies under
    more than one.
    """
    n_tasks = len(tasks)
    reads = _ranges_to_array(tasks, "reads")
    writes = _ranges_to_array(tasks, "writes")
    raw = _meets(writes, reads, n_tasks)
    war = _meets(reads, writes, n_tasks)
    waw = _meets(writes, writes, n_tasks)
    dep = raw | war
    dep |= waw
    flat = np.flatnonzero(dep)
    src, dst = np.divmod(flat, n_tasks)
    code = np.where(raw.ravel()[flat], 0, np.where(war.ravel()[flat], 1, 2))
    # One Python int per task, shared by all of its edges.
    index = np.arange(n_tasks).astype(object)
    edges = list(zip(index[src].tolist(), index[dst].tolist(),
                     _CAUSES[code].tolist()))
    return TaskDag(list(tasks), edges, m, n, w, b, form)


def essential_adjacency(dag: TaskDag) -> list[list[int]]:
    """Forward adjacency with commuting update/update edges removed.

    A left update and a right update of the same block apply orthogonal
    transforms on opposite sides; the written values differ only in
    which factor is folded in first, and the final matrix is the same.
    Paths used for overlap feasibility must not run through an ordering
    the scheduler is free to flip, so those edges are dropped.  Every
    edge with a panel endpoint stays.
    """
    side = [_SIDE[nd.kind] for nd in dag.nodes]
    adj: list[list[int]] = [[] for _ in dag.nodes]
    for src, dst, _cause in dag.edges:
        if not _COMMUTES[side[src]][side[dst]]:
            adj[src].append(dst)
    return adj


def _reaches(edges: Sequence[tuple[int, int, str]], side: Sequence[int],
             sources: Sequence[int], target: int) -> bool:
    # Whether an essential path (the edges essential_adjacency keeps)
    # leads from a source to target.  edges must be sorted by (src, dst)
    # with src < dst, so only nodes below target can lie on such a path:
    # a node's out-edges are found by bisection and scanned up to target.
    # Each scanned slice checks the order it relies on and raises
    # ValueError where it finds it broken.
    if target in sources:
        return True
    stack = [s for s in sources if s < target]
    seen = set(stack)
    n_edges = len(edges)
    while stack:
        u = stack.pop()
        commutes = _COMMUTES[side[u]]
        k = bisect_left(edges, (u,))
        if k and edges[k - 1][0] >= u:
            raise ValueError(_UNSORTED)
        last = u
        for k in range(k, n_edges):
            s, v, _cause = edges[k]
            if s != u:
                if s < u:
                    raise ValueError(_UNSORTED)
                break
            if v <= last:
                raise ValueError(_UNSORTED)
            if v > target:
                break
            last = v
            if commutes[side[v]]:
                continue
            if v == target:
                return True
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def analyze_overlap(dag: TaskDag, w: int, b: int, form: SvdForm) -> OverlapReport:
    """Decide which look-ahead overlaps the DAG admits in steady state.

    With ``r = w/b``, iteration ``t`` owns the fine updates of blocks
    ``t+1, t+2, ...``; the blocks below ``t+r`` feed the next panel
    factorizations directly and any look-ahead scheme must order them
    first.  The update *tail* is everything from block ``t+r`` on.
    The left overlap at ``t`` runs the tail of left update ``t``
    concurrently with QR panel ``t+1``, so it is feasible iff no
    essential path leads from that tail into the panel.  The right
    overlap is symmetric with LQ panel ``t+1``.

    Exploiting both overlaps in a single schedule additionally requires
    an ordering of the commuting update pairs that serves the two sides
    at once.  The left overlap at ``t+1`` needs everything the QR panel
    ``t+2`` reads finished before the left tail ``t+1`` ends, and the
    right overlap at ``t`` needs everything LQ panel ``t+1`` reads
    finished before the right tail ``t`` ends.  If the first cone
    contains the right tail ``t`` and the second cone contains the left
    tail ``t+1``, each tail must outlive the other and the demands
    cycle; both overlaps are then mutually exclusive even though each
    is feasible on its own.

    ``dag.edges`` must be sorted by ``(src, dst)`` with ``src < dst``,
    as ``build_dag`` returns them; a broken order met in the search
    raises ``ValueError``.
    """
    if w % b != 0:
        raise ValueError("overlap analysis requires w to be a multiple of b")
    if w != dag.w or b != dag.b or form is not dag.form:
        raise ValueError("w, b, form must match the analyzed DAG")
    r = w // b
    nodes = dag.nodes
    iters = 1 + max((t.iteration for t in nodes), default=-1)
    if iters < 4:
        raise ValueError("steady-state analysis needs at least 4 iterations")

    by_iter: dict[int, dict] = {
        t: {"qr": None, "lq": None, "left": {}, "right": {}} for t in range(iters)}
    for i, nd in enumerate(nodes):
        slot = by_iter[nd.iteration]
        if nd.kind is TaskKind.QR_PANEL:
            slot["qr"] = i
        elif nd.kind is TaskKind.LQ_PANEL:
            slot["lq"] = i
        elif nd.kind is TaskKind.LEFT_UPDATE:
            slot["left"][nd.block] = i
        else:
            slot["right"][nd.block] = i

    def tail(t: int, side: str) -> list[int]:
        return [i for j, i in by_iter[t][side].items() if j >= t + r]

    def full_panel(t: int) -> bool:
        qr = by_iter[t]["qr"]
        (_, _), (c0, c1) = nodes[qr].writes[0]
        return c1 - c0 == b

    # Steady iterations: full-width panels, both sides present here and
    # in the two following iterations, and non-empty tails to overlap.
    steady = []
    for t in range(iters - 2):
        if not all(full_panel(t + d) and by_iter[t + d]["lq"] is not None
                   for d in (0, 1, 2)):
            continue
        if tail(t, "left") and tail(t, "right") and tail(t + 1, "left"):
            steady.append(t)
    if not steady:
        raise ValueError("no steady-state iteration in the DAG; "
                         "enumerate more iterations or shrink w")

    side = [_SIDE[nd.kind] for nd in nodes]

    def reaches(sources: list[int], target: int) -> bool:
        return _reaches(dag.edges, side, sources, target)

    left = all(not reaches(tail(t, "left"), by_iter[t + 1]["qr"])
               for t in steady)
    right = all(not reaches(tail(t, "right"), by_iter[t + 1]["lq"])
                for t in steady)
    interlock = any(
        reaches(tail(t + 1, "left"), by_iter[t + 1]["lq"])
        and reaches(tail(t, "right"), by_iter[t + 2]["qr"])
        for t in steady)
    return OverlapReport(left, right, left and right and not interlock,
                         w, b, form, steady)


def to_dot(dag: TaskDag) -> str:
    """Render the DAG in DOT syntax, edges colored by hazard class."""
    color = {"RAW": "black", "WAR": "royalblue", "WAW": "firebrick"}
    shape = {TaskKind.QR_PANEL: "box", TaskKind.LQ_PANEL: "box",
             TaskKind.LEFT_UPDATE: "ellipse", TaskKind.RIGHT_UPDATE: "ellipse"}
    lines = ["digraph tasks {", "  rankdir=LR;"]
    for i, nd in enumerate(dag.nodes):
        lines.append(f'  n{i} [label="{nd.label()}" shape={shape[nd.kind]}];')
    for src, dst, cause in dag.edges:
        lines.append(f'  n{src} -> n{dst} [color={color[cause]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"

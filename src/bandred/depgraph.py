"""Block-range dependency analysis for the band reduction schedules.

The reduction loops are abstracted into a task list at a fixed grain:
one task per panel factorization, and one task per width-``b`` column
block (left) or row block (right) of each trailing update.  Every task
carries the index ranges it reads and writes.  A dependency DAG is then
built from range intersections in program order, and a static analysis
of that DAG answers which look-ahead overlaps are legal for a given
bandwidth/block-size ratio ``w/b``.

``build_dag`` works on task-level hazard matrices: the rectangle tests
between every pair of boxes are reduced, one fixed block of source boxes
at a time, into ``T x T`` boolean matrices (one write/read matrix that
yields RAW and WAR, one write/write matrix for WAW), and the edge list
is read off their strict upper triangle.  Peak memory is therefore
O(``ROW_BLOCK`` * boxes + T^2) and no per-pair Python object exists
before the output list itself.

Two granularities of truth live here:

* ``build_dag`` applies the raw read/write rule verbatim, so the DAG
  also contains edges between left updates and right updates that touch
  the same block.  Those pairs commute algebraically (an orthogonal
  transform from the left and one from the right act on disjoint sides
  of the product), and any schedule is free to reorder them.
* ``analyze_overlap`` therefore drops update/update edges between
  opposite sides before searching for paths.  Panels never commute with
  anything that touches their range, so all panel edges are kept.

The fine update blocks are aligned to the global ``b`` grid, matching
the instrumented range logs produced by ``reduce_band_svd`` with
``range_log``; the acceptance check compares the two sets directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

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


# Side of each task kind for essential_adjacency: 0 for a panel, 1 and 2
# for the two update sides, whose mutual edges commute.
_SIDE = {TaskKind.QR_PANEL: 0, TaskKind.LQ_PANEL: 0,
         TaskKind.LEFT_UPDATE: 1, TaskKind.RIGHT_UPDATE: 2}
# Hazard labels by priority code, as Python str objects for the edge list.
_CAUSES = np.array(("RAW", "WAR", "WAW"), dtype=object)
# Source boxes per broadcast block in build_dag: bounds its box-level
# temporaries at ROW_BLOCK x boxes booleans.
ROW_BLOCK = 256


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
    ``src < dst``, so the graph is acyclic by construction.  When a pair
    is related through several hazard classes only the strongest cause
    is recorded (RAW over WAR over WAW).
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


def _grid_blocks(c0: int, c1: int, b: int) -> list[tuple[int, int, int]]:
    # Split [c0, c1) at global multiples of b; same rule as the
    # instrumented reduction, so ranges stay comparable.
    out = []
    g = c0
    while g < c1:
        nxt = min(c1, (g // b + 1) * b)
        out.append((g // b, g, nxt))
        g = nxt
    return out


def _panel_node(kind: TaskKind, it: int, rows: tuple[int, int],
                cols: tuple[int, int]) -> TaskNode:
    rng = (rows, cols)
    return TaskNode(kind, it, None, (rng,), (rng,))


def _update_nodes(kind: TaskKind, it: int, panel: Range2D,
                  region_rows: tuple[int, int], region_cols: tuple[int, int],
                  b: int) -> list[TaskNode]:
    out = []
    if kind is TaskKind.LEFT_UPDATE:
        for j, g0, g1 in _grid_blocks(*region_cols, b):
            own = (region_rows, (g0, g1))
            out.append(TaskNode(kind, it, j, (panel, own), (own,)))
    else:
        for j, g0, g1 in _grid_blocks(*region_rows, b):
            own = ((g0, g1), region_cols)
            out.append(TaskNode(kind, it, j, (panel, own), (own,)))
    return out


def enumerate_tasks(m: int, n: int, w: int, b: int, form: SvdForm,
                    iters: Optional[int] = None) -> list[TaskNode]:
    """List the reduction's tasks in program order.

    Mirrors the loop structure of the actual reductions exactly: the
    same iteration guard, the same shrinking panel widths near the
    fringe, and the same row split between the right panel and the
    right update.  ``iters`` truncates to the first iterations; by
    default the full reduction is enumerated.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if b < 1 or b > w:
        raise ValueError("block size must satisfy 1 <= b <= w")
    if iters is not None and iters < 1:
        raise ValueError("iters must be at least 1 when given")
    if not isinstance(form, SvdForm):
        raise TypeError("form must be an SvdForm")

    tasks: list[TaskNode] = []
    k = 0
    it = 0
    while iters is None or it < iters:
        if form is SvdForm.TRIANGULAR_BAND:
            if not (m - k >= 2 and k < n):
                break
            bp = min(b, n - k, m - k)
            qr_rows, lshift = (k, m), 0
        else:
            if not (m - k - w >= 2 and k < n):
                break
            bp = min(b, m - k - w, n - k)
            qr_rows, lshift = (k + w, m), w
        tasks.append(_panel_node(TaskKind.QR_PANEL, it, qr_rows, (k, k + bp)))
        if k + bp < n:
            tasks += _update_nodes(
                TaskKind.LEFT_UPDATE, it,
                (qr_rows, (k, k + bp)),
                (k + lshift, m), (k + bp, n), b)
        jr = n - k - w
        if jr >= 1:
            bq = min(bp, jr)
            lq = ((k, k + bq), (k + w, n))
            tasks.append(_panel_node(TaskKind.LQ_PANEL, it, *lq))
            if k + bq < m:
                tasks += _update_nodes(
                    TaskKind.RIGHT_UPDATE, it, lq,
                    (k + bq, m), (k + w, n), b)
        k += bp
        it += 1
    return tasks


def _ranges_to_array(tasks: Sequence[TaskNode], attr: str) -> tuple[np.ndarray, np.ndarray]:
    # Flatten the per-task range tuples into one (r0, r1, c0, c1) array
    # plus the owning task index, for vectorized intersection tests.
    owner = []
    boxes = []
    for i, t in enumerate(tasks):
        for (r0, r1), (c0, c1) in getattr(t, attr):
            owner.append(i)
            boxes.append((r0, r1, c0, c1))
    if not boxes:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.int64)
    return np.asarray(owner, dtype=np.int64), np.asarray(boxes, dtype=np.int64)


def _meets(owner_a: np.ndarray, box_a: np.ndarray, owner_b: np.ndarray,
           box_b: np.ndarray, n_tasks: int) -> np.ndarray:
    # T x T task matrix, True at (i, j) when some box of i (role A)
    # intersects some box of j (role B), in both triangles.  Source boxes
    # go through the broadcast ROW_BLOCK at a time, so the box-level
    # temporaries stay O(ROW_BLOCK * boxes) whatever the task count.
    hit_tasks = np.zeros((n_tasks, n_tasks), dtype=bool)
    bx = box_b[None, :, :]
    for s in range(0, len(owner_a), ROW_BLOCK):
        a = box_a[s:s + ROW_BLOCK, None, :]
        hit = ((a[..., 0] < bx[..., 1]) & (bx[..., 0] < a[..., 1]) &
               (a[..., 2] < bx[..., 3]) & (bx[..., 2] < a[..., 3]))
        ia, ib = np.nonzero(hit)
        hit_tasks[owner_a[s + ia], owner_b[ib]] = True
    return hit_tasks


def build_dag(tasks: Sequence[TaskNode], m: int, n: int, w: int, b: int,
              form: SvdForm) -> TaskDag:
    """Build the dependency DAG over ``tasks`` in program order.

    Each hazard class becomes one ``T x T`` boolean task matrix, of
    which only the strict upper triangle (``i < j``) is kept: RAW marks
    ``(i, j)`` when a write of ``i`` meets a read of ``j``, WAR when a
    read of ``i`` meets a write of ``j``, WAW when two writes meet.  The
    rectangle tests run over ``ROW_BLOCK`` source boxes at a time, so
    peak memory is O(``ROW_BLOCK`` * boxes + T^2) rather than
    O(boxes^2).  Edges come out of the union in row-major order, i.e.
    sorted by ``(src, dst)``, labelled read-after-write over
    write-after-read over write-after-write when a pair qualifies under
    more than one.
    """
    n_tasks = len(tasks)
    rd_own, rd_box = _ranges_to_array(tasks, "reads")
    wr_own, wr_box = _ranges_to_array(tasks, "writes")
    # A read of i meeting a write of j is a write of j meeting a read of
    # i, so one write/read matrix gives RAW (upper) and WAR (transposed).
    write_read = _meets(wr_own, wr_box, rd_own, rd_box, n_tasks)
    raw = np.triu(write_read, 1)
    war = np.triu(write_read.T, 1)
    waw = np.triu(_meets(wr_own, wr_box, wr_own, wr_box, n_tasks), 1)
    src, dst = np.nonzero(raw | war | waw)
    code = np.where(raw[src, dst], 0, np.where(war[src, dst], 1, 2))
    causes = _CAUSES[code].tolist()
    edges = list(zip(src.tolist(), dst.tolist(), causes))
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
        ss, sd = side[src], side[dst]
        if ss and sd and ss != sd:
            continue
        adj[src].append(dst)
    return adj


def _reaches(adj: list[list[int]], sources: Iterable[int], target: int) -> bool:
    seen = [False] * len(adj)
    stack = [s for s in sources if s != target]
    if target in sources:
        return True
    for s in stack:
        seen[s] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v == target:
                return True
            if not seen[v]:
                seen[v] = True
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

    adj = essential_adjacency(dag)
    left = all(not _reaches(adj, tail(t, "left"), by_iter[t + 1]["qr"])
               for t in steady)
    right = all(not _reaches(adj, tail(t, "right"), by_iter[t + 1]["lq"])
                for t in steady)
    interlock = any(
        _reaches(adj, tail(t + 1, "left"), by_iter[t + 1]["lq"])
        and _reaches(adj, tail(t, "right"), by_iter[t + 2]["qr"])
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

"""The iteration skeleton the two reductions share, and the look-ahead planner.

Both reductions are one two-stage scheme: iteration k factors a QR panel
(and, for the SVD, an LQ panel) and applies the factors to the rest of the
matrix. This module holds what their iterations have in common: the
schedule guard (schedule), the panel and apply task factories (panel_task,
apply_task), the size rules of both configs (check_sizes), the rule on b
and w for the look-ahead variants (check_variant), the run loop (run), and
the planner (plan) that turns per-iteration task streams into phases.

A reduction hands the planner a stream per iteration: that iteration's
tasks in Reference order. Panels are the stream's tasks whose reads equal
their writes; products are its tasks that write only buffers, not A or Q.
An update the planner may cut is an Update: its Span and a function that
makes the task for any sub-span. A task body takes each operand through a
span it declares (view), from the reduction's table of arrays ({"A": A,
"Q": Q}, and the iteration's buffers, which buffer adds).

The Reference schedule runs each stream as one phase on the parallel list.
The look-ahead variants factor iteration k+1's panels on the sequential
group while the parallel group runs the rest of iteration k. V1 and V2
differ only in where those panels fall: inside the block update (2b <= w)
or spilling into the trailing update (2b > w). One rule covers both:

  Prologue     a "prologue" phase runs iteration 0's panels; iteration k
               then drops its own panels, which already ran.
  V2 phase 1   under V2, when iteration k has products, the stream prefix
               through the last product is phase iter@k/p1: its other
               tasks (the block updates and Q's application) go on the
               sequential list, the products on the parallel one. The
               rest is iter@k/p2. Otherwise iteration k is one phase,
               iter@k.
  Placement    the sequential list holds the next panels and exactly what
               they read: each update is cut where a next panel's row end
               or column end falls strictly inside it, and the cells that
               meet a next panel's reads go there in column-major order.
               Each next panel, in stream order, follows the pieces of the
               last update it reads, or else the first item's. The rest
               goes to the parallel list in stream order.

An update wholly on one list keeps its id; one on both becomes
<id-base>-head (-head1, -head2, ... when there are several) on the
sequential list and <id-base>-rest (-rest1, -rest2, ...) on the parallel one.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .flops import flop_scope
from .runtime import EventTrace, ExecGroups, PhasePlan, Span, Task, _count, run_phase


@dataclass
class Update:
    """An update of the block at span. make(span, tag) builds the task for
    any sub-span, tag appended to the id base ("" keeps the id)."""

    span: Span
    make: object

    def whole(self):
        return self.make(self.span, "")


def view(arrays, span):
    """The block of arrays[span.target] that span covers."""
    return arrays[span.target][slice(*span.rows), slice(*span.cols)]


def buffer(arrays, name, rows, cols):
    """Add a zeroed rows x cols F-order buffer to arrays as name; return
    its whole span. Its data starts on a 64-byte boundary: np.zeros
    promises 16 bytes, and the compiled symm_lower runs about 15% slower
    on an output off a 32-byte one. The bits do not depend on it."""
    raw = np.zeros(rows * cols + 7)
    start = -raw.ctypes.data % 64 // 8
    arrays[name] = raw[start : start + rows * cols].reshape((rows, cols), order="F")
    return Span(name, (0, rows), (0, cols))


def check_sizes(w, b, **dims):
    """The size rules of both configs: the dims (n, and m), w and b are ints
    (NumPy integers too, bools not), the dims at least 1, and 1 <= b <= w."""
    for name, size in {**dims, "w": w, "b": b}.items():
        _count(name, size)
    if min(dims.values()) < 1 or not 1 <= b <= w:
        raise ValueError(f"need {', '.join(dims)} >= 1 and 1 <= b <= w")


def check_variant(variant, b, w):
    """V1 needs 2b <= w; V2 runs any b <= w but warns when 2b <= w, since
    V1 covers that regime with one phase per iteration instead of two.
    Called from a config's validate, so the warning points at the caller
    of the reduction."""
    if variant.value == "v1" and 2 * b > w:
        raise ValueError(f"V1 requires 2b <= w, got b={b}, w={w}")
    if variant.value == "v2" and 2 * b <= w:
        warnings.warn(
            f"V2 with 2b <= w (b={b}, w={w}) is valid but outside "
            "its intended regime; V1 covers this case",
            RuntimeWarning,
            stacklevel=4,
        )


def schedule(m, n, s, b):
    """The panel width of every iteration of an m x n reduction whose QR
    panels start s rows below the diagonal, keyed by its leading column, in
    order. Panels shrink at the fringe; a one-row remainder is already
    within the band, so it is left alone."""
    widths = {}
    k = 0
    while m - k - s >= 2 and k < n:
        widths[k] = min(b, m - k - s, n - k)
        k += widths[k]
    return widths


def keep_band(A, lower, upper):
    """Zero in place, column by column, every entry of A outside its band:
    keep A[i, j] where -lower <= j - i <= upper. Returns A."""
    for j in range(A.shape[1]):
        A[: max(j - upper, 0), j] = 0.0
        A[j + lower + 1 :, j] = 0.0
    return A


def panel_task(task_id, arrays, span, factor, factors, k):
    """The task that factors the block at span in place with factor
    (qr_panel or lq_panel) and keeps the factors as factors[k]."""

    def fn(workers):
        factors[k] = factor(view(arrays, span))

    return Task(task_id, fn, [span], [span])


def apply_task(task_id, arrays, span, apply, factors, k, panel):
    """The task that applies factors[k] to the block at span in place with
    apply (apply_wy_left or apply_wy_right, with its _sum step bound if
    the caller chooses one). It reads panel, the span whose factorization
    makes factors[k], first (see runtime.Task)."""

    def fn(workers):
        apply(view(arrays, span), factors[k], workers)

    return Task(task_id, fn, [span], [panel, span])


def _task(item):
    return item.whole() if isinstance(item, Update) else item


def _is_panel(item):
    return isinstance(item, Task) and item.reads == item.writes


def _is_product(item):
    return isinstance(item, Task) and all(s.target not in ("A", "Q") for s in item.writes)


def _intervals(span, ends):
    bounds = [span[0], *sorted({e for e in ends if span[0] < e < span[1]}), span[1]]
    return list(zip(bounds, bounds[1:]))


def _reads_any(task, others):
    return any(r.intersects(w) for o in others for w in o.writes for r in task.reads)


def _place(update, reads):
    """update's pieces on the sequential list (the cells reads meet) and on
    the parallel list, each side whole when it takes every cell."""
    box = update.span
    rows = _intervals(box.rows, [r.rows[1] for r in reads])
    cols = _intervals(box.cols, [r.cols[1] for r in reads])
    cells = [Span(box.target, r, c) for c in cols for r in rows]
    sides = ([], [])
    for cell in cells:
        sides[not any(cell.intersects(r) for r in reads)].append(cell)
    pieces = []
    for side, tag in zip(sides, ("-head", "-rest")):
        if side == cells:
            side, tag = [box], ""
        tags = [tag] if len(side) == 1 else [f"{tag}{i + 1}" for i in range(len(side))]
        pieces.append([update.make(cell, t) for cell, t in zip(side, tags)])
    return pieces


def _cut(items, nxt, label):
    """Iteration phase of items with the panels of nxt, the next iteration's
    stream, placed ahead (see the module docstring)."""
    panels = list(filter(_is_panel, nxt))
    reads = [r for p in panels for r in p.reads]
    heads = []  # per item: its pieces on the sequential list
    par = []
    for it in items:
        ahead, rest = _place(it, reads) if isinstance(it, Update) else ([], [it])
        heads.append(ahead)
        par += rest

    heads = heads or [[]]
    after = [[] for _ in heads]
    at = 0
    for panel in panels:
        hits = [i for i, pieces in enumerate(heads) if _reads_any(panel, pieces)]
        at = max(at, hits[-1] if hits else 0)
        after[at].append(panel)
    seq = [t for pieces, placed in zip(heads, after) for t in pieces + placed]
    return PhasePlan(seq, par, label=label)


def plan(stream, ks, lookahead=False, v2=False):
    """Yield the PhasePlans of a run over the leading columns ks.

    stream(k) lists iteration k's Tasks and Updates in Reference order; it
    is called once per iteration, at most one iteration ahead of the phase
    being planned. lookahead=False gives the Reference (or Simultaneous)
    schedule of the streams; lookahead=True gives V1, or V2 when v2 is
    True. Planning runs no task.
    """
    if not lookahead:
        for k in ks:
            yield PhasePlan([], [_task(it) for it in stream(k)], label=f"iter@{k}")
        return
    if not ks:
        return
    cur = stream(ks[0])
    yield PhasePlan([], list(filter(_is_panel, cur)), label="prologue")
    for idx, k in enumerate(ks):
        nxt = stream(ks[idx + 1]) if idx + 1 < len(ks) else []
        items = [it for it in cur if not _is_panel(it)]
        label = f"iter@{k}"
        last = max((i for i, it in enumerate(items) if _is_product(it)), default=None)
        if v2 and last is not None:
            lead = [_task(it) for it in items[: last + 1]]
            items = items[last + 1 :]
            seq = [t for t in lead if not _is_product(t)]
            par = [t for t in lead if _is_product(t)]
            yield PhasePlan(seq, par, label=f"{label}/p1")
            label += "/p2"
        yield _cut(items, nxt, label)
        cur = nxt


def run(phases, groups):
    """Run phases in order on groups (one worker when None) under a fresh
    trace; return the flops they counted."""
    own = groups is None
    if own:
        groups = ExecGroups(1, 0)
    groups.trace = EventTrace()
    try:
        with flop_scope() as counted:
            for phase in phases:
                run_phase(phase, groups)
    finally:
        if own:
            groups.close()
    return counted.snapshot()

"""Reduction of a dense symmetric matrix to symmetric band form.

One iteration (leading column k, bandwidth w, panel width bp) factors the
panel A[k+w:n, k:k+bp] by QR, left-applies the block reflector to the mid
block A[k+w:n, k+bp:k+w], and applies it two-sidedly to the trailing block
A[k+w:n, k+w:n] (lower triangle authoritative) through the four-step
X1/X2/X3 + rank-2k form. Only the lower triangle is touched; the result is
mirrored and off-band entries are zeroed exactly at the end.

An SEVP iteration is the band-form SVD iteration's QR half plus a
symmetric trailing update, so the two reductions share one iteration
skeleton in bandred.lookahead: the schedule guard (at m = n, QR row shift
w), the panel and apply task factories, the V1/V2 rule and the run loop.
Only the X products and the trailing update are this module's own.

Each iteration's tasks, in Reference order, form its stream (_stream);
bandred.lookahead.plan turns the streams into phases for three schedules
over identical task bodies:

  Reference  every stream in order on the full pool.
  V1, V2     the sequential group factors the next panel while the
             parallel group runs the rest of the iteration. The planner's
             one rule places it: the part of each update the panel reads
             runs first on the sequential group. With 2b <= w (V1) the
             panel lies inside the mid block, so the mid block is cut at
             its column end; with 2b > w (V2) it spills into the trailing
             block, so the trailing update is cut there. V2 first runs a
             phase that updates the mid block on the sequential group
             while the parallel group forms X1..X3.

Because every update kernel is bitwise split-stable (see kernels), the three
schedules produce bitwise-identical bands when serialized; with real
concurrency they stay identical because no write of one group of a phase
meets a read or write of the other, by construction and checked at runtime
against every task's declared spans.
"""

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import kernels
from .kernels import apply_wy_left, apply_wy_right, matmul, qr_panel, symm_lower, syr2k_lower
from .lookahead import (Update, apply_task, buffer, check_sizes, check_variant, keep_band,
                        panel_task, plan, run, schedule, view)
from .runtime import Span, Task


class SevpVariant(Enum):
    REFERENCE = "reference"
    V1 = "v1"
    V2 = "v2"


@dataclass
class SevpConfig:
    n: int
    w: int
    b: int
    variant: SevpVariant = SevpVariant.REFERENCE
    accumulate_q: bool = False

    def validate(self):
        if not isinstance(self.variant, SevpVariant):
            raise ValueError(f"variant must be a SevpVariant, got {self.variant!r}")
        check_sizes(self.w, self.b, n=self.n)
        check_variant(self.variant, self.b, self.w)


@dataclass
class SevpResult:
    band: np.ndarray
    q: np.ndarray | None
    flops: dict
    iterations: int


def sevp_nominal_flops(n):
    """Nominal cost of the full reduction: 4n^3/3, independent of w."""
    if n < 0:
        raise ValueError("n >= 0")
    return round(4 * n**3 / 3)


class _State:
    def __init__(self, A, cfg):
        self.n = cfg.n
        self.w = cfg.w
        self.factors = {}
        self.arrays = {"A": A, "Q": np.eye(cfg.n, order="F") if cfg.accumulate_q else None}


# --- the X products and the trailing update, shared verbatim by every schedule


def _x_tasks(state, arrays, k, panel):
    """X1 = sym(A2)*W; X2 = (1/2)X1^T W; X3 = X1 + Y*X2, for the j x bp
    QR panel at span panel, into buffers added to arrays. All three sum in
    compiled C where it loads. Returns the tasks and X3's span."""
    f, j, bp = state.factors, panel.rows[1] - panel.rows[0], panel.cols[1] - panel.cols[0]
    trailing = Span("A", panel.rows, panel.rows)
    x1, x2, x3 = (buffer(arrays, f"X{i}@{k}", r, bp) for i, r in ((1, j), (2, bp), (3, j)))

    def fn1(workers):
        symm_lower(view(arrays, trailing), f[k].w, view(arrays, x1), workers)

    def fn2(workers):
        matmul(0.5, view(arrays, x1).T, f[k].w, 0.0, view(arrays, x2), _sum=kernels._COMPILED_SUM)

    def fn3(workers):
        X3 = view(arrays, x3)
        X3[...] = view(arrays, x1)
        matmul(1.0, f[k].y, view(arrays, x2), 1.0, X3, _sum=kernels._COMPILED_SUM)

    t1 = Task(f"xprod1@{k}", fn1, [x1], [panel, trailing])
    t2 = Task(f"xprod2@{k}", fn2, [x2], [panel, x1])
    t3 = Task(f"xprod3@{k}", fn3, [x3], [panel, x1, x2])
    return (t1, t2, t3), x3


def _syr2k_task(state, arrays, k, x3, panel, cell, tag):
    """The task that adds X3*Y^T + Y*X3^T to the strip of cell's columns
    from the diagonal down; Y's rows are read through panel."""
    span = Span(cell.target, (cell.cols[0], cell.rows[1]), cell.cols)
    c0 = span.cols[0] - panel.rows[0]
    x = Span(x3.target, (c0, x3.rows[1]), x3.cols)

    def fn(workers):
        syr2k_lower(view(arrays, span), view(arrays, x), state.factors[k].y[c0:], workers)

    return Task(f"trail{tag}@{k}", fn, [span], [panel, x, span])


# --- the iteration's task stream -----------------------------------------


def _stream(state, k, bp):
    """Iteration k's tasks in Reference order. A QR panel ends at row n,
    so the planner cuts the trailing update only into column strips, each
    the lower part of its columns. The mid block and Q applications sum in
    compiled C where it loads, like every other task here."""
    n, t, f, arrays = state.n, k + state.w, state.factors, dict(state.arrays)
    left = partial(apply_wy_left, _sum=kernels._COMPILED_SUM)
    right = partial(apply_wy_right, _sum=kernels._COMPILED_SUM)
    panel = Span("A", (t, n), (k, k + bp))
    items = [panel_task(f"qr@{k}", arrays, panel, qr_panel, f, k)]
    if arrays["Q"] is not None:
        q = Span("Q", (0, n), (t, n))
        items.append(apply_task(f"accq@{k}", arrays, q, right, f, k, panel))

    def mid(span, tag):
        return apply_task(f"mid{tag}@{k}", arrays, span, left, f, k, panel)

    if bp < state.w:
        items.append(Update(Span("A", (t, n), (k + bp, t)), mid))
    xt, x3 = _x_tasks(state, arrays, k, panel)
    items.extend(xt)
    trail = partial(_syr2k_task, state, arrays, k, x3, panel)
    items.append(Update(Span("A", (t, n), (t, n)), trail))
    return items


def _finalize(A, w):
    """Cut A to its lower band of width w in place and mirror the band onto
    the upper triangle. Off the diagonal both copies hold x + 0.0, the sum
    with the zeroed upper entry (so a -0.0 turns +0.0); the diagonal keeps
    its bits."""
    keep_band(A, w, 0)
    for j in range(A.shape[1] - 1):
        col = A[j + 1 : j + w + 1, j]
        col += 0.0
        A[j, j + 1 : j + w + 1] = col
    return A


def reduce_sym_band(A, cfg, groups=None):
    """Reduce symmetric A to a symmetric band matrix of bandwidth cfg.w.

    Only A's lower triangle is read; a NaN or Inf in it (which would spread
    through the whole band) or a complex A raises ValueError. Returns the
    band matrix (full storage, off-band exactly zero), the accumulated
    orthogonal factor when cfg.accumulate_q, and the flop counts of this
    run. If n <= w + 1 no iteration runs: the band is the lower triangle
    mirrored and Q the identity.
    """
    cfg.validate()
    if np.iscomplexobj(A):
        raise ValueError("reduce_sym_band needs a real matrix")
    A = np.array(A, dtype=np.float64, order="F")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("reduce_sym_band needs a square matrix")
    if A.shape[0] != cfg.n:
        raise ValueError(f"cfg.n={cfg.n} does not match matrix order {A.shape[0]}")
    if not np.isfinite(A)[np.tri(cfg.n, dtype=bool)].all():
        raise ValueError("reduce_sym_band: the lower triangle holds NaN or Inf")

    widths = schedule(cfg.n, cfg.n, cfg.w, cfg.b)
    state = _State(A, cfg)
    lookahead = cfg.variant is not SevpVariant.REFERENCE
    v2 = cfg.variant is SevpVariant.V2
    phases = plan(lambda k: _stream(state, k, widths[k]), list(widths), lookahead, v2)
    flops = run(phases, groups)
    band = _finalize(A, cfg.w)
    return SevpResult(band=band, q=state.arrays["Q"], flops=flops, iterations=len(widths))

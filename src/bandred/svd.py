"""Reduction of a dense general matrix to triangular-band or band form.

Both forms run one loop over the same task bodies; they differ only in the
QR row shift s. Iteration at leading column k QR-factors the panel
A[k+s:m, k:k+bp], left-applies it to B1 = A[k+s:m, k+bp:k+w] and
D = A[k+s:m, k+w:n], LQ-factors C0 = A[k:k+bq, k+w:n] and right-applies it
to C1 = A[k+bq:k+w, k+w:n] and the rows below, A[k+w:m, k+w:n].

Triangular-band form (s = 0, m >= n): zero lower bandwidth and upper
bandwidth w. It runs the Reference schedule only; its look-ahead is
infeasible for w < 3b, which the dependency analyzer demonstrates instead.

Band form (s = w, m >= n): the QR panel starts w rows down, so the matrix
keeps lower bandwidth w and the left/right panel chains decouple enough for
look-ahead at any block size.

The iteration skeleton is bandred.lookahead's, shared with the symmetric
reduction: the schedule guard, the panel and apply task factories, the
V1/V2 rule and the run loop. Only the Simultaneous Z/X products and the
fused D update are this module's own.

Each iteration's tasks, in Reference order, form its stream (_band_stream);
bandred.lookahead.plan turns the streams into phases. Band-form schedules
over identical task bodies:

  Reference     QR, left(B1), left(D), LQ, right(C1), right(D) in order
                (the triangular-band form's only schedule).
  Simultaneous  the two D applications fused into one pass over D:
                Z_L = D^T W_U, Z_R = D W_V, X = Z_R + Y_U (Z_L^T W_V),
                D += X Y_V^T + Y_U Z_L^T.
  V1, V2        the sequential group factors the next QR and LQ panels
                while the parallel group runs the rest of the iteration.
                The planner's one rule places them: the cells of each
                update the next panels read run first on the sequential
                group. V1 (2b <= w) cuts the Reference stream, where the
                next panels lie inside B1 and C1; V2 (intended for 2b > w)
                cuts the Simultaneous stream, where they spill into D, so D
                is cut 2x2: D21 and D12 run ahead, D11 and D22 on the
                parallel group. V2 first runs a phase that updates B1 and
                C1 on the sequential group while the parallel group forms
                the Z/X products.

Serialized, V1 is bitwise equal to Reference and V2 to Simultaneous (the
splits only repartition split-stable kernels); Reference and Simultaneous
group the D rounding differently and agree to ~1e-15 relative.

m < n inputs are reduced through their transpose and transposed back, with
the bandwidth tags swapped accordingly.
"""

from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from .kernels import apply_wy_left, apply_wy_right, lq_panel, matmul, qr_panel
from .lookahead import (Update, apply_task, buffer, check_sizes, check_variant, keep_band,
                        panel_task, plan, run, schedule, view)
from .runtime import Span, Task


class SvdForm(Enum):
    TRIANGULAR_BAND = "triband"
    BAND = "band"


class SvdVariant(Enum):
    REFERENCE = "reference"
    SIMULTANEOUS = "simultaneous"
    V1 = "v1"
    V2 = "v2"


@dataclass
class SvdConfig:
    m: int
    n: int
    w: int
    b: int
    form: SvdForm = SvdForm.BAND
    variant: SvdVariant = SvdVariant.REFERENCE

    def validate(self):
        if not isinstance(self.form, SvdForm):
            raise ValueError(f"form must be an SvdForm, got {self.form!r}")
        if not isinstance(self.variant, SvdVariant):
            raise ValueError(f"variant must be an SvdVariant, got {self.variant!r}")
        check_sizes(self.w, self.b, m=self.m, n=self.n)
        if self.form == SvdForm.TRIANGULAR_BAND:
            if self.variant != SvdVariant.REFERENCE:
                raise ValueError(
                    "triangular-band form supports only the reference schedule"
                )
        else:
            check_variant(self.variant, self.b, self.w)


@dataclass
class SvdResult:
    band: np.ndarray
    flops: dict
    form: SvdForm
    lower_bw: int
    upper_bw: int
    iterations: int


def svd_nominal_flops(m, n):
    """Nominal cost of the full reduction of an m x n matrix (m >= n):
    4(mn^2 - n^3/3)."""
    if n < 0 or m < n:
        raise ValueError("need m >= n >= 0")
    return round(4 * (m * n * n - n**3 / 3))


class _BandState:
    def __init__(self, A, cfg):
        self.arrays = {"A": A}  # the reduction's table, which each stream copies
        self.m = cfg.m
        self.n = cfg.n
        self.w = cfg.w
        # QR row shift: the band form's panel starts w rows down
        self.s = cfg.w if cfg.form is SvdForm.BAND else 0
        self.fu = {}
        self.fv = {}


# --- the Simultaneous products and D update -------------------------------


def _fused_tasks(state, arrays, k, qr, lq):
    """Z_L = D^T W_U, Z_R = D W_V, X = Z_R + Y_U (Z_L^T W_V), into buffers
    added to arrays; both Z products read D before any write to it (the
    whole point of the fused update). qr and lq are iteration k's panel
    spans. Band form only. Returns the tasks and the spans of Z_L and X."""
    m, n, w = state.m, state.n, state.w
    i, jr, bp, bq = m - k - w, n - k - w, qr.cols[1] - k, lq.rows[1] - k
    D = Span("A", (k + w, m), (k + w, n))
    zl, zr, x = (buffer(arrays, f"{z}@{k}", *dims) for z, dims in
                 (("ZL", (jr, bp)), ("ZR", (i, bq)), ("X", (i, bq))))

    def fzl(workers):
        matmul(1.0, view(arrays, D).T, state.fu[k].w, 0.0, view(arrays, zl), workers)

    def fzr(workers):
        matmul(1.0, view(arrays, D), state.fv[k].w, 0.0, view(arrays, zr), workers)

    def fx(workers):
        tmp = np.zeros((bp, bq), order="F")
        matmul(1.0, view(arrays, zl).T, state.fv[k].w, 0.0, tmp)
        X = view(arrays, x)
        X[...] = view(arrays, zr)
        matmul(1.0, state.fu[k].y, tmp, 1.0, X)

    t1 = Task(f"zleft@{k}", fzl, [zl], [qr, D])
    t2 = Task(f"zright@{k}", fzr, [zr], [lq, D])
    t3 = Task(f"xprod@{k}", fx, [x], [qr, lq, zl, zr])
    return (t1, t2, t3), (zl, x)


def _dsub_task(state, arrays, k, zl, x, qr, lq, span, tag):
    """D's block at span += X Y_V^T + Y_U Z_L^T. The two products run in
    this fixed order for every sub-block, so any 2x2 split of D is bitwise
    identical to one full-D pass. The factor rows are read through qr and
    lq."""
    r0, r1, c0, c1 = (e - k - state.w for e in (*span.rows, *span.cols))
    xs = Span(x.target, (r0, r1), x.cols)
    zls = Span(zl.target, (c0, c1), zl.cols)

    def fn(workers):
        Dv = view(arrays, span)
        matmul(1.0, view(arrays, xs), state.fv[k].y[c0:c1, :].T, 1.0, Dv, workers)
        matmul(1.0, state.fu[k].y[r0:r1, :], view(arrays, zls).T, 1.0, Dv, workers)

    return Task(f"dsub-d{tag}@{k}", fn, [span], [qr, lq, xs, zls, span])


# --- the iteration's task stream ------------------------------------------


def _band_stream(state, k, bp, fused):
    """Iteration k's tasks in Reference order, its QR panel bp wide: the two
    D applications one after the other, or fused into one pass
    (Simultaneous)."""
    m, n, w, s, fu, fv = state.m, state.n, state.w, state.s, state.fu, state.fv
    arrays = dict(state.arrays)
    jr = n - k - w
    qr = Span("A", (k + s, m), (k, k + bp))

    def update(rows, cols, name, apply, factors, panel):
        def make(span, tag):
            return apply_task(f"{name}{tag}@{k}", arrays, span, apply, factors, k, panel)

        return Update(Span("A", rows, cols), make)

    items = [panel_task(f"qr@{k}", arrays, qr, qr_panel, fu, k)]
    b1end = min(k + w, n)
    if k + bp < b1end:
        items.append(update((k + s, m), (k + bp, b1end), "left-b1", apply_wy_left, fu, qr))
    if jr < 1:
        return items
    bq = min(bp, jr)
    lq = Span("A", (k, k + bq), (k + w, n))
    if not fused:
        items.append(update((k + s, m), (k + w, n), "left-d", apply_wy_left, fu, qr))
    items.append(panel_task(f"lq@{k}", arrays, lq, lq_panel, fv, k))
    if bq < w:
        items.append(update((k + bq, k + w), (k + w, n), "right-c1", apply_wy_right, fv, lq))
    if not fused:
        items.append(update((k + w, m), (k + w, n), "right-d", apply_wy_right, fv, lq))
    else:
        products, (zl, x) = _fused_tasks(state, arrays, k, qr, lq)
        dsub = partial(_dsub_task, state, arrays, k, zl, x, qr, lq)
        items += [*products, Update(Span("A", (k + w, m), (k + w, n)), dsub)]
    return items


def reduce_band_svd(A, cfg, groups=None):
    """Reduce A (cfg.m x cfg.n) to the form cfg selects: equal-bandwidth band
    (|i-j| <= w) or, with cfg.form = TRIANGULAR_BAND, upper triangular-band
    (0 <= j-i <= w). In band form with m <= w + 1 nothing is off-band, no
    iteration runs and the band is the input. m < n reduces the transpose
    (see module docstring). A NaN or Inf anywhere in A raises ValueError, and
    so does a complex A.
    """
    cfg.validate()
    if np.iscomplexobj(A):
        raise ValueError("reduce_band_svd needs a real matrix")
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("reduce_band_svd needs a 2-D matrix")
    if A.shape != (cfg.m, cfg.n):
        raise ValueError(
            f"cfg says {cfg.m} x {cfg.n} but the matrix is {A.shape[0]} x {A.shape[1]}"
        )
    if not np.isfinite(A).all():
        raise ValueError("reduce_band_svd: the matrix holds NaN or Inf")
    wide = cfg.m < cfg.n
    if wide:
        A, cfg = A.T, replace(cfg, m=cfg.n, n=cfg.m)
    A = np.array(A, order="F")  # the private copy reduced in place

    bws = (0, cfg.w) if cfg.form is SvdForm.TRIANGULAR_BAND else (cfg.w, cfg.w)
    state = _BandState(A, cfg)
    widths = schedule(cfg.m, cfg.n, state.s, cfg.b)
    fused = cfg.variant in (SvdVariant.SIMULTANEOUS, SvdVariant.V2)
    lookahead = cfg.variant in (SvdVariant.V1, SvdVariant.V2)
    v2 = cfg.variant is SvdVariant.V2
    phases = plan(lambda k: _band_stream(state, k, widths[k], fused), list(widths), lookahead, v2)
    flops = run(phases, groups)
    keep_band(A, *bws)
    if wide:
        return SvdResult(np.asfortranarray(A.T), flops, cfg.form, *bws[::-1], len(widths))
    return SvdResult(A, flops, cfg.form, *bws, len(widths))


def reduce_tri_band(A, w, b, groups=None):
    """Reduce A to upper triangular-band form: band[i,j] = 0 for i > j and
    for j > i + w. Runs the Reference schedule with QR row shift 0 on
    groups (one worker if None). For m < n the transpose is reduced, giving
    the lower triangular-band transposed form (bandwidth tags record which).
    A NaN or Inf anywhere in A raises ValueError.
    """
    if np.ndim(A) != 2:
        raise ValueError("reduce_tri_band needs a 2-D matrix")
    cfg = SvdConfig(*np.shape(A), w, b, form=SvdForm.TRIANGULAR_BAND)
    return reduce_band_svd(A, cfg, groups)

"""Reduction of a dense general matrix to triangular-band or band form.

Triangular-band form (m >= n): iteration at leading column k QR-factors
B = A[k:m, k:k+bp], left-applies it to E = A[k:m, k+bp:n], then (while
columns remain right of the band) LQ-factors C = A[k:k+bq, k+w:n] and
right-applies it to the rows below, leaving zero lower bandwidth and upper
bandwidth w. Strictly sequential; its look-ahead is infeasible for w < 3b,
which the dependency analyzer demonstrates instead.

Band form (m >= n): the QR panel starts w rows down, B0 = A[k+w:m, k:k+bp],
so the matrix keeps lower bandwidth w and the left/right panel chains
decouple enough for look-ahead at any block size. Per iteration: left-apply
to B1 = A[k+w:m, k+bp:k+w] and D = A[k+w:m, k+w:n]; LQ C0 = A[k:k+bq, k+w:n];
right-apply to C1 = A[k+bq:k+w, k+w:n] and D.

Band-form schedules over identical task bodies:

  Reference     QR, left(B1), left(D), LQ, right(C1), right(D) in order.
  Simultaneous  the two D applications fused into one pass over D:
                Z_L = D^T W_U, Z_R = D W_V, X = Z_R + Y_U (Z_L^T W_V),
                D += X Y_V^T + Y_U Z_L^T.
  V1            (2b <= w) next panels lie inside B1/C1: the sequential group
                updates B1's and C1's leading slices and factors both next
                panels while the parallel group does the rest (D updated the
                Reference way, left then right).
  V2            (intended 2b > w) Simultaneous baseline: next panels spill
                into D, so after phase 1 (B1, C1, Z/X products) the D update
                is split 2x2 at the spill boundaries; the sequential group
                updates D11, D21, D12 and factors the next panels while the
                parallel group updates the large D22.

Serialized, V1 is bitwise equal to Reference and V2 to Simultaneous (the
splits only repartition split-stable kernels); Reference and Simultaneous
group the D rounding differently and agree to ~1e-15 relative.

m < n inputs are reduced through their transpose and transposed back, with
the bandwidth tags swapped accordingly.

Passing a range_log list to a Reference-schedule reduction records every
panel and fine-grained update with its read/write index ranges (updates
split at the global b-grid; requires w % b == 0). The instrumented run is
bitwise identical to the plain one, and the logged ranges are what the
dependency analyzer must reproduce symbolically.
"""

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .flops import flop_scope
from .kernels import apply_wy_left, apply_wy_right, lq_panel, matmul, qr_panel
from .runtime import ExecGroups, PhasePlan, Span, Task, run_phase
from .sevp import V2Mapping


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
    v2_mapping: V2Mapping = V2Mapping.ON_TS
    inner_b: int = 16

    def validate(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m, n >= 1")
        if self.w < 1:
            raise ValueError("w >= 1")
        if not (1 <= self.b <= self.w):
            raise ValueError("need 1 <= b <= w")
        if self.form == SvdForm.TRIANGULAR_BAND:
            if self.variant != SvdVariant.REFERENCE:
                raise ValueError(
                    "triangular-band form supports only the reference schedule"
                )
        elif self.variant == SvdVariant.V1 and 2 * self.b > self.w:
            raise ValueError(f"V1 requires 2b <= w, got b={self.b}, w={self.w}")
        elif self.variant == SvdVariant.V2 and 2 * self.b <= self.w:
            warnings.warn(
                f"V2 with 2b <= w (b={self.b}, w={self.w}) is valid but outside "
                "its intended regime; V1 covers this case",
                RuntimeWarning,
                stacklevel=3,
            )


@dataclass
class SvdResult:
    band: np.ndarray
    flops: dict
    form: SvdForm
    lower_bw: int
    upper_bw: int
    iterations: int


@dataclass(frozen=True)
class RangeRecord:
    """One instrumented operation: panels carry block=None; fine updates
    carry the global b-grid block index they write. Ranges are half-open
    ((r0, r1), (c0, c1)) index pairs."""

    kind: str  # qr_panel | lq_panel | left_update | right_update
    iteration: int
    block: int | None
    reads: tuple
    writes: tuple


def svd_nominal_flops(m, n):
    """Nominal cost of the full reduction of an m x n matrix (m >= n):
    4(mn^2 - n^3/3)."""
    if n < 0 or m < n:
        raise ValueError("need m >= n >= 0")
    return round(4 * (m * n * n - n**3 / 3))


def _grid_blocks(c0, c1, b):
    """Split [c0, c1) at the global multiples of b: (block index, g0, g1)."""
    out = []
    j = c0 // b
    while j * b < c1:
        g0 = max(c0, j * b)
        g1 = min(c1, (j + 1) * b)
        if g0 < g1:
            out.append((j, g0, g1))
        j += 1
    return out


def _left_region(A, fu, rows, cols, b, it, rlog, panel_range):
    r0, r1 = rows
    c0, c1 = cols
    if r0 >= r1 or c0 >= c1:
        return
    if rlog is None:
        apply_wy_left(A[r0:r1, c0:c1], fu)
        return
    for j, g0, g1 in _grid_blocks(c0, c1, b):
        apply_wy_left(A[r0:r1, g0:g1], fu)
        own = ((r0, r1), (g0, g1))
        rlog.append(RangeRecord("left_update", it, j, (panel_range, own), (own,)))


def _right_region(A, fv, rows, cols, b, it, rlog, panel_range):
    r0, r1 = rows
    c0, c1 = cols
    if r0 >= r1 or c0 >= c1:
        return
    if rlog is None:
        apply_wy_right(A[r0:r1, c0:c1], fv)
        return
    for j, g0, g1 in _grid_blocks(r0, r1, b):
        apply_wy_right(A[g0:g1, c0:c1], fv)
        own = ((g0, g1), (c0, c1))
        rlog.append(RangeRecord("right_update", it, j, (panel_range, own), (own,)))


# --- triangular-band form (sequential) ------------------------------------


def _reduce_tri_core(A, w, b, inner_b, rlog):
    m, n = A.shape
    k = 0
    it = 0
    while m - k >= 2 and k < n:
        bp = min(b, n - k, m - k)
        fu = qr_panel(A[k:m, k : k + bp], inner_b)
        if rlog is not None:
            pr = ((k, m), (k, k + bp))
            rlog.append(RangeRecord("qr_panel", it, None, (pr,), (pr,)))
        else:
            pr = None
        _left_region(A, fu, (k, m), (k + bp, n), b, it, rlog, pr)
        jr = n - k - w
        if jr >= 1:
            bq = min(bp, jr)
            fv = lq_panel(A[k : k + bq, k + w : n], inner_b)
            if rlog is not None:
                pr = ((k, k + bq), (k + w, n))
                rlog.append(RangeRecord("lq_panel", it, None, (pr,), (pr,)))
            _right_region(A, fv, (k + bq, m), (k + w, n), b, it, rlog, pr)
        k += bp
        it += 1
    return it


def reduce_tri_band(A, w, b, groups=None, range_log=None, inner_b=16):
    """Reduce A to upper triangular-band form: band[i,j] = 0 for i > j and
    for j > i + w. Sequential by design (groups is accepted for interface
    symmetry and ignored). For m < n the transpose is reduced, giving the
    lower triangular-band transposed form (bandwidth tags record which).
    A NaN or Inf anywhere in A raises ValueError.
    """
    if w < 1:
        raise ValueError("w >= 1")
    if not (1 <= b <= w):
        raise ValueError("need 1 <= b <= w")
    A = np.array(A, dtype=np.float64, order="F")
    if A.ndim != 2:
        raise ValueError("reduce_tri_band needs a 2-D matrix")
    if not np.isfinite(A).all():
        raise ValueError("reduce_tri_band: the matrix holds NaN or Inf")
    if range_log is not None and w % b != 0:
        raise ValueError("range logging requires w to be a multiple of b")
    m, n = A.shape
    if m < n:
        inner = reduce_tri_band(
            np.asfortranarray(A.T), w, b, groups, range_log, inner_b
        )
        return SvdResult(
            band=np.asfortranarray(inner.band.T),
            flops=inner.flops,
            form=SvdForm.TRIANGULAR_BAND,
            lower_bw=w,
            upper_bw=0,
            iterations=inner.iterations,
        )
    with flop_scope() as counted:
        iters = _reduce_tri_core(A, w, b, inner_b, range_log)
    flops = counted.snapshot()
    i = np.arange(m)[:, None]
    jj = np.arange(n)[None, :]
    A[(i > jj) | (jj > i + w)] = 0.0
    return SvdResult(
        band=A,
        flops=flops,
        form=SvdForm.TRIANGULAR_BAND,
        lower_bw=0,
        upper_bw=w,
        iterations=iters,
    )


# --- band form ------------------------------------------------------------


class _BandState:
    def __init__(self, A, cfg):
        self.A = A
        self.m = cfg.m
        self.n = cfg.n
        self.w = cfg.w
        self.b = cfg.b
        self.inner_b = cfg.inner_b
        self.fu = {}
        self.fv = {}


def _band_schedule(m, n, w, b):
    ks = []
    k = 0
    while m - k - w >= 2 and k < n:
        ks.append(k)
        k += min(b, m - k - w, n - k)
    return ks


def _band_geom(state, k):
    bp = min(state.b, state.m - k - state.w, state.n - k)
    jr = state.n - k - state.w
    bq = min(bp, jr) if jr >= 1 else 0
    return bp, jr, bq


def _qr0_task(state, k, bp):
    m, w = state.m, state.w

    def fn(workers):
        state.fu[k] = qr_panel(state.A[k + w : m, k : k + bp], state.inner_b)

    return Task(f"qr@{k}", fn, [Span("A", (k + w, m), (k, k + bp))])


def _lq0_task(state, k, bq):
    n, w = state.n, state.w

    def fn(workers):
        state.fv[k] = lq_panel(state.A[k : k + bq, k + w : n], state.inner_b)

    return Task(f"lq@{k}", fn, [Span("A", (k, k + bq), (k + w, n))])


def _left_task(state, k, c0, c1, tag):
    m, w = state.m, state.w

    def fn(workers):
        apply_wy_left(state.A[k + w : m, c0:c1], state.fu[k], workers)

    return Task(f"left{tag}@{k}", fn, [Span("A", (k + w, m), (c0, c1))])


def _right_task(state, k, r0, r1, tag):
    n, w = state.n, state.w

    def fn(workers):
        apply_wy_right(state.A[r0:r1, k + w : n], state.fv[k], workers)

    return Task(f"right{tag}@{k}", fn, [Span("A", (r0, r1), (k + w, n))])


def _fused_tasks(state, k, bp, jr, bq):
    """Z_L = D^T W_U, Z_R = D W_V, X = Z_R + Y_U (Z_L^T W_V); both Z products
    read D before any write to it (the whole point of the fused update)."""
    m, n, w = state.m, state.n, state.w
    i = m - k - w
    ZL = np.zeros((jr, bp), order="F")
    ZR = np.zeros((i, bq), order="F")
    X = np.zeros((i, bq), order="F")

    def fzl(workers):
        matmul(1.0, state.A[k + w : m, k + w : n].T, state.fu[k].w, 0.0, ZL, workers)

    def fzr(workers):
        matmul(1.0, state.A[k + w : m, k + w : n], state.fv[k].w, 0.0, ZR, workers)

    def fx(workers):
        tmp = np.zeros((bp, bq), order="F")
        matmul(1.0, ZL.T, state.fv[k].w, 0.0, tmp)
        X[...] = ZR
        matmul(1.0, state.fu[k].y, tmp, 1.0, X)

    t1 = Task(f"zleft@{k}", fzl, [Span(f"ZL@{k}", (0, jr), (0, bp))])
    t2 = Task(f"zright@{k}", fzr, [Span(f"ZR@{k}", (0, i), (0, bq))])
    t3 = Task(f"xprod@{k}", fx, [Span(f"X@{k}", (0, i), (0, bq))])
    return (t1, t2, t3), (ZL, X)


def _dsub_task(state, k, ZL, X, r0, r1, c0, c1, tag):
    """D[r0:r1, c0:c1] += X Y_V^T + Y_U Z_L^T (D-local indices). The two
    products run in this fixed order for every sub-block, so any 2x2 split
    of D is bitwise identical to one full-D pass."""
    w = state.w

    def fn(workers):
        Dv = state.A[k + w + r0 : k + w + r1, k + w + c0 : k + w + c1]
        matmul(1.0, X[r0:r1, :], state.fv[k].y[c0:c1, :].T, 1.0, Dv, workers)
        matmul(1.0, state.fu[k].y[r0:r1, :], ZL[c0:c1, :].T, 1.0, Dv, workers)

    span = Span("A", (k + w + r0, k + w + r1), (k + w + c0, k + w + c1))
    return Task(f"dsub{tag}@{k}", fn, [span])


def _run_band_reference(state, groups, ks):
    m, n, w = state.m, state.n, state.w
    for k in ks:
        bp, jr, bq = _band_geom(state, k)
        tasks = [_qr0_task(state, k, bp)]
        b1end = min(k + w, n)
        if k + bp < b1end:
            tasks.append(_left_task(state, k, k + bp, b1end, "-b1"))
        if jr >= 1:
            tasks.append(_left_task(state, k, k + w, n, "-d"))
            tasks.append(_lq0_task(state, k, bq))
            if k + bq < k + w:
                tasks.append(_right_task(state, k, k + bq, k + w, "-c1"))
            tasks.append(_right_task(state, k, k + w, m, "-d"))
        run_phase(PhasePlan([], tasks, label=f"iter@{k}"), groups)


def _run_band_simultaneous(state, groups, ks):
    m, n, w = state.m, state.n, state.w
    for k in ks:
        bp, jr, bq = _band_geom(state, k)
        tasks = [_qr0_task(state, k, bp)]
        b1end = min(k + w, n)
        if k + bp < b1end:
            tasks.append(_left_task(state, k, k + bp, b1end, "-b1"))
        if jr >= 1:
            tasks.append(_lq0_task(state, k, bq))
            if k + bq < k + w:
                tasks.append(_right_task(state, k, k + bq, k + w, "-c1"))
            fused, (ZL, X) = _fused_tasks(state, k, bp, jr, bq)
            tasks.extend(fused)
            tasks.append(_dsub_task(state, k, ZL, X, 0, m - k - w, 0, jr, "-d"))
        run_phase(PhasePlan([], tasks, label=f"iter@{k}"), groups)


def _run_band_v1(state, groups, ks):
    m, n, w = state.m, state.n, state.w
    k0 = ks[0]
    bp0, jr0, bq0 = _band_geom(state, k0)
    pro = [_qr0_task(state, k0, bp0)]
    if jr0 >= 1:
        pro.append(_lq0_task(state, k0, bq0))
    run_phase(PhasePlan([], pro, label="prologue"), groups)
    for idx, k in enumerate(ks):
        bp, jr, bq = _band_geom(state, k)
        kn = ks[idx + 1] if idx + 1 < len(ks) else None
        seq = []
        par = []
        b1end = min(k + w, n)
        if kn is not None:
            # next panels sit inside B1/C1 (2b <= w): sequential group brings
            # their slices up to date and factors ahead
            bpn, jrn, bqn = _band_geom(state, kn)
            seq.append(_left_task(state, k, kn, kn + bpn, "-b1head"))
            seq.append(_qr0_task(state, kn, bpn))
            if kn + bpn < b1end:
                par.append(_left_task(state, k, kn + bpn, b1end, "-b1rest"))
        elif k + bp < b1end:
            par.append(_left_task(state, k, k + bp, b1end, "-b1"))
        if jr >= 1:
            par.append(_left_task(state, k, k + w, n, "-d"))
            if kn is not None and jrn >= 1:
                seq.append(_right_task(state, k, kn, kn + bqn, "-c1head"))
                seq.append(_lq0_task(state, kn, bqn))
                if kn + bqn < k + w:
                    par.append(_right_task(state, k, kn + bqn, k + w, "-c1rest"))
            elif k + bq < k + w:
                par.append(_right_task(state, k, k + bq, k + w, "-c1"))
            par.append(_right_task(state, k, k + w, m, "-d"))
        run_phase(PhasePlan(seq, par, label=f"iter@{k}"), groups)


def _run_band_v2(state, cfg, groups, ks):
    m, n, w = state.m, state.n, state.w
    k0 = ks[0]
    bp0, jr0, bq0 = _band_geom(state, k0)
    pro = [_qr0_task(state, k0, bp0)]
    if jr0 >= 1:
        pro.append(_lq0_task(state, k0, bq0))
    run_phase(PhasePlan([], pro, label="prologue"), groups)
    for idx, k in enumerate(ks):
        bp, jr, bq = _band_geom(state, k)
        i = m - k - w
        kn = ks[idx + 1] if idx + 1 < len(ks) else None
        bpn = jrn = bqn = 0
        if kn is not None:
            bpn, jrn, bqn = _band_geom(state, kn)
        b1end = min(k + w, n)

        if jr < 1:
            # no columns right of the band: left-only tail, single phase
            seq = []
            par = []
            if kn is not None:
                seq.append(_left_task(state, k, kn, kn + bpn, "-b1head"))
                seq.append(_qr0_task(state, kn, bpn))
                if kn + bpn < b1end:
                    par.append(_left_task(state, k, kn + bpn, b1end, "-b1rest"))
            elif k + bp < b1end:
                par.append(_left_task(state, k, k + bp, b1end, "-b1"))
            run_phase(PhasePlan(seq, par, label=f"iter@{k}"), groups)
            continue

        lead = []
        if k + bp < b1end:
            lead.append(_left_task(state, k, k + bp, b1end, "-b1"))
        if k + bq < k + w:
            lead.append(_right_task(state, k, k + bq, k + w, "-c1"))
        fused, (ZL, X) = _fused_tasks(state, k, bp, jr, bq)
        if cfg.v2_mapping == V2Mapping.ON_TS and lead:
            run_phase(PhasePlan(lead, list(fused), label=f"iter@{k}/p1"), groups)
        else:
            run_phase(PhasePlan([], lead + list(fused), label=f"iter@{k}/p1"), groups)

        # phase 2: next QR panel spills into D's leading splitc columns and
        # next LQ panel into its leading splitr rows; those slices plus the
        # panel factorizations run sequentially, the big D22 in parallel
        splitc = max(0, bp + bpn - w) if kn is not None else 0
        splitr = max(0, bp + bqn - w) if (kn is not None and jrn >= 1) else 0
        seq = []
        par = []
        if splitr > 0 and splitc > 0:
            seq.append(_dsub_task(state, k, ZL, X, 0, splitr, 0, splitc, "-d11"))
        if splitc > 0 and splitr < i:
            seq.append(_dsub_task(state, k, ZL, X, splitr, i, 0, splitc, "-d21"))
        if splitr > 0 and splitc < jr:
            seq.append(_dsub_task(state, k, ZL, X, 0, splitr, splitc, jr, "-d12"))
        if kn is not None:
            seq.append(_qr0_task(state, kn, bpn))
            if jrn >= 1:
                seq.append(_lq0_task(state, kn, bqn))
        if splitr < i and splitc < jr:
            par.append(_dsub_task(state, k, ZL, X, splitr, i, splitc, jr, "-d22"))
        run_phase(PhasePlan(seq, par, label=f"iter@{k}/p2"), groups)


def _run_band_instrumented(state, ks, rlog):
    """Reference schedule with the left/right update regions split at the
    global b-grid and every operation's ranges logged. Bitwise identical to
    the plain reference run (the splits are on split-stable kernels)."""
    m, n, w, b = state.m, state.n, state.w, state.b
    for it, k in enumerate(ks):
        bp, jr, bq = _band_geom(state, k)
        fu = qr_panel(state.A[k + w : m, k : k + bp], state.inner_b)
        state.fu[k] = fu
        pr = ((k + w, m), (k, k + bp))
        rlog.append(RangeRecord("qr_panel", it, None, (pr,), (pr,)))
        _left_region(state.A, fu, (k + w, m), (k + bp, n), b, it, rlog, pr)
        if jr >= 1:
            fv = lq_panel(state.A[k : k + bq, k + w : n], state.inner_b)
            state.fv[k] = fv
            pr = ((k, k + bq), (k + w, n))
            rlog.append(RangeRecord("lq_panel", it, None, (pr,), (pr,)))
            _right_region(state.A, fv, (k + bq, m), (k + w, n), b, it, rlog, pr)


def reduce_band_svd(A, cfg, groups=None, range_log=None):
    """Reduce A (cfg.m x cfg.n) to the form cfg selects: equal-bandwidth band
    (|i-j| <= w) or, with cfg.form = TRIANGULAR_BAND, the sequential
    triangular-band reduction. If m <= w + 1 nothing is off-band and the
    input is returned unchanged. m < n reduces the transpose (see module
    docstring). range_log is only meaningful for the Reference schedule.
    A NaN or Inf anywhere in A raises ValueError.
    """
    cfg.validate()
    A = np.array(A, dtype=np.float64, order="F")
    if A.ndim != 2:
        raise ValueError("reduce_band_svd needs a 2-D matrix")
    if A.shape != (cfg.m, cfg.n):
        raise ValueError(
            f"cfg says {cfg.m} x {cfg.n} but the matrix is {A.shape[0]} x {A.shape[1]}"
        )
    if not np.isfinite(A).all():
        raise ValueError("reduce_band_svd: the matrix holds NaN or Inf")
    if cfg.m < cfg.n:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # already warned once
            tcfg = SvdConfig(
                m=cfg.n,
                n=cfg.m,
                w=cfg.w,
                b=cfg.b,
                form=cfg.form,
                variant=cfg.variant,
                v2_mapping=cfg.v2_mapping,
                inner_b=cfg.inner_b,
            )
            inner = reduce_band_svd(np.asfortranarray(A.T), tcfg, groups, range_log)
        return SvdResult(
            band=np.asfortranarray(inner.band.T),
            flops=inner.flops,
            form=cfg.form,
            lower_bw=inner.upper_bw,
            upper_bw=inner.lower_bw,
            iterations=inner.iterations,
        )
    if cfg.form == SvdForm.TRIANGULAR_BAND:
        return reduce_tri_band(A, cfg.w, cfg.b, groups, range_log, cfg.inner_b)

    if range_log is not None:
        if cfg.variant != SvdVariant.REFERENCE:
            raise ValueError("range logging is defined for the reference schedule")
        if cfg.w % cfg.b != 0:
            raise ValueError("range logging requires w to be a multiple of b")

    ks = _band_schedule(cfg.m, cfg.n, cfg.w, cfg.b)
    if not ks:
        return SvdResult(A, {"total": 0}, SvdForm.BAND, cfg.w, cfg.w, 0)
    state = _BandState(A, cfg)
    own = range_log is None and groups is None
    if own:
        groups = ExecGroups(1, 0)
    try:
        with flop_scope() as counted:
            if range_log is not None:
                _run_band_instrumented(state, ks, range_log)
            elif cfg.variant == SvdVariant.REFERENCE:
                _run_band_reference(state, groups, ks)
            elif cfg.variant == SvdVariant.SIMULTANEOUS:
                _run_band_simultaneous(state, groups, ks)
            elif cfg.variant == SvdVariant.V1:
                _run_band_v1(state, groups, ks)
            else:
                _run_band_v2(state, cfg, groups, ks)
    finally:
        if own:
            groups.close()
    flops = counted.snapshot()
    i = np.arange(cfg.m)[:, None]
    jj = np.arange(cfg.n)[None, :]
    A[np.abs(i - jj) > cfg.w] = 0.0
    return SvdResult(A, flops, SvdForm.BAND, cfg.w, cfg.w, len(ks))

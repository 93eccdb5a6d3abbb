"""Reduction of a dense symmetric matrix to symmetric band form.

One iteration (leading column k, bandwidth w, panel width bp) factors the
panel A[k+w:n, k:k+bp] by QR, left-applies the block reflector to the mid
block A[k+w:n, k+bp:k+w], and applies it two-sidedly to the trailing block
A[k+w:n, k+w:n] (lower triangle authoritative) through the four-step
X1/X2/X3 + rank-2k form. Only the lower triangle is touched; the result is
mirrored and off-band entries are zeroed exactly at the end.

Three schedules over identical task bodies:

  Reference  everything in program order on the full pool.
  V1         (needs 2b <= w) the next panel lies inside the mid block, so
             the sequential group updates the mid block's leading columns
             and factors the next panel while the parallel group does the
             rest of the mid block and the whole trailing update.
  V2         (any b <= w, intended for 2b > w) the next panel spills into
             the trailing block: phase 1 updates the mid block and forms
             X1..X3; phase 2 lets the sequential group update the spilled-
             into leading trailing columns and factor the next panel while
             the parallel group updates the remaining trailing columns.

Because every update kernel is bitwise split-stable (see kernels), the three
schedules produce bitwise-identical bands when serialized; with real
concurrency they stay identical because no write of one group of a phase
meets a read or write of the other, by construction and checked at runtime
against every task's declared spans.
"""

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .flops import flop_scope
from .kernels import apply_wy_left, apply_wy_right, matmul, qr_panel, symm_lower, syr2k_lower
from .runtime import EventTrace, ExecGroups, PhasePlan, Span, Task, run_phase


class SevpVariant(Enum):
    REFERENCE = "reference"
    V1 = "v1"
    V2 = "v2"


class V2Mapping(Enum):
    """Placement of V2's phase-1 block updates (the mid block here; B1/C1 in
    the general-matrix reduction): ON_TS runs them on the sequential group
    concurrently with the X products on the parallel group; ON_ALL runs
    everything in order on the combined pool."""

    ON_TS = "on_ts"
    ON_ALL = "on_all"


@dataclass
class SevpConfig:
    n: int
    w: int
    b: int
    variant: SevpVariant = SevpVariant.REFERENCE
    v2_mapping: V2Mapping = V2Mapping.ON_TS
    accumulate_q: bool = False

    def validate(self):
        if self.n < 1:
            raise ValueError("n >= 1")
        if self.w < 1:
            raise ValueError("w >= 1")
        if not (1 <= self.b <= self.w):
            raise ValueError("need 1 <= b <= w")
        if self.variant == SevpVariant.V1 and 2 * self.b > self.w:
            raise ValueError(f"V1 requires 2b <= w, got b={self.b}, w={self.w}")
        if self.variant == SevpVariant.V2 and 2 * self.b <= self.w:
            warnings.warn(
                f"V2 with 2b <= w (b={self.b}, w={self.w}) is valid but outside "
                "its intended regime; V1 covers this case",
                RuntimeWarning,
                stacklevel=3,
            )


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
        self.A = A
        self.n = cfg.n
        self.w = cfg.w
        self.b = cfg.b
        self.factors = {}
        self.Q = np.eye(cfg.n, order="F") if cfg.accumulate_q else None


def _schedule(n, w, b):
    """Leading columns of all iterations; panels shrink at the fringe and a
    one-row remainder is already within the band, so it is left alone."""
    ks = []
    k = 0
    while n - k - w >= 2:
        ks.append(k)
        k += min(b, n - k - w)
    return ks


def _bp(state, k):
    return min(state.b, state.n - k - state.w)


def _panel(state, k):
    """Span of iteration k's QR panel, which every task applying its
    factors reads first (see runtime.Task)."""
    return Span("A", (k + state.w, state.n), (k, k + _bp(state, k)))


# --- task bodies, shared verbatim by every schedule ---------------------


def _qr_task(state, k, bp):
    n, w = state.n, state.w

    def fn(workers):
        f = qr_panel(state.A[k + w : n, k : k + bp])
        state.factors[k] = f

    span = _panel(state, k)
    return Task(f"qr@{k}", fn, [span], [span])


def _q_task(state, k):
    n, w = state.n, state.w

    def fn(workers):
        apply_wy_right(state.Q[:, k + w : n], state.factors[k], workers)

    span = Span("Q", (0, n), (k + w, n))
    return Task(f"accq@{k}", fn, [span], [_panel(state, k), span])


def _mid_task(state, k, c0, c1, tag):
    n, w = state.n, state.w

    def fn(workers):
        apply_wy_left(state.A[k + w : n, c0:c1], state.factors[k], workers)

    span = Span("A", (k + w, n), (c0, c1))
    return Task(f"mid{tag}@{k}", fn, [span], [_panel(state, k), span])


def _x_tasks(state, k, bp, j):
    """X1 = sym(A2)*W; X2 = (1/2)X1^T W; X3 = X1 + Y*X2."""
    n, w = state.n, state.w
    X1 = np.zeros((j, bp), order="F")
    X2 = np.zeros((bp, bp), order="F")
    X3 = np.zeros((j, bp), order="F")

    def fn1(workers):
        symm_lower(state.A[k + w : n, k + w : n], state.factors[k].w, X1, workers)

    def fn2(workers):
        matmul(0.5, X1.T, state.factors[k].w, 0.0, X2)

    def fn3(workers):
        X3[...] = X1
        matmul(1.0, state.factors[k].y, X2, 1.0, X3)

    panel = _panel(state, k)
    x1 = Span(f"X1@{k}", (0, j), (0, bp))
    x2 = Span(f"X2@{k}", (0, bp), (0, bp))
    x3 = Span(f"X3@{k}", (0, j), (0, bp))
    trailing = Span("A", (k + w, n), (k + w, n))
    t1 = Task(f"xprod1@{k}", fn1, [x1], [panel, trailing])
    t2 = Task(f"xprod2@{k}", fn2, [x2], [panel, x1])
    t3 = Task(f"xprod3@{k}", fn3, [x3], [panel, x1, x2])
    return (t1, t2, t3), X3


def _syr2k_task(state, k, X3, c0, c1, tag):
    n, w = state.n, state.w

    def fn(workers):
        syr2k_lower(
            state.A[k + w : n, k + w : n], X3, state.factors[k].y, c0, c1, workers
        )

    span = Span("A", (k + w + c0, n), (k + w + c0, k + w + c1))
    x3 = Span(f"X3@{k}", (c0, n - k - w), (0, X3.shape[1]))
    return Task(f"trail{tag}@{k}", fn, [span], [_panel(state, k), x3, span])


# --- schedules ------------------------------------------------------------


def _run_reference(state, cfg, groups, ks):
    for k in ks:
        bp = _bp(state, k)
        j = state.n - k - state.w
        tasks = [_qr_task(state, k, bp)]
        if state.Q is not None:
            tasks.append(_q_task(state, k))
        if k + bp < k + state.w:
            tasks.append(_mid_task(state, k, k + bp, k + state.w, ""))
        xt, X3 = _x_tasks(state, k, bp, j)
        tasks.extend(xt)
        tasks.append(_syr2k_task(state, k, X3, 0, j, ""))
        run_phase(PhasePlan([], tasks, label=f"iter@{k}"), groups)


def _run_v1(state, cfg, groups, ks):
    run_phase(
        PhasePlan([], [_qr_task(state, ks[0], _bp(state, ks[0]))], label="prologue"),
        groups,
    )
    for idx, k in enumerate(ks):
        bp = _bp(state, k)
        j = state.n - k - state.w
        kn = ks[idx + 1] if idx + 1 < len(ks) else None
        seq = []
        par = []
        if state.Q is not None:
            par.append(_q_task(state, k))
        mid0, mid1 = k + bp, k + state.w
        if kn is not None:
            # next panel's columns live inside the mid block (2b <= w):
            # bring them up to date and factor ahead on the sequential group
            bpn = _bp(state, kn)
            seq.append(_mid_task(state, k, kn, kn + bpn, "-head"))
            seq.append(_qr_task(state, kn, bpn))
            if kn + bpn < mid1:
                par.append(_mid_task(state, k, kn + bpn, mid1, "-rest"))
        elif mid0 < mid1:
            par.append(_mid_task(state, k, mid0, mid1, ""))
        xt, X3 = _x_tasks(state, k, bp, j)
        par.extend(xt)
        par.append(_syr2k_task(state, k, X3, 0, j, ""))
        run_phase(PhasePlan(seq, par, label=f"iter@{k}"), groups)


def _run_v2(state, cfg, groups, ks):
    run_phase(
        PhasePlan([], [_qr_task(state, ks[0], _bp(state, ks[0]))], label="prologue"),
        groups,
    )
    for idx, k in enumerate(ks):
        bp = _bp(state, k)
        j = state.n - k - state.w
        kn = ks[idx + 1] if idx + 1 < len(ks) else None
        bpn = _bp(state, kn) if kn is not None else 0

        lead = []
        if state.Q is not None:
            lead.append(_q_task(state, k))
        if k + bp < k + state.w:
            lead.append(_mid_task(state, k, k + bp, k + state.w, ""))
        xt, X3 = _x_tasks(state, k, bp, j)
        if cfg.v2_mapping == V2Mapping.ON_TS and lead:
            run_phase(PhasePlan(lead, list(xt), label=f"iter@{k}/p1"), groups)
        else:
            run_phase(PhasePlan([], lead + list(xt), label=f"iter@{k}/p1"), groups)

        # phase 2: trailing update, with the columns the next panel spills
        # into (width bp + bpn - w when positive) done first on the
        # sequential group, ahead of that panel's factorization
        split = max(0, bp + bpn - state.w)
        seq = []
        if split > 0:
            seq.append(_syr2k_task(state, k, X3, 0, split, "-lead"))
        if kn is not None:
            seq.append(_qr_task(state, kn, bpn))
        par = []
        if split < j:
            par.append(_syr2k_task(state, k, X3, split, j, ""))
        run_phase(PhasePlan(seq, par, label=f"iter@{k}/p2"), groups)


def _finalize(A, n, w):
    """Mirror the lower triangle onto the upper and zero off-band exactly."""
    i = np.arange(n)[:, None]
    jj = np.arange(n)[None, :]
    low = np.tril(A)
    low[(i - jj) > w] = 0.0
    out = low + low.T
    out[i == jj] = np.diag(low)
    return np.asfortranarray(out)


def reduce_sym_band(A, cfg, groups=None):
    """Reduce symmetric A to a symmetric band matrix of bandwidth cfg.w.

    Only A's lower triangle is read; a NaN or Inf in it raises ValueError,
    since it would spread through the whole band. Returns the band matrix
    (full storage, off-band exactly zero), the accumulated orthogonal factor
    when cfg.accumulate_q, and the flop counts of this run. If n <= w + 1 the
    input is already within the band and is returned unchanged.
    """
    cfg.validate()
    A = np.array(A, dtype=np.float64, order="F")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("reduce_sym_band needs a square matrix")
    if A.shape[0] != cfg.n:
        raise ValueError(f"cfg.n={cfg.n} does not match matrix order {A.shape[0]}")
    if not np.isfinite(A)[np.tri(cfg.n, dtype=bool)].all():
        raise ValueError("reduce_sym_band: the lower triangle holds NaN or Inf")

    ks = _schedule(cfg.n, cfg.w, cfg.b)
    if not ks:
        return SevpResult(band=A, q=None, flops={"total": 0}, iterations=0)

    own = groups is None
    if own:
        groups = ExecGroups(1, 0)
    groups.trace = EventTrace()
    state = _State(A, cfg)
    try:
        with flop_scope() as counted:
            if cfg.variant == SevpVariant.REFERENCE:
                _run_reference(state, cfg, groups, ks)
            elif cfg.variant == SevpVariant.V1:
                _run_v1(state, cfg, groups, ks)
            else:
                _run_v2(state, cfg, groups, ks)
    finally:
        if own:
            groups.close()
    flops = counted.snapshot()
    band = _finalize(state.A, cfg.n, cfg.w)
    return SevpResult(band=band, q=state.Q, flops=flops, iterations=len(ks))

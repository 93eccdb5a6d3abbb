"""Reduction of a dense symmetric matrix to symmetric band form.

One iteration (leading column k, bandwidth w, panel width bp) factors the
panel A[k+w:n, k:k+bp] by QR, left-applies the block reflector to the mid
block A[k+w:n, k+bp:k+w], and applies it two-sidedly to the trailing block
A[k+w:n, k+w:n] (lower triangle authoritative) through the four-step
X1/X2/X3 + rank-2k form. Only the lower triangle is touched; the result is
mirrored and off-band entries are zeroed exactly at the end.

Each iteration's tasks, in Reference order, form its stream (_stream);
bandred.lookahead.plan turns the streams into phases for three schedules
over identical task bodies:

  Reference  every stream in order on the full pool.
  V1, V2     the sequential group factors the next panel while the
             parallel group runs the rest of the iteration. One rule
             places the next panel: each update is cut at the panel's
             column end, and the part left of it runs first on the
             sequential group. With 2b <= w (V1) the panel lies inside the
             mid block, so the mid block is cut; with 2b > w (V2) it
             spills into the trailing block, so the trailing update is
             cut. V2 first runs a phase that updates the mid block (on
             the sequential group under V2Mapping.ON_TS) while the
             parallel group forms X1..X3.

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
from .lookahead import Stream, Update, V2Mapping, plan
from .runtime import EventTrace, ExecGroups, Span, Task, run_phase


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


# --- the iteration's task stream -----------------------------------------


def _stream(state, k):
    """Iteration k's tasks in Reference order. With no LQ panel there is no
    row cut, so the trailing update is only cut into column strips, each
    the lower part of its columns."""
    n, w = state.n, state.w
    bp, t = _bp(state, k), k + w
    qr = _qr_task(state, k, bp)
    items = [qr]
    if state.Q is not None:
        items.append(_q_task(state, k))
    if bp < w:
        items.append(Update((t, n), (k + bp, t), lambda r, c, tag: _mid_task(state, k, *c, tag)))
    xt, X3 = _x_tasks(state, k, bp, n - t)
    items.extend(xt)

    def trail(rows, cols, tag):
        return _syr2k_task(state, k, X3, cols[0] - t, cols[1] - t, tag)

    items.append(Update((t, n), (t, n), trail))
    return Stream(items, col_cut=qr.writes[0].cols[1])


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
    when cfg.accumulate_q, and the flop counts of this run. If n <= w + 1 no
    iteration runs: the band is the lower triangle mirrored and Q the
    identity.
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
    own = groups is None
    if own:
        groups = ExecGroups(1, 0)
    groups.trace = EventTrace()
    state = _State(A, cfg)
    v2_mapping = cfg.v2_mapping if cfg.variant is SevpVariant.V2 else None
    phases = plan(
        lambda k: _stream(state, k), ks, cfg.variant is not SevpVariant.REFERENCE, v2_mapping
    )
    try:
        with flop_scope() as counted:
            for phase in phases:
                run_phase(phase, groups)
    finally:
        if own:
            groups.close()
    flops = counted.snapshot()
    band = _finalize(state.A, cfg.n, cfg.w)
    return SevpResult(band=band, q=state.Q, flops=flops, iterations=len(ks))

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandred import (
    FLOPS,
    ExecGroups,
    SevpConfig,
    SevpVariant,
    Workers,
    apply_wy_left,
    apply_wy_right,
    build_w,
    house_gen,
    lq_panel,
    matmul,
    orth_residual,
    qr_panel,
    reduce_sym_band,
    Span,
    spectrum_deviation,
)
from bandred import kernels, sevp
from bandred.kernels import (
    SCRATCH,
    SHARE_ABOVE,
    _numpy_step,
    symm_lower,
    syr2k_lower,
)

EPS = np.finfo(np.float64).eps


def _rand(m, n, seed):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.standard_normal((m, n)))


def _matmul_naive(alpha, A, B, beta, C):
    """Scalar triple loop with the same fixed inner order and the same
    rounding events as matmul: scale C by beta, then one multiply and one
    add per inner index. Oracle for bitwise comparison."""
    m, k = A.shape
    n = B.shape[1]
    out = C.copy()
    for i in range(m):
        for j in range(n):
            if beta == 0.0:
                acc = 0.0
            elif beta == 1.0:
                acc = out[i, j]
            else:
                acc = out[i, j] * beta
            for p in range(k):
                if alpha == 1.0:
                    acc = acc + A[i, p] * B[p, j]
                else:
                    acc = acc + (A[i, p] * alpha) * B[p, j]
            out[i, j] = acc
    return out


def _matmul_loop(alpha, A, B, beta, C, kind="matmul"):
    """matmul as one Python-level rank-1 step per inner index: the plain
    form of the contract, kept as the oracle for the vectorized kernel's
    bits and flop counts."""
    m, k = A.shape
    n = B.shape[1]
    if beta == 0.0:
        C[...] = 0.0
    elif beta != 1.0:
        np.multiply(C, beta, out=C)
    if alpha == 0.0 or k == 0 or m == 0 or n == 0:
        return C
    FLOPS.add(kind, 2 * m * k * n)
    tmp = np.empty((m, n))
    for p in range(k):
        np.multiply(A[:, p : p + 1] * alpha, B[p : p + 1, :], out=tmp)
        np.add(C, tmp, out=C)
    return C


def _syr2k_loop(A2, X3, Y, c0, c1):
    """syr2k_lower as a pair of loop matmuls per column, each from the
    diagonal down: the oracle for its bits. The whole update is charged to
    the "syr2k" class."""
    j = A2.shape[0]
    for c in range(c0, c1):
        col = A2[c:j, c : c + 1]
        _matmul_loop(1.0, X3[c:j, :], Y[c : c + 1, :].T, 1.0, col, kind="syr2k")
        _matmul_loop(1.0, Y[c:j, :], X3[c : c + 1, :].T, 1.0, col, kind="syr2k")
    return A2


LAYOUTS = ("C", "F", "transposed", "strided")


def _laid_out(values, layout):
    """values copied into an array of the given memory layout."""
    m, n = values.shape
    if layout == "C":
        out = np.empty((m, n))
    elif layout == "F":
        out = np.empty((m, n), order="F")
    elif layout == "transposed":
        out = np.empty((n, m)).T
    else:
        out = np.empty((2 * m + 1, 3 * n + 2), order="F")[1::2, 2::3]
    out[...] = values
    return out


def _values(rng, shape):
    """Normal entries with some +0.0 and -0.0, so zero signs are checked."""
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.1] = -0.0
    return v


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture(scope="module")
def pool_workers():
    """Workers handles by count on one pool: 0 is no handle at all. Counts 0
    and 1 sum a whole output in one sweep, 2 and 3 share it in one piece per
    worker."""
    with ExecGroups(2, 0) as groups:
        yield {0: None, **{c: Workers(groups._pool, c) for c in (1, 2, 3)}}


WORKER_COUNTS = st.sampled_from([0, 1, 2, 3])


def _edge_dims(draw):
    """(m, k, n) on or next to an inner-chunk or column-tile edge of the
    scratch stack. Rows past SHARE_ABOVE reach _accumulate whole on one
    worker, and rows past SCRATCH take one column per tile."""
    rows = draw(st.sampled_from([1, 2, 5, 16, 64, SHARE_ABOVE, 200, 2 * SHARE_ABOVE + 1, 352,
                                 SCRATCH + 1]))
    nudge = st.sampled_from([-1, 0, 1])
    cols = max(1, SCRATCH // rows)
    n = max(1, min(draw(st.sampled_from([1, 2])) * cols + draw(nudge), 300))
    kc = max(1, SCRATCH // (rows * min(n, cols)))
    k = max(1, min(draw(st.sampled_from([1, 2])) * kc + draw(nudge), 1500))
    return rows, k, n


@st.composite
def _matmul_case(draw):
    kind = draw(st.sampled_from(["tiny", "dot", "rank_b", "edge"]))
    if kind == "tiny":
        m, k, n = (draw(st.integers(0, 3)) for _ in range(3))
    elif kind == "dot":
        m, n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(64, 1500))
    elif kind == "rank_b":
        m, n, k = draw(st.integers(100, 300)), draw(st.integers(60, 200)), draw(st.integers(1, 24))
    else:
        m, k, n = _edge_dims(draw)
    return dict(
        dims=(m, k, n),
        layouts=tuple(draw(st.sampled_from(LAYOUTS)) for _ in range(3)),
        alpha=draw(st.sampled_from([1.0, -1.0, 0.5, 0.0])),
        beta=draw(st.sampled_from([0.0, 1.0, -1.0, 2.5])),
        workers=draw(WORKER_COUNTS),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _counted(fn, *args, **kw):
    FLOPS.reset()
    fn(*args, **kw)
    return FLOPS.snapshot()


@settings(max_examples=150, deadline=None)
@given(case=_matmul_case())
def test_matmul_matches_loop_oracle_bitwise(case, pool_workers):
    m, k, n = case["dims"]
    rng = np.random.default_rng(case["seed"])
    la, lb, lc = case["layouts"]
    A = _laid_out(_values(rng, (m, k)), la)
    B = _laid_out(_values(rng, (k, n)), lb)
    C0 = _values(rng, (m, n))
    got, want = _laid_out(C0, lc), _laid_out(C0, lc)
    workers = pool_workers[case["workers"]]
    got_flops = _counted(matmul, case["alpha"], A, B, case["beta"], got, workers)
    want_flops = _counted(_matmul_loop, case["alpha"], A, B, case["beta"], want)
    assert np.array_equal(_bits(got), _bits(want))
    assert got_flops == want_flops


@st.composite
def _syr2k_case(draw):
    j = draw(st.integers(1, SHARE_ABOVE + 69))
    c0 = draw(st.integers(0, j))
    return dict(
        j=j,
        b=draw(st.integers(0, 24)),
        cols=(c0, draw(st.integers(c0, j))),
        layouts=tuple(draw(st.sampled_from(LAYOUTS)) for _ in range(3)),
        workers=draw(WORKER_COUNTS),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(case=_syr2k_case())
def test_syr2k_lower_matches_per_column_oracle_bitwise(case, pool_workers):
    j, b = case["j"], case["b"]
    rng = np.random.default_rng(case["seed"])
    la, lx, ly = case["layouts"]
    S0 = _values(rng, (j, j))
    X3 = _laid_out(_values(rng, (j, b)), lx)
    Y = _laid_out(_values(rng, (j, b)), ly)
    got, want = _laid_out(S0, la), _laid_out(S0, la)
    workers = pool_workers[case["workers"]]
    c0, c1 = case["cols"]
    got_flops = _counted(syr2k_lower, got[c0:, c0:c1], X3[c0:], Y[c0:], workers)
    want_flops = _counted(_syr2k_loop, want, X3, Y, c0, c1)
    assert np.array_equal(_bits(got), _bits(want))  # the upper triangle included
    assert got_flops == want_flops


@st.composite
def _symm_case(draw):
    edge = draw(st.sampled_from([SHARE_ABOVE // 2, SHARE_ABOVE, 2 * SHARE_ABOVE, 3 * SHARE_ABOVE]))
    j = draw(st.one_of(st.integers(1, 3 * SHARE_ABOVE), st.sampled_from([edge - 1, edge + 1])))
    return dict(
        j=j,
        b=draw(st.integers(0, 24)),
        layouts=tuple(draw(st.sampled_from(LAYOUTS)) for _ in range(3)),
        workers=draw(WORKER_COUNTS),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(case=_symm_case())
def test_symm_lower_matches_loop_oracle_on_densified_operand_bitwise(case, pool_workers):
    """symm_lower gives the bits of the per-index loop over the operand
    densified from the lower triangle, whatever the zero signs in it; a NaN
    in the strict upper triangle shows any read of it."""
    j, b = case["j"], case["b"]
    rng = np.random.default_rng(case["seed"])
    la, lw, lo = case["layouts"]
    S0 = _values(rng, (j, j))
    S0[np.triu_indices(j, 1)] = np.nan
    S = _laid_out(S0, la)
    W = _laid_out(_values(rng, (j, b)), lw)
    out0 = _values(rng, (j, b))
    got, want = _laid_out(out0, lo), _laid_out(out0, lo)
    got_flops = _counted(symm_lower, S, W, got, pool_workers[case["workers"]])
    want_flops = _counted(_matmul_loop, 1.0, _densify(S0), W, 0.0, want)
    assert np.array_equal(_bits(got), _bits(want))
    assert got_flops == want_flops


def _wy_loop(side, A, f):
    """apply_wy_left/right as two loop matmuls over the whole of A."""
    b = f.y.shape[1]
    if side == "left":
        t1 = np.zeros((b, A.shape[1]), order="F")
        _matmul_loop(1.0, f.w.T, A, 0.0, t1)
        _matmul_loop(1.0, f.y, t1, 1.0, A)
    else:
        t1 = np.zeros((A.shape[0], b), order="F")
        _matmul_loop(1.0, A, f.w, 0.0, t1)
        _matmul_loop(1.0, t1, f.y.T, 1.0, A)


@st.composite
def _wy_case(draw):
    edge = draw(st.sampled_from([SHARE_ABOVE, 2 * SHARE_ABOVE, 352]))
    return dict(
        side=draw(st.sampled_from(["left", "right"])),
        j=draw(st.integers(1, 200)),
        b=draw(st.integers(1, 16)),
        other=draw(st.one_of(st.integers(1, 352), st.sampled_from([edge - 1, edge, edge + 1]))),
        layouts=tuple(draw(st.sampled_from(LAYOUTS)) for _ in range(3)),
        workers=draw(WORKER_COUNTS),
        compiled=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(case=_wy_case())
def test_apply_wy_matches_loop_oracle_bitwise(case, pool_workers):
    """One sweep (no handle, one worker) and shared pieces (two or three
    workers) give the loop's bits on both sides, on the NumPy step and on
    the compiled one; `other` is the shared dimension of A."""
    j, b, other = case["j"], case["b"], case["other"]
    rng = np.random.default_rng(case["seed"])
    la, ly, lw = case["layouts"]
    Y, W = (_laid_out(_values(rng, (j, b)), lay) for lay in (ly, lw))
    f = SimpleNamespace(y=Y, w=W)
    A0 = _values(rng, (j, other) if case["side"] == "left" else (other, j))
    got, want = _laid_out(A0, la), _laid_out(A0, la)
    apply = apply_wy_left if case["side"] == "left" else apply_wy_right
    step = kernels._COMPILED_SUM if case["compiled"] else _numpy_step
    got_flops = _counted(apply, got, f, pool_workers[case["workers"]], _sum=step)
    want_flops = _counted(_wy_loop, case["side"], want, f)
    assert np.array_equal(_bits(got), _bits(want))
    assert got_flops == want_flops


def test_flop_snapshot_reports_every_class_after_reset():
    FLOPS.reset()
    assert FLOPS.snapshot() == {"matmul": 0, "house": 0, "syr2k": 0, "total": 0}
    syr2k_lower(np.zeros((3, 3)), np.ones((3, 2)), np.ones((3, 2)))
    snap = FLOPS.snapshot()
    assert snap["syr2k"] == 4 * 2 * 3 * 4 // 2 and snap["house"] == 0
    assert snap["total"] == snap["matmul"] + snap["syr2k"]


# --- matmul ----------------------------------------------------------------


def test_matmul_matches_triple_loop_bitwise():
    A = _rand(7, 5, 1)
    B = _rand(5, 4, 2)
    C0 = _rand(7, 4, 3)
    want = _matmul_naive(1.0, A, B, 0.0, C0)
    got = C0.copy()
    matmul(1.0, A, B, 0.0, got)
    assert np.array_equal(got, want)


def test_matmul_scaled_accumulate_matches_triple_loop_bitwise():
    A = _rand(6, 3, 4)
    B = _rand(3, 8, 5)
    C0 = _rand(6, 8, 6)
    want = _matmul_naive(1.7, A, B, 0.3, C0)
    got = C0.copy()
    matmul(1.7, A, B, 0.3, got)
    assert np.array_equal(got, want)


def test_the_numpy_sum_scratch_stack_stays_within_its_bound(monkeypatch):
    """Every scratch stack of the NumPy sum holds at most max(SCRATCH, rows)
    entries, on both sides of each column-tile and inner-chunk edge, for C
    below and above SCRATCH rows: the cache footprint the README states."""
    stacks = []
    real = kernels._slots

    def slots(depth, rows, cols):
        stacks.append((depth * rows * cols, rows))
        return real(depth, rows, cols)

    monkeypatch.setattr(kernels, "_slots", slots)
    for rows in (1, 5, 200, SCRATCH - 1, SCRATCH, SCRATCH + 1):
        cols = max(1, SCRATCH // rows)
        for n in sorted({1, max(1, cols - 1), cols, cols + 1}):
            kc = max(1, SCRATCH // (rows * min(n, cols)))
            for k in sorted({max(1, kc - 1), kc, kc + 1}):
                stacks.clear()
                C = np.zeros((rows, n), order="F")
                matmul(1.0, _rand(rows, k, 77), _rand(k, n, 78), 0.0, C)
                assert stacks, (rows, k, n)
                assert all(size <= max(SCRATCH, r) for size, r in stacks), (rows, k, n, stacks)


def test_matmul_alpha_zero_beta_one_is_identity():
    C0 = _rand(5, 5, 7)
    C = C0.copy()
    FLOPS.reset()
    matmul(0.0, _rand(5, 9, 8), _rand(9, 5, 9), 1.0, C)
    assert np.array_equal(C, C0)
    assert FLOPS.snapshot()["total"] == 0  # early-out does no counted work


def test_matmul_identity_left_factor():
    B = _rand(6, 4, 10)
    C = np.zeros((6, 4), order="F")
    matmul(1.0, np.eye(6, order="F"), B, 0.0, C)
    assert np.array_equal(C, B)


def test_matmul_flop_count_exact():
    FLOPS.reset()
    matmul(1.0, _rand(4, 4, 11), _rand(4, 4, 12), 0.0, np.zeros((4, 4), order="F"))
    assert FLOPS.snapshot()["matmul"] == 128
    FLOPS.reset()
    matmul(2.0, _rand(9, 5, 13), _rand(5, 7, 14), 1.0, _rand(9, 7, 15))
    assert FLOPS.snapshot()["matmul"] == 2 * 9 * 5 * 7


def test_matmul_output_split_invariance():
    """Any partition of C computes the same bits as one full call: the
    contract the look-ahead schedules are built on."""
    A = _rand(12, 9, 16)
    B = _rand(9, 10, 17)
    base = _rand(12, 10, 18)
    whole = base.copy()
    matmul(1.0, A, B, 1.0, whole)

    by_cols = base.copy()
    matmul(1.0, A, B[:, :3], 1.0, by_cols[:, :3])
    matmul(1.0, A, B[:, 3:], 1.0, by_cols[:, 3:])
    assert np.array_equal(by_cols, whole)

    by_rows = base.copy()
    for r0, r1 in ((0, 5), (5, 11), (11, 12)):
        matmul(1.0, A[r0:r1, :], B, 1.0, by_rows[r0:r1, :])
    assert np.array_equal(by_rows, whole)


def test_matmul_worker_count_invariance():
    A = _rand(300, 20, 19)
    B = _rand(20, 6, 20)
    serial = np.zeros((300, 6), order="F")
    matmul(1.0, A, B, 0.0, serial)
    with ExecGroups(3, 0) as groups:
        threaded = np.zeros((300, 6), order="F")
        matmul(1.0, A, B, 0.0, threaded, Workers(groups._pool, 3))
    assert np.array_equal(threaded, serial)


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        matmul(1.0, _rand(3, 4, 0), _rand(5, 2, 0), 0.0, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        matmul(1.0, _rand(3, 4, 0), _rand(4, 2, 0), 0.0, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        matmul(1.0, np.zeros(3), _rand(3, 2, 0), 0.0, np.zeros((1, 2)))


# --- householder -----------------------------------------------------------


def test_house_three_four_five():
    v, tau, beta = house_gen(np.array([3.0, 4.0]))
    assert abs(beta) == 5.0
    assert beta == -5.0  # sign flip away from x[0]
    y = np.array([3.0, 4.0]) - tau * v * (v @ np.array([3.0, 4.0]))
    assert abs(y[0] - beta) <= 16 * EPS * 5.0
    assert abs(y[1]) <= 16 * EPS * 5.0


def test_house_zero_vector_is_identity():
    v, tau, beta = house_gen(np.zeros(4))
    assert tau == 0.0 and beta == 0.0
    assert np.array_equal(v, [1.0, 0.0, 0.0, 0.0])


def test_house_always_flips_even_with_zero_tail():
    v, tau, beta = house_gen(np.array([2.0, 0.0, 0.0]))
    assert beta == -2.0 and tau == 2.0
    assert np.array_equal(v, [1.0, 0.0, 0.0])


def test_house_random_residual():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(5)
    v, tau, beta = house_gen(x)
    assert v[0] == 1.0
    y = x - tau * v * (v @ x)
    nrm = np.linalg.norm(x)
    assert abs(y[0] - beta) <= 16 * EPS * nrm
    assert np.max(np.abs(y[1:])) <= 16 * EPS * nrm


def test_house_length_one():
    v, tau, beta = house_gen(np.array([-3.0]))
    assert beta == 3.0 and tau == 2.0


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
def test_house_norm_has_numpys_bits_and_no_warning(scale):
    """|beta| is np.linalg.norm(x) bit for bit, strided views included, and
    past Blue's thresholds that of the rescaled vector; an overflowing sum
    of squares raises no warning (tier-1 turns one into an error)."""
    rng = np.random.default_rng(78)
    for L in (1, 2, 7, 64, 351):
        host = rng.standard_normal(2 * L) * scale
        for x in (host[:L], host[::2]):
            want = np.linalg.norm(x) if scale == 1.0 else np.max(np.abs(x)) * np.linalg.norm(
                x / np.max(np.abs(x)))
            assert abs(house_gen(x)[2]) == want


# --- panels ----------------------------------------------------------------


def _q_explicit(f):
    j = f.y.shape[0]
    return np.eye(j) + f.w @ f.y.T


def test_qr_already_triangular_panel_flips_signs_only():
    P0 = np.triu(_rand(5, 3, 22)[:3, :3])
    P = np.zeros((5, 3), order="F")
    P[:3, :] = P0
    f = qr_panel(P.copy(order="F"))
    assert np.array_equal(np.abs(f.r_or_l), np.abs(P0))


def test_qr_factor_is_orthogonal():
    f = qr_panel(_rand(6, 2, 23))
    assert orth_residual(_q_explicit(f)) <= 1e-14


def test_qr_reconstruction():
    P0 = _rand(8, 3, 24)
    f = qr_panel(P0.copy(order="F"))
    top = _q_explicit(f).T @ P0
    scale = np.linalg.norm(P0)
    assert np.linalg.norm(top[:3, :] - f.r_or_l) <= 1e-13 * scale
    assert np.max(np.abs(top[3:, :])) <= 1e-13 * scale


def test_qr_inner_blocking_agrees(monkeypatch):
    P0 = _rand(8, 3, 25)
    scale = np.linalg.norm(P0)
    for panel, P in ((qr_panel, P0), (lq_panel, P0.T)):
        rs = []
        for ib in (1, 2, 3):
            monkeypatch.setattr(kernels, "PANEL_INNER_B", ib)
            rs.append(panel(np.array(P, order="F")).r_or_l)
        for r in rs[1:]:
            assert np.array_equal(np.sign(np.diag(r)), np.sign(np.diag(rs[0])))
            assert np.max(np.abs(r - rs[0])) <= 1e-13 * scale


def test_qr_panel_factor_invariants():
    f = qr_panel(_rand(9, 4, 26))
    assert np.array_equal(np.diag(f.y)[:4], np.ones(4))
    assert np.array_equal(np.triu(f.y, 1), np.zeros_like(f.y))
    assert np.array_equal(np.tril(f.t, -1), np.zeros_like(f.t))
    assert np.array_equal(f.w, build_w(f.y, f.t))
    assert f.j == 9 and f.b == 4


def test_qr_shape_errors():
    with pytest.raises(ValueError):
        qr_panel(_rand(2, 3, 0))


def test_lq_duality_with_qr_of_transpose():
    P0 = _rand(3, 7, 27)
    fl = lq_panel(P0.copy(order="F"))
    fq = qr_panel(np.asfortranarray(P0.T.copy()))
    scale = np.linalg.norm(P0)
    assert np.array_equal(np.sign(np.diag(fl.r_or_l)), np.sign(np.diag(fq.r_or_l)))
    assert np.max(np.abs(fl.r_or_l - fq.r_or_l.T)) <= 1e-13 * scale


def test_lq_factor_is_orthogonal():
    f = lq_panel(_rand(2, 7, 28))
    assert orth_residual(_q_explicit(f)) <= 1e-14


def test_lq_reconstruction():
    P0 = _rand(3, 8, 29)
    f = lq_panel(P0.copy(order="F"))
    right = P0 @ _q_explicit(f)
    scale = np.linalg.norm(P0)
    assert np.linalg.norm(right[:, :3] - f.r_or_l) <= 1e-13 * scale
    assert np.max(np.abs(right[:, 3:])) <= 1e-13 * scale


# --- compact WY ------------------------------------------------------------


def test_build_w_single_reflector():
    v = np.zeros((6, 1), order="F")
    v[:, 0] = [1.0, 0.5, -0.25, 2.0, 0.0, 1.5]
    tau = 1.25
    W = build_w(v, np.array([[-tau]], order="F"))
    assert np.array_equal(W, -tau * v)


def test_build_w_zero_y_gives_zero_w():
    T = np.triu(_rand(3, 3, 30))
    W = build_w(np.zeros((7, 3), order="F"), np.asfortranarray(T))
    assert np.array_equal(W, np.zeros((7, 3)))


def test_wy_form_equals_reflector_product():
    f = qr_panel(_rand(9, 4, 31))
    Q = np.eye(9)
    for i in range(4):
        vi = f.y[:, i : i + 1]
        Q = Q @ (np.eye(9) - f.tau[i] * (vi @ vi.T))
    assert np.max(np.abs(_q_explicit(f) - Q)) <= 1e-13


def test_build_w_shape_error():
    with pytest.raises(ValueError):
        build_w(np.zeros((5, 3), order="F"), np.zeros((2, 2), order="F"))


# --- WY application --------------------------------------------------------


def test_apply_wy_left_matches_dense_oracle():
    f = qr_panel(_rand(10, 3, 32))
    A0 = _rand(10, 6, 33)
    A = A0.copy(order="F")
    apply_wy_left(A, f)
    want = _q_explicit(f).T @ A0
    assert np.max(np.abs(A - want)) <= 1e-13 * np.linalg.norm(A0)


def test_apply_wy_left_zero_factors_identity():
    f = qr_panel(_rand(5, 2, 34))
    f.w[...] = 0.0
    A0 = _rand(5, 4, 35)
    A = A0.copy(order="F")
    apply_wy_left(A, f)
    assert np.array_equal(A, A0)


def test_apply_wy_left_column_split_invariance():
    f = qr_panel(_rand(10, 3, 36))
    A0 = _rand(10, 9, 37)
    whole = A0.copy(order="F")
    apply_wy_left(whole, f)
    split = A0.copy(order="F")
    apply_wy_left(split[:, :4], f)
    apply_wy_left(split[:, 4:], f)
    assert np.array_equal(split, whole)


def test_apply_wy_right_matches_dense_oracle():
    f = lq_panel(_rand(3, 10, 38))
    A0 = _rand(6, 10, 39)
    A = A0.copy(order="F")
    apply_wy_right(A, f)
    want = A0 @ _q_explicit(f)
    assert np.max(np.abs(A - want)) <= 1e-13 * np.linalg.norm(A0)


def test_apply_wy_right_row_split_invariance():
    f = lq_panel(_rand(3, 10, 40))
    A0 = _rand(9, 10, 41)
    whole = A0.copy(order="F")
    apply_wy_right(whole, f)
    split = A0.copy(order="F")
    apply_wy_right(split[:5, :], f)
    apply_wy_right(split[5:, :], f)
    assert np.array_equal(split, whole)


def test_apply_wy_row_mismatch_errors():
    f = qr_panel(_rand(6, 2, 42))
    with pytest.raises(ValueError):
        apply_wy_left(_rand(5, 3, 0), f)
    with pytest.raises(ValueError):
        apply_wy_right(_rand(3, 5, 0), f)


# --- symmetric kernels -----------------------------------------------------


def _sym_lower(n, seed):
    """Random symmetric matrix with garbage in the strict upper triangle; the
    symmetric kernels must never read it."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    s = np.asfortranarray(np.tril(g) + np.tril(g, -1).T)
    s[np.triu_indices(n, 1)] = 1e9  # poison
    return s


def _densify(s):
    n = s.shape[0]
    return np.tril(s) + np.tril(s, -1).T


def test_symm_lower_reads_lower_triangle_only():
    S = _sym_lower(12, 43)
    W = _rand(12, 3, 44)
    out = np.zeros((12, 3), order="F")
    symm_lower(S, W, out)
    want = _densify(S) @ W
    assert np.max(np.abs(out - want)) <= 1e-13 * np.linalg.norm(want)


def test_syr2k_lower_matches_dense_and_split():
    n, b = 10, 3
    S0 = np.asfortranarray(np.tril(_rand(n, n, 45)))
    X = _rand(n, b, 46)
    Y = _rand(n, b, 47)

    whole = S0.copy(order="F")
    syr2k_lower(whole, X, Y)

    parts = S0.copy(order="F")
    syr2k_lower(parts[:, :4], X, Y)
    syr2k_lower(parts[4:, 4:], X[4:], Y[4:])
    assert np.array_equal(parts, whole)

    dense = _densify(S0) + X @ Y.T + Y @ X.T
    got = _densify(whole)
    assert np.max(np.abs(np.tril(got) - np.tril(dense))) <= 1e-12 * np.linalg.norm(
        dense
    )


def test_syr2k_lower_rejects_a_wide_strip_or_mismatched_operands():
    """The strip's top-left entry lies on the diagonal, so a strip wider
    than it is tall reaches above it; X and Y must have the strip's rows.
    Each raises before S changes."""
    X, Y = _rand(5, 2, 48), _rand(5, 2, 49)
    for S, x, y in ((np.zeros((4, 5), order="F"), X[:4], Y[:4]),
                    (np.zeros((5, 3), order="F"), X[:4], Y),
                    (np.zeros((5, 3), order="F"), X, Y[:4]),
                    (np.zeros((5, 3), order="F"), X, Y[:, :1])):
        with pytest.raises(ValueError, match="syr2k_lower shape mismatch"):
            syr2k_lower(S, x, y)
        assert not S.any()


class _Recorder:
    """A Workers stand-in of the given count: map records its items and
    runs them in order on the calling thread."""

    def __init__(self, count):
        self.count, self.items = count, None

    def map(self, fn, items):
        self.items = list(items)
        for it in self.items:
            fn(it)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 8, 400])
@pytest.mark.parametrize("kind", ["unit", "triangular"])
def test_share_hands_each_worker_one_even_piece(kind, count):
    """Up to SHARE_ABOVE items, or on one worker, the range runs whole and
    nothing is mapped. Past it the pieces tile the range in order, one per
    worker and none empty (count > size included), and each lies within
    one item's cost (the largest) of an even share. Triangular costs are
    syr2k_lower's lower entries per column, j - c over columns c0..c1."""
    for size in (1, SHARE_ABOVE, SHARE_ABOVE + 1, 200, 257, 352):
        for top in ((None,) if kind == "unit" else (size, size + 7, 2 * size + 3)):
            cost = None if top is None else range(top, top - size, -1)
            costs = np.ones(size) if cost is None else np.array(cost)
            workers, ran = _Recorder(count), []
            kernels._share(workers, size, lambda lo, hi: ran.append((lo, hi)), cost)
            if count == 1 or size <= SHARE_ABOVE:
                assert ran == [(0, size)] and workers.items is None
                continue
            assert ran == workers.items and len(ran) == min(count, size)
            assert ran[0][0] == 0 and ran[-1][1] == size
            assert all(a[1] == b[0] for a, b in zip(ran, ran[1:]))
            assert all(lo < hi for lo, hi in ran)
            share = costs.sum() / len(ran)
            assert all(abs(costs[lo:hi].sum() - share) <= costs.max() for lo, hi in ran)


def _two_sided(A2, f):
    """A2 := (I + W*Y^T)^T * A2 * (I + W*Y^T) on the lower triangle, run
    through the SEVP task bodies: the X1/X2/X3 products, then the rank-2k
    trailing update, with A2 as the trailing block of iteration k = 0."""
    j, b = f.y.shape
    state, arrays = SimpleNamespace(factors={0: f}), {"A": A2}
    panel = Span("A", (0, j), (0, b))
    xprods, x3 = sevp._x_tasks(state, arrays, 0, panel)
    trail = sevp._syr2k_task(state, arrays, 0, x3, panel, Span("A", (0, j), (0, j)), "")
    for task in (*xprods, trail):
        task.fn(None)


def test_sym_two_sided_zero_factors_identity():
    f = qr_panel(_rand(8, 2, 48))
    f.w[...] = 0.0
    f.y[...] = 0.0
    A0 = _sym_lower(8, 49)
    A = A0.copy(order="F")
    _two_sided(A, f)
    assert np.array_equal(np.tril(A), np.tril(A0))


def test_sym_two_sided_identity_stays_identity():
    f = qr_panel(_rand(9, 3, 50))
    A = np.eye(9, order="F")
    _two_sided(A, f)
    assert np.max(np.abs(np.tril(A) - np.tril(np.eye(9)))) <= 1e-13


def test_sym_two_sided_matches_dense_similarity():
    f = qr_panel(_rand(12, 3, 51))
    A0 = _sym_lower(12, 52)
    dense0 = _densify(A0)
    A = A0.copy(order="F")
    _two_sided(A, f)
    Q = _q_explicit(f)
    want = Q.T @ dense0 @ Q
    scale = np.linalg.norm(dense0)
    assert np.max(np.abs(np.tril(_densify(A)) - np.tril(want))) <= 1e-12 * scale
    assert spectrum_deviation(dense0, _densify(A), "eig") <= 1e-12


# --- the compiled sum ------------------------------------------------------


def _extreme_values(rng, shape):
    """_values mixed with subnormals and magnitudes 1e+-300, so products
    underflow, overflow to inf and meet inf - inf."""
    v = _values(rng, shape)
    special = np.array([5e-324, -2.5e-310, 1e-300, -1e-300, 1e300, -1e300])
    pick = rng.random(shape) < 0.15
    v[pick] = rng.choice(special, size=int(pick.sum()))
    return v


@pytest.fixture(scope="module")
def compiled_sum():
    """The compiled sum the SEVP kernels use, loaded; skipped without cc."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the NumPy sum is the only path")
    assert kernels._COMPILED_SUM.lib_for() is not None
    return kernels._COMPILED_SUM


@pytest.fixture(scope="module")
def numpy_sum():
    """A _CompiledSum that found no compiler: the NumPy fallback, with its
    one warning taken up front."""
    fallback = kernels._CompiledSum()
    with pytest.MonkeyPatch.context() as mp, pytest.warns(RuntimeWarning, match="no C compiler"):
        mp.setattr(kernels, "_find_cc", lambda: None)
        assert fallback.lib_for() is None
    return fallback


def _counted_with(sum_, fn, *args):
    """Flops of fn(*args) with the SEVP kernels summing through sum_."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_COMPILED_SUM", sum_)
        return _counted(fn, *args)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler: the NumPy sum is the only path")
def test_compiled_sum_runs_wherever_cc_exists(monkeypatch):
    """The oracle tests of symm_lower, syr2k_lower and the panels must not
    pass on the fallback unnoticed: with cc on PATH, none of them sums with
    NumPy, neither through the compiled sum's fallback nor through a matmul
    left on its default sum."""

    def numpy_sum(*args):
        raise AssertionError("a kernel summed with NumPy although cc is on PATH")

    real_matmul = kernels.matmul

    def compiled_matmul(*args, _sum=None, **kw):
        if _sum is None:
            numpy_sum()
        return real_matmul(*args, _sum=_sum, **kw)

    monkeypatch.setattr(kernels, "_accumulate", numpy_sum)
    monkeypatch.setattr(kernels, "_numpy_step", numpy_sum)
    monkeypatch.setattr(kernels, "matmul", compiled_matmul)
    A = _rand(70, 70, 67)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        symm_lower(A, _rand(70, 3, 68), np.zeros((70, 3), order="F"))
        syr2k_lower(A, _rand(70, 3, 69), _rand(70, 3, 70))
        # b > PANEL_INNER_B, so the inner-block update runs too
        qr_panel(_rand(70, 20, 71))
        lq_panel(_rand(20, 70, 72))
        build_w(_rand(70, 5, 73), np.triu(_rand(5, 5, 74)))
    assert kernels._COMPILED_SUM.lib_for() is not None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler: the NumPy sum is the only path")
@pytest.mark.parametrize("variant, b", [
    (SevpVariant.REFERENCE, 4),
    (SevpVariant.V1, 4),
    (SevpVariant.V2, 6),
])
def test_a_whole_sevp_reduction_sums_in_compiled_c(monkeypatch, variant, b):
    """With cc on PATH no task of a symmetric reduction, Q's accumulation
    included, reaches the NumPy sum on a two-group pool."""

    def numpy_sum(*args):
        raise AssertionError("an SEVP task summed with NumPy although cc is on PATH")

    monkeypatch.setattr(kernels, "_accumulate", numpy_sum)
    cfg = SevpConfig(48, 8, b, variant, accumulate_q=True)
    with warnings.catch_warnings(), ExecGroups(2, 1) as groups:
        warnings.simplefilter("error", RuntimeWarning)
        res = reduce_sym_band(_rand(48, 48, 75), cfg, groups)
    assert res.iterations > 2 and orth_residual(res.q) < 1e-13


def test_a_fallback_warning_raised_as_an_error_leaves_the_numpy_sum(monkeypatch):
    """Without cc and with RuntimeWarnings as errors, the first kernel call
    raises the fallback warning; later calls take the NumPy path with the
    oracle's bits, and the compiler is looked up once."""
    lookups = []

    def no_cc():
        lookups.append(None)
        return None

    monkeypatch.setattr(kernels, "_find_cc", no_cc)
    monkeypatch.setattr(kernels, "_COMPILED_SUM", kernels._CompiledSum())
    S, W = _rand(40, 40, 76), _rand(40, 3, 77)
    want = np.zeros((40, 3), order="F")
    _matmul_loop(1.0, _densify(S), W, 0.0, want)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="no C compiler"):
            symm_lower(S, W, np.zeros((40, 3), order="F"))
        for _ in range(2):
            got = symm_lower(S, W, np.zeros((40, 3), order="F"))
            assert np.array_equal(_bits(got), _bits(want))
    assert len(lookups) == 1 and kernels._COMPILED_SUM.lib_for() is None


@st.composite
def _sum_case(draw):
    """(m, k, n): tiny or empty, rank-b update, or dot-shaped; alpha and beta
    from the special values the step branches on, or anything finite."""
    dims = draw(st.one_of(
        st.tuples(*(st.integers(0, 3) for _ in range(3))),
        st.tuples(st.integers(1, 300), st.integers(1, 40), st.integers(1, 80)),
        st.tuples(st.integers(1, 6), st.integers(64, 700), st.integers(1, 6)),
    ))
    finite = st.floats(-1e3, 1e3, allow_nan=False)
    return dict(
        dims=dims,
        layouts=tuple(draw(st.sampled_from(LAYOUTS)) for _ in range(3)),
        alpha=draw(st.one_of(st.sampled_from([1.0, 0.0, -1.0, 0.5]), finite)),
        beta=draw(st.one_of(st.sampled_from([1.0, 0.0, -2.0]), finite)),
        workers=draw(WORKER_COUNTS),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(case=_sum_case())
def test_compiled_sum_matches_numpy_sum_bitwise(case, compiled_sum, pool_workers):
    """The compiled step gives _numpy_step's bits: a C laid out by rows
    reaches the transpose rule (alpha 1) or the strided loop, "F" and
    "transposed" operands the unit-stride loop, "strided" ones the strided
    loop; two workers share row tiles."""
    m, k, n = case["dims"]
    rng = np.random.default_rng(case["seed"])
    la, lb, lc = case["layouts"]
    A = _laid_out(_extreme_values(rng, (m, k)), la)
    B = _laid_out(_extreme_values(rng, (k, n)), lb)
    C0 = _extreme_values(rng, (m, n))
    got, want = _laid_out(C0, lc), _laid_out(C0, lc)
    args = case["alpha"], A, B, case["beta"]
    workers = pool_workers[case["workers"]]
    with np.errstate(all="ignore"):
        compiled_sum(*args, got, workers)
        _numpy_step(*args, want, workers)
    assert np.array_equal(_bits(got), _bits(want))


def _float32(values):
    return values.astype(np.float32)


def _unaligned(values):
    """values in a float64 array one byte off its alignment."""
    buf = bytearray(8 * values.size + 1)
    out = np.frombuffer(buf, offset=1).reshape(values.shape)
    out[...] = values
    return out


@pytest.mark.parametrize("operand, make", [
    ("A", _float32), ("B", _float32), ("A", _unaligned), ("C", _unaligned)])
def test_operands_the_compiled_product_cannot_read_take_the_numpy_step(operand, make, compiled_sum):
    """lib_for refuses a float32 operand and an unaligned float64 view, so
    the compiled step runs _numpy_step and gives its bits."""
    rng = np.random.default_rng(75)
    values = {"A": _values(rng, (40, 12)), "B": _values(rng, (12, 30)), "C": _values(rng, (40, 30))}
    arrays = {name: np.asfortranarray(v) for name, v in values.items()}
    arrays[operand] = make(arrays[operand])
    A, B, got = arrays["A"], arrays["B"], arrays["C"]
    want = got.copy()
    assert compiled_sum.lib_for(A, B, out=(got,)) is None
    compiled_sum(0.5, A, B, -2.0, got, None)
    _numpy_step(0.5, A, B, -2.0, want, None)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("beta", [0.0, 1.0, -2.0])
def test_a_read_only_output_raises_numpys_error(beta, compiled_sum):
    C = np.zeros((40, 30), order="F")
    C.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        matmul(1.0, _rand(40, 12, 76), _rand(12, 30, 77), beta, C, _sum=compiled_sum)
    assert not C.any()


@settings(max_examples=40, deadline=None)
@given(case=_syr2k_case())
def test_syr2k_lower_same_bits_and_flops_on_both_sums(case, compiled_sum, numpy_sum, pool_workers):
    j, b = case["j"], case["b"]
    rng = np.random.default_rng(case["seed"])
    la, lx, ly = case["layouts"]
    S0 = _extreme_values(rng, (j, j))
    X3 = _laid_out(_extreme_values(rng, (j, b)), lx)
    Y = _laid_out(_extreme_values(rng, (j, b)), ly)
    got, want = _laid_out(S0, la), _laid_out(S0, la)
    c0, c1 = case["cols"]
    args = (X3[c0:], Y[c0:], pool_workers[case["workers"]])
    with np.errstate(all="ignore"):
        got_flops = _counted_with(compiled_sum, syr2k_lower, got[c0:, c0:c1], *args)
        want_flops = _counted_with(numpy_sum, syr2k_lower, want[c0:, c0:c1], *args)
    assert np.array_equal(_bits(got), _bits(want))
    assert got_flops == want_flops


@settings(max_examples=40, deadline=None)
@given(case=_symm_case())
def test_symm_lower_same_bits_and_flops_on_both_sums(case, compiled_sum, numpy_sum, pool_workers):
    j, b = case["j"], case["b"]
    rng = np.random.default_rng(case["seed"])
    la, lw, lo = case["layouts"]
    S = _laid_out(_extreme_values(rng, (j, j)), la)
    W = _laid_out(_extreme_values(rng, (j, b)), lw)
    out0 = _extreme_values(rng, (j, b))
    got, want = _laid_out(out0, lo), _laid_out(out0, lo)
    workers = pool_workers[case["workers"]]
    with np.errstate(all="ignore"):
        got_flops = _counted_with(compiled_sum, symm_lower, S, W, got, workers)
        want_flops = _counted_with(numpy_sum, symm_lower, S, W, want, workers)
    assert np.array_equal(_bits(got), _bits(want))
    assert got_flops == want_flops


PANEL_LAYOUTS = ("F", "view", "C", "strided")


def _panel_in_host(values, layout):
    """(host, P): P a view of values in a NaN-filled host array, so a write
    outside P shows in the host's bits."""
    m, n = values.shape
    if layout == "F":
        host = np.full((m, n), np.nan, order="F")
        P = host
    elif layout == "view":  # inside a larger Fortran array, as in a reduction
        host = np.full((m + 5, n + 7), np.nan, order="F")
        P = host[2 : 2 + m, 3 : 3 + n]
    elif layout == "C":
        host = np.full((m, n), np.nan)
        P = host
    else:
        host = np.full((2 * m + 1, 3 * n + 2), np.nan, order="F")
        P = host[1::2, 2::3]
    P[...] = values
    return host, P


@st.composite
def _panel_case(draw):
    b = draw(st.sampled_from([1, 2, 16, 17, 40]))
    return dict(
        lq=draw(st.booleans()),
        j=b + draw(st.integers(0, 60)),
        b=b,
        inner=draw(st.sampled_from([1, 2, 3, kernels.PANEL_INNER_B])),
        layout=draw(st.sampled_from(PANEL_LAYOUTS)),
        # reflector columns (QR) or rows (LQ) that are all signed zeros: tau = 0
        zero=draw(st.sets(st.integers(0, b - 1), max_size=3)),
        # 1: _extreme_values (subnormals, 1e+-300 entries); else whole panel scaled
        scale=draw(st.sampled_from([1.0, 1e-300, 1e300])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=80, deadline=None)
@given(case=_panel_case())
def test_compiled_panels_match_numpy_panels_bitwise(case, compiled_sum, numpy_sum):
    """The compiled column products, build_w and inner-block sums give the
    NumPy panel's bits for Y, T, W, R or L, tau and the mutated panel
    (written nowhere else), and its flops."""
    j, b, lq = case["j"], case["b"], case["lq"]
    rng = np.random.default_rng(case["seed"])
    shape = (b, j) if lq else (j, b)
    if case["scale"] == 1.0:
        values = _extreme_values(rng, shape)
    else:
        values = _values(rng, shape) * case["scale"]
    for c in case["zero"]:
        line = values[c, :] if lq else values[:, c]
        line[...] = rng.choice([0.0, -0.0], size=j)
    panel = lq_panel if lq else qr_panel
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "PANEL_INNER_B", case["inner"])
        for sum_ in (compiled_sum, numpy_sum):
            mp.setattr(kernels, "_COMPILED_SUM", sum_)
            host, P = _panel_in_host(values, case["layout"])
            FLOPS.reset()
            with np.errstate(all="ignore"):
                f = panel(P)
            runs.append((host, f, FLOPS.snapshot()))
    (host1, f1, flops1), (host2, f2, flops2) = runs
    assert np.array_equal(_bits(host1), _bits(host2))
    for name in ("y", "t", "w", "r_or_l", "tau"):
        assert np.array_equal(_bits(getattr(f1, name)), _bits(getattr(f2, name))), name
    assert flops1 == flops2
    if case["zero"]:
        assert np.count_nonzero(f1.tau == 0.0) >= 1


def _host_has_fma():
    cpuinfo = Path("/proc/cpuinfo")
    return cpuinfo.is_file() and " fma " in cpuinfo.read_text()


def test_a_contracted_build_fails_the_bit_check(tmp_path, compiled_sum):
    """Mutation check: the same source built to contract a*b + c into FMAs
    must disagree with the NumPy sum on a rank-b product over unit-stride
    operands (bandred_product's vectorizable loop) and on a rank-2k update
    (bandred_syr2k_lower's), so the bit tests above would catch a build
    that contracts."""
    flags = ("-O3", "-march=native", "-ffp-contract=fast", "-fPIC", "-shared")
    try:
        fused = kernels._load_lib(kernels._build_sum(shutil.which("cc"), flags, tmp_path))
    except (OSError, subprocess.SubprocessError) as e:
        pytest.skip(f"cc cannot build with {flags}: {e}")
    A, B, C0 = _rand(200, 16, 60), _rand(16, 64, 61), _rand(200, 64, 62)
    got, want = C0.copy(order="F"), C0.copy(order="F")
    kernels._product(fused.product, 1.0, A, B, 1.0, got)
    _numpy_step(1.0, A, B, 1.0, want, None)
    S0, X3, Y = _rand(150, 150, 78), _rand(150, 16, 79), _rand(150, 16, 80)
    got_s, want_s = S0.copy(order="F"), S0.copy(order="F")
    kernels._syr2k(fused.syr2k_lower, got_s, X3, Y, 0, 150)
    _syr2k_loop(want_s, X3, Y, 0, 150)
    differ = [np.count_nonzero(_bits(g) != _bits(w)) for g, w in ((got, want), (got_s, want_s))]
    if differ == [0, 0] and not _host_has_fma():
        pytest.skip("the host has no FMA, so the contracted build cannot differ")
    assert all(differ)


@pytest.fixture(scope="module")
def plain_sum(compiled_sum, tmp_path_factory):
    """The compiled sum built without the AVX2 clones, loaded."""
    flags = (*kernels._SUM_FLAGS, "-DBANDRED_NO_CLONES")
    return kernels._load_lib(kernels._build_sum(shutil.which("cc"), flags, tmp_path_factory.mktemp("plain")))


def test_the_clones_are_built_where_the_loader_picks_them(compiled_sum):
    """On x86-64 glibc the cached library holds an AVX2 clone of each entry
    point, and only there; elsewhere it is the plain build."""
    lib = kernels._build_sum(shutil.which("cc"), kernels._SUM_FLAGS, kernels._default_cache_dir())
    data = lib.read_bytes()
    want = platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc"
    for name in kernels._ENTRY_POINTS:
        assert (f"bandred_{name}.avx2".encode() in data) == want, name


@st.composite
def _clone_case(draw):
    scalar = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1e3, 1e3, allow_nan=False))
    j = draw(st.integers(1, 150))
    c0 = draw(st.integers(0, j))
    return dict(
        dims=(j, draw(st.integers(0, 20)), draw(st.integers(1, 40))),
        cols=(c0, draw(st.integers(c0, j))),
        layouts=tuple(draw(st.sampled_from(LAYOUTS)) for _ in range(3)),
        alpha=draw(scalar),
        beta=draw(scalar),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(case=_clone_case())
def test_the_clones_give_the_plain_builds_bits(case, compiled_sum, plain_sum):
    """Every entry point of the loaded library, its AVX2 clone where the
    host has AVX2, gives the bits of the plain build over random operands,
    layouts and alpha/beta."""
    j, k, n = case["dims"]
    rng = np.random.default_rng(case["seed"])
    la, lb, lc = case["layouts"]
    A, X3, Y = (_laid_out(_extreme_values(rng, (j, k)), lay) for lay in (la, lb, lc))
    B = _laid_out(_extreme_values(rng, (k, n)), lb)
    S = _laid_out(_extreme_values(rng, (j, j)), la)
    W = _laid_out(_extreme_values(rng, (j, n)), lb)
    C0 = _extreme_values(rng, (j, n))
    outs = []
    for lib in (compiled_sum.lib_for(), plain_sum):
        C, T, out = _laid_out(C0, lc), _laid_out(S, la), _laid_out(C0, lc)
        with np.errstate(all="ignore"):
            kernels._product(lib.product, case["alpha"], A, B, case["beta"], C)
            kernels._syr2k(lib.syr2k_lower, T, X3, Y, *case["cols"])
            kernels._SymmLower(lib.symm_lower)(1.0, S, W, 0.0, out, None)
        outs.append((C, T, out))
    for got, want in zip(*outs, strict=True):
        assert np.array_equal(_bits(got), _bits(want))


def _compiled_kernel_outputs(workers=None):
    """The outputs and flops of every kernel that sums through compiled C."""
    rng = np.random.default_rng(63)
    j, b = 150, 16
    S = _laid_out(_values(rng, (j, j)), "F")
    W, X3, Y = (_laid_out(_values(rng, (j, b)), "F") for _ in range(3))
    out = np.zeros((j, b), order="F")
    PQ, PL = _laid_out(_values(rng, (j, 20)), "F"), _laid_out(_values(rng, (20, j)), "F")
    FLOPS.reset()
    syr2k_lower(S, X3, Y, workers)
    symm_lower(S, W, out, workers)
    factors = qr_panel(PQ), lq_panel(PL)
    arrays = [out, S, PQ, PL] + [getattr(f, a) for f in factors for a in ("y", "t", "w", "r_or_l", "tau")]
    return arrays, FLOPS.snapshot()


def test_without_a_compiler_the_numpy_sum_warns_once_with_the_same_bits(
    monkeypatch, compiled_sum, pool_workers
):
    want, want_flops = _compiled_kernel_outputs()
    monkeypatch.setattr(kernels, "_find_cc", lambda: None)
    monkeypatch.setattr(kernels, "_COMPILED_SUM", kernels._CompiledSum())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # the first use comes from two pool threads at once
        pool_workers[2].map(lambda _: kernels._COMPILED_SUM.lib_for(), range(2))
        runs = [_compiled_kernel_outputs(pool_workers[w]) for w in (2, 0, 1, 2)]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "no C compiler" in str(caught[0].message)
    assert kernels._COMPILED_SUM.lib_for() is None
    for arrays, flops in runs:
        for got, exp in zip(arrays, want, strict=True):
            assert np.array_equal(_bits(got), _bits(exp))
        assert flops == want_flops


@pytest.mark.parametrize("mode", [0o770, 0o703, 0o777])
def test_a_cache_dir_others_can_write_is_refused(tmp_path, mode, compiled_sum):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(mode)
    refused = kernels._CompiledSum(cache_dir=cache)
    A, B, C0 = _rand(40, 8, 64), _rand(8, 30, 65), _rand(40, 30, 66)
    got, want = C0.copy(order="F"), C0.copy(order="F")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        refused(1.0, A, B, 1.0, got, None)
        refused(1.0, A, B, 1.0, got, None)
    assert len(caught) == 1 and "not private" in str(caught[0].message)
    assert refused.lib_for() is None and list(cache.iterdir()) == []
    _numpy_step(1.0, A, B, 1.0, want, None)
    _numpy_step(1.0, A, B, 1.0, want, None)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0, reason="chown needs root")
def test_a_cache_dir_another_user_owns_is_refused(tmp_path, compiled_sum):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    os.chown(cache, 12345, -1)
    refused = kernels._CompiledSum(cache_dir=cache)
    with pytest.warns(RuntimeWarning, match="not private"):
        assert refused.lib_for() is None


def test_a_private_cache_dir_is_built_once_then_loaded(tmp_path, compiled_sum):
    cache = tmp_path / "new" / "bandred"
    first = kernels._CompiledSum(cache_dir=cache)
    assert first.lib_for() is not None
    assert cache.stat().st_mode & 0o777 == 0o700
    (lib,) = cache.iterdir()
    built = lib.stat().st_mtime_ns
    second = kernels._CompiledSum(cache_dir=cache)
    C = np.zeros((1, 1))
    second(1.0, np.full((1, 1), 3.0), np.full((1, 1), 2.0), 1.0, C, None)
    assert C[0, 0] == 6.0 and list(cache.iterdir()) == [lib]
    assert lib.stat().st_mtime_ns == built


def _python(code, cache_home):
    """code run in a fresh interpreter with the cache under cache_home."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(kernels.__file__).parents[1]), env.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_only_the_sevp_kernels_build_the_compiled_sum(tmp_path, compiled_sum):
    """Importing bandred and analyzing dependencies compile nothing; the
    first symm_lower builds into $XDG_CACHE_HOME/bandred."""
    _python("import bandred as b; f = b.SvdForm.BAND; "
            "b.analyze_overlap(b.build_dag(b.enumerate_tasks(48, 48, 8, 4, f), 48, 48, 8, 4, f), "
            "8, 4, f)", tmp_path)
    assert list(tmp_path.iterdir()) == []
    _python("import numpy as np, bandred.kernels as k; "
            "k.symm_lower(np.eye(3), np.ones((3, 2)), np.zeros((3, 2))); "
            "assert k._COMPILED_SUM.lib_for() is not None", tmp_path)
    assert [p.suffix for p in (tmp_path / "bandred").iterdir()] == [".so"]

from __future__ import annotations

import numpy as np
import pytest

import bandred.sevp
from bandred import (
    ExecGroups,
    SevpConfig,
    SevpVariant,
    band_check,
    gen_sym,
    orth_residual,
    reduce_sym_band,
    sevp_nominal_flops,
    spectrum_deviation,
)


def _sym(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return np.asfortranarray((g + g.T) / 2.0)


def _cfg(n, w, b, variant=SevpVariant.REFERENCE, **kw):
    return SevpConfig(n=n, w=w, b=b, variant=variant, **kw)


def _run(A, cfg, threads=None, ts=1):
    if threads is None:
        return reduce_sym_band(A, cfg)
    with ExecGroups(threads, ts) as groups:
        return reduce_sym_band(A, cfg, groups), groups


def test_diagonal_matrix_is_a_fixed_point():
    A = np.diag(np.arange(1.0, 13.0))
    for w, b in ((2, 1), (4, 2), (4, 4)):
        res = reduce_sym_band(A, _cfg(12, w, b))
        assert np.array_equal(res.band, A)


def test_small_matrix_already_in_band_returned_unchanged():
    A = _sym(5, 0)
    res = reduce_sym_band(A, _cfg(5, 4, 2))
    assert res.iterations == 0
    assert np.array_equal(res.band, A)
    assert res.flops["total"] == 0


def test_small_matrix_reads_only_the_lower_triangle_and_reports_q_and_flops():
    """n <= w + 1: no iteration runs, yet the band is the lower triangle
    mirrored, Q the identity and every flop class zero."""
    L = np.tril(_sym(4, 3))
    L[np.triu_indices(4, 1)] = np.nan  # never read
    for aq in (False, True):
        res = reduce_sym_band(L, _cfg(4, 3, 1, accumulate_q=aq))
        assert res.iterations == 0
        assert np.array_equal(res.band, res.band.T)
        assert np.array_equal(np.tril(res.band), np.tril(L))
        assert res.flops == {"matmul": 0, "house": 0, "syr2k": 0, "total": 0}
        assert np.array_equal(res.q, np.eye(4)) if aq else res.q is None


def test_reduction_preserves_eigenvalues_and_band_pattern():
    A = _sym(40, 1)
    for b in (2, 3, 6):
        res = reduce_sym_band(A, _cfg(40, 6, b))
        assert band_check(res.band, 6, 6) == 0.0
        assert np.array_equal(res.band, res.band.T)
        dev = spectrum_deviation(A, res.band, "eig")
        assert dev <= 1e-11, f"b={b}: relative eigenvalue deviation {dev}"


def test_accumulated_q_reproduces_band():
    A = _sym(32, 2)
    res = reduce_sym_band(A, _cfg(32, 4, 2, accumulate_q=True))
    Q = res.q
    assert Q is not None
    assert orth_residual(Q) <= 1e-12
    scale = np.linalg.norm(A)
    assert np.linalg.norm(Q.T @ A @ Q - res.band) <= 1e-12 * scale


def test_q_not_accumulated_by_default():
    res = reduce_sym_band(_sym(20, 3), _cfg(20, 4, 2))
    assert res.q is None


def test_v1_serialized_is_bitwise_reference():
    A = _sym(36, 4)
    ref = reduce_sym_band(A, _cfg(36, 8, 3))
    with ExecGroups(1, 1) as groups:
        v1 = reduce_sym_band(A, _cfg(36, 8, 3, SevpVariant.V1), groups)
    assert np.array_equal(v1.band, ref.band)


def test_v1_threaded_is_bitwise_reference():
    A = _sym(36, 5)
    ref = reduce_sym_band(A, _cfg(36, 8, 4))
    with ExecGroups(2, 1) as groups:
        v1 = reduce_sym_band(A, _cfg(36, 8, 4, SevpVariant.V1), groups)
    assert np.array_equal(v1.band, ref.band)


def test_v1_boundary_no_rest_update_when_w_is_2b():
    """At w = 2b a full next panel covers the whole remainder of the mid
    block, so no leftover mid update may be scheduled for those iterations
    (the shrunken fringe panel at the very end legitimately leaves a rest)."""
    A = _sym(30, 6)
    with ExecGroups(2, 1) as groups:
        res = reduce_sym_band(A, _cfg(30, 8, 4, SevpVariant.V1), groups)
        rest_ks = {r[0].split("@")[1] for r in groups.trace.find("mid-rest@")}
        assert groups.trace.find("mid-head@")
    # ks = 0,4,...,20; the next panel is full width (4) for k <= 12
    assert rest_ks.isdisjoint({"0", "4", "8", "12"})
    ref = reduce_sym_band(A, _cfg(30, 8, 4))
    assert np.array_equal(res.band, ref.band)


def _boxes(tasks, role):
    return [(s.target, s.rows, s.cols) for t in tasks for s in getattr(t, role)]


def _meets(p, q):
    (tp, rp, cp), (tq, rq, cq) = p, q
    return tp == tq and rp[0] < rq[1] and rq[0] < rp[1] and cp[0] < cq[1] and cq[0] < cp[1]


def test_v1_phase_write_sets_are_disjoint(captured_plans):
    """Re-check, independently of the runtime's own guard, that no V1 or V2
    phase declares a write of one group meeting a read or write of the other."""
    for variant, w, b in ((SevpVariant.V1, 8, 3), (SevpVariant.V2, 6, 4)):
        with ExecGroups(2, 1) as groups:
            reduce_sym_band(_sym(30, 7), _cfg(30, w, b, variant), groups)
    assert any(p.seq_tasks and p.par_tasks for p in captured_plans)
    for plan in captured_plans:
        for mine, theirs in ((plan.seq_tasks, plan.par_tasks), (plan.par_tasks, plan.seq_tasks)):
            for wr in _boxes(mine, "writes"):
                for other in _boxes(theirs, "writes") + _boxes(theirs, "reads"):
                    assert not _meets(wr, other), (plan.label, wr, other)


def test_v2_serialized_is_bitwise_reference():
    A = _sym(36, 8)
    ref = reduce_sym_band(A, _cfg(36, 6, 4))
    with ExecGroups(1, 1) as groups:
        v2 = reduce_sym_band(A, _cfg(36, 6, 4, SevpVariant.V2), groups)
    assert np.array_equal(v2.band, ref.band)


def test_v2_threaded_is_bitwise_reference():
    A = _sym(36, 9)
    ref = reduce_sym_band(A, _cfg(36, 6, 4))
    with ExecGroups(2, 1) as groups:
        v2 = reduce_sym_band(A, _cfg(36, 6, 4, SevpVariant.V2), groups)
    assert np.array_equal(v2.band, ref.band)


def test_v2_with_b_equal_w_leads_with_b_columns(captured_plans):
    """b = w: the head piece of the trailing update (the columns the next
    panel spills into, width bp + bpn - w) spans exactly b columns whenever
    the next panel is full width."""
    A = _sym(30, 11)
    with ExecGroups(2, 1) as groups:
        res = reduce_sym_band(A, _cfg(30, 4, 4, SevpVariant.V2), groups)
    widths = {
        t.task_id.split("@")[1]: t.writes[0].cols[1] - t.writes[0].cols[0]
        for plan in captured_plans
        for t in plan.seq_tasks
        if t.task_id.startswith("trail-head@")
    }
    # ks = 0,4,...,24 with a width-2 fringe panel at k = 24
    assert {k: w for k, w in widths.items() if k in {"0", "4", "8", "12", "16"}} == {
        k: 4 for k in ("0", "4", "8", "12", "16")
    }
    assert widths["20"] == 2
    ref = reduce_sym_band(A, _cfg(30, 4, 4))
    assert np.array_equal(res.band, ref.band)


def test_v2_next_panel_waits_for_mid_and_x_products():
    """The look-ahead factorization of iteration k+1's panel must start only
    after iteration k's block update and X products have finished."""
    A = _sym(36, 12)
    with ExecGroups(2, 1) as groups:
        reduce_sym_band(A, _cfg(36, 6, 4, SevpVariant.V2), groups)
        trace = groups.trace
    ks = [0, 4, 8, 12, 16, 20, 24, 28]
    for k, kn in zip(ks, ks[1:]):
        qr = [r for r in trace.records if r[0] == f"qr@{kn}"]
        mid = [r for r in trace.records if r[0] == f"mid@{k}"]
        x3 = [r for r in trace.records if r[0] == f"xprod3@{k}"]
        assert len(qr) == 1 and len(mid) == 1 and len(x3) == 1
        assert qr[0][2] > mid[0][3]
        assert qr[0][2] > x3[0][3]


def test_variant_validation():
    with pytest.raises(ValueError, match=r"^V1 requires 2b <= w, got b=3, w=4$"):
        reduce_sym_band(_sym(20, 0), _cfg(20, 4, 3, SevpVariant.V1))  # 2b > w
    with pytest.warns(RuntimeWarning, match="V2 with 2b <= w") as got:
        reduce_sym_band(_sym(20, 0), _cfg(20, 6, 2, SevpVariant.V2))  # 2b <= w
    # the warning points at the caller of reduce_sym_band
    assert [r.filename for r in got] == [__file__]


def test_input_validation():
    with pytest.raises(ValueError):
        reduce_sym_band(np.zeros((4, 5), order="F"), _cfg(4, 2, 1))
    with pytest.raises(ValueError):
        reduce_sym_band(_sym(8, 0), _cfg(9, 2, 1))
    with pytest.raises(ValueError):
        reduce_sym_band(_sym(8, 0), _cfg(8, 2, 3))  # b > w


def test_reduction_is_reproducible():
    A = _sym(28, 13)
    r1 = reduce_sym_band(A, _cfg(28, 4, 2))
    r2 = reduce_sym_band(A, _cfg(28, 4, 2))
    assert np.array_equal(r1.band, r2.band)


def test_nominal_flops_formula():
    assert sevp_nominal_flops(0) == 0
    assert sevp_nominal_flops(3) == 36
    with pytest.raises(ValueError):
        sevp_nominal_flops(-1)


def test_counted_flops_track_nominal():
    n = 1000
    res = reduce_sym_band(_sym(n, 14), _cfg(n, 16, 8))
    nominal = sevp_nominal_flops(n)
    assert abs(res.flops["total"] - nominal) <= 0.05 * nominal


# Counted flops of n=96, w=16, b=8, one class at a time: the schedules
# share every task body, so all three variants count the same, and a kernel
# that moved work between classes (part of the rank-2k update charged to
# "matmul", say) shows.
PINNED_FLOPS_96 = {"matmul": 2074560, "house": 9720, "syr2k": 401280, "total": 2485560}


@pytest.mark.filterwarnings("ignore:V2 with 2b <= w:RuntimeWarning")
@pytest.mark.parametrize("threads", [None, 2, 3])
@pytest.mark.parametrize("variant", list(SevpVariant))
def test_flops_per_class_are_pinned(variant, threads):
    cfg = _cfg(96, 16, 8, variant, accumulate_q=True)
    res = _run(gen_sym(96, 0), cfg, threads)
    res = res if threads is None else res[0]
    assert res.flops == PINNED_FLOPS_96


def test_finalize_cuts_the_band_and_mirrors_it_with_the_sums_bits():
    """_finalize keeps the bits of mirroring by the sum low + low.T of the
    cut lower band: off the diagonal both copies hold x + 0.0, so a -0.0
    in the band turns +0.0 at (i, j) and at (j, i), while the diagonal
    keeps its own bits, a -0.0 there included. Everything off the band,
    whatever the upper triangle held, is +0.0."""
    n, w = 9, 2
    rng = np.random.default_rng(4)
    A = np.asfortranarray(rng.standard_normal((n, n)))
    A[5, 3] = A[2, 2] = A[7, 1] = A[1, 6] = -0.0  # in band, diagonal, off band, upper
    A[0, 4] = np.nan  # the upper triangle is never read
    i, j = np.indices((n, n))
    low = np.where((i >= j) & (i - j <= w), A, 0.0)
    want = low + low.T
    want[i == j] = np.diag(A)
    got = bandred.sevp._finalize(A.copy(order="F"), w)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert not np.signbit(got[5, 3]) and not np.signbit(got[3, 5])
    assert np.signbit(got[2, 2])
    assert not np.signbit(got[np.abs(i - j) > w]).any() and (got[np.abs(i - j) > w] == 0).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_lower_triangle_is_rejected(bad):
    A = _sym(24, 5)
    A[17, 3] = A[3, 17] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        reduce_sym_band(A, _cfg(24, 4, 2))


def test_non_finite_upper_triangle_is_never_read():
    A = _sym(24, 5)
    poisoned = A.copy(order="F")
    poisoned[3, 17] = np.nan
    want = reduce_sym_band(A, _cfg(24, 4, 2)).band
    assert np.array_equal(reduce_sym_band(poisoned, _cfg(24, 4, 2)).band, want)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_extreme_scales_keep_eigenvalues(scale):
    # Householder norms must neither underflow nor overflow: the band of
    # s*A, divided by s, has the eigenvalues of A to rounding.
    A = gen_sym(128, 0)
    band = reduce_sym_band(A * scale, _cfg(128, 16, 8)).band
    assert np.isfinite(band).all()
    assert band_check(band, 16, 16) == 0.0
    want = np.linalg.eigvalsh(A)
    got = np.linalg.eigvalsh(band / scale)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

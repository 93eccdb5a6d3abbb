from __future__ import annotations

import warnings

import numpy as np
import pytest

from bandred import kernels
from bandred import (
    ExecGroups,
    SvdConfig,
    SvdForm,
    SvdVariant,
    band_check,
    gen_general,
    lq_panel,
    qr_panel,
    reduce_band_svd,
    reduce_tri_band,
    spectrum_deviation,
    svd_nominal_flops,
)


def _rand(m, n, seed):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.standard_normal((m, n)))


def _cfg(m, n, w, b, variant=SvdVariant.REFERENCE, form=SvdForm.BAND, **kw):
    return SvdConfig(m=m, n=n, w=w, b=b, form=form, variant=variant, **kw)


# --- triangular-band form --------------------------------------------------


def test_tri_already_banded_input_only_flips_signs():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 6))
    i = np.arange(10)[:, None]
    j = np.arange(6)[None, :]
    A[(i > j) | (j > i + 2)] = 0.0
    res = reduce_tri_band(np.asfortranarray(A), w=2, b=2)
    assert np.array_equal(np.abs(res.band), np.abs(A))


def test_tri_small_w_equals_b_oracle():
    A = _rand(10, 6, 1)
    res = reduce_tri_band(A, w=2, b=2)
    assert band_check(res.band, 0, 2) == 0.0
    assert (res.lower_bw, res.upper_bw) == (0, 2)
    assert spectrum_deviation(A, res.band, "sv") <= 1e-11


def test_tri_wide_band_with_smaller_blocks():
    A = _rand(18, 14, 2)
    res = reduce_tri_band(A, w=4, b=2)
    assert band_check(res.band, 0, 4) == 0.0
    assert spectrum_deviation(A, res.band, "sv") <= 1e-11


def test_tri_wide_matrix_reduces_transpose():
    A = _rand(6, 10, 3)
    res = reduce_tri_band(A, w=2, b=1)
    assert res.band.shape == (6, 10)
    assert (res.lower_bw, res.upper_bw) == (2, 0)
    assert band_check(res.band, 2, 0) == 0.0
    assert spectrum_deviation(A, res.band, "sv") <= 1e-11


def test_tri_rejects_bad_blocking():
    with pytest.raises(ValueError):
        reduce_tri_band(_rand(8, 6, 0), w=0, b=1)
    with pytest.raises(ValueError):
        reduce_tri_band(_rand(8, 6, 0), w=2, b=3)
    with pytest.raises(ValueError):
        reduce_tri_band(np.zeros(5), w=2, b=1)


# --- band form: schedules agree --------------------------------------------


def test_band_diagonal_matrix_is_a_fixed_point():
    A = np.asfortranarray(np.diag(np.arange(1.0, 31.0)))
    res = reduce_band_svd(A, _cfg(30, 30, 4, 2))
    assert np.array_equal(res.band, A)


def test_band_small_matrix_returned_unchanged():
    A = _rand(6, 5, 4)
    res = reduce_band_svd(A, _cfg(6, 5, 8, 3))
    assert res.iterations == 0
    assert np.array_equal(res.band, A)
    assert res.flops == {"matmul": 0, "panel": 0, "house": 0, "syr2k": 0, "total": 0}


def test_band_oracle_square():
    A = _rand(30, 30, 5)
    res = reduce_band_svd(A, _cfg(30, 30, 6, 3))
    assert band_check(res.band, 6, 6) == 0.0
    assert spectrum_deviation(A, res.band, "sv") <= 1e-11


def test_band_oracle_rectangular():
    A = _rand(24, 20, 6)
    res = reduce_band_svd(A, _cfg(24, 20, 4, 4))
    assert band_check(res.band, 4, 4) == 0.0
    assert spectrum_deviation(A, res.band, "sv") <= 1e-11


def test_band_wide_matrix_reduces_transpose():
    A = _rand(20, 26, 7)
    res = reduce_band_svd(A, _cfg(20, 26, 4, 2))
    assert res.band.shape == (20, 26)
    assert band_check(res.band, 4, 4) == 0.0
    assert spectrum_deviation(A, res.band, "sv") <= 1e-11


def test_simultaneous_matches_reference_within_tolerance():
    """Same reduction, different trailing-update algebra: the fused form and
    the two-sweep form agree to rounding, never bitwise."""
    A = _rand(24, 20, 8)
    ref = reduce_band_svd(A, _cfg(24, 20, 4, 4))
    sim = reduce_band_svd(A, _cfg(24, 20, 4, 4, SvdVariant.SIMULTANEOUS))
    assert np.max(np.abs(sim.band - ref.band)) <= 1e-12 * np.linalg.norm(A)
    assert spectrum_deviation(A, sim.band, "sv") <= 1e-11


def test_v1_serialized_is_bitwise_reference():
    A = _rand(30, 30, 9)
    ref = reduce_band_svd(A, _cfg(30, 30, 8, 4))
    with ExecGroups(1, 1) as groups:
        v1 = reduce_band_svd(A, _cfg(30, 30, 8, 4, SvdVariant.V1), groups)
    assert np.array_equal(v1.band, ref.band)


def test_v1_threaded_is_bitwise_reference():
    A = _rand(30, 28, 10)
    ref = reduce_band_svd(A, _cfg(30, 28, 8, 4))
    with ExecGroups(2, 1) as groups:
        v1 = reduce_band_svd(A, _cfg(30, 28, 8, 4, SvdVariant.V1), groups)
    assert np.array_equal(v1.band, ref.band)


def test_v2_serialized_is_bitwise_simultaneous():
    A = _rand(30, 30, 11)
    sim = reduce_band_svd(A, _cfg(30, 30, 6, 4, SvdVariant.SIMULTANEOUS))
    with ExecGroups(1, 1) as groups:
        v2 = reduce_band_svd(A, _cfg(30, 30, 6, 4, SvdVariant.V2), groups)
    assert np.array_equal(v2.band, sim.band)


def test_v2_threaded_is_bitwise_simultaneous():
    A = _rand(30, 30, 12)
    sim = reduce_band_svd(A, _cfg(30, 30, 6, 4, SvdVariant.SIMULTANEOUS))
    with ExecGroups(2, 1) as groups:
        v2 = reduce_band_svd(A, _cfg(30, 30, 6, 4, SvdVariant.V2), groups)
    assert np.array_equal(v2.band, sim.band)


def test_v2_oracle_rectangular():
    A = _rand(40, 36, 14)
    with ExecGroups(2, 1) as groups:
        res = reduce_band_svd(A, _cfg(40, 36, 4, 3, SvdVariant.V2), groups)
    assert band_check(res.band, 4, 4) == 0.0
    assert spectrum_deviation(A, res.band, "sv") <= 1e-11


def test_rectangular_shape_insensitivity():
    """The invariants hold across aspect ratios with everything else fixed."""
    for n in (12, 24, 36):
        A = _rand(36, n, 100 + n)
        res = reduce_band_svd(A, _cfg(36, n, 4, 2))
        assert band_check(res.band, 4, 4) == 0.0
        assert spectrum_deviation(A, res.band, "sv") <= 1e-11


def test_band_reduction_is_reproducible():
    A = _rand(26, 22, 15)
    r1 = reduce_band_svd(A, _cfg(26, 22, 4, 2))
    r2 = reduce_band_svd(A, _cfg(26, 22, 4, 2))
    assert np.array_equal(r1.band, r2.band)


# --- look-ahead structure --------------------------------------------------


def test_v1_boundary_no_rest_updates_when_w_is_2b():
    """Full next panels at w = 2b exactly fill the B1/C1 remainders; only the
    shrunken fringe panel may leave rest slices."""
    A = _rand(30, 30, 16)
    with ExecGroups(2, 1) as groups:
        reduce_band_svd(A, _cfg(30, 30, 8, 4, SvdVariant.V1), groups)
        b1rest = {r[0].split("@")[1] for r in groups.trace.find("left-b1-rest@")}
        c1rest = {r[0].split("@")[1] for r in groups.trace.find("right-c1-rest@")}
    # ks = 0,4,...,20; bpn is full (4) for the pairs starting at k <= 12
    assert b1rest.isdisjoint({"0", "4", "8", "12"})
    assert c1rest.isdisjoint({"0", "4", "8", "12"})


def test_v1_next_panel_waits_for_its_column_update():
    """The look-ahead QR of iteration k+1's panel reads columns the current
    left update owns, so it must start strictly after that slice's update."""
    A = _rand(30, 30, 17)
    with ExecGroups(2, 1) as groups:
        reduce_band_svd(A, _cfg(30, 30, 8, 4, SvdVariant.V1), groups)
        trace = groups.trace
    ks = [0, 4, 8, 12, 16, 20]
    for k, kn in zip(ks, ks[1:]):
        qr = [r for r in trace.records if r[0] == f"qr@{kn}"]
        # B1's sequential piece: its head, or all of B1 when the panel fills it
        b1 = (f"left-b1@{k}", f"left-b1-head@{k}")
        head = [r for r in trace.records if r[1] == "seq" and r[0] in b1]
        assert len(qr) == 1 and len(head) == 1
        assert qr[0][2] > head[0][3]


def test_v2_d11_block_is_b_by_b_when_b_equals_w(captured_plans):
    """D11, the top-left cell of V2's cut D, is b x b, and since no next
    panel reads it, it runs on the parallel list."""
    A = _rand(30, 30, 18)
    with ExecGroups(2, 1) as groups:
        reduce_band_svd(A, _cfg(30, 30, 4, 4, SvdVariant.V2), groups)
    d11 = {}
    for plan in captured_plans:
        for t in plan.par_tasks:
            if t.task_id.startswith("dsub-d-rest1@"):
                d11[t.task_id.split("@")[1]] = (t.writes[0], plan)
    for k in ("0", "4", "8", "12", "16"):  # pairs with a full next panel
        span, plan = d11[k]
        assert span.rows[1] - span.rows[0] == 4
        assert span.cols[1] - span.cols[0] == 4
        assert (span.rows[0], span.cols[0]) == (int(k) + 4, int(k) + 4)
        panels = [t for t in plan.seq_tasks + plan.par_tasks if t.reads == t.writes]
        assert panels and not any(r.intersects(span) for p in panels for r in p.reads)


def test_fused_update_matches_dense_two_sided_product():
    """D' = (I + W_U Y_U^T)^T D (I + W_V Y_V^T) via the one-pass form
    ZL = D^T W_U, ZR = D W_V, X = ZR + Y_U (ZL^T W_V),
    D' = D + X Y_V^T + Y_U ZL^T."""
    rng = np.random.default_rng(19)
    i, jr, bp = 14, 11, 3
    fu = qr_panel(np.asfortranarray(rng.standard_normal((i, bp))))
    fv = lq_panel(np.asfortranarray(rng.standard_normal((bp, jr))))
    D = np.asfortranarray(rng.standard_normal((i, jr)))

    ZL = D.T @ fu.w
    ZR = D @ fv.w
    X = ZR + fu.y @ (ZL.T @ fv.w)
    fused = D + X @ fv.y.T + fu.y @ ZL.T

    U = np.eye(i) + fu.w @ fu.y.T
    V = np.eye(jr) + fv.w @ fv.y.T
    dense = U.T @ D @ V
    assert np.max(np.abs(fused - dense)) <= 1e-12 * np.linalg.norm(D)


# --- declared spans ----------------------------------------------------------


@pytest.mark.parametrize(
    "m, n, form, variant",
    [
        (16, 12, SvdForm.TRIANGULAR_BAND, SvdVariant.REFERENCE),
        (18, 18, SvdForm.BAND, SvdVariant.REFERENCE),
        (18, 18, SvdForm.BAND, SvdVariant.SIMULTANEOUS),
    ],
)
def test_tasks_declare_in_bounds_spans_and_read_what_they_update(captured_plans, m, n, form, variant):
    """Every task the reduction runs declares one write, inside A or its
    named buffer. Updates of A read the block they write and first the
    panel whose factors they apply; panels read exactly what they write."""
    reduce_band_svd(_rand(m, n, 20), _cfg(m, n, 4, 2, variant, form=form))
    tasks = [t for plan in captured_plans for t in plan.par_tasks]
    kinds = {t.task_id.split("@")[0].split("-")[0] for t in tasks}
    assert {"qr", "lq", "left", "right"} <= kinds
    for t in tasks:
        (own,) = t.writes
        if own.target == "A":
            assert 0 <= own.rows[0] < own.rows[1] <= m
            assert 0 <= own.cols[0] < own.cols[1] <= n
        if t.task_id.startswith(("qr@", "lq@")):
            assert t.reads == [own]
        elif t.task_id.startswith(("left", "right", "dsub")):
            assert own in t.reads
            side = "qr" if t.task_id.startswith(("left", "dsub")) else "lq"
            (panel,) = [p for p in tasks if p.task_id == f"{side}@{t.task_id.split('@')[1]}"]
            assert t.reads[0] == panel.writes[0], t.task_id


# --- config and flops ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(10, 8, 4, 2, SvdVariant.V1, form=SvdForm.TRIANGULAR_BAND).validate()
    with pytest.raises(ValueError):
        _cfg(10, 8, 4, 3, SvdVariant.V1).validate()  # 2b > w
    with pytest.warns(RuntimeWarning):
        _cfg(10, 8, 6, 2, SvdVariant.V2).validate()
    with pytest.raises(ValueError, match=r"^V1 requires 2b <= w, got b=3, w=4$"):
        reduce_band_svd(_rand(10, 8, 0), _cfg(10, 8, 4, 3, SvdVariant.V1))
    # reduce_band_svd's V2 warning points at its caller, once, also when it
    # reduces a wide matrix through its transpose
    for m, n in ((10, 8), (8, 10)):
        with pytest.warns(RuntimeWarning, match="V2 with 2b <= w") as got:
            reduce_band_svd(_rand(m, n, 0), _cfg(m, n, 6, 2, SvdVariant.V2))
        assert [r.filename for r in got] == [__file__]
    with pytest.raises(ValueError):
        _cfg(10, 8, 4, 5).validate()  # b > w
    with pytest.raises(ValueError):
        reduce_band_svd(_rand(9, 8, 0), _cfg(10, 8, 4, 2))  # shape mismatch


def test_nominal_flops_formula():
    assert svd_nominal_flops(0, 0) == 0
    assert svd_nominal_flops(9, 9) == 1944  # 8 n^3 / 3
    assert svd_nominal_flops(12, 8) == 2389  # round(4(mn^2 - n^3/3))
    with pytest.raises(ValueError):
        svd_nominal_flops(6, 7)


# Counted flops of a 120x80, w=16, b=8 reduction, one class at a time; V1
# runs the Reference's tasks, Simultaneous forms the Z products instead.
_REFERENCE_FLOPS_120x80 = {"matmul": 1812480, "panel": 228288, "house": 21720, "syr2k": 0,
                           "total": 2062488}
PINNED_FLOPS_120x80 = {
    SvdVariant.REFERENCE: _REFERENCE_FLOPS_120x80,
    SvdVariant.V1: _REFERENCE_FLOPS_120x80,
    SvdVariant.SIMULTANEOUS: {"matmul": 1927168, "panel": 228288, "house": 21720, "syr2k": 0,
                              "total": 2177176},
}


@pytest.mark.parametrize("threads", [None, 3])
@pytest.mark.parametrize("variant", list(PINNED_FLOPS_120x80))
def test_band_flops_per_class_are_pinned(variant, threads):
    A, cfg = gen_general(120, 80, 0), _cfg(120, 80, 16, 8, variant)
    if threads is None:
        res = reduce_band_svd(A, cfg)
    else:
        with ExecGroups(threads, 1) as groups:
            res = reduce_band_svd(A, cfg, groups)
    assert res.flops == PINNED_FLOPS_120x80[variant]


def test_tri_flops_per_class_are_pinned():
    tri = reduce_tri_band(gen_general(120, 80, 0), 16, 8).flops
    assert tri == {"matmul": 1996800, "panel": 266688, "house": 25560, "syr2k": 0,
                   "total": 2289048}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(24, 16), (16, 24)])
def test_non_finite_input_is_rejected(bad, shape):
    A = _rand(*shape, 6)
    A[5, 9] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        reduce_band_svd(A, _cfg(*shape, 4, 2))
    with pytest.raises(ValueError, match="NaN or Inf"):
        reduce_tri_band(A, 4, 2)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_extreme_scales_keep_singular_values(scale):
    # Householder norms must neither underflow nor overflow: both forms of
    # s*A, divided by s, have the singular values of A to rounding.
    A = gen_general(96, 64, 0)
    want = np.linalg.svd(A, compute_uv=False)
    tri = reduce_tri_band(A * scale, 8, 4).band
    bnd = reduce_band_svd(A * scale, _cfg(96, 64, 8, 4)).band
    assert band_check(tri, 0, 8) == 0.0
    assert band_check(bnd, 8, 8) == 0.0
    for band in (tri, bnd):
        assert np.isfinite(band).all()
        got = np.linalg.svd(band / scale, compute_uv=False)
        assert np.max(np.abs(got - want)) <= 1e-13 * want[0]


def test_a_wide_input_still_warns_that_the_compiled_sum_is_missing(monkeypatch):
    """The once-per-process warning comes from the first reduction that sums,
    whichever way round its input is."""
    monkeypatch.setattr(kernels, "_find_cc", lambda: None)
    monkeypatch.setattr(kernels, "_COMPILED_SUM", kernels._CompiledSum())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reduce_tri_band(gen_general(24, 40, 3), 8, 4)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "compiled sum unavailable" in str(caught[0].message)

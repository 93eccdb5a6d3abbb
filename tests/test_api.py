"""The public surface, pinned: the package's exported names and the call
signatures of the reductions, their configs and the look-ahead planner.
A change here is an API change and should be made on purpose."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import bandred
from bandred import SevpConfig, SevpVariant, SvdConfig, SvdVariant, lookahead

EXPORTS = [
    "FLOPS", "FlopCounter",
    "PanelFactors", "house_gen", "qr_panel", "lq_panel", "build_w",
    "apply_wy_left", "apply_wy_right", "matmul",
    "ExecGroups", "PhasePlan", "Task", "Span", "Workers", "EventTrace",
    "WriteOverlapError", "run_phase",
    "SevpConfig", "SevpResult", "SevpVariant", "reduce_sym_band",
    "sevp_nominal_flops",
    "SvdConfig", "SvdResult", "SvdForm", "SvdVariant", "reduce_tri_band",
    "reduce_band_svd", "svd_nominal_flops",
    "TaskKind", "TaskNode", "TaskDag", "OverlapReport", "enumerate_tasks",
    "build_dag", "analyze_overlap", "to_dot",
    "band_check", "orth_residual", "spectrum_deviation",
    "gen_sym", "gen_general", "save_matrix", "load_matrix",
]

SIGNATURES = {
    bandred.reduce_sym_band: "(A, cfg, groups=None)",
    bandred.reduce_band_svd: "(A, cfg, groups=None)",
    bandred.reduce_tri_band: "(A, w, b, groups=None)",
    bandred.SevpConfig: (
        "(n: int, w: int, b: int, "
        "variant: bandred.sevp.SevpVariant = <SevpVariant.REFERENCE: 'reference'>, "
        "accumulate_q: bool = False) -> None"
    ),
    bandred.SvdConfig: (
        "(m: int, n: int, w: int, b: int, "
        "form: bandred.svd.SvdForm = <SvdForm.BAND: 'band'>, "
        "variant: bandred.svd.SvdVariant = <SvdVariant.REFERENCE: 'reference'>) -> None"
    ),
    lookahead.plan: "(stream, ks, lookahead=False, v2=False)",
}


def test_public_api_is_pinned():
    assert bandred.__all__ == EXPORTS
    assert all(hasattr(bandred, name) for name in EXPORTS)
    got = {obj: str(inspect.signature(obj)) for obj in SIGNATURES}
    assert got == SIGNATURES


def _no_phase(monkeypatch):
    """Make any phase the reductions hand the runtime fail the test."""

    def no_phase(plan, groups):
        raise AssertionError(f"{plan.label} ran")

    monkeypatch.setattr(lookahead, "run_phase", no_phase)


# A config's enum fields each take a member of the config's own enum. A
# string or another config's member would otherwise run the wrong reduction
# silently (form="band" runs the tri-band stream, then zeroes it as a band)
# or fail mid-run.
WRONG_ENUMS = [
    (SvdConfig(40, 30, 6, 3, form="band"), "form"),
    (SvdConfig(40, 30, 6, 3, form="triband"), "form"),
    (SvdConfig(40, 30, 6, 3, variant=SevpVariant.V1), "variant"),
    (SvdConfig(40, 30, 6, 3, variant="v1"), "variant"),
    (SevpConfig(40, 6, 3, variant=SvdVariant.SIMULTANEOUS), "variant"),
    (SevpConfig(40, 6, 3, variant="v1"), "variant"),
]


@pytest.mark.parametrize("cfg, field", WRONG_ENUMS, ids=[
    "svd-form-str-band", "svd-form-str-triband", "svd-variant-sevp-v1", "svd-variant-str",
    "sevp-variant-svd-simultaneous", "sevp-variant-str",
])
def test_a_config_takes_only_its_own_enums(monkeypatch, cfg, field):
    """validate and the reduction raise ValueError naming the field, and no
    task runs."""
    _no_phase(monkeypatch)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        cfg.validate()
    if isinstance(cfg, SevpConfig):
        reduce, A = bandred.reduce_sym_band, bandred.gen_sym(cfg.n, 0)
    else:
        reduce, A = bandred.reduce_band_svd, bandred.gen_general(cfg.m, cfg.n, 0)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        reduce(A, cfg)


# A config's sizes are ints (a NumPy integer too, a bool not). A float died
# with a TypeError while the first phase was planned or inside the first
# task, and a bool ran as 0 or 1.
WRONG_SIZES = [
    (SevpConfig(40, 8.0, 4), "w"),
    (SevpConfig(40.0, 8, 4), "n"),
    (SevpConfig(40, 8, True), "b"),
    (SevpConfig(np.int64(40), 8, np.float64(4)), "b"),
    (SvdConfig(40, 30, 8.0, 4), "w"),
    (SvdConfig(40.0, 30, 8, 4), "m"),
    (SvdConfig(40, np.float32(30), 8, 4), "n"),
    (SvdConfig(40, 30, 8, False), "b"),
]


@pytest.mark.parametrize("cfg, field", WRONG_SIZES, ids=[
    "sevp-w-float", "sevp-n-float", "sevp-b-bool", "sevp-b-numpy-float",
    "svd-w-float", "svd-m-float", "svd-n-numpy-float", "svd-b-bool",
])
def test_a_config_takes_only_int_sizes(monkeypatch, cfg, field):
    """validate and the reduction raise ValueError naming the field, and no
    task runs."""
    _no_phase(monkeypatch)
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        cfg.validate()
    is_sevp = isinstance(cfg, SevpConfig)
    reduce = bandred.reduce_sym_band if is_sevp else bandred.reduce_band_svd
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        reduce(np.zeros((40, 40) if is_sevp else (40, 30)), cfg)


def test_reduce_tri_band_takes_only_int_sizes(monkeypatch):
    _no_phase(monkeypatch)
    with pytest.raises(ValueError, match="^w must be an int"):
        bandred.reduce_tri_band(bandred.gen_general(40, 30, 0), 8.5, 4)


def test_numpy_integer_sizes_give_the_int_sizes_bits():
    A = bandred.gen_sym(40, 0)
    cfgs = SevpConfig(40, 8, 4), SevpConfig(np.int64(40), np.int32(8), np.int16(4))
    want, got = (bandred.reduce_sym_band(A, cfg).band for cfg in cfgs)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("reduce, A, cfg", [
    (bandred.reduce_sym_band, bandred.gen_sym(12, 0), SevpConfig(12, 4, 2)),
    (bandred.reduce_band_svd, bandred.gen_general(12, 8, 0), SvdConfig(12, 8, 4, 2)),
    (lambda A, cfg: bandred.reduce_tri_band(A, *cfg), bandred.gen_general(12, 8, 0), (4, 2)),
], ids=["sevp", "band", "triband"])
def test_a_complex_matrix_is_refused(monkeypatch, reduce, A, cfg):
    """Casting to the real part would reduce another matrix (for A + 1j*A,
    one whose singular values are those of A + 1j*A over sqrt(2)); the
    reduction raises ValueError instead, before any task runs."""
    _no_phase(monkeypatch)
    with pytest.raises(ValueError, match="needs a real matrix"):
        reduce(A + 1j * A, cfg)

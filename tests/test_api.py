"""The public surface, pinned: the package's exported names and the call
signatures of the reductions, their configs and the look-ahead planner.
A change here is an API change and should be made on purpose."""

from __future__ import annotations

import inspect

import bandred
from bandred import lookahead

EXPORTS = [
    "FLOPS", "FlopCounter",
    "PanelFactors", "house_gen", "qr_panel", "lq_panel", "build_w",
    "apply_wy_left", "apply_wy_right", "matmul",
    "ExecGroups", "PhasePlan", "Task", "Span", "Workers", "EventTrace",
    "WriteOverlapError", "run_phase",
    "SevpConfig", "SevpResult", "SevpVariant", "V2Mapping", "reduce_sym_band",
    "sevp_nominal_flops",
    "SvdConfig", "SvdResult", "SvdForm", "SvdVariant", "reduce_tri_band",
    "reduce_band_svd", "svd_nominal_flops",
    "TaskKind", "TaskNode", "TaskDag", "OverlapReport", "enumerate_tasks",
    "build_dag", "analyze_overlap", "to_dot",
    "band_check", "orth_residual", "spectra_match",
    "gen_sym", "gen_general", "save_matrix", "load_matrix",
]

SIGNATURES = {
    bandred.reduce_sym_band: "(A, cfg, groups=None)",
    bandred.reduce_band_svd: "(A, cfg, groups=None)",
    bandred.reduce_tri_band: "(A, w, b, groups=None)",
    bandred.SevpConfig: (
        "(n: int, w: int, b: int, "
        "variant: bandred.sevp.SevpVariant = <SevpVariant.REFERENCE: 'reference'>, "
        "v2_mapping: bandred.lookahead.V2Mapping = <V2Mapping.ON_TS: 'on_ts'>, "
        "accumulate_q: bool = False) -> None"
    ),
    bandred.SvdConfig: (
        "(m: int, n: int, w: int, b: int, "
        "form: bandred.svd.SvdForm = <SvdForm.BAND: 'band'>, "
        "variant: bandred.svd.SvdVariant = <SvdVariant.REFERENCE: 'reference'>, "
        "v2_mapping: bandred.lookahead.V2Mapping = <V2Mapping.ON_TS: 'on_ts'>) -> None"
    ),
    lookahead.plan: "(stream, ks, lookahead=False, v2_mapping=None)",
}


def test_public_api_is_pinned():
    assert bandred.__all__ == EXPORTS
    assert all(hasattr(bandred, name) for name in EXPORTS)
    got = {obj: str(inspect.signature(obj)) for obj in SIGNATURES}
    assert got == SIGNATURES

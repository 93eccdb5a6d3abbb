"""Two-sided reduction of dense matrices to band form with static look-ahead.

Symmetric matrices are reduced to symmetric band form (eigenvalues preserved),
general matrices to triangular-band or equal-bandwidth band form (singular
values preserved), on a two-thread-group execution model, plus a block-range
dependency analyzer for look-ahead feasibility.
"""

import os as _os

# Pin BLAS-internal threading before numpy ever loads: all parallelism in this
# package comes from its own worker groups, and per-call determinism of vector
# kernels must not depend on a library-level thread pool.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    _os.environ.setdefault(_var, "1")
del _os, _var

from .flops import FLOPS, FlopCounter
from .kernels import (
    PanelFactors,
    apply_wy_left,
    apply_wy_right,
    build_w,
    house_gen,
    lq_panel,
    matmul,
    qr_panel,
)
from .runtime import (
    EventTrace,
    ExecGroups,
    PhasePlan,
    Span,
    Task,
    Workers,
    WriteOverlapError,
    run_phase,
)
from .sevp import (
    SevpConfig,
    SevpResult,
    SevpVariant,
    reduce_sym_band,
    sevp_nominal_flops,
)
from .svd import (
    SvdConfig,
    SvdForm,
    SvdResult,
    SvdVariant,
    reduce_band_svd,
    reduce_tri_band,
    svd_nominal_flops,
)
from .depgraph import (
    OverlapReport,
    TaskDag,
    TaskKind,
    TaskNode,
    analyze_overlap,
    build_dag,
    enumerate_tasks,
    to_dot,
)
from .oracles import band_check, orth_residual, spectrum_deviation
from .cli import gen_general, gen_sym, load_matrix, save_matrix

__all__ = [
    "FLOPS",
    "FlopCounter",
    "PanelFactors",
    "house_gen",
    "qr_panel",
    "lq_panel",
    "build_w",
    "apply_wy_left",
    "apply_wy_right",
    "matmul",
    "ExecGroups",
    "PhasePlan",
    "Task",
    "Span",
    "Workers",
    "EventTrace",
    "WriteOverlapError",
    "run_phase",
    "SevpConfig",
    "SevpResult",
    "SevpVariant",
    "reduce_sym_band",
    "sevp_nominal_flops",
    "SvdConfig",
    "SvdResult",
    "SvdForm",
    "SvdVariant",
    "reduce_tri_band",
    "reduce_band_svd",
    "svd_nominal_flops",
    "TaskKind",
    "TaskNode",
    "TaskDag",
    "OverlapReport",
    "enumerate_tasks",
    "build_dag",
    "analyze_overlap",
    "to_dot",
    "band_check",
    "orth_residual",
    "spectrum_deviation",
    "gen_sym",
    "gen_general",
    "save_matrix",
    "load_matrix",
]

__version__ = "0.1.0"

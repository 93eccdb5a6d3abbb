"""The benchmark's workloads: seeded inputs, the timed calls into the
program, and the checks every output must pass.

A workload is a fixed list of cases. A case holds one or more operations
(zero-argument calls into the program, each timed on its own) and a check
that judges the outputs of one pass of the case together, so that cross
checks such as "V1 band == Reference band" see both outputs. The checks
use only NumPy's LAPACK and plain scans written here, never the program's
own oracles.

Import this module before NumPy is loaded elsewhere: `bandred` sets the
BLAS thread variables to 1 only if NumPy has not read them yet, which
keeps the LAPACK checks on one thread beside the program's two workers.
"""

import hashlib
import pickle
from dataclasses import dataclass
from functools import cache
from typing import Callable

import bandred
import numpy as np
from bandred import (
    ExecGroups,
    SevpConfig,
    SevpVariant,
    SvdConfig,
    SvdForm,
    SvdVariant,
)

EPS = float(np.finfo(np.float64).eps)

# The reduction workloads run the Reference schedule on one worker and the
# look-ahead schedules on one sequential plus one parallel worker: the host
# has two CPUs.
LOOKAHEAD_GROUPS = (2, 1)

SEVP_N, SEVP_W = 384, 32
SVD_M, SVD_N, SVD_W, SVD_B = 512, 256, 32, 16
DAG_N, DAG_B, DAG_RATIOS = 128, 4, (1, 2, 3, 4)


@dataclass
class Case:
    """One entry of a workload's case list.

    ops: (name, call) pairs run in this order; each call returns the output
        that check and digest read.
    check: outputs by op name -> list of problems (empty when correct).
    digest: output -> hex string, equal exactly when two outputs are
        bitwise equal; repeats and traced passes are held to it.
    """

    name: str
    ops: list
    check: Callable[[dict], list]
    digest: Callable[[object], str]


@dataclass
class Workload:
    """dag_shapes: (m, n, w, b, form) of each DAG the workload builds."""

    name: str
    cases: list
    warm_up: Callable[[], None]
    dag_shapes: tuple = ()


def _rng(seed, case_index):
    return np.random.default_rng([seed, case_index])


def sym_input(seed, case_index, n):
    """Symmetric n x n, (G + G^T)/2 with G standard normal, column-major."""
    g = _rng(seed, case_index).standard_normal((n, n))
    return np.asfortranarray((g + g.T) / 2.0)


def general_input(seed, case_index, m, n):
    """General m x n with standard normal entries, column-major."""
    return np.asfortranarray(_rng(seed, case_index).standard_normal((m, n)))


def band_digest(band):
    return hashlib.sha256(np.ascontiguousarray(band).tobytes()).hexdigest()


def bitwise_equal(a, b):
    """Same shape and the same 64 bits in every entry (so -0.0 != 0.0)."""
    return a.shape == b.shape and np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.uint64),
        np.asarray(b, dtype=np.float64).view(np.uint64),
    )


def outside_band(shape, lower, upper):
    """Mask of the entries with i - j > lower or j - i > upper."""
    i = np.arange(shape[0])[:, None]
    j = np.arange(shape[1])[None, :]
    return (i - j > lower) | (j - i > upper)


# --- sevp-lookahead ---------------------------------------------------------


def check_sevp(A, bands, w, reference, want=None):
    """Problems with SEVP bands reduced from symmetric A at bandwidth w.

    The reference band must have A's eigenvalues (LAPACK eigvalsh, or want
    when given) within n*eps*||A||_2, be exactly symmetric and exactly zero
    off the band; every other band must equal it bit for bit.
    """
    problems = []
    band = bands[reference]
    n = A.shape[0]
    if want is None:
        want = np.linalg.eigvalsh(A)
    tol = n * EPS * float(np.max(np.abs(want)))
    if not np.array_equal(band, band.T):
        problems.append(f"{reference}: band is not exactly symmetric")
    off = outside_band(band.shape, w, w)
    if np.any(band[off] != 0.0):
        problems.append(f"{reference}: {np.count_nonzero(band[off])} nonzero off-band entries")
    dev = float(np.max(np.abs(np.linalg.eigvalsh(band) - want)))
    if not dev <= tol:
        problems.append(f"{reference}: eigenvalues off by {dev:.3e} > tol {tol:.3e}")
    for name, other in bands.items():
        if name != reference and not bitwise_equal(other, band):
            problems.append(f"{name}: band is not bitwise equal to {reference}")
    return problems


def _sevp_case(seed, index, b, variant):
    A = sym_input(seed, index, SEVP_N)
    w = SEVP_W
    ref_name = f"sevp.reference.b{b}"
    want = cache(lambda: np.linalg.eigvalsh(A))

    def reference():
        return bandred.reduce_sym_band(A, SevpConfig(SEVP_N, w, b)).band

    def lookahead():
        with ExecGroups(*LOOKAHEAD_GROUPS) as groups:
            cfg = SevpConfig(SEVP_N, w, b, variant=variant)
            return bandred.reduce_sym_band(A, cfg, groups).band

    return Case(
        name=f"sevp-b{b}",
        ops=[(ref_name, reference), (f"sevp.{variant.value}.b{b}", lookahead)],
        check=lambda out: check_sevp(A, out, w, ref_name, want()),
        digest=band_digest,
    )


def _sevp_warm_up():
    A = sym_input(0, 99, 96)
    bandred.reduce_sym_band(A, SevpConfig(96, 16, 8))
    for b, variant in ((8, SevpVariant.V1), (12, SevpVariant.V2)):
        with ExecGroups(*LOOKAHEAD_GROUPS) as groups:
            bandred.reduce_sym_band(A, SevpConfig(96, 16, b, variant=variant), groups)


def sevp_lookahead(seed):
    cases = [
        _sevp_case(seed, 0, 16, SevpVariant.V1),
        _sevp_case(seed, 1, 24, SevpVariant.V2),
    ]
    return Workload("sevp-lookahead", cases, _sevp_warm_up)


# --- svd-tall ---------------------------------------------------------------


def check_svd(A, bands, w, triband=(), want=None):
    """Problems with bands reduced from general A (m >= n).

    Each must have A's singular values (LAPACK svd, or want when given)
    within max(m,n)*eps*||A||_2 and be exactly zero outside its pattern:
    |i-j| > w for the band form; i > j or j > i + w for the names listed in
    triband.
    """
    problems = []
    if want is None:
        want = np.linalg.svd(A, compute_uv=False)
    tol = max(A.shape) * EPS * float(want[0])
    for name, band in bands.items():
        if band.shape != A.shape:
            problems.append(f"{name}: shape {band.shape} != {A.shape}")
            continue
        off = outside_band(band.shape, 0, w) if name in triband else outside_band(band.shape, w, w)
        if np.any(band[off] != 0.0):
            count = np.count_nonzero(band[off])
            problems.append(f"{name}: {count} nonzero entries outside the pattern")
        dev = float(np.max(np.abs(np.linalg.svd(band, compute_uv=False) - want)))
        if not dev <= tol:
            problems.append(f"{name}: singular values off by {dev:.3e} > tol {tol:.3e}")
    return problems


def _svd_ops(A, w, b):
    m, n = A.shape

    def band(variant):
        return lambda: bandred.reduce_band_svd(A, SvdConfig(m, n, w, b, variant=variant)).band

    return [
        ("svd.reference", band(SvdVariant.REFERENCE)),
        ("svd.simultaneous", band(SvdVariant.SIMULTANEOUS)),
        ("svd.triband", lambda: bandred.reduce_tri_band(A, w, b).band),
    ]


def _svd_warm_up():
    A = general_input(0, 99, 128, 64)
    for _, op in _svd_ops(A, 16, 8):
        op()


def svd_tall(seed):
    A = general_input(seed, 0, SVD_M, SVD_N)
    want = cache(lambda: np.linalg.svd(A, compute_uv=False))
    case = Case(
        name="svd-tall",
        ops=_svd_ops(A, SVD_W, SVD_B),
        check=lambda out: check_svd(A, out, SVD_W, ("svd.triband",), want()),
        digest=band_digest,
    )
    return Workload("svd-tall", [case], _svd_warm_up)


# --- analyze ----------------------------------------------------------------


def expected_feasibility(form, r):
    """(left, right, both) look-ahead feasibility the paper states for w = r*b."""
    if r == 1:
        return (False, False, False)
    if r == 2 and form is SvdForm.TRIANGULAR_BAND:
        return (True, True, False)
    return (True, True, True)


def _hits(a, b):
    # a: one (r0, r1, c0, c1) box; b: k x 4 boxes -> bool per row of b
    return (a[0] < b[:, 1]) & (b[:, 0] < a[1]) & (a[2] < b[:, 3]) & (b[:, 2] < a[3])


def scan_edges(tasks):
    """Dependency edges by a pairwise scan in program order: for each task
    i and every later task j, RAW if a write of i meets a read of j, else WAR
    if a read of i meets a write of j, else WAW if their writes meet."""
    def boxes(attr):
        own, box = [], []
        for t, task in enumerate(tasks):
            for (r0, r1), (c0, c1) in getattr(task, attr):
                own.append(t)
                box.append((r0, r1, c0, c1))
        return np.asarray(own), np.asarray(box).reshape(-1, 4)

    rd_own, rd = boxes("reads")
    wr_own, wr = boxes("writes")
    edges = []
    for i, task in enumerate(tasks):
        later_rd, later_wr = rd_own > i, wr_own > i
        raw, war, waw = set(), set(), set()
        for (r0, r1), (c0, c1) in task.writes:
            box = (r0, r1, c0, c1)
            raw.update(rd_own[later_rd][_hits(box, rd[later_rd])].tolist())
            waw.update(wr_own[later_wr][_hits(box, wr[later_wr])].tolist())
        for (r0, r1), (c0, c1) in task.reads:
            war.update(wr_own[later_wr][_hits((r0, r1, c0, c1), wr[later_wr])].tolist())
        for j in sorted(raw | war | waw):
            edges.append((i, j, "RAW" if j in raw else "WAR" if j in war else "WAW"))
    return edges


def check_analyze(form, r, output):
    """Problems with one (tasks, dag, report) analysis at ratio r: the
    feasibility flags must match the paper's table and the DAG's edges the
    pairwise scan."""
    tasks, dag, report = output
    problems = []
    got = (report.left_feasible, report.right_feasible, report.both_feasible)
    want = expected_feasibility(form, r)
    if got != want:
        problems.append(f"{form.value} r={r}: feasibility {got} != paper {want}")
    if sorted(dag.edges) != scan_edges(tasks):
        problems.append(f"{form.value} r={r}: DAG edges differ from the pairwise scan")
    return problems


def analysis_digest(output):
    tasks, dag, report = output
    flags = (report.left_feasible, report.right_feasible, report.both_feasible)
    return hashlib.sha256(pickle.dumps((len(tasks), dag.edges, flags))).hexdigest()


def _analysis(n, b, r, form):
    w = r * b

    def op():
        tasks = bandred.enumerate_tasks(n, n, w, b, form)
        dag = bandred.build_dag(tasks, n, n, w, b, form)
        return tasks, dag, bandred.analyze_overlap(dag, w, b, form)

    return op


def _analyze_warm_up():
    for form in SvdForm:
        for r in DAG_RATIOS:
            _analysis(48, DAG_B, r, form)()


def analyze(seed):
    """The inputs are shapes only, so the seed only orders the cases."""
    cases = [
        Case(
            name=f"{form.value}-r{r}",
            ops=[(f"depgraph.{form.value}.r{r}", _analysis(DAG_N, DAG_B, r, form))],
            check=lambda out, form=form, r=r: check_analyze(form, r, next(iter(out.values()))),
            digest=analysis_digest,
        )
        for form in SvdForm
        for r in DAG_RATIOS
    ]
    order = np.random.default_rng(seed).permutation(len(cases))
    shapes = tuple((DAG_N, DAG_N, r * DAG_B, DAG_B, form) for form in SvdForm for r in DAG_RATIOS)
    return Workload("analyze", [cases[i] for i in order], _analyze_warm_up, shapes)


WORKLOADS = {
    "sevp-lookahead": sevp_lookahead,
    "svd-tall": svd_tall,
    "analyze": analyze,
}

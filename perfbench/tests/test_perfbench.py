"""Tests of the benchmark itself: each workload's check rejects corrupted
results, the traced run is transparent, and run.py keeps its output
contract. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import bandred
import numpy as np
import pytest
from bandred import ExecGroups, SevpConfig, SevpVariant, SvdConfig, SvdForm

import workloads as W
from tracing import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
N, WB, B = 96, 16, 8


@pytest.fixture(scope="module")
def sevp():
    A = W.sym_input(7, 0, N)
    ref = bandred.reduce_sym_band(A, SevpConfig(N, WB, B)).band
    with ExecGroups(*W.LOOKAHEAD_GROUPS) as groups:
        v1 = bandred.reduce_sym_band(A, SevpConfig(N, WB, B, variant=SevpVariant.V1), groups).band
    return A, {"ref": ref, "v1": v1}


@pytest.fixture(scope="module")
def svd():
    A = W.general_input(7, 0, 2 * N, N)
    band = bandred.reduce_band_svd(A, SvdConfig(2 * N, N, WB, B)).band
    tri = bandred.reduce_tri_band(A, WB, B).band
    return A, {"band": band, "tri": tri}


def analysis(form, r, n=48, b=4):
    tasks = bandred.enumerate_tasks(n, n, r * b, b, form)
    dag = bandred.build_dag(tasks, n, n, r * b, b, form)
    return tasks, dag, bandred.analyze_overlap(dag, r * b, b, form)


def test_sevp_check_accepts_program_output(sevp):
    A, bands = sevp
    assert W.check_sevp(A, bands, WB, "ref") == []


def test_sevp_check_rejects_perturbed_eigenvalue(sevp):
    A, bands = sevp
    bad = bands["ref"].copy()
    bad[5, 5] += 1e-6 * np.abs(bad).max()
    problems = W.check_sevp(A, {"ref": bad}, WB, "ref")
    assert any("eigenvalues" in p for p in problems)


def test_sevp_check_rejects_one_offband_entry(sevp):
    A, bands = sevp
    bad = bands["ref"].copy()
    bad[N - 1, 0] = 1e-300
    problems = W.check_sevp(A, {"ref": bad}, WB, "ref")
    assert any("off-band" in p for p in problems)


@pytest.mark.parametrize("flip", ["ulp", "zero_sign"])
def test_sevp_check_rejects_one_bit_between_reference_and_v1(sevp, flip):
    A, bands = sevp
    v1 = bands["v1"].copy()
    if flip == "ulp":
        v1[3, 2] = np.nextafter(v1[3, 2], np.inf)
    else:
        v1[N - 1, 0] = -0.0
    problems = W.check_sevp(A, {"ref": bands["ref"], "v1": v1}, WB, "ref")
    assert problems == ["v1: band is not bitwise equal to ref"]


def test_svd_check_accepts_program_output(svd):
    A, bands = svd
    assert W.check_svd(A, bands, WB, triband=("tri",)) == []


@pytest.mark.parametrize("name", ["band", "tri"])
def test_svd_check_rejects_perturbed_singular_value(svd, name):
    A, bands = svd
    bad = bands[name].copy()
    bad[0, 0] += 1e-6 * np.abs(bad).max()
    problems = W.check_svd(A, {name: bad}, WB, triband=("tri",))
    assert any("singular values" in p for p in problems)


@pytest.mark.parametrize("name, entry", [("band", (WB + 1, 0)), ("tri", (1, 0)),
                                         ("tri", (0, WB + 1))])
def test_svd_check_rejects_one_entry_outside_pattern(svd, name, entry):
    A, bands = svd
    bad = bands[name].copy()
    bad[entry] = 1e-300
    problems = W.check_svd(A, {name: bad}, WB, triband=("tri",))
    assert any("outside the pattern" in p for p in problems)


@pytest.mark.parametrize("form", list(SvdForm))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_analyze_check_accepts_program_output(form, r):
    assert W.check_analyze(form, r, analysis(form, r)) == []


@pytest.mark.parametrize("flag", ["left_feasible", "right_feasible", "both_feasible"])
@pytest.mark.parametrize("form, r", [(SvdForm.TRIANGULAR_BAND, 2), (SvdForm.BAND, 1)])
def test_analyze_check_rejects_flipped_feasibility_flag(form, r, flag):
    tasks, dag, report = analysis(form, r)
    flipped = dataclasses.replace(report, **{flag: not getattr(report, flag)})
    problems = W.check_analyze(form, r, (tasks, dag, flipped))
    assert any("feasibility" in p for p in problems)


def test_analyze_check_rejects_a_dropped_or_relabelled_edge():
    form, r = SvdForm.BAND, 2
    tasks, dag, report = analysis(form, r)
    for edges in (dag.edges[1:], [dag.edges[0][:2] + ("WAW",)] + dag.edges[1:]):
        bad = dataclasses.replace(dag, edges=edges)
        problems = W.check_analyze(form, r, (tasks, bad, report))
        assert any("pairwise scan" in p for p in problems)


def run_ops(workload, tracer=None):
    """(op name -> digest, flops counted by FLOPS) for one pass."""
    digests, before = {}, bandred.FLOPS.snapshot()["matmul"]
    if tracer:
        tracer.install()
    try:
        for case in workload.cases:
            for name, call in case.ops:
                digests[name] = case.digest(call())
    finally:
        if tracer:
            tracer.uninstall()
    return digests, bandred.FLOPS.snapshot()["matmul"] - before


@pytest.fixture
def small_sevp(monkeypatch):
    monkeypatch.setattr(W, "SEVP_N", N)
    return W.sevp_lookahead(3)


def test_traced_run_is_bitwise_transparent(small_sevp):
    plain, _ = run_ops(small_sevp)
    traced, _ = run_ops(small_sevp, Tracer())
    assert traced == plain
    assert len(plain) == 4


def test_uninstall_restores_every_function(small_sevp):
    names = [(m, n) for m in (bandred, bandred.kernels, bandred.sevp, bandred.svd,
                              bandred.runtime, bandred.depgraph)
             for n, f in vars(m).items() if callable(f)]
    before = {(m.__name__, n): getattr(m, n) for m, n in names}
    map_before = bandred.runtime.Workers.map
    tracer = Tracer()
    tracer.install()
    assert bandred.kernels.matmul is not before[("bandred.kernels", "matmul")]
    assert bandred.sevp.syr2k_lower is not before[("bandred.sevp", "syr2k_lower")]
    tracer.uninstall()
    assert {(m.__name__, n): getattr(m, n) for m, n in names} == before
    assert bandred.runtime.Workers.map is map_before


def test_traced_metrics_agree_with_program_counters(small_sevp):
    tracer = Tracer()
    _, flops = run_ops(small_sevp, tracer)
    spans = tracer.take()
    m = layer_metrics(spans)
    matmul_flops = sum(s[6][1] for s in spans if s[1] == "kernels.matmul")
    assert matmul_flops == flops
    assert m["kernels.matmul.calls"] > 0 and m["runtime.phases"] > 0
    assert m["sevp.reference.s"] > 0 and m["sevp.v1.s"] > 0 and m["sevp.v2.s"] > 0
    assert m["runtime.task.qr.s"] == pytest.approx(m["kernels.qr_panel.s"], rel=0.05)
    # every task ran inside its run_phase span
    by_id = {s[0]: s for s in spans}
    for s in spans:
        if s[1] == "runtime.task":
            phase = by_id[s[4]]
            assert phase[1] == "runtime.run_phase" and phase[2] <= s[2] <= s[3] <= phase[3]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = bench("--workload", "svd-tall", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] == 3 * int(trace) + 3
    want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in want}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "__pycache__", ".pytest_cache"))
    p = bench("--workload", "analyze", "--seed", "0", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""

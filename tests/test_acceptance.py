"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture, so it shows up
in plain pytest output) with the measured quantities, then asserts.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import bandred.sevp as sevp_mod
from bandred import (
    ExecGroups,
    PhasePlan,
    SevpConfig,
    SevpVariant,
    Span,
    SvdConfig,
    SvdForm,
    SvdVariant,
    Task,
    WriteOverlapError,
    analyze_overlap,
    band_check,
    build_dag,
    enumerate_tasks,
    gen_general,
    gen_sym,
    reduce_band_svd,
    reduce_sym_band,
    reduce_tri_band,
    run_phase,
    sevp_nominal_flops,
    spectrum_deviation,
    svd_nominal_flops,
)


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _sevp_cfg(n, w, b, variant=SevpVariant.REFERENCE, **kw):
    return SevpConfig(n=n, w=w, b=b, variant=variant, **kw)


def _svd_cfg(m, n, w, b, variant=SvdVariant.REFERENCE, form=SvdForm.BAND):
    return SvdConfig(m=m, n=n, w=w, b=b, form=form, variant=variant)


def _quiet_reduce(A, cfg, groups=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if isinstance(cfg, SevpConfig):
            return reduce_sym_band(A, cfg, groups)
        return reduce_band_svd(A, cfg, groups)


def test_ac01_sevp_eigenvalues_preserved(capsys):
    t0 = time.perf_counter()
    combos = [(w, b) for w in (2, 4, 8) for b in range(1, w + 1)]
    worst = 0.0
    for i in range(50):
        w, b = combos[i % len(combos)]
        n = int(np.random.default_rng(1000 + i).integers(16, 65))
        A = gen_sym(n, seed=i)
        res = reduce_sym_band(A, _sevp_cfg(n, w, b))
        assert band_check(res.band, w, w) == 0.0
        dev = spectrum_deviation(A, res.band, "eig")
        assert dev <= 1e-11, f"instance {i} (n={n} w={w} b={b}): relative dev {dev}"
        worst = max(worst, dev)
    secs = time.perf_counter() - t0
    _report(
        capsys,
        "AC1",
        secs < 60.0,
        f"50 SEVP instances, worst relative eigenvalue deviation "
        f"{worst:.2e} (tol 1e-11), off-band exactly zero, {secs:.1f}s (< 60s)",
    )


def test_ac02_svd_singular_values_preserved(capsys):
    t0 = time.perf_counter()
    combos = [(2, 1), (2, 2), (4, 2), (4, 4), (8, 4), (8, 8), (4, 1), (8, 2)]
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        m = int(rng.integers(8, 49))
        shape_kind = i % 3
        if shape_kind == 0:
            n = m
        elif shape_kind == 1:
            n = int(rng.integers(4, m + 1))  # tall
        else:
            n = int(rng.integers(m, 49))  # wide or square
        w, b = combos[i % len(combos)]
        A = gen_general(m, n, seed=i)
        if i % 2 == 0:
            res = reduce_tri_band(A, w, b)
        else:
            res = reduce_band_svd(A, _svd_cfg(m, n, w, b))
        assert band_check(res.band, res.lower_bw, res.upper_bw) == 0.0
        dev = spectrum_deviation(A, res.band, "sv")
        assert dev <= 1e-11, f"instance {i} ({m}x{n} w={w} b={b}): relative dev {dev}"
        worst = max(worst, dev)
    secs = time.perf_counter() - t0
    _report(
        capsys,
        "AC2",
        secs < 60.0,
        f"50 SVD instances (both forms, square and rectangular), worst "
        f"relative deviation {worst:.2e} (tol 1e-11), patterns exact, "
        f"{secs:.1f}s (< 60s)",
    )


def test_ac03_variants_agree_at_fixed_size(capsys):
    n, w = 48, 8
    A = gen_sym(n, 3)
    G = gen_general(n, n, 4)
    scale_a = float(np.linalg.norm(A))
    scale_g = float(np.linalg.norm(G))
    worst = 0.0
    for b in (2, 3, 4, 6, 8):
        ref = reduce_sym_band(A, _sevp_cfg(n, w, b)).band
        sevp_runs = []
        for variant in (SevpVariant.V1, SevpVariant.V2):
            if variant is SevpVariant.V1 and 2 * b > w:
                continue
            for threads, ts in ((1, 1), (2, 1)):
                with ExecGroups(threads, ts) as groups:
                    out = _quiet_reduce(A, _sevp_cfg(n, w, b, variant), groups).band
                sevp_runs.append(out)
                assert np.array_equal(out, ref), f"sevp {variant} b={b} not bitwise"
        for out in sevp_runs:
            worst = max(worst, float(np.max(np.abs(out - ref))) / scale_a)

        sref = reduce_band_svd(G, _svd_cfg(n, n, w, b)).band
        sim = reduce_band_svd(G, _svd_cfg(n, n, w, b, SvdVariant.SIMULTANEOUS)).band
        dev = float(np.max(np.abs(sim - sref))) / scale_g
        assert dev <= 1e-12, f"svd sim vs ref b={b}: {dev}"
        worst = max(worst, dev)
        if 2 * b <= w:
            for threads, ts in ((1, 1), (2, 1)):
                with ExecGroups(threads, ts) as groups:
                    v1 = reduce_band_svd(
                        G, _svd_cfg(n, n, w, b, SvdVariant.V1), groups
                    ).band
                assert np.array_equal(v1, sref), f"svd v1 b={b} not bitwise"
        for threads, ts in ((1, 1), (2, 1)):
            with ExecGroups(threads, ts) as groups:
                v2 = _quiet_reduce(G, _svd_cfg(n, n, w, b, SvdVariant.V2), groups).band
            assert np.array_equal(v2, sim), f"svd v2 b={b} not bitwise vs sim"
    _report(
        capsys,
        "AC3",
        worst <= 1e-12,
        f"n=48 w=8 b in (2,3,4,6,8): serialized and threaded look-ahead "
        f"variants bitwise equal to their base schedule; max pairwise "
        f"relative deviation {worst:.2e} (tol 1e-12)",
    )


def test_ac04_overlap_feasibility_table(capsys):
    t0 = time.perf_counter()
    expected = [
        (SvdForm.TRIANGULAR_BAND, 4, (False, False, False)),
        (SvdForm.TRIANGULAR_BAND, 8, (True, True, False)),
        (SvdForm.TRIANGULAR_BAND, 12, (True, True, True)),
        (SvdForm.TRIANGULAR_BAND, 16, (True, True, True)),
        (SvdForm.BAND, 8, (True, True, True)),
        (SvdForm.BAND, 12, (True, True, True)),
    ]
    got = []
    for form, w, want in expected:
        dag = build_dag(enumerate_tasks(64, 64, w, 4, form), 64, 64, w, 4, form)
        rep = analyze_overlap(dag, w, 4, form)
        triple = (rep.left_feasible, rep.right_feasible, rep.both_feasible)
        got.append(triple)
        assert triple == want, f"{form.value} w/b={w // 4}: {triple} != {want}"
        assert rep.steady_iterations
    secs = time.perf_counter() - t0
    _report(
        capsys,
        "AC4",
        secs < 5.0,
        f"feasibility booleans exact for w/b in 1..4 (triband) and 2..3 "
        f"(band) at n=64 b=4, {secs:.2f}s (< 5s)",
    )


def test_ac05_flop_counts_track_nominal(capsys):
    t0 = time.perf_counter()
    res = reduce_sym_band(gen_sym(512, 5), _sevp_cfg(512, 16, 16))
    sevp_pct = 100.0 * (res.flops["total"] - sevp_nominal_flops(512)) / sevp_nominal_flops(512)
    assert abs(sevp_pct) < 5.0, f"sevp 512: {sevp_pct:+.3f}%"

    tri = reduce_tri_band(gen_general(256, 256, 6), w=8, b=8)
    tri_pct = 100.0 * (tri.flops["total"] - svd_nominal_flops(256, 256)) / svd_nominal_flops(256, 256)
    assert abs(tri_pct) < 8.0, f"triband 256: {tri_pct:+.3f}%"

    band = reduce_band_svd(gen_general(256, 256, 7), _svd_cfg(256, 256, 4, 4))
    band_pct = 100.0 * (band.flops["total"] - tri.flops["total"]) / tri.flops["total"]
    assert abs(band_pct) < 10.0, f"band vs triband 256: {band_pct:+.3f}%"
    secs = time.perf_counter() - t0
    _report(
        capsys,
        "AC5",
        secs < 120.0,
        f"SEVP 512 {sevp_pct:+.2f}% (< 5%), triband 256 {tri_pct:+.2f}% "
        f"(< 8%), band w=4 vs triband w=8 {band_pct:+.2f}% (< 10%), "
        f"{secs:.1f}s (< 120s)",
    )


def test_ac06_randomized_phases_deterministic(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    with ExecGroups(2, 1) as groups:
        for trial in range(1000):
            cols = int(rng.integers(2, 8))
            base = np.asfortranarray(rng.standard_normal((3, cols)))
            cut = int(rng.integers(1, cols))
            f1, f2 = float(rng.standard_normal()), float(rng.standard_normal())

            want = base.copy(order="F")
            for c0, c1, f in ((0, cut, f1), (cut, cols, f2)):
                np.multiply(want[:, c0:c1], f, out=want[:, c0:c1])
                np.add(want[:, c0:c1], f, out=want[:, c0:c1])

            got = base.copy(order="F")

            def make(c0, c1, f, tid):
                def fn(workers):
                    np.multiply(got[:, c0:c1], f, out=got[:, c0:c1])
                    np.add(got[:, c0:c1], f, out=got[:, c0:c1])

                return Task(tid, fn, [Span("A", (0, 3), (c0, c1))])

            plan = PhasePlan(
                [make(0, cut, f1, f"s{trial}")], [make(cut, cols, f2, f"p{trial}")]
            )
            run_phase(plan, groups)
            assert np.array_equal(got, want), f"trial {trial} diverged"

        ran = []
        logged = len(groups.trace.records)
        bad = PhasePlan(
            [Task("s", lambda w: ran.append(1), [Span("A", (0, 3), (0, 2))])],
            [Task("p", lambda w: ran.append(1), [Span("A", (0, 3), (1, 3))])],
        )
        with pytest.raises(WriteOverlapError):
            run_phase(bad, groups)
        assert ran == [] and len(groups.trace.records) == logged
    secs = time.perf_counter() - t0
    _report(
        capsys,
        "AC6",
        secs < 30.0,
        f"1000 randomized disjoint-write phases bitwise equal to serial; "
        f"overlapping phase rejected before any task ran, {secs:.1f}s (< 30s)",
    )


def _sevp_ks(n, w, b):
    ks, k = [], 0
    while n - k - w >= 2:
        ks.append(k)
        k += min(b, n - k - w)
    return ks


def _svd_ks(m, n, w, b):
    ks, k = [], 0
    while m - k - w >= 2 and k < n:
        ks.append(k)
        k += min(b, m - k - w, n - k)
    return ks


def test_ac07_lookahead_panels_wait_for_their_inputs(capsys):
    audited = 0
    n, w, b = 36, 6, 4
    for seed in range(20):
        A = gen_sym(n, 100 + seed)
        with ExecGroups(2, 1) as groups:
            reduce_sym_band(A, _sevp_cfg(n, w, b, SevpVariant.V2), groups)
            recs = {r[0]: r for r in groups.trace.records}
        ks = _sevp_ks(n, w, b)
        for k, kn in zip(ks, ks[1:]):
            qr_start = recs[f"qr@{kn}"][2]
            assert qr_start > recs[f"mid@{k}"][3], f"seed {seed}: qr@{kn} vs mid@{k}"
            assert qr_start > recs[f"xprod3@{k}"][3], f"seed {seed}: qr@{kn} vs x3@{k}"
            audited += 1

    m = n = 30
    w, b = 8, 4
    for seed in range(20):
        G = gen_general(m, n, 200 + seed)
        with ExecGroups(2, 1) as groups:
            reduce_band_svd(G, _svd_cfg(m, n, w, b, SvdVariant.V1), groups)
            recs = {r[0]: r for r in groups.trace.records}
        ks = _svd_ks(m, n, w, b)
        for k, kn in zip(ks, ks[1:]):
            # B1's sequential piece: its head, or all of B1 when the panel fills it
            (head,) = [
                r for r in groups.trace.records
                if r[1] == "seq" and r[0] in (f"left-b1@{k}", f"left-b1-head@{k}")
            ]
            assert recs[f"qr@{kn}"][2] > head[3], f"seed {seed}: qr@{kn} vs {head[0]}"
            audited += 1
    _report(
        capsys,
        "AC7",
        audited > 0,
        f"20 seeded SEVP V2 runs and 20 seeded SVD V1 runs, {audited} "
        f"look-ahead panel starts all after the updates they read",
    )


def test_ac08_enumerated_ranges_match_instrumented_runs(capsys, reference_nodes):
    t0 = time.perf_counter()
    cases = 0
    for m in range(1, 25):
        for n in range(1, m + 1):
            for b in (1, 2, 3):
                for ratio in (1, 2, 3):
                    w = ratio * b
                    A = gen_general(m, n, seed=m * 31 + n)
                    for form in (SvdForm.TRIANGULAR_BAND, SvdForm.BAND):
                        if form is SvdForm.TRIANGULAR_BAND:
                            reduce_tri_band(A, w, b)
                        else:
                            reduce_band_svd(A, _svd_cfg(m, n, w, b))
                        got = reference_nodes(b)
                        want = enumerate_tasks(m, n, w, b, form)
                        assert got == want, f"{form.value} {m}x{n} w={w} b={b}"
                        cases += 1
    secs = time.perf_counter() - t0
    _report(
        capsys,
        "AC8",
        cases == 5400,
        f"{cases} (m, n, w, b, form) cases up to 24x24: enumerated task "
        f"list identical to the tasks the Reference schedule ran, split on "
        f"the b-grid, {secs:.1f}s",
    )


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bandred", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _csv_rows(proc, drop_groups=False):
    lines = proc.stdout.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    out = []
    for r in rows:
        r = r[:7] + r[9:]  # drop seconds and gflops
        if drop_groups:
            r = r[:5] + r[7:]  # drop ts and tp as well
        out.append(r)
    return out


def test_ac09_csv_reproducible(capsys):
    compared = 0
    for algo, extra in (("sevp-v2", ("--w", "6")), ("svd-v2", ("--w", "6"))):
        args = ("--algo", algo, "--n", "24", *extra, "--b", "4",
                "--threads", "2", "--verify")
        r1, r2 = _cli(*args), _cli(*args)
        assert r1.returncode == 0 and r2.returncode == 0, (r1.stderr, r2.stderr)
        assert _csv_rows(r1) == _csv_rows(r2), f"{algo}: repeat run differs"
        compared += 1

        outs = []
        for ts in ("0", "1", "2"):
            proc = _cli(*args, "--ts", ts)
            assert proc.returncode == 0, proc.stderr
            outs.append(_csv_rows(proc, drop_groups=True))
        assert outs[0] == outs[1] == outs[2], f"{algo}: ts sweep differs"
        compared += 1
    _report(
        capsys,
        "AC9",
        compared == 4,
        "CSV identical (excluding timing fields) across repeated runs and "
        "across ts in (0, 1, 2) for sevp-v2 and svd-v2",
    )


def test_ac10_lookahead_speedup_informational(capsys):
    cpus = os.cpu_count() or 1
    if cpus < 4:
        with capsys.disabled():
            print(
                f"AC10 PASS (informational): skipped - needs >= 4 hardware "
                f"threads, this host has {cpus}",
                flush=True,
            )
        return
    A = gen_sym(512, 10)
    t0 = time.perf_counter()
    reduce_sym_band(A, _sevp_cfg(512, 16, 8))
    serial = time.perf_counter() - t0
    with ExecGroups(4, 1) as groups:
        t0 = time.perf_counter()
        reduce_sym_band(A, _sevp_cfg(512, 16, 8, SevpVariant.V2), groups)
        overlapped = time.perf_counter() - t0
    with capsys.disabled():
        print(
            f"AC10 PASS (informational): V2 on 4 workers {overlapped:.2f}s vs "
            f"reference {serial:.2f}s (speedup {serial / overlapped:.2f}x)",
            flush=True,
        )

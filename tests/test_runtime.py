from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import bandred.lookahead
import bandred.runtime
from bandred import (
    FLOPS,
    EventTrace,
    ExecGroups,
    PhasePlan,
    SevpConfig,
    SevpVariant,
    Span,
    SvdConfig,
    SvdForm,
    Task,
    Workers,
    WriteOverlapError,
    gen_general,
    gen_sym,
    matmul,
    reduce_band_svd,
    reduce_sym_band,
    reduce_tri_band,
    run_phase,
)
from bandred.flops import flop_scope


def _scale_task(arr, c0, c1, factor, tid):
    def fn(workers):
        # two rounding events per element, same bits wherever it runs
        np.multiply(arr[:, c0:c1], factor, out=arr[:, c0:c1])
        np.add(arr[:, c0:c1], factor, out=arr[:, c0:c1])

    return Task(tid, fn, [Span("A", (0, arr.shape[0]), (c0, c1))])


def test_span_intersection_rules():
    a = Span("A", (0, 4), (0, 4))
    assert not a.intersects(Span("B", (0, 4), (0, 4)))  # different target
    assert not a.intersects(Span("A", (4, 8), (0, 4)))  # touching, half-open
    assert not a.intersects(Span("A", (0, 4), (4, 8)))
    assert a.intersects(Span("A", (3, 5), (3, 5)))
    assert a.intersects(Span("A", (1, 2), (1, 2)))  # containment


def test_empty_parallel_list_matches_plain_sequential():
    rng = np.random.default_rng(0)
    base = np.asfortranarray(rng.standard_normal((6, 8)))
    plain = base.copy(order="F")
    for c0, c1 in ((0, 3), (3, 8)):
        np.multiply(plain[:, c0:c1], 1.5, out=plain[:, c0:c1])
        np.add(plain[:, c0:c1], 1.5, out=plain[:, c0:c1])

    staged = base.copy(order="F")
    plan = PhasePlan(
        [_scale_task(staged, 0, 3, 1.5, "a"), _scale_task(staged, 3, 8, 1.5, "b")],
        [],
    )
    with ExecGroups(2, 1) as groups:
        run_phase(plan, groups)
    assert np.array_equal(staged, plain)


def test_ts_zero_degenerates_to_single_pool():
    rng = np.random.default_rng(1)
    base = np.asfortranarray(rng.standard_normal((5, 6)))
    want = base.copy(order="F")
    for c0, c1, f in ((0, 2, 2.0), (2, 6, -0.5)):
        np.multiply(want[:, c0:c1], f, out=want[:, c0:c1])
        np.add(want[:, c0:c1], f, out=want[:, c0:c1])

    got = base.copy(order="F")
    plan = PhasePlan(
        [_scale_task(got, 0, 2, 2.0, "s")], [_scale_task(got, 2, 6, -0.5, "p")]
    )
    with ExecGroups(2, 0) as groups:
        run_phase(plan, groups)
    assert np.array_equal(got, want)


def test_randomized_disjoint_phases_are_deterministic():
    """Random column partitions into seq/par lists, executed with real
    concurrency, must reproduce the serial result bitwise on every draw."""
    rng = np.random.default_rng(2)
    for trial in range(50):
        cols = int(rng.integers(2, 10))
        base = np.asfortranarray(rng.standard_normal((4, cols)))
        cut = int(rng.integers(1, cols))
        f1, f2 = float(rng.standard_normal()), float(rng.standard_normal())

        want = base.copy(order="F")
        for c0, c1, f in ((0, cut, f1), (cut, cols, f2)):
            np.multiply(want[:, c0:c1], f, out=want[:, c0:c1])
            np.add(want[:, c0:c1], f, out=want[:, c0:c1])

        got = base.copy(order="F")
        plan = PhasePlan(
            [_scale_task(got, 0, cut, f1, f"s{trial}")],
            [_scale_task(got, cut, cols, f2, f"p{trial}")],
        )
        with ExecGroups(2, 1) as groups:
            run_phase(plan, groups)
        assert np.array_equal(got, want)


def test_overlapping_writes_rejected_before_any_task_runs():
    arr = np.zeros((4, 4), order="F")
    ran = []

    def fn(workers):
        ran.append(1)

    plan = PhasePlan(
        [Task("s", fn, [Span("A", (0, 4), (0, 3))])],
        [Task("p", fn, [Span("A", (0, 4), (2, 4))])],
    )
    with ExecGroups(2, 1) as groups:
        with pytest.raises(WriteOverlapError):
            run_phase(plan, groups)
        assert ran == []  # rejection happened before execution
        assert groups.trace.records == []


def _span_task(tid, ran, writes=(), reads=()):
    return Task(tid, lambda workers: ran.append(tid), list(writes), list(reads))


@pytest.mark.parametrize(
    "seq_spans, par_spans",
    [
        # RAW: a seq write meets a par read
        (dict(writes=[Span("A", (0, 4), (0, 3))]), dict(reads=[Span("A", (2, 3), (2, 5))])),
        # WAR: a par write meets a seq read
        (dict(reads=[Span("A", (0, 4), (0, 3))]), dict(writes=[Span("A", (3, 6), (1, 2))])),
        # WAR on a named buffer, the read listed after a disjoint one
        (
            dict(reads=[Span("A", (0, 2), (0, 2)), Span("X@4", (0, 8), (0, 2))]),
            dict(writes=[Span("X@4", (7, 9), (0, 2))]),
        ),
    ],
    ids=["raw-seq-write-par-read", "war-par-write-seq-read", "war-buffer"],
)
def test_cross_group_hazards_rejected_before_any_task_runs(seq_spans, par_spans):
    # WAW is test_overlapping_writes_rejected_before_any_task_runs
    ran = []
    plan = PhasePlan(
        [_span_task("s0", ran), _span_task("s1", ran, **seq_spans)],
        [_span_task("p0", ran, **par_spans), _span_task("p1", ran)],
        label="hazard",
    )
    with ExecGroups(2, 1) as groups:
        with pytest.raises(WriteOverlapError, match="'hazard'"):
            run_phase(plan, groups)
        assert ran == [] and groups.trace.records == []


def test_disjoint_and_shared_read_spans_run():
    """Reads that meet no write of the other group are legal, and so is the
    same range read by both groups."""
    ran = []
    panel = Span("A", (4, 8), (0, 2))
    plan = PhasePlan(
        [_span_task("s", ran, writes=[Span("A", (0, 8), (2, 4))], reads=[panel])],
        [_span_task("p", ran, writes=[Span("A", (0, 8), (4, 6))],
                    reads=[panel, Span("A", (0, 8), (4, 9))])],
    )
    with ExecGroups(2, 1) as groups:
        run_phase(plan, groups)
    assert sorted(ran) == ["p", "s"]


def test_task_reads_default_to_empty():
    assert Task("t", None, [Span("A", (0, 1), (0, 1))]).reads == []


def test_each_reduction_starts_the_trace_afresh():
    cfg = SevpConfig(128, 16, 8, variant=SevpVariant.V1)
    A = gen_sym(128, 3)
    with ExecGroups(2, 1) as groups:
        counts = []
        for _ in range(3):
            reduce_sym_band(A, cfg, groups)
            counts.append(len(groups.trace.records))
        ids = [r[0] for r in groups.trace.records]
    assert counts == [84, 84, 84]
    assert len(ids) == len(set(ids))  # one reduction's tasks, each once
    assert min(r[2] for r in groups.trace.records) == 1


@pytest.mark.parametrize("shape", [(300, 140), (140, 300)])
@pytest.mark.parametrize("w, b", [(8, 4), (5, 3)])
def test_tri_band_on_two_groups_matches_one_worker(shape, w, b):
    # over 128 rows and columns, so the applies split into worker tiles
    A = gen_general(*shape, 8)
    one = reduce_tri_band(A, w, b)
    with ExecGroups(2, 1) as groups:
        two = reduce_tri_band(A, w, b, groups)
        assert groups.trace.records  # the phases ran on these groups
    assert np.array_equal(two.band, one.band)
    assert two.flops == one.flops


def test_within_list_overlap_is_legal():
    arr = np.ones((3, 3), order="F")
    plan = PhasePlan(
        [],
        [_scale_task(arr, 0, 3, 2.0, "first"), _scale_task(arr, 0, 3, 3.0, "second")],
    )
    with ExecGroups(1, 0) as groups:
        run_phase(plan, groups)
    assert np.array_equal(arr, (1.0 * 2.0 + 2.0) * 3.0 + 3.0 * np.ones((3, 3)))


def test_trace_preserves_list_order_per_group():
    arr = np.zeros((2, 8), order="F")
    seq = [_scale_task(arr, i, i + 1, 1.0, f"s{i}") for i in range(4)]
    par = [_scale_task(arr, 4 + i, 5 + i, 1.0, f"p{i}") for i in range(4)]
    with ExecGroups(2, 1) as groups:
        trace = run_phase(PhasePlan(seq, par), groups)
    for group, ids in (("seq", ["s0", "s1", "s2", "s3"]), ("par", ["p0", "p1", "p2", "p3"])):
        recs = trace.of_group(group)
        assert [r[0] for r in recs] == ids
        starts = [r[2] for r in recs]
        ends = [r[3] for r in recs]
        assert all(s < e for s, e in zip(starts, ends))
        assert all(ends[i] < starts[i + 1] for i in range(3))  # in-order, no overlap


def test_phase_barrier_orders_ticks():
    arr = np.zeros((2, 4), order="F")
    with ExecGroups(2, 1) as groups:
        run_phase(
            PhasePlan([_scale_task(arr, 0, 1, 1.0, "a")], [_scale_task(arr, 1, 2, 1.0, "b")]),
            groups,
        )
        first = list(groups.trace.records)
        run_phase(
            PhasePlan([_scale_task(arr, 2, 3, 1.0, "c")], [_scale_task(arr, 3, 4, 1.0, "d")]),
            groups,
        )
        second = [r for r in groups.trace.records if r not in first]
    assert max(r[3] for r in first) < min(r[2] for r in second)


def test_trace_find_and_dump(tmp_path):
    t = EventTrace()
    t.append("qr@0", "seq", 1, 2)
    t.append("qr@4", "seq", 3, 4)
    t.append("mid@0", "par", 5, 6)
    assert [r[0] for r in t.find("qr@")] == ["qr@0", "qr@4"]
    out = tmp_path / "trace.tsv"
    t.dump(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "qr@0\tseq\t1\t2"
    assert len(lines) == 3


def test_workers_reach_task_bodies():
    """Tasks get a Workers handle sized to their group and can run tiled
    matmuls through it; the result must not depend on that size."""
    A = np.asfortranarray(np.arange(300.0 * 3).reshape(300, 3))
    B = np.asfortranarray(np.ones((3, 2)))
    outs = []
    for total, ts in ((1, 0), (3, 1), (4, 2)):
        C = np.zeros((300, 2), order="F")

        def fn(workers):
            matmul(1.0, A, B, 0.0, C, workers)

        with ExecGroups(total, ts) as groups:
            run_phase(PhasePlan([], [Task("mm", fn, [Span("C", (0, 300), (0, 2))])]), groups)
        outs.append(C)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


class _ChunkError(Exception):
    pass


@pytest.mark.parametrize("raising, first", [({0}, 0), ({1}, 1), ({0, 1}, 0), ({1, 2}, 1)])
def test_workers_map_waits_for_every_chunk_before_raising(raising, first):
    """An item that raises does not let map return while a sibling item
    still runs on a pool thread. The error raised is the inline item's
    (item 0), else the first submitted item's."""
    done = []

    def fn(i):
        if i in raising:
            raise _ChunkError(i)
        time.sleep(0.1 * (i + 1))
        done.append(i)

    with ExecGroups(3, 0) as groups:
        with pytest.raises(_ChunkError) as caught:
            Workers(groups._pool, 3).map(fn, [0, 1, 2])
        assert caught.value.args == (first,)
        assert sorted(done) == sorted({0, 1, 2} - raising)


@pytest.mark.parametrize("count, items", [(1, 2), (2, 3), (3, 7)])
def test_workers_map_refuses_more_items_than_workers_before_running_any(count, items):
    """map runs one item per worker: more items than workers is a caller's
    error, raised before any item runs on any thread."""
    ran = []
    with ExecGroups(3, 0) as groups:
        with pytest.raises(ValueError, match=f"{items} items for {count} workers"):
            Workers(groups._pool, count).map(ran.append, range(items))
        Workers(groups._pool, count).map(ran.append, range(count))
    assert sorted(ran) == list(range(count))


def test_workers_map_runs_each_item_on_its_own_worker():
    """The first item runs on the calling thread, each other item on a pool
    thread of its own."""
    seen = {}
    hold = threading.Barrier(3)

    def fn(i):
        seen[i] = threading.get_ident()
        hold.wait(timeout=30)  # all three run at once, so no thread is reused

    with ExecGroups(3, 0) as groups:
        Workers(groups._pool, 3).map(fn, [0, 1, 2])
    assert seen[0] == threading.get_ident()
    assert len(set(seen.values())) == 3


@pytest.mark.parametrize("total, ts", [(1, 0), (2, 1)])
def test_a_closed_groups_object_runs_no_phase(total, ts):
    ran = []
    groups = ExecGroups(total, ts)
    groups.close()
    for plan in (
        PhasePlan([_span_task("s", ran)], [_span_task("p", ran)]),
        PhasePlan([], [_span_task("p", ran)]),
    ):
        with pytest.raises(RuntimeError):
            run_phase(plan, groups)
    with pytest.raises(RuntimeError):
        reduce_sym_band(gen_sym(32, 0), SevpConfig(32, 8, 4), groups)
    assert ran == [] and groups.trace.records == []


def _thread_task(tid, seen):
    def fn(workers):
        seen.append((tid[0], threading.get_ident()))

    return Task(tid, fn, [Span(tid, (0, 1), (0, 1))])


def test_the_caller_runs_the_parallel_list_and_one_pool_thread_the_sequential():
    seen = []
    seq = [_thread_task(f"s{i}", seen) for i in range(3)]
    par = [_thread_task(f"p{i}", seen) for i in range(3)]
    me = threading.get_ident()
    with ExecGroups(2, 1) as groups:
        run_phase(PhasePlan(seq, par), groups)
        seq_threads = {t for g, t in seen if g == "s"}
        assert {t for g, t in seen if g == "p"} == {me}
        assert len(seq_threads) == 1 and me not in seq_threads
        seen.clear()
        # one group at full width: both lists on the caller
        run_phase(PhasePlan([], par), groups)
    with ExecGroups(2, 0) as groups:
        run_phase(PhasePlan(seq, par), groups)
    assert {t for _, t in seen} == {me}


def test_a_reduction_without_groups_never_leaves_the_calling_thread(monkeypatch):
    """groups=None runs on one worker: every task on the calling thread, and
    no thread is started."""
    me, before = threading.get_ident(), threading.active_count()
    seen = []
    real = bandred.runtime.run_phase

    def watch(task):
        def fn(workers):
            seen.append((threading.get_ident(), threading.active_count()))
            task.fn(workers)

        return Task(task.task_id, fn, task.writes, task.reads)

    def watched(plan, groups):
        return real(PhasePlan([watch(t) for t in plan.seq_tasks],
                              [watch(t) for t in plan.par_tasks], plan.label), groups)

    monkeypatch.setattr(bandred.lookahead, "run_phase", watched)
    reduce_sym_band(gen_sym(48, 5), SevpConfig(48, 8, 4))
    reduce_band_svd(gen_general(40, 24, 6), SvdConfig(40, 24, 8, 4))
    reduce_tri_band(gen_general(24, 40, 7), 8, 4)
    assert len(seen) > 20
    assert {t for t, _ in seen} == {me}
    assert max(n for _, n in seen) <= before
    assert threading.active_count() <= before


def test_exec_groups_validation():
    with pytest.raises(ValueError):
        ExecGroups(0, 0)
    with pytest.raises(ValueError):
        ExecGroups(2, 3)
    with pytest.raises(ValueError):
        ExecGroups(1, -1)
    # counts are ints: no float, string or bool is coerced
    for args, name in (((2.9, 1.7), "total_workers"), (("3", "1"), "total_workers"),
                       ((True, False), "total_workers"), ((2, 1.0), "ts_count"),
                       ((2, "1"), "ts_count"), ((2, False), "ts_count")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            ExecGroups(*args)
    with ExecGroups(np.int64(2), np.int32(1)) as groups:
        assert (groups.total_workers, groups.ts_count, groups.tp_count) == (2, 1, 1)
        for count in (2.5, "2", True, None):
            with pytest.raises(ValueError, match="count must be an int"):
                Workers(groups._pool, count)
        for count in (0, -5):
            with pytest.raises(ValueError, match="count >= 1"):
                Workers(groups._pool, count)
        assert type(Workers(groups._pool, np.int64(2)).count) is int


# --- per-reduction flop scopes ----------------------------------------------


def _sevp_ref():
    return reduce_sym_band(gen_sym(128, 1), SevpConfig(128, 16, 8)).flops


def _sevp_v1():
    cfg = SevpConfig(96, 16, 8, variant=SevpVariant.V1)
    with ExecGroups(3, 1) as groups:
        return reduce_sym_band(gen_sym(96, 2), cfg, groups).flops


def _svd_band():
    cfg = SvdConfig(m=96, n=64, w=8, b=4, form=SvdForm.BAND)
    return reduce_band_svd(gen_general(96, 64, 3), cfg).flops


def _svd_wide_tri():
    return reduce_tri_band(gen_general(48, 80, 4), 8, 4).flops


def test_concurrent_reductions_each_count_their_own_flops():
    """Reductions on concurrent threads, one of them on a two-group pool
    whose sequential tasks and Workers.map items run on pool threads, each
    report the flops they report alone; FLOPS still counts them all."""
    runs = [_sevp_ref, _sevp_ref, _sevp_v1, _svd_band, _svd_wide_tri]
    solo = {fn: fn() for fn in set(runs)}
    assert all(f["total"] > 0 for f in solo.values())
    got = [None] * len(runs)
    start = threading.Barrier(len(runs))

    def worker(i):
        start.wait(timeout=30)
        got[i] = runs[i]()

    before = FLOPS.total
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(runs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [solo[fn] for fn in runs]
    assert FLOPS.total - before == sum(f["total"] for f in got)


def test_flop_scope_counts_only_while_open():
    A = np.asfortranarray(np.ones((4, 3)))
    B = np.asfortranarray(np.ones((3, 2)))
    C = np.zeros((4, 2), order="F")
    before = FLOPS.total
    with flop_scope() as scope:
        matmul(1.0, A, B, 0.0, C)
    matmul(1.0, A, B, 0.0, C)
    assert scope.snapshot() == {"matmul": 48, "panel": 0, "house": 0, "syr2k": 0, "total": 48}
    assert FLOPS.total - before == 96

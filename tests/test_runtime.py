from __future__ import annotations

import numpy as np
import pytest

from bandred import (
    EventTrace,
    ExecGroups,
    PhasePlan,
    Span,
    Task,
    WriteOverlapError,
    matmul,
    run_phase,
)


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
        assert groups.write_log == []
        assert groups.trace.records == []


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


def test_write_log_records_declared_spans():
    arr = np.zeros((3, 6), order="F")
    with ExecGroups(2, 1) as groups:
        run_phase(
            PhasePlan(
                [_scale_task(arr, 0, 2, 1.0, "s0")], [_scale_task(arr, 2, 6, 1.0, "p0")]
            ),
            groups,
        )
    assert [(tid, grp) for tid, grp, _ in groups.write_log] == [("s0", "seq"), ("p0", "par")]
    spans = {tid: sp for tid, _, sp in groups.write_log}
    assert spans["s0"] == [Span("A", (0, 3), (0, 2))]
    assert spans["p0"] == [Span("A", (0, 3), (2, 6))]


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


def test_exec_groups_validation():
    with pytest.raises(ValueError):
        ExecGroups(0, 0)
    with pytest.raises(ValueError):
        ExecGroups(2, 3)
    with pytest.raises(ValueError):
        ExecGroups(1, -1)

"""The look-ahead planner, checked on plans, and the task bodies, checked
against the spans their plans declare.

run_phase is replaced by a recorder where the reductions' shared run loop
(lookahead.run) looks it up, so each reduction only plans. The pinned digests fix every schedule's phases (labels, the
group, order and declared spans of every task; not the task ids) over a
grid of shapes; the property tests check the rules the planner promises.
Only the view audit runs tasks: serially, with lookahead.view recorded.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import bandred.sevp
import bandred.svd
from bandred import (
    SevpConfig,
    SevpVariant,
    Span,
    SvdConfig,
    SvdForm,
    SvdVariant,
    lookahead,
    reduce_band_svd,
    reduce_sym_band,
)
from bandred.runtime import Task, _check_hazards

SEVP_N = (1, 2, 5, 9, 13, 17, 22, 29)
SVD_MN = ((1, 1), (3, 2), (9, 9), (13, 7), (17, 17), (22, 15), (29, 23), (7, 13), (15, 22))
WB = [(w, b) for w in range(1, 7) for b in range(1, w + 1)]

SCHEDULES = [
    ("sevp", "reference"),
    ("sevp", "v1"),
    ("sevp", "v2"),
    ("band", "reference"),
    ("band", "simultaneous"),
    ("band", "v1"),
    ("band", "v2"),
    ("triband", "reference"),
]

# sha1 of the plans the hand-written V1/V2 planners and Reference loops
# built over the grid above, before the one planner replaced them.
PINNED = {
    ("sevp", "reference"): "2ea541e04a52189ddfd5feab397e6f8d149c879b",
    ("sevp", "v1"): "89f4d707a21bbcc91cca13a930750bd7e90456e5",
    ("sevp", "v2"): "4f19dafd30ef7a7e0b6c155f01daaab5633fc623",
    ("band", "reference"): "59965ffe1dc91a2f4346af05d8d6a09736338ded",
    ("band", "simultaneous"): "94451dd0fcc2f375bdcd872a762548a162b42406",
    ("band", "v1"): "86550e6086f78b55bc0993ce1459b070c6c08597",
    # Band V2 re-pinned when placement moved from cut lines to the next
    # panels' reads: each changed phase differs only in D11, the top-left
    # cell of D, which no next panel reads and which moved from the
    # sequential list to the parallel one.
    ("band", "v2"): "6bde7ed27e05faac0fd8c7ccca89e7214601253b",
    ("triband", "reference"): "08fa02940fb1e4723e920f3be16af102c909ff24",
}


def _configs(form, variant):
    for w, b in WB:
        if variant == "v1" and 2 * b > w:
            continue
        if form == "sevp":
            for n in SEVP_N:
                for aq in (False, True):
                    yield SevpConfig(n, w, b, SevpVariant(variant), aq)
        else:
            for m, n in SVD_MN:
                yield SvdConfig(m, n, w, b, SvdForm(form), SvdVariant(variant))


@pytest.fixture
def planned(monkeypatch):
    """planned(cfg): the PhasePlans the reduction of cfg hands run_phase,
    which records them and runs nothing."""
    plans = []

    def record(plan, groups):
        plans.append(plan)
        return groups.trace

    monkeypatch.setattr(lookahead, "run_phase", record)

    def planned(cfg):
        plans.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if isinstance(cfg, SevpConfig):
                reduce_sym_band(np.zeros((cfg.n, cfg.n)), cfg)
            else:
                reduce_band_svd(np.zeros((cfg.m, cfg.n)), cfg)
        return list(plans)

    return planned


def _spans(spans):
    return tuple((s.target, s.rows, s.cols) for s in spans)


def _plan_digest(plans_of_configs):
    h = hashlib.sha1()
    for plans in plans_of_configs:
        for plan in plans:
            tasks = [("seq", t) for t in plan.seq_tasks] + [("par", t) for t in plan.par_tasks]
            h.update(repr(plan.label).encode())
            for group, t in tasks:
                h.update(repr((group, _spans(t.writes), _spans(t.reads))).encode())
        h.update(b";")
    return h.hexdigest()


@pytest.mark.parametrize("schedule", SCHEDULES, ids="-".join)
def test_plans_match_the_pinned_digest(planned, schedule):
    got = _plan_digest(planned(cfg) for cfg in _configs(*schedule))
    assert got == PINNED[schedule]


# sha1 of the look-ahead plans at the benchmark's sizes, which the grid
# above does not reach: sevp-lookahead's V1 and V2, and V1 and V2 (at
# sevp-lookahead's b) on svd-tall's shape.
BENCH_PINNED = [
    (SevpConfig(384, 32, 16, SevpVariant.V1), "df915b18f72d6034ed87d1579eb92d55904dc89d"),
    (SevpConfig(384, 32, 24, SevpVariant.V2), "4d419a38d2359abc880fd9fbf3b4b498930c9b67"),
    (
        SvdConfig(512, 256, 32, 16, SvdForm.BAND, SvdVariant.V1),
        "2d02cec0c6396ffda2f87e8220d25b7eb9234277",
    ),
    (
        SvdConfig(512, 256, 32, 24, SvdForm.BAND, SvdVariant.V2),
        "f26cbe04744c45c782e27875a2b40d1ca2b41df2",
    ),
]


@pytest.mark.parametrize(
    "cfg, digest",
    BENCH_PINNED,
    ids=["sevp-v1-384", "sevp-v2-384", "band-v1-512x256", "band-v2-512x256"],
)
def test_benchmark_size_plans_match_the_pinned_digest(planned, cfg, digest):
    assert _plan_digest([planned(cfg)]) == digest


@pytest.fixture
def updates(monkeypatch):
    """Every Update the streams build, with the cell (a Span) of each task
    made from it (keyed by the task's id())."""
    made = []

    @dataclass
    class Recorded(lookahead.Update):
        def __post_init__(self):
            cells = {}
            made.append((self, cells))
            make = self.make

            def recorded(cell, tag):
                task = make(cell, tag)
                cells[id(task)] = cell
                return task

            self.make = recorded

    for mod in (bandred.sevp, bandred.svd):
        monkeypatch.setattr(mod, "Update", Recorded)
    return made


def _area(span):
    return (span.rows[1] - span.rows[0]) * (span.cols[1] - span.cols[0])


def _reads_from(panel, task):
    return any(r.intersects(w) for r in panel.reads for w in task.writes)


@pytest.mark.parametrize("schedule", SCHEDULES, ids="-".join)
def test_planned_phases_are_legal_and_cuts_tile_their_boxes(planned, updates, schedule):
    """On every plan of the grid: no phase has a cross-group hazard; the
    pieces of each update tile its box (same union, pairwise disjoint);
    each next panel runs on the sequential list after every piece it reads;
    and, conversely, every piece on a sequential list beside next panels is
    read by one of them (V2's phase 1 places its block updates by its own
    rule and runs no panel)."""
    tiled = placed = 0
    for cfg in _configs(*schedule):
        updates.clear()
        plans = planned(cfg)
        pieces = {key for _, cells in updates for key in cells}
        for plan in plans:
            _check_hazards(plan)
            phase = plan.seq_tasks + plan.par_tasks
            for i, panel in enumerate(plan.seq_tasks):
                if panel.reads != panel.writes:
                    continue
                for t in phase:
                    if id(t) in pieces and _reads_from(panel, t):
                        assert any(t is s for s in plan.seq_tasks[:i]), (cfg, t.task_id)
                        placed += 1
            if not plan.label.endswith("/p1"):
                panels = [t for t in plan.seq_tasks if t.reads == t.writes]
                for t in plan.seq_tasks:
                    if id(t) in pieces:
                        assert any(_reads_from(p, t) for p in panels), (cfg, plan.label, t.task_id)
        ran = {id(t) for plan in plans for t in plan.seq_tasks + plan.par_tasks}
        for update, cells in updates:
            boxes = [cell for key, cell in cells.items() if key in ran]
            box = update.span
            assert boxes, (cfg, box)
            assert sum(_area(c) for c in boxes) == _area(box)
            for cell in boxes:
                assert cell.target == box.target
                assert box.rows[0] <= cell.rows[0] < cell.rows[1] <= box.rows[1]
                assert box.cols[0] <= cell.cols[0] < cell.cols[1] <= box.cols[1]
            for i, a in enumerate(boxes):
                assert not any(a.intersects(b) for b in boxes[i + 1 :]), (cfg, boxes)
            tiled += len(boxes) > 1
    assert tiled > 0 or schedule[1] in ("reference", "simultaneous")
    assert placed > 0 or schedule[1] in ("reference", "simultaneous")


def _static_plans(form, variant, m, n, w, b, accumulate_q):
    """One schedule's phases, planned on a state built on no matrix, as
    enumerate_tasks does: no reduction is called and no task runs."""
    if form == "sevp":
        state = bandred.sevp._State(None, SevpConfig(n, w, b, accumulate_q=accumulate_q))
        widths = lookahead.schedule(n, n, w, b)
    else:
        state = bandred.svd._BandState(None, SvdConfig(m, n, w, b, SvdForm(form)))
        widths = lookahead.schedule(m, n, state.s, b)

    def stream(k):
        if form == "sevp":
            return bandred.sevp._stream(state, k, widths[k])
        return bandred.svd._band_stream(state, k, widths[k], variant in ("simultaneous", "v2"))

    return lookahead.plan(stream, list(widths), variant in ("v1", "v2"), variant == "v2")


@pytest.mark.parametrize("schedule", SCHEDULES, ids="-".join)
def test_a_static_sweep_finds_no_hazard_in_any_planned_phase(schedule):
    """Every phase of the schedule over n <= 20, w <= 8, every b (V1 only
    where 2b <= w), with and without Q (SEVP) or at m = n and m = n + 5
    (SVD) passes run_phase's hazard check, without a task run. The
    Reference schedules must plan no sequential list at all."""
    form, variant = schedule
    phases = 0
    for n in range(1, 21):
        for w in range(1, 9):
            for b in range(1, w + 1):
                if variant == "v1" and 2 * b > w:
                    continue
                for x in ((False, True) if form == "sevp" else (n, n + 5)):
                    m, aq = (n, x) if form == "sevp" else (x, False)
                    for plan in _static_plans(form, variant, m, n, w, b, aq):
                        _check_hazards(plan)
                        assert plan.seq_tasks == [] or variant in ("v1", "v2")
                        phases += 1
    assert phases > 1000


# --- every task takes its operands through its declared spans ----------------


@pytest.fixture
def audit(monkeypatch):
    """audit(tasks): runs each task's fn(None) in order and returns (task,
    the spans its body took) pairs. view is replaced by a recorder where
    lookahead, sevp and svd look it up."""
    took = None
    real = lookahead.view

    def recorded(arrays, span):
        took.append(span)
        return real(arrays, span)

    for mod in (lookahead, bandred.sevp, bandred.svd):
        monkeypatch.setattr(mod, "view", recorded)

    def audit(tasks):
        nonlocal took
        runs = []
        for task in tasks:
            took = []
            runs.append((task, took))
            task.fn(None)
        return runs

    return audit


def _faults(runs):
    """What the (task, spans taken) pairs of one reduction break: a span a
    body takes that its task does not declare, or a declared span it does
    not take that is no panel's (a body reads a panel through its factors,
    factors[k], not through view)."""
    panels = {t.writes[0] for t, _ in runs if t.reads == t.writes}
    faults = []
    for task, took in runs:
        declared = {*task.reads, *task.writes}
        faults += [(task.task_id, "undeclared", s) for s in took if s not in declared]
        faults += [(task.task_id, "not taken", s) for s in declared - {*took, *panels}]
    return faults


@pytest.mark.parametrize("schedule", SCHEDULES, ids="-".join)
def test_every_task_body_takes_exactly_its_declared_spans(monkeypatch, audit, schedule):
    """Every task of every reduction over the grid, run serially on real
    inputs, takes its operands through view of spans it declares, and takes
    every span it declares but the panels it reads through their factors."""
    runs = []
    monkeypatch.setattr(lookahead, "run_phase",
                        lambda plan, groups: runs.extend(audit(plan.seq_tasks + plan.par_tasks)))
    rng = np.random.default_rng(5)
    ran = 0
    for cfg in _configs(*schedule):
        runs.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if isinstance(cfg, SevpConfig):
                reduce_sym_band(rng.standard_normal((cfg.n, cfg.n)), cfg)
            else:
                reduce_band_svd(rng.standard_normal((cfg.m, cfg.n)), cfg)
        assert _faults(runs) == [], cfg
        ran += len(runs)
    assert ran > 1000


def test_the_audit_catches_a_body_that_views_a_row_beyond_its_write(audit):
    """A task that declares the write span but stores through a view one
    row longer fails the audit twice: the longer span is undeclared, and
    the declared one is never taken. The same task storing through its
    declared span passes."""
    arrays = {"A": np.zeros((4, 4), order="F")}
    span, wider = Span("A", (0, 2), (0, 2)), Span("A", (0, 3), (0, 2))

    def body(taken):
        def fn(workers):
            lookahead.view(arrays, taken)[...] = 1.0

        return Task("mid@0", fn, [span])

    assert _faults(audit([body(span)])) == []
    faults = _faults(audit([body(wider)]))
    assert faults == [("mid@0", "undeclared", wider), ("mid@0", "not taken", span)]


# --- the band cut both reductions share --------------------------------------


@pytest.mark.parametrize("m, n", [(9, 6), (6, 6), (5, 9)])
@pytest.mark.parametrize("lower, upper", [(2, 2), (0, 2), (0, 0), (3, 1)])
def test_keep_band_keeps_the_band_bits_and_zeroes_the_rest_to_plus_zero(m, n, lower, upper):
    """keep_band(A, lower, upper) keeps every entry with -lower <= j - i <=
    upper bit for bit, a -0.0 included, and leaves every other entry +0.0,
    in place: the band form's cut is (w, w), the tri-band form's (0, w)."""
    rng = np.random.default_rng(m * n + lower)
    A = np.asfortranarray(rng.standard_normal((m, n)))
    A[rng.random((m, n)) < 0.4] = -0.0
    A[0, 0] = A[m - 1, 0] = A[0, n - 1] = -0.0  # in the band, below it, above it
    i, j = np.indices((m, n))
    inside = (-lower <= j - i) & (j - i <= upper)
    want = np.where(inside, A, 0.0)
    got = A.copy(order="F")
    assert lookahead.keep_band(got, lower, upper) is got
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert not np.signbit(got[~inside]).any()
    assert np.signbit(got[inside & (A == 0.0)]).all()


# --- the iteration's buffers ---------------------------------------------------


def test_every_buffer_is_zeroed_column_major_and_64_byte_aligned():
    """buffer hands out zeroed, writeable F-order arrays whose data starts on
    a 64-byte boundary, whatever the shape (np.zeros promises 16 bytes)."""
    arrays = {}
    for rows in range(1, 11):
        for cols in (1, 2, 3, 16, 24):
            span = lookahead.buffer(arrays, "X", rows, cols)
            x = arrays["X"]
            assert span == Span("X", (0, rows), (0, cols)) and x.shape == (rows, cols)
            assert x.flags.f_contiguous and x.flags.writeable and not x.any()
            assert x.ctypes.data % 64 == 0, (rows, cols)

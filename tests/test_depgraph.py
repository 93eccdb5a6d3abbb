from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandred import (
    SvdConfig,
    SvdForm,
    TaskKind,
    TaskNode,
    analyze_overlap,
    build_dag,
    enumerate_tasks,
    reduce_band_svd,
    reduce_tri_band,
    to_dot,
)
from bandred import depgraph
from bandred.depgraph import essential_adjacency


def _dag(m, n, w, b, form, iters=None):
    tasks = enumerate_tasks(m, n, w, b, form, iters)
    return build_dag(tasks, m, n, w, b, form)


def _reaches_any(adj, sources, targets):
    targets = set(targets)
    seen = set(sources)
    stack = list(sources)
    if seen & targets:
        return True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in targets:
                return True
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def test_w_equals_b_admits_no_overlap():
    dag = _dag(64, 64, 4, 4, SvdForm.TRIANGULAR_BAND)
    rep = analyze_overlap(dag, 4, 4, SvdForm.TRIANGULAR_BAND)
    assert (rep.left_feasible, rep.right_feasible, rep.both_feasible) == (
        False,
        False,
        False,
    )


def test_band_w_twice_b_admits_both_overlaps():
    dag = _dag(64, 64, 8, 4, SvdForm.BAND)
    rep = analyze_overlap(dag, 8, 4, SvdForm.BAND)
    assert (rep.left_feasible, rep.right_feasible, rep.both_feasible) == (
        True,
        True,
        True,
    )
    assert rep.steady_iterations  # analysis looked at real iterations


def test_triband_w_twice_b_sides_interlock():
    """Each side alone can hide its next panel, but the two demands cycle:
    one look-ahead schedule cannot serve both."""
    dag = _dag(64, 64, 8, 4, SvdForm.TRIANGULAR_BAND)
    rep = analyze_overlap(dag, 8, 4, SvdForm.TRIANGULAR_BAND)
    assert rep.left_feasible and rep.right_feasible and not rep.both_feasible


def test_w_equals_b_macro_chain():
    """At w = b the essential DAG still serializes whole iterations:
    QR -> (updates) -> LQ -> (updates) -> next QR."""
    dag = _dag(16, 16, 2, 2, SvdForm.TRIANGULAR_BAND)
    adj = essential_adjacency(dag)
    for t in (0, 1, 2):
        qr = dag.node_index(TaskKind.QR_PANEL, t)
        lq = dag.node_index(TaskKind.LQ_PANEL, t)
        qr_next = dag.node_index(TaskKind.QR_PANEL, t + 1)
        assert _reaches_any(adj, [qr], [lq])
        assert _reaches_any(adj, [lq], [qr_next])


def test_folding_prerequisite_updates_into_panels_changes_nothing():
    """The next panel depends on the update of its own block; treating that
    prerequisite update as part of the panel target must not change any
    feasibility answer, because the update -> panel edge is always there."""
    configs = [
        (SvdForm.TRIANGULAR_BAND, 4),
        (SvdForm.TRIANGULAR_BAND, 8),
        (SvdForm.TRIANGULAR_BAND, 12),
        (SvdForm.BAND, 8),
        (SvdForm.BAND, 12),
    ]
    b = 4
    for form, w in configs:
        dag = _dag(64, 64, w, b, form)
        rep = analyze_overlap(dag, w, b, form)
        adj = essential_adjacency(dag)
        r = w // b
        for t in rep.steady_iterations:
            tail_left = [
                i
                for i, nd in enumerate(dag.nodes)
                if nd.kind is TaskKind.LEFT_UPDATE
                and nd.iteration == t
                and nd.block >= t + r
            ]
            qr_next = dag.node_index(TaskKind.QR_PANEL, t + 1)
            prereq = dag.node_index(TaskKind.LEFT_UPDATE, t, t + 1)
            plain = _reaches_any(adj, tail_left, [qr_next])
            folded = _reaches_any(adj, tail_left, [qr_next, prereq])
            assert plain == folded

            tail_right = [
                i
                for i, nd in enumerate(dag.nodes)
                if nd.kind is TaskKind.RIGHT_UPDATE
                and nd.iteration == t
                and nd.block >= t + r
            ]
            lq_next = dag.node_index(TaskKind.LQ_PANEL, t + 1)
            rprereq = dag.node_index(TaskKind.RIGHT_UPDATE, t, t + 1)
            assert _reaches_any(adj, tail_right, [lq_next]) == _reaches_any(
                adj, tail_right, [lq_next, rprereq]
            )


def test_truncated_enumeration_is_a_prefix():
    full = enumerate_tasks(24, 24, 4, 2, SvdForm.BAND)
    short = enumerate_tasks(24, 24, 4, 2, SvdForm.BAND, iters=3)
    assert short == full[: len(short)]
    assert {t.iteration for t in short} == {0, 1, 2}

    dag_full = build_dag(full, 24, 24, 4, 2, SvdForm.BAND)
    dag_short = build_dag(short, 24, 24, 4, 2, SvdForm.BAND)
    assert set(dag_short.edges) <= set(dag_full.edges)


def test_dag_is_acyclic_by_construction():
    dag = _dag(20, 20, 4, 2, SvdForm.BAND)
    assert all(src < dst for src, dst, _ in dag.edges)
    causes = {c for _, _, c in dag.edges}
    assert causes <= {"RAW", "WAR", "WAW"}
    assert "RAW" in causes
    # one edge per dependent pair
    pairs = [(s, d) for s, d, _ in dag.edges]
    assert len(pairs) == len(set(pairs))


def test_task_ranges_are_in_bounds_and_reads_cover_writes():
    for form in (SvdForm.TRIANGULAR_BAND, SvdForm.BAND):
        for t in enumerate_tasks(18, 14, 4, 2, form):
            assert set(t.writes) <= set(t.reads)
            for (r0, r1), (c0, c1) in t.reads:
                assert 0 <= r0 < r1 <= 18
                assert 0 <= c0 < c1 <= 14
            if t.block is None:
                assert t.kind in (TaskKind.QR_PANEL, TaskKind.LQ_PANEL)
            elif t.kind is TaskKind.LEFT_UPDATE:
                (c0, c1) = t.writes[0][1]
                assert c0 // 2 == t.block and c1 <= (t.block + 1) * 2
            else:
                (r0, r1) = t.writes[0][0]
                assert r0 // 2 == t.block and r1 <= (t.block + 1) * 2


def test_band_form_updates_skip_the_band_rows():
    tasks = enumerate_tasks(20, 20, 4, 2, SvdForm.BAND, iters=1)
    left = [t for t in tasks if t.kind is TaskKind.LEFT_UPDATE]
    assert left and all(t.writes[0][0] == (4, 20) for t in left)
    tri = enumerate_tasks(20, 20, 4, 2, SvdForm.TRIANGULAR_BAND, iters=1)
    tleft = [t for t in tri if t.kind is TaskKind.LEFT_UPDATE]
    assert tleft and all(t.writes[0][0] == (0, 20) for t in tleft)


def test_enumerated_tasks_match_instrumented_triband_run(reference_nodes):
    m, n, w, b = 20, 16, 4, 2
    reduce_tri_band(np.asfortranarray(np.random.default_rng(0).standard_normal((m, n))), w, b)
    assert reference_nodes(b) == enumerate_tasks(m, n, w, b, SvdForm.TRIANGULAR_BAND)


def test_enumerated_tasks_match_instrumented_band_run(reference_nodes):
    m, n, w, b = 18, 18, 4, 2
    cfg = SvdConfig(m=m, n=n, w=w, b=b, form=SvdForm.BAND)
    reduce_band_svd(np.asfortranarray(np.random.default_rng(1).standard_normal((m, n))), cfg)
    assert reference_nodes(b) == enumerate_tasks(m, n, w, b, SvdForm.BAND)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_tasks(0, 5, 2, 1, SvdForm.BAND)
    with pytest.raises(ValueError):
        enumerate_tasks(5, 5, 2, 3, SvdForm.BAND)
    with pytest.raises(ValueError):
        enumerate_tasks(5, 5, 2, 1, SvdForm.BAND, iters=0)
    with pytest.raises(TypeError):
        enumerate_tasks(5, 5, 2, 1, "band")


def test_analysis_validation():
    dag = _dag(24, 24, 4, 2, SvdForm.BAND)
    with pytest.raises(ValueError):
        analyze_overlap(dag, 4, 3, SvdForm.BAND)  # w not a multiple of b
    with pytest.raises(ValueError):
        analyze_overlap(dag, 8, 2, SvdForm.BAND)  # mismatched dag
    short = _dag(24, 24, 4, 2, SvdForm.BAND, iters=2)
    with pytest.raises(ValueError):
        analyze_overlap(short, 4, 2, SvdForm.BAND)


def test_analysis_requires_a_steady_iteration():
    # n too small for any LQ panel: every iteration is left-only
    dag = _dag(40, 8, 16, 2, SvdForm.TRIANGULAR_BAND)
    with pytest.raises(ValueError, match="steady"):
        analyze_overlap(dag, 16, 2, SvdForm.TRIANGULAR_BAND)


def test_dot_rendering():
    dag = _dag(14, 14, 4, 2, SvdForm.BAND, iters=4)
    dot = to_dot(dag)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(dag.edges)
    assert dot.count("shape=box") == sum(
        1 for t in dag.nodes if t.kind in (TaskKind.QR_PANEL, TaskKind.LQ_PANEL)
    )
    assert "color=black" in dot


def test_cause_classification_priority():
    """Real reduction tasks always read what they write, so RAW shadows the
    weaker hazards there; synthetic nodes exercise the WAR and WAW labels."""
    box = ((0, 2), (0, 2))
    reader = TaskNode(TaskKind.LEFT_UPDATE, 0, 0, (box,), ())
    writer = TaskNode(TaskKind.LEFT_UPDATE, 1, 0, (), (box,))
    war = build_dag([reader, writer], 2, 2, 2, 2, SvdForm.BAND)
    assert war.edges == [(0, 1, "WAR")]
    waw = build_dag([writer, writer], 2, 2, 2, 2, SvdForm.BAND)
    assert waw.edges == [(0, 1, "WAW")]
    raw = build_dag([writer, reader], 2, 2, 2, 2, SvdForm.BAND)
    assert raw.edges == [(0, 1, "RAW")]
    dot = to_dot(war)
    assert "color=royalblue" in dot


def test_task_kind_values_match_instrumented_names():
    assert {k.value for k in TaskKind} == {
        "qr_panel",
        "lq_panel",
        "left_update",
        "right_update",
    }


# --- build_dag and essential_adjacency against pairwise oracles -------------


def _meet(p, q):
    # The half-open rectangle rule, one pair of boxes at a time.
    ((r0, r1), (c0, c1)), ((s0, s1), (d0, d1)) = p, q
    return r0 < s1 and s0 < r1 and c0 < d1 and d0 < c1


def _pairwise_edges(tasks):
    """Edges by testing every ordered task pair box by box."""
    edges = []
    for i, a in enumerate(tasks):
        for j in range(i + 1, len(tasks)):
            c = tasks[j]
            if any(_meet(p, q) for p in a.writes for q in c.reads):
                edges.append((i, j, "RAW"))
            elif any(_meet(p, q) for p in a.reads for q in c.writes):
                edges.append((i, j, "WAR"))
            elif any(_meet(p, q) for p in a.writes for q in c.writes):
                edges.append((i, j, "WAW"))
    return edges


def _loop_essential_adjacency(dag):
    """essential_adjacency as a plain per-edge loop over task kinds."""
    updates = {TaskKind.LEFT_UPDATE, TaskKind.RIGHT_UPDATE}
    adj = [[] for _ in dag.nodes]
    for src, dst, _cause in dag.edges:
        ks, kd = dag.nodes[src].kind, dag.nodes[dst].kind
        if ks in updates and kd in updates and ks is not kd:
            continue
        adj[src].append(dst)
    return adj


def _assert_edges_exact(got, want):
    assert isinstance(got, list)
    assert got == want  # same order and labels
    for src, dst, cause in got:
        assert type(src) is int and type(dst) is int and type(cause) is str


@st.composite
def _task_lists(draw):
    # Coordinates on a small grid, so boxes meet often, repeat, touch at
    # edges or have zero area; a shared pool adds exact duplicates.
    coord = st.integers(0, 10)

    def interval():
        lo, hi = sorted((draw(coord), draw(coord)))
        return (lo, hi)

    pool = [(interval(), interval()) for _ in range(draw(st.integers(1, 6)))]

    def boxes():
        out = []
        for _ in range(draw(st.integers(0, 3))):
            out.append(draw(st.sampled_from(pool)) if draw(st.booleans())
                       else (interval(), interval()))
        return tuple(out)

    tasks = []
    for it in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(list(TaskKind)))
        block = None if kind in (TaskKind.QR_PANEL, TaskKind.LQ_PANEL) else it
        tasks.append(TaskNode(kind, it, block, boxes(), boxes()))
    return tasks


@settings(max_examples=150, deadline=None)
@given(tasks=_task_lists(), row_block=st.sampled_from([1, 2, 3, 7, 64, depgraph.ROW_BLOCK]))
@example(tasks=[], row_block=depgraph.ROW_BLOCK)
def test_build_dag_matches_pairwise_oracle(tasks, row_block):
    # Small row blocks put block boundaries inside and between tasks.
    with mock.patch.object(depgraph, "ROW_BLOCK", row_block):
        dag = build_dag(tasks, 10, 10, 2, 2, SvdForm.BAND)
    _assert_edges_exact(dag.edges, _pairwise_edges(tasks))
    assert dag.nodes == tasks
    assert essential_adjacency(dag) == _loop_essential_adjacency(dag)


def _random_box_tasks(n_tasks, read_cap, write_cap):
    rng = np.random.default_rng(3)

    def boxes(k):
        out = []
        for _ in range(k):
            r0, c0 = rng.integers(0, 40, 2).tolist()
            dr, dc = rng.integers(0, 4, 2).tolist()
            out.append(((r0, r0 + dr), (c0, c0 + dc)))
        return tuple(out)

    kinds = list(TaskKind)
    return [TaskNode(kinds[i % 4], i, i, boxes(int(rng.integers(0, read_cap))),
                     boxes(int(rng.integers(0, write_cap))))
            for i in range(n_tasks)]


def _assert_matches_oracle_at_real_row_block(tasks):
    dag = build_dag(tasks, 40, 40, 2, 2, SvdForm.BAND)
    _assert_edges_exact(dag.edges, _pairwise_edges(tasks))
    assert {c for _, _, c in dag.edges} == {"RAW", "WAR", "WAW"}
    assert essential_adjacency(dag) == _loop_essential_adjacency(dag)


def test_build_dag_matches_oracle_across_the_real_row_block():
    # Up to 29 reads and 19 writes per task, far more box slots than the
    # one or two of enumerated tasks, and more write boxes than ROW_BLOCK.
    tasks = _random_box_tasks(40, 30, 20)
    assert sum(len(t.writes) for t in tasks) > depgraph.ROW_BLOCK
    assert max(len(t.reads) for t in tasks) > 20
    _assert_matches_oracle_at_real_row_block(tasks)


def test_build_dag_matches_oracle_past_the_real_row_block_in_tasks():
    # More tasks than ROW_BLOCK, so source blocks end inside the list.
    tasks = _random_box_tasks(300, 6, 4)
    assert len(tasks) > depgraph.ROW_BLOCK
    _assert_matches_oracle_at_real_row_block(tasks)


@pytest.mark.parametrize("form", list(SvdForm))
@pytest.mark.parametrize("w", [2, 4, 6])
def test_build_dag_matches_oracle_on_enumerated_tasks(form, w):
    tasks = enumerate_tasks(24, 20, w, 2, form)
    dag = build_dag(tasks, 24, 20, w, 2, form)
    _assert_edges_exact(dag.edges, _pairwise_edges(tasks))
    assert essential_adjacency(dag) == _loop_essential_adjacency(dag)


def test_build_dag_peak_memory_stays_bounded():
    # O(ROW_BLOCK * T + T^2) working memory plus the edge list: about
    # 1,050 tasks and 200k edges here, well under the old O(boxes^2) pass.
    tasks = enumerate_tasks(128, 128, 4, 4, SvdForm.TRIANGULAR_BAND)
    tracemalloc.start()
    try:
        dag = build_dag(tasks, 128, 128, 4, 4, SvdForm.TRIANGULAR_BAND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dag.edges) > 150_000
    assert peak < 60e6, f"build_dag peak {peak / 1e6:.1f} MB"


def test_build_dag_rejects_coordinates_outside_int32():
    # The rectangle tests run on int32 columns; a coordinate that does
    # not fit must raise, not wrap.
    big = ((0, 2**31), (0, 2))
    node = TaskNode(TaskKind.QR_PANEL, 0, None, (big,), (big,))
    with pytest.raises(OverflowError):
        build_dag([node], 2**31, 2, 2, 2, SvdForm.BAND)


# --- analyze_overlap's bounded search against whole-graph DFS ---------------


def _oracle_overlap(dag, w, b):
    """analyze_overlap's flags and steady iterations, with every query a
    whole-graph DFS over the full essential adjacency."""
    r = w // b
    adj = essential_adjacency(dag)
    where = {}
    for i, nd in enumerate(dag.nodes):
        where.setdefault((nd.kind, nd.iteration), []).append(i)

    def panel(kind, t):
        return where.get((kind, t), [None])[0]

    def tail(kind, t):
        return [i for i in where.get((kind, t), []) if dag.nodes[i].block >= t + r]

    def full(t):
        (_, (c0, c1)), = dag.nodes[panel(TaskKind.QR_PANEL, t)].writes
        return c1 - c0 == b

    def reaches(sources, target):
        return _reaches_any(adj, sources, [target])

    left_k, right_k = TaskKind.LEFT_UPDATE, TaskKind.RIGHT_UPDATE
    qr, lq = TaskKind.QR_PANEL, TaskKind.LQ_PANEL
    iters = 1 + max(nd.iteration for nd in dag.nodes)
    steady = [t for t in range(iters - 2)
              if all(full(t + d) and panel(lq, t + d) is not None for d in (0, 1, 2))
              and tail(left_k, t) and tail(right_k, t) and tail(left_k, t + 1)]
    left = all(not reaches(tail(left_k, t), panel(qr, t + 1)) for t in steady)
    right = all(not reaches(tail(right_k, t), panel(lq, t + 1)) for t in steady)
    interlock = any(reaches(tail(left_k, t + 1), panel(lq, t + 1))
                    and reaches(tail(right_k, t), panel(qr, t + 2)) for t in steady)
    return left, right, left and right and not interlock, steady


@pytest.mark.parametrize("m,n,b", [(128, 128, 4), (64, 64, 4), (48, 40, 2), (40, 52, 4)])
@pytest.mark.parametrize("form", list(SvdForm))
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_analyze_overlap_matches_whole_graph_search(m, n, b, form, r):
    w = r * b
    dag = _dag(m, n, w, b, form)
    rep = analyze_overlap(dag, w, b, form)
    got = (rep.left_feasible, rep.right_feasible, rep.both_feasible, rep.steady_iterations)
    assert got == _oracle_overlap(dag, w, b)
    assert rep.steady_iterations


def _forward_dag(kinds, pairs, causes):
    nodes = [TaskNode(kind, i, None, (), ()) for i, kind in enumerate(kinds)]
    edges = [(s, d, c) for (s, d), c in zip(sorted(pairs), causes)]
    return depgraph.TaskDag(nodes, edges, 1, 1, 1, 1, SvdForm.BAND)


@st.composite
def _reach_queries(draw):
    # A forward DAG with sorted edges, random task kinds (so some edges
    # join opposite update sides and are not essential), and a query
    # whose sources may hold the target, lie past it or be empty.
    n = draw(st.integers(1, 24))
    node = st.integers(0, n - 1)
    kinds = draw(st.lists(st.sampled_from(list(TaskKind)), min_size=n, max_size=n))
    ends = draw(st.lists(st.tuples(node, node), max_size=80))
    pairs = {(min(a, c), max(a, c)) for a, c in ends if a != c}
    causes = draw(st.lists(st.sampled_from(["RAW", "WAR", "WAW"]),
                           min_size=len(pairs), max_size=len(pairs)))
    sources = draw(st.lists(node, max_size=5))
    return _forward_dag(kinds, pairs, causes), sources, draw(node)


_L, _R, _Q = TaskKind.LEFT_UPDATE, TaskKind.RIGHT_UPDATE, TaskKind.QR_PANEL


@settings(max_examples=300, deadline=None)
@given(query=_reach_queries())
@example(query=(_forward_dag([_L, _R], {(0, 1)}, ["RAW"]), [1], 1))  # target in sources
@example(query=(_forward_dag([_L, _L, _L], {(0, 1), (1, 2)}, ["RAW"] * 2), [2], 1))  # past it
@example(query=(_forward_dag([_L, _L], {(0, 1)}, ["RAW"]), [], 1))  # no sources
@example(query=(_forward_dag([_L, _R, _R], {(0, 1), (1, 2)}, ["RAW"] * 2), [0], 2))  # commutes
@example(query=(_forward_dag([_L, _Q, _R], {(0, 1), (1, 2)}, ["WAR"] * 2), [0], 2))  # via a panel
def test_bounded_reach_matches_whole_graph_dfs(query):
    dag, sources, target = query
    side = [depgraph._SIDE[nd.kind] for nd in dag.nodes]
    want = _reaches_any(essential_adjacency(dag), sources, [target])
    assert depgraph._reaches(dag.edges, side, sources, target) == want


@pytest.mark.parametrize("edges", [
    [(0, 2, "RAW"), (0, 1, "RAW"), (1, 3, "RAW")],  # dst descending in a slice
    [(0, 1, "RAW"), (1, 2, "RAW"), (0, 2, "RAW")],  # src out of order
    [(0, 1, "RAW"), (1, 1, "RAW"), (1, 2, "RAW")],  # src == dst
])
def test_bounded_reach_rejects_unsorted_edges_it_scans(edges):
    # The search checks the order of every slice prefix it scans; an
    # out-of-order part it never reaches is not detected.
    side = [depgraph._SIDE[_L]] * 4
    with pytest.raises(ValueError, match="sorted"):
        depgraph._reaches(edges, side, [0], 3)

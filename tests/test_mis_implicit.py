import random
import sys

import pytest

from dynamis import DeleteEdge, DeleteVertex, DynGraph, ImplicitMis, InsertEdge, InsertVertex
from dynamis.bench import stream_for_size
from dynamis.errors import MissingEdgeError, VertexUpdateUnsupportedError
from dynamis.mis.implicit import EAGER_FLOOR, _ceil_sqrt
from dynamis.oracles import is_mis


def build(n, edges):
    g = DynGraph(n)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def sweep(alg):
    """Query every live vertex; returns the true-answer set."""
    return {v for v in sorted(alg.g.adj) if alg.in_mis_query(v)}


def test_ceil_sqrt():
    assert [_ceil_sqrt(x) for x in (0, 1, 2, 4, 5, 9, 10)] == [0, 1, 2, 2, 3, 3, 4]


def test_insert_inside_set_removes_one():
    alg = ImplicitMis(DynGraph(4))
    assert sweep(alg) == {0, 1, 2, 3}
    log = alg.apply(InsertEdge(1, 3))
    assert log.removed == [3]  # higher id leaves
    assert alg.in_S == {0, 1, 2}
    assert alg.verify()


def test_insert_with_endpoint_outside_set():
    alg = ImplicitMis(DynGraph(4))
    sweep(alg)
    alg.apply(InsertEdge(1, 3))  # 3 leaves
    log = alg.apply(InsertEdge(3, 2))  # 2 in S, 3 out: no S change
    assert log.changes == []
    assert alg.in_S == {0, 1, 2}
    # with m_c under the floor everything is tracked, so 3's count is exact
    assert alg.hcount[3] == 2
    assert alg.verify()


def test_epoch_doubling_fires_once():
    g = build(300, [(2 * i, 2 * i + 1) for i in range(70)])
    alg = ImplicitMis(g)
    m_c = alg.m_c
    assert m_c == 70
    for i in range(70, 70 + (2 * m_c - g.m)):
        alg.apply(InsertEdge(2 * i, 2 * i + 1))
    assert alg.m_c == 2 * m_c
    assert alg.verify()


def test_query_isolated_joins():
    alg = ImplicitMis(DynGraph(3))
    assert alg.in_mis_query(1)
    assert 1 in alg.in_S


def test_query_blocked_by_neighbor():
    alg = ImplicitMis(build(2, [(0, 1)]))
    assert alg.in_mis_query(0)
    assert not alg.in_mis_query(1)


def test_query_tracked_updates_neighbor_counts():
    g = build(40, [(0, w) for w in range(1, 31)])
    alg = ImplicitMis(g)
    assert 0 in alg.tracked  # degree 30 > tau
    assert alg.hcount[0] == 0
    assert alg.in_mis_query(0)
    for w in g.adj[0] & alg.tracked:
        assert alg.hcount[w] >= 1
    assert alg.verify()


def test_queries_stable_within_batch():
    g = build(12, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)])
    alg = ImplicitMis(g)
    answers = {v: alg.in_mis_query(v) for v in sorted(g.adj)}
    again = {v: alg.in_mis_query(v) for v in sorted(g.adj)}
    assert answers == again


def test_sweep_yields_mis():
    g = build(10, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (0, 9)])
    alg = ImplicitMis(g)
    s = sweep(alg)
    assert is_mis(g.adj, s).ok


def test_vertex_event_with_edges_rejected():
    alg = ImplicitMis(DynGraph(3))
    with pytest.raises(VertexUpdateUnsupportedError):
        alg.apply(InsertVertex((0,)))


def test_isolated_vertex_events_supported():
    alg = ImplicitMis(DynGraph(2))
    sweep(alg)
    alg.apply(InsertVertex(()))
    assert alg.in_mis_query(2)
    log = alg.apply(DeleteVertex(2))
    assert log.removed == [2]
    assert alg.verify()


def test_audit_catches_stale_count():
    g = build(40, [(0, w) for w in range(1, 31)])
    alg = ImplicitMis(g)
    assert alg.verify()
    alg.hcount[0] += 1
    assert not alg.verify()


def test_audit_catches_dependent_pair():
    alg = ImplicitMis(build(2, [(0, 1)]))
    alg.in_S = {0, 1}
    assert not alg.verify()


def _edge_events(rng, g, queries=0.25):
    live = sorted(g.adj)
    r = rng.random()
    if r < queries:
        return "query", rng.choice(live)
    for _ in range(30):
        if rng.random() < 0.65 and len(live) >= 2:
            u, v = rng.sample(live, 2)
            if not g.has_edge(u, v):
                return "event", InsertEdge(u, v)
        else:
            edges = sorted(g.edges())
            if edges:
                return "event", DeleteEdge(*rng.choice(edges))
    return None, None


@pytest.mark.parametrize("seed", range(10))
def test_random_streams_audit_and_sweep(seed):
    rng = random.Random(seed)
    g = DynGraph(14)
    alg = ImplicitMis(g)
    for _ in range(200):
        kind, payload = _edge_events(rng, g)
        if kind == "query":
            alg.in_mis_query(payload)
        elif kind == "event":
            log = alg.apply(payload)
            assert len(log.removed) <= 1
        assert alg.verify()
    s = sweep(alg)
    assert is_mis(g.adj, s).ok


@pytest.mark.parametrize("seed", range(4))
def test_epoch_transitions_under_growth_and_shrink(seed):
    rng = random.Random(40 + seed)
    n = 30
    g = DynGraph(n)
    alg = ImplicitMis(g)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    chosen = pairs[: EAGER_FLOOR + 80]
    for u, v in chosen:
        alg.apply(InsertEdge(u, v))
        assert alg.verify()
    assert not alg.eager
    rng.shuffle(chosen)
    for u, v in chosen:
        alg.apply(DeleteEdge(u, v))
        assert alg.verify()
    assert alg.m_c == 1


def test_missing_edge_delete_leaves_counts_intact():
    alg = ImplicitMis(DynGraph(3))
    assert alg.in_mis_query(0)
    with pytest.raises(MissingEdgeError):
        alg.apply(DeleteEdge(0, 1))
    assert alg.verify()


def test_growth_demotion_leaves_a_compact_tracked_set():
    # Eager mode tracks all 2,000 vertices; at m = 64 every one is demoted.
    # A set never shrinks its table on discard, and every adj[v] & tracked
    # would walk the left-over table, so the demotion builds a fresh set.
    alg = ImplicitMis(DynGraph(2000))
    for i in range(EAGER_FLOOR):
        alg.apply(InsertEdge(2 * i, 2 * i + 1))
    assert not alg.eager
    assert sys.getsizeof(alg.tracked) == sys.getsizeof(set(alg.tracked))


@pytest.mark.parametrize("family", ["arbitrary-removal", "random-edges", "degree-biased"])
def test_growth_keeps_the_worst_case_bound(family):
    # The paper's O(min(Δ, √m)) per operation, on the growth side: each
    # doubling of m demotes the stale tracked vertices without reading
    # their adjacency.
    for m in (4096, 16384, 65536):
        stream = stream_for_size(family, m)
        alg = ImplicitMis(DynGraph(stream.n))
        for event in stream.events:
            alg.apply(event)
        max_degree = max(map(len, alg.g.adj.values()))
        bound = 2 * min(max_degree, _ceil_sqrt(m))
        assert alg.meter.max_op_edges_touched <= bound, (m, alg.meter.max_op_edges_touched, bound)


@pytest.mark.parametrize("seed", range(20))
def test_eager_mode_tracks_every_live_vertex(seed):
    # Below EAGER_FLOOR every live vertex is tracked after every event, also
    # across the epochs that double m_c without leaving eager mode, so none
    # of them needs a promotion pass.
    rng = random.Random(300 + seed)
    g = DynGraph(10)
    alg = ImplicitMis(g)
    eager_doublings = 0
    for _ in range(400):
        r = rng.random()
        if r < 0.1:
            event = InsertVertex(())
        elif r < 0.15 and g.n > 2:
            event = DeleteVertex(rng.choice(sorted(g.adj)))
        else:
            event = _edge_events(rng, g, queries=0)[1]
            if event is None:
                continue
        m_c = alg.m_c
        alg.apply(event)
        eager_doublings += alg.eager and alg.m_c > m_c
        if alg.eager:
            assert alg.tracked == set(g.vertices()), event
    assert eager_doublings >= 3

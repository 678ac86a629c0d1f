import random
import sys

import pytest

from dynamis import DeleteEdge, DeleteVertex, DynGraph, ImplicitMis, InsertEdge, InsertVertex
from dynamis.bench import stream_for_size
from dynamis.errors import MissingEdgeError, VertexUpdateUnsupportedError
from dynamis.mis.base import ceil_root
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
    assert [ceil_root(x, 1, 2) for x in (0, 1, 2, 4, 5, 9, 10)] == [0, 1, 2, 2, 3, 3, 4]


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
    # 3's degree, 2, is above tau = 1, so the insertion promotes 3 with an
    # exact count
    assert 3 in alg.tracked and alg.hcount[3] == 2
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


def test_audit_catches_untracked_vertex_above_tau():
    # m = 9, tau = 3: the star's centre (degree 9) must be tracked, while
    # the isolated vertices 10 and 11 need not be
    alg = ImplicitMis(build(12, [(0, w) for w in range(1, 10)]))
    assert alg.verify()
    assert 0 in alg.tracked and not {10, 11} & alg.tracked
    alg.tracked.discard(0)
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
    chosen = pairs[:144]
    for u, v in chosen:
        alg.apply(InsertEdge(u, v))
        assert alg.verify()
    assert alg.m_c == 128
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
    # K20 plus disjoint edges: m = 190, so tau = 14 and every clique vertex
    # (degree 19) is tracked.  Two doublings raise the candidate threshold
    # to 20 and demote all 20 at once.  A set never shrinks its table on
    # discard, and every adj[v] & tracked would walk the left-over table, so
    # the demotion builds a fresh set.
    alg = ImplicitMis(build(1200, [(u, v) for u in range(20) for v in range(u + 1, 20)]))
    assert len(alg.tracked) == 20
    i = 10
    while alg.m_c < 4 * 190:
        alg.apply(InsertEdge(2 * i, 2 * i + 1))
        i += 1
    assert alg.verify()
    assert not alg.tracked
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
        bound = 2 * min(max_degree, ceil_root(m, 1, 2))
        assert alg.meter.max_op_edges_touched <= bound, (m, alg.meter.max_op_edges_touched, bound)


def test_promotion_by_an_insertion_counts_the_edge_once():
    # m_c = 64 after the set-up, so tau = 8 and the candidate threshold is 6.
    # The third edge from 112..116 lifts 150 to degree 9 > tau while 6..11
    # hold the candidate queue; its promotion counts the new edge, and the
    # insertion must not count it again.
    alg = ImplicitMis(DynGraph(200))
    setup = [(100 + 2 * i, 101 + 2 * i) for i in range(50)]
    for base in (0, 6):
        setup += [(base + a, base + b) for a in range(6) for b in range(a + 1, 6)]
    first = [(w, 150) for w in (102, 104, 106, 108, 110)]
    bridges = [(i, 6 + i) for i in range(6)] + [(i, 6 + (i + 1) % 6) for i in range(6)]
    second = [(w, 150) for w in (112, 114, 116)]

    def run(edges):
        for u, v in edges:
            alg.apply(InsertEdge(u, v))
            assert alg.verify(), (u, v)

    run(setup)
    assert (alg.m_c, alg.tau, alg.cand_thresh) == (64, 8, 6)
    for v in [151] + [v for v in range(200) if v != 151]:
        alg.in_mis_query(v)
        assert alg.verify()
    assert 150 not in alg.in_S
    run(first + bridges)
    assert alg.candidates == set(range(6, 12))
    run(second)
    assert 150 in alg.tracked
    run([(100, w) for w in sorted(alg.g.adj[150] & alg.in_S)])
    assert alg.in_mis_query(150)
    assert alg.verify()


def test_halving_from_an_odd_baseline_tracks_every_vertex_above_tau():
    # m = 163: tau = 13 and the candidate threshold is ceil(sqrt(82)) = 10,
    # so the star's centre (degree 10) is neither tracked nor a candidate.
    # At m = 81 the baseline halves to 81 and tau drops to 9.
    star = [(0, w) for w in range(1, 11)]
    matching = [(11 + 2 * i, 12 + 2 * i) for i in range(153)]
    alg = ImplicitMis(build(317, star + matching))
    assert (alg.tau, alg.cand_thresh) == (13, 10)
    assert 0 not in alg.tracked and 0 not in alg.candidates
    for u, v in matching:
        alg.apply(DeleteEdge(u, v))
        assert alg.verify(), (u, v, alg.m_c)
    assert alg.m_c == 10 and 0 in alg.tracked
    assert is_mis(alg.g.adj, sweep(alg)).ok


def _star_with_12_leaves():
    alg = ImplicitMis(DynGraph(13))
    for w in range(1, 13):
        alg.apply(InsertEdge(0, w))
    assert (alg.m_c, alg.tau, alg.cand_thresh) == (8, 3, 2)
    assert alg.tracked == {0} and not alg.candidates
    assert alg.verify()
    return alg


def _track_leaf(alg):
    alg.tracked.add(5)
    alg.hcount[5] = len(alg.g.adj[5] & alg.in_S)


def _track_dead_id(alg):
    alg.tracked.add(99)
    alg.hcount[99] = 0


@pytest.mark.parametrize(
    "corrupt",
    [
        _track_leaf,
        lambda alg: alg.candidates.add(5),
        lambda alg: alg.candidates.add(99),
        lambda alg: alg.hcount.pop(0),
        lambda alg: alg.hcount.update({7: 0}),
        _track_dead_id,
    ],
    ids=[
        "tracked-leaf", "queued-leaf", "queued-dead-id",
        "tracked-without-count", "untracked-count", "tracked-dead-id",
    ],
)
def test_audit_catches_a_broken_threshold_rule(corrupt):
    # a tracked vertex must lie above the candidate threshold and carry its
    # count, only tracked vertices carry one, and the candidates must be
    # exactly the live untracked vertices above the threshold; a corruption
    # makes the audit return False, never raise
    alg = _star_with_12_leaves()
    corrupt(alg)
    assert alg.verify() is False


@pytest.mark.parametrize("seed", range(20))
def test_small_streams_keep_the_threshold_rule(seed):
    # From m_c = 1 up through several doublings, one rule holds
    # after every event: a vertex above tau is tracked, a tracked vertex is
    # above the candidate threshold, and an untracked one above it is queued.
    rng = random.Random(300 + seed)
    g = DynGraph(10)
    alg = ImplicitMis(g)
    doublings = 0
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
        doublings += alg.m_c > m_c
        for v in g.vertices():
            deg = len(g.adj[v])
            if deg > alg.tau:
                assert v in alg.tracked, (event, v)
            if v in alg.tracked:
                assert deg > alg.cand_thresh, (event, v)
            elif deg > alg.cand_thresh:
                assert v in alg.candidates, (event, v)
        assert alg.verify(), event
    assert doublings >= 3
    assert is_mis(g.adj, sweep(alg)).ok

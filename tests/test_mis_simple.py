import random

import pytest

from dynamis import (
    DeleteEdge,
    DeleteVertex,
    DynGraph,
    InsertEdge,
    InsertVertex,
    QueryInMis,
    RemovalPolicy,
    SimpleMis,
)
from dynamis.errors import IncompatibleStreamError
from dynamis.oracles import is_mis


def build(n, edges):
    g = DynGraph(n)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def test_init_triangle():
    alg = SimpleMis(build(3, [(0, 1), (1, 2), (0, 2)]))
    assert alg.mis() == {0}


def test_init_path():
    alg = SimpleMis(build(3, [(0, 1), (1, 2)]))
    assert alg.mis() == {0, 2}


def test_init_empty_graph():
    alg = SimpleMis(DynGraph(5))
    assert alg.mis() == set(range(5))


def test_insert_between_members_first_endpoint():
    alg = SimpleMis(build(3, [(0, 1), (1, 2)]))
    log = alg.apply(InsertEdge(0, 2))
    assert log.removed == [0]
    assert alg.mis() == {2} or is_mis(alg.g.adj, alg.mis()).ok
    assert alg.verify()


def test_delete_mis_center_of_star():
    g = DynGraph(1)
    for _ in range(3):
        g.insert_vertex([0])
    alg = SimpleMis(g)
    assert alg.mis() == {0}
    log = alg.apply(DeleteVertex(0))
    assert log.removed == [0]
    assert log.added == [1, 2, 3]
    assert alg.mis() == {1, 2, 3}


@pytest.mark.parametrize("hub", [0, 40])
def test_vertex_deletion_charges_its_degree_once(hub):
    # a 40-leaf star: hub 0 enters the MIS first, hub 40 is blocked by its
    # leaves; either way deleting it walks its 40 neighbours once
    g = build(41, [(hub, w) for w in range(41) if w != hub])
    alg = SimpleMis(g)
    assert (hub in alg.mis()) == (hub == 0)
    log = alg.apply(DeleteVertex(hub))
    assert log.edges_touched == 40
    assert alg.mis() == set(range(41)) - {hub}
    assert alg.verify()


def test_delete_edge_no_adjustment():
    alg = SimpleMis(build(3, [(0, 1), (1, 2)]))
    log = alg.apply(DeleteEdge(0, 1))
    assert log.changes == []
    assert alg.mis() == {0, 2}
    assert alg.verify()


def test_delete_edge_admits_freed_vertex():
    alg = SimpleMis(build(3, [(0, 1), (1, 2)]))
    alg.apply(DeleteEdge(0, 1))
    log = alg.apply(DeleteEdge(1, 2))
    assert log.added == [1]
    assert alg.mis() == {0, 1, 2}


def test_insert_vertex_counts():
    alg = SimpleMis(build(2, [(0, 1)]))
    log = alg.apply(InsertVertex((1,)))
    assert log.added == [2]
    assert alg.mis() == {0, 2}
    log = alg.apply(InsertVertex((0, 2)))
    assert log.changes == []
    assert alg.verify()


def test_query_rejected():
    alg = SimpleMis(DynGraph(2))
    with pytest.raises(IncompatibleStreamError):
        alg.apply(QueryInMis(0))


def test_verify_catches_tampering():
    alg = SimpleMis(build(3, [(0, 1), (1, 2)]))
    assert alg.verify()
    alg.in_M.add(1)  # adjacent pair 0-1 now inside
    assert not alg.verify()


def test_verify_catches_nonmaximal():
    alg = SimpleMis(DynGraph(2))
    alg.in_M.discard(1)
    alg.count[1] = 0
    assert not alg.verify()


def test_counts_cover_every_id():
    g = build(4, [(0, 1), (1, 2)])
    alg = SimpleMis(g)
    alg.apply(InsertVertex((0, 2)))
    alg.apply(DeleteVertex(3))
    assert len(alg.count) == g.id_bound == 5 and alg.count[3] == 0
    assert alg.verify()


def test_verify_catches_short_count_list():
    alg = SimpleMis(build(3, [(0, 1)]))
    alg.apply(InsertVertex((1,)))
    alg.count.pop()
    assert not alg.verify()


def test_verify_catches_wrong_count_on_inserted_vertex():
    alg = SimpleMis(build(3, [(0, 1)]))
    alg.apply(InsertVertex((0, 2)))
    v = alg.g.id_bound - 1
    assert alg.count[v] == 2 and alg.verify()
    alg.count[v] += 1
    assert not alg.verify()


def _random_stream(rng, n, events):
    ops = []
    edges = set()
    live = list(range(n))
    next_id = n
    while len(ops) < events:
        r = rng.random()
        if r < 0.4 and len(live) >= 2:
            u, v = rng.sample(live, 2)
            if (min(u, v), max(u, v)) not in edges:
                edges.add((min(u, v), max(u, v)))
                ops.append(InsertEdge(u, v))
        elif r < 0.6 and edges:
            u, v = rng.choice(sorted(edges))
            edges.discard((u, v))
            ops.append(DeleteEdge(u, v))
        elif r < 0.8:
            d = rng.randint(0, min(3, len(live)))
            nbrs = tuple(rng.sample(live, d))
            ops.append(InsertVertex(nbrs))
            for w in nbrs:
                edges.add((min(next_id, w), max(next_id, w)))
            live.append(next_id)
            next_id += 1
        elif len(live) > 2:
            v = rng.choice(live)
            live.remove(v)
            edges = {e for e in edges if v not in e}
            ops.append(DeleteVertex(v))
    return ops


@pytest.mark.parametrize("policy", list(RemovalPolicy))
@pytest.mark.parametrize("seed", range(12))
def test_random_streams_stay_mis(policy, seed):
    rng = random.Random(seed)
    g = DynGraph(10)
    alg = SimpleMis(g, policy=policy)
    for event in _random_stream(rng, 10, 120):
        log = alg.apply(event)
        assert len(log.removed) <= 1, "more than one vertex left M in one update"
        assert alg.verify()
        assert is_mis(g.adj, alg.mis()).ok


@pytest.mark.parametrize("seed", range(6))
def test_amortized_adjustments_bound(seed):
    rng = random.Random(100 + seed)
    g = DynGraph(12)
    alg = SimpleMis(g)
    events = _random_stream(rng, 12, 300)
    for event in events:
        alg.apply(event)
    assert alg.meter.adjustments <= 2 * len(events) + 2 * g.n


@pytest.mark.parametrize("seed", range(6))
def test_decremental_work_bound(seed):
    rng = random.Random(200 + seed)
    n = 14
    g = DynGraph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in rng.sample(pairs, 40):
        g.insert_edge(u, v)
    m_initial = g.m
    alg = SimpleMis(g)
    alg.meter.edges_touched = 0
    deletions = sorted(g.edges())
    rng.shuffle(deletions)
    for u, v in deletions:
        alg.apply(DeleteEdge(u, v))
        assert alg.verify()
    assert alg.meter.edges_touched <= 8 * (m_initial + n)

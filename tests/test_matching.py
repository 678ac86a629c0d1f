import random
from collections import Counter

import pytest

from dynamis import (
    DeleteEdge,
    DeleteVertex,
    DynamicMatching,
    DynGraph,
    IncrementalMatching,
    InsertEdge,
    InsertVertex,
    QueryInMis,
)
from dynamis.errors import IncompatibleStreamError, NotFreeError, NotIncrementalError
from dynamis.generators import gen_random_edges
from dynamis.matching import EVEN
from dynamis.oracles import exhaustive_max_matching, static_max_matching
from test_flow import CountingSet


def build(n, edges):
    g = DynGraph(n)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def _with_mate(g, mate):
    """A matching on ``g`` whose ``mate`` is set by hand."""
    alg = DynamicMatching(g)
    alg.mate.clear()
    alg.mate.update(mate)
    return alg


def test_augment_single_edge():
    alg = _with_mate(build(2, [(0, 1)]), {})
    flipped = alg.augment_from(0)
    assert flipped == [(0, 1)]
    assert alg.mate == {0: 1, 1: 0}


def test_augment_flips_alternating_path():
    alg = _with_mate(build(4, [(0, 1), (1, 2), (2, 3)]), {1: 2, 2: 1})
    flipped = alg.augment_from(0)
    assert flipped is not None
    assert alg.mate == {0: 1, 1: 0, 2: 3, 3: 2}


def test_augment_through_blossom():
    # triangle 0-1-2 with pendant 3 on vertex 2; matching {0,1} forces the
    # search from 3 to walk the odd cycle
    alg = _with_mate(build(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), {0: 1, 1: 0})
    flipped = alg.augment_from(3)
    assert flipped is not None
    assert len(alg.mate) == 4 and alg.mate[3] == 2


def test_augment_requires_free_root():
    alg = _with_mate(build(2, [(0, 1)]), {0: 1, 1: 0})
    with pytest.raises(NotFreeError):
        alg.augment_from(0)


def test_augment_no_path_returns_none():
    alg = _with_mate(build(3, [(0, 1)]), {0: 1, 1: 0})
    assert alg.augment_from(2) is None


def test_init_matches_oracle():
    g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    alg = DynamicMatching(g)
    assert alg.cardinality == 3
    assert alg.verify()


def test_insert_edge_both_free():
    alg = DynamicMatching(DynGraph(4))
    delta = alg.apply(InsertEdge(0, 1))
    assert delta.delta == 1 and delta.flipped == [(0, 1)]


def test_insert_edge_creates_augmenting_path():
    g = build(4, [(1, 2)])
    alg = DynamicMatching(g)
    alg.apply(InsertEdge(0, 1))
    delta = alg.apply(InsertEdge(2, 3))
    assert alg.cardinality == 2
    assert delta.delta == 1
    assert alg.verify()


def test_insert_edge_both_matched_no_search():
    g = build(4, [(0, 1), (2, 3)])
    alg = DynamicMatching(g)
    before = alg.meter.edges_touched
    delta = alg.apply(InsertEdge(1, 2))
    assert delta.delta == 0 and delta.flipped == []
    assert alg.meter.edges_touched == before


def test_delete_matched_edge_repairs():
    # path 0-1-2-3-4-5 matched as (0,1)(2,3)(4,5); deleting (2,3) leaves a
    # perfect repair impossible, cardinality drops to 2
    g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    alg = DynamicMatching(g)
    assert alg.cardinality == 3
    delta = alg.apply(DeleteEdge(2, 3))
    assert delta.delta == -1 and alg.cardinality == 2
    assert alg.verify()


def test_delete_matched_edge_reroutes():
    # cycle C4: deleting one matched edge keeps cardinality via the other pair
    g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    alg = DynamicMatching(g)
    assert alg.cardinality == 2
    matched = next(iter(alg.mate.items()))
    alg.apply(DeleteEdge(*matched))
    assert alg.cardinality == 2
    assert alg.verify()


def test_delete_unmatched_edge_noop():
    g = build(3, [(0, 1), (1, 2)])
    alg = DynamicMatching(g)
    unmatched = (0, 1) if alg.mate.get(0) != 1 else (1, 2)
    delta = alg.apply(DeleteEdge(*unmatched))
    assert delta.delta == 0 and delta.flipped == []


def test_delete_matched_vertex():
    g = build(3, [(0, 1), (1, 2)])
    alg = DynamicMatching(g)
    delta = alg.apply(DeleteVertex(1))
    assert alg.cardinality == 0
    assert delta.delta == -1
    assert alg.verify()


def test_insert_vertex_with_neighbors_augments():
    g = build(2, [(0, 1)])
    alg = DynamicMatching(g)
    delta = alg.apply(InsertVertex((0,)))
    assert delta.delta == 0  # 0 already matched, no augmenting path
    delta = alg.apply(InsertVertex((2,)))
    assert delta.delta == 1 and alg.cardinality == 2
    assert alg.verify()


def test_query_rejected():
    alg = DynamicMatching(DynGraph(2))
    with pytest.raises(IncompatibleStreamError):
        alg.apply(QueryInMis(0))


def test_verify_catches_tampering():
    g = build(2, [(0, 1)])
    alg = DynamicMatching(g)
    assert alg.verify()
    alg.mate.clear()
    assert not alg.verify()  # sub-maximum
    alg.mate.update({0: 1, 1: 2})
    assert not alg.verify()  # not symmetric


ODD_CYCLE_FIXTURES = [
    # triangle with a pendant: perfect matching needs the blossom
    (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    # five-cycle
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    # two triangles joined by a bridge
    (6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
    # seven-cycle with a chord
    (7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)]),
]


@pytest.mark.parametrize("n,edges", ODD_CYCLE_FIXTURES)
def test_odd_cycle_fixtures_fully_dynamic(n, edges):
    alg = DynamicMatching(DynGraph(n))
    for u, v in edges:
        alg.apply(InsertEdge(u, v))
        assert alg.verify()
    assert alg.cardinality == exhaustive_max_matching(alg.g.adj)
    for u, v in edges:
        alg.apply(DeleteEdge(u, v))
        assert alg.verify()


@pytest.mark.parametrize("n,edges", ODD_CYCLE_FIXTURES)
def test_odd_cycle_fixtures_incremental(n, edges):
    inc = IncrementalMatching()
    for _ in range(n):
        inc.insert_vertex()
    for u, v in edges:
        inc.apply(InsertEdge(u, v))
        assert inc.verify()
    assert inc.cardinality == exhaustive_max_matching(inc.g.adj)


def test_incremental_first_edge():
    inc = IncrementalMatching()
    inc.insert_vertex()
    inc.insert_vertex()
    delta = inc.apply(InsertEdge(0, 1))
    assert delta.delta == 1
    assert inc.mate == {0: 1, 1: 0}


def test_incremental_five_cycle_in_order():
    inc = IncrementalMatching()
    for _ in range(5):
        inc.insert_vertex()
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]:
        inc.apply(InsertEdge(u, v))
    assert inc.cardinality == 2
    assert inc.verify()


def test_incremental_rejects_non_insertions():
    inc = IncrementalMatching()
    inc.insert_vertex()
    inc.insert_vertex()
    inc.apply(InsertEdge(0, 1))
    with pytest.raises(NotIncrementalError):
        inc.apply(DeleteEdge(0, 1))
    with pytest.raises(NotIncrementalError):
        inc.apply(DeleteVertex(0))
    with pytest.raises(NotIncrementalError):
        inc.apply(InsertVertex((0,)))


def test_incremental_isolated_vertex_event():
    inc = IncrementalMatching()
    delta = inc.apply(InsertVertex(()))
    assert delta.delta == 0
    assert inc.g.is_live(0)


def _random_graph(rng, n, m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return pairs[:m]


@pytest.mark.parametrize("seed", range(8))
def test_incremental_random_matches_oracle(seed):
    rng = random.Random(seed)
    n = 14
    inc = IncrementalMatching()
    for _ in range(n):
        inc.insert_vertex()
    adj = {v: set() for v in range(n)}
    for u, v in _random_graph(rng, n, 50):
        inc.apply(InsertEdge(u, v))
        adj[u].add(v)
        adj[v].add(u)
        assert inc.cardinality == static_max_matching(adj)


@pytest.mark.parametrize("seed", range(8))
def test_fully_dynamic_random_matches_oracle(seed):
    rng = random.Random(30 + seed)
    n = 12
    alg = DynamicMatching(DynGraph(n))
    edges = set()
    for _ in range(150):
        if rng.random() < 0.6 or not edges:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or alg.g.has_edge(u, v):
                continue
            edges.add((min(u, v), max(u, v)))
            alg.apply(InsertEdge(u, v))
        else:
            u, v = rng.choice(sorted(edges))
            edges.discard((u, v))
            alg.apply(DeleteEdge(u, v))
        assert alg.verify()


def test_incremental_stage_work_bound():
    rng = random.Random(5)
    n = 16
    inc = IncrementalMatching()
    for _ in range(n):
        inc.insert_vertex()
    for u, v in _random_graph(rng, n, 60):
        inc.apply(InsertEdge(u, v))
    m = inc.g.m
    total = inc.meter.edges_touched
    assert total <= 8 * m * (inc.cardinality + 1)
    for stage in inc.stage_touches:
        assert stage <= 8 * m


@pytest.mark.parametrize("seed", range(36))
def test_incremental_equals_dynamic_on_insertions(seed):
    # small vertex budgets saturate the clique, so the streams also grow by
    # isolated vertices
    n = 4 + seed % 6
    stream = gen_random_edges(n, 40, seed, p_insert=1.0)
    assert any(isinstance(e, InsertVertex) for e in stream.events)
    inc = IncrementalMatching()
    for _ in range(n):
        inc.insert_vertex()
    fd = DynamicMatching(DynGraph(n))
    for event in stream.events:
        assert inc.apply(event) == fd.apply(event), event
    assert inc.mate == fd.mate
    assert inc.meter.totals() == fd.meter.totals()
    assert inc.meter.max_op_edges_touched == fd.meter.max_op_edges_touched
    assert inc.stage_touches == fd.stage_touches


# -- forest core: differential and meter checks ------------------------------


def _check_matching(alg):
    for u, v in alg.mate.items():
        assert alg.mate.get(v) == u, (u, v)
        assert alg.g.has_edge(u, v), (u, v)
    assert alg.cardinality == static_max_matching(alg.g.adj)


@pytest.mark.parametrize("seed", range(12))
def test_fully_dynamic_vertex_churn_matches_oracle(seed):
    # vertex insertions and deletions leave gaps in the id range
    rng = random.Random(700 + seed)
    n = rng.randint(6, 24)
    stream = gen_random_edges(n, 160, seed, p_insert=rng.choice([0.55, 0.7]), vertex_rate=0.2)
    assert any(isinstance(e, DeleteVertex) for e in stream.events)
    alg = DynamicMatching(DynGraph(n))
    for event in stream.events:
        alg.apply(event)
        _check_matching(alg)


def _bridged_blossom():
    # free 0 - 1=2, triangle 2,3=4 (a blossom once 0's tree reaches it),
    # free 7 - 6=5; the edge (3,5) joins two matched vertices and closes
    # the augmenting path 0-1=2-4=3-5=6-7 through the blossom
    g = build(8, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (5, 6), (6, 7)])
    alg = DynamicMatching(g)
    alg.mate.clear()
    alg.mate.update({1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5})
    assert alg.verify()
    return alg


def test_edge_between_matched_vertices_augments_through_blossom():
    alg = _bridged_blossom()
    delta = alg.apply(InsertEdge(3, 5))
    assert delta.delta == 1 and alg.cardinality == 4
    _check_matching(alg)


def test_edge_between_matched_vertices_augments_on_a_grown_forest():
    alg = _bridged_blossom()
    delta = alg.apply(InsertEdge(1, 5))  # odd to even: builds the forest, no path
    assert delta.delta == 0
    delta = alg.apply(InsertEdge(3, 5))
    assert delta.delta == 1 and alg.cardinality == 4
    # the standing forest flips the path itself: no second search
    assert alg.meter.op_edges_touched == 1
    assert delta.flipped == [(0, 1), (2, 4), (3, 5), (6, 7)]
    _check_matching(alg)


def test_deletion_repairs_through_a_blossom_to_a_free_vertex_that_is_not_a_root():
    # deleting 0=6 frees 0, whose forest closes the five-cycle 0-1=2-4=3-0
    # into a blossom; the free vertex 5 hangs off 1, which only the blossom
    # makes even, so the path 0-3=4-2=1-5 runs around the cycle
    g = build(7, [(0, 6), (0, 1), (0, 3), (1, 2), (3, 4), (2, 4), (1, 5)])
    alg = _with_mate(g, {0: 6, 6: 0, 1: 2, 2: 1, 3: 4, 4: 3})
    assert alg.verify()
    delta = alg.apply(DeleteEdge(0, 6))
    assert delta.delta == 0
    assert delta.flipped == [(0, 3), (1, 5), (2, 4)]
    _check_matching(alg)


@pytest.mark.parametrize("seed", range(10))
def test_augment_on_graph_with_deleted_ids(seed):
    rng = random.Random(900 + seed)
    g = DynGraph(14)
    for u, v in _random_graph(rng, 14, 30):
        g.insert_edge(u, v)
    for v in rng.sample(range(14), 4):
        g.delete_vertex(v)
    for _ in range(3):
        g.insert_vertex(rng.sample(sorted(g.vertices()), 2))
    alg = _with_mate(g, {})
    mate = alg.mate
    for v in sorted(g.vertices()):
        if v not in mate:
            flipped = alg.augment_from(v)
            assert flipped is None or (min(v, mate[v]), max(v, mate[v])) in flipped
    for u, v in mate.items():
        assert mate[v] == u and g.has_edge(u, v)
    assert len(mate) // 2 == static_max_matching(g.adj)
    for v in g.vertices():
        if v not in mate:
            assert alg.augment_from(v) is None


# -- a complete forest survives deletions it never used ----------------------


def _audit_forest(alg):
    """Test-only audit of a forest that is not stale.

    Its roots are exactly the free vertices and nothing is queued; no even
    vertex has an edge to an even vertex of another tree or to an unlabelled
    vertex; and from every even vertex the walk x, mate[x], parent[mate[x]],
    ... runs over edges of the graph, unmatched ones from parent pointers, up
    to its own tree's root, the only free vertex on it.
    """
    g, mate, label, root, parent, dsu = alg.g, alg.mate, alg.label, alg.root, alg.parent, alg.dsu

    def base(v):
        while v in dsu:
            v = dsu[v]
        return v

    free = g.adj.keys() - mate.keys()
    assert not alg._queue
    assert set(root.values()) == free
    assert all(label.get(v) == EVEN and root[v] == v for v in free)
    for x in g.adj:
        if label.get(base(x)) != EVEN:
            continue
        tree = root[base(x)]
        for w in g.adj[x]:
            lw = label.get(base(w))
            assert lw is not None, (x, w)
            assert lw != EVEN or root[base(w)] == tree, (x, w)
        y, steps = mate.get(x), 0
        while y is not None:
            z = parent[y]
            assert g.has_edge(y, z) and mate[y] != z, (x, y, z)
            y = mate.get(z)
            steps += 1
            assert steps <= len(g.adj), "the walk does not reach a root"
        assert z == tree if steps else x == tree


def test_deleting_an_edge_outside_the_forest_keeps_it():
    # 0=1 and 2=3 matched, 4 and 5 free; the forest hangs 0 from 4 and 2
    # from 1, so 4-0=1-2=3 is one tree, 5 another, and (0,2) joins two odd
    # vertices
    g = build(6, [(0, 1), (2, 3), (1, 2), (0, 2)])
    alg = _with_mate(g, {0: 1, 1: 0, 2: 3, 3: 2})
    assert alg.apply(InsertEdge(4, 0)).delta == 0
    assert not alg._stale and alg.parent == {0: 4, 2: 1}
    _audit_forest(alg)
    before = alg.meter.edges_touched
    assert alg.apply(DeleteEdge(0, 2)).delta == 0
    assert not alg._stale and alg.meter.edges_touched == before
    _audit_forest(alg)
    # the kept forest closes 4-0=1-2=3-5 with the next edge alone
    delta = alg.apply(InsertEdge(3, 5))
    assert delta.delta == 1 and alg.meter.op_edges_touched == 1
    assert delta.flipped == [(0, 4), (1, 2), (3, 5)]
    _check_matching(alg)


# parent pointers named from either end, and a matched edge
@pytest.mark.parametrize("edge", [(1, 2), (2, 1), (0, 4), (3, 2)])
def test_deleting_a_forest_edge_leaves_it_stale(edge):
    g = build(5, [(0, 1), (2, 3), (1, 2)])
    alg = _with_mate(g, {0: 1, 1: 0, 2: 3, 3: 2})
    alg.apply(InsertEdge(4, 0))
    assert not alg._stale and alg.parent == {0: 4, 2: 1}
    alg.apply(DeleteEdge(*edge))
    assert alg._stale
    _check_matching(alg)


def test_kept_forest_fuzz():
    # 1,000 seeded streams, 40% deletions, vertex churn on every third: the
    # matching is maximum after every event, and whenever the forest is not
    # stale it passes the audit
    kept = Counter()
    for seed in range(1000):
        n = 4 + seed % 11
        vertex_rate = 0.15 if seed % 3 == 0 else 0.0
        stream = gen_random_edges(n, 40, seed=5000 + seed, p_insert=0.6, vertex_rate=vertex_rate)
        alg = DynamicMatching(DynGraph(n))
        for event in stream.events:
            fresh = not alg._stale
            alg.apply(event)
            if fresh and not alg._stale:
                kept[type(event)] += 1
            assert alg.cardinality == static_max_matching(alg.g.adj), (seed, event)
            if not alg._stale:
                _audit_forest(alg)
    assert kept[DeleteEdge] >= 1000 and kept[InsertVertex] >= 50, kept


def test_isolated_vertex_joins_a_kept_forest():
    # the forest of test_deleting_an_edge_outside_the_forest_keeps_it
    g = build(6, [(0, 1), (2, 3), (1, 2), (0, 2)])
    alg = _with_mate(g, {0: 1, 1: 0, 2: 3, 3: 2})
    alg.apply(InsertEdge(4, 0))
    assert not alg._stale
    assert alg.apply(InsertVertex(())).delta == 0
    assert not alg._stale and alg.meter.op_edges_touched == 0
    _audit_forest(alg)
    # the new vertex 6 is a root: 4-0=1-2=3-6 closes with the edge alone
    delta = alg.apply(InsertEdge(3, 6))
    assert delta.delta == 1 and alg.meter.op_edges_touched == 1
    assert delta.flipped == [(0, 4), (1, 2), (3, 6)]
    _check_matching(alg)


def test_incremental_isolated_vertex_joins_a_kept_forest():
    inc = IncrementalMatching()
    for _ in range(4):
        inc.insert_vertex()
    inc.apply(InsertEdge(0, 1))
    inc.apply(InsertEdge(1, 2))  # grows the forest: 2 and 3 roots, 1 odd, 0 even
    assert not inc._stale
    inc.insert_vertex()
    assert not inc._stale
    _audit_forest(inc)
    before = inc.meter.edges_touched
    delta = inc.apply(InsertEdge(0, 4))  # 2-1=0-4
    assert delta.delta == 1 and inc.meter.edges_touched - before == 1
    assert delta.flipped == [(0, 4), (1, 2)]
    _check_matching(inc)


def _k5_40():
    g = DynGraph(45)
    for a in range(5):
        for b in range(5, 45):
            g.insert_edge(a, b)
    alg = DynamicMatching(g)
    assert alg.cardinality == 5  # 35 vertices of the 40-side stay free
    return alg


def test_insert_between_matched_costs_one_forest_pass():
    alg = _k5_40()
    delta = alg.apply(InsertEdge(0, 1))  # inside the 5-side: cannot augment
    assert delta.delta == 0
    assert alg.meter.op_edges_touched <= 2 * alg.g.m + 1  # 403
    # the forest persists: a second such edge costs the edge itself
    delta = alg.apply(InsertEdge(2, 3))
    assert delta.delta == 0
    assert alg.meter.op_edges_touched <= 1


class CountingAdj(dict):
    """Adjacency whose sets, those of vertices inserted later included, are CountingSets."""

    def __init__(self, tally, adj):
        super().__init__()
        self.tally = tally
        for v, nbrs in adj.items():
            self[v] = nbrs

    def __setitem__(self, v, nbrs):
        counting = CountingSet(self.tally)
        counting.update(nbrs)
        super().__setitem__(v, counting)


@pytest.mark.parametrize("cls", [DynamicMatching, IncrementalMatching])
def test_meter_covers_every_adjacency_scan(cls):
    # every entry an update reads from g.adj is metered; verify() reads
    # unmetered and is left out
    total_reads = 0
    for seed in range(60):
        n = 4 + seed % 37
        p_insert = 1.0 if cls is IncrementalMatching else (0.55, 0.7, 0.85)[seed % 3]
        stream = gen_random_edges(n, 300, seed=1900 + seed, p_insert=p_insert)
        if cls is IncrementalMatching:
            alg = IncrementalMatching()
            for _ in range(n):
                alg.insert_vertex()
        else:
            alg = DynamicMatching(DynGraph(n))
        tally = [0]
        alg.g.adj = CountingAdj(tally, alg.g.adj)
        for event in stream.events:
            before = tally[0]
            alg.apply(event)
            reads = tally[0] - before
            assert reads <= alg.meter.op_edges_touched, (seed, event, reads)
            total_reads += reads
        _check_matching(alg)
    assert total_reads > 0

import copy
import random

import pytest

from dynamis import (
    DeleteEdge,
    DeleteVertex,
    DynGraph,
    InsertEdge,
    InsertVertex,
    QueryInMis,
    SimpleMis,
    TwoLevelMis,
)
from dynamis.generators import gen_arbitrary_removal, gen_degree_biased, gen_random_edges
from dynamis.mis.base import ceil_root
from dynamis.oracles import is_mis


def build(n, edges):
    g = DynGraph(n)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def test_threshold_value():
    assert ceil_root(1000, 2, 3) == 100
    assert ceil_root(1, 2, 3) == 1
    assert ceil_root(8, 2, 3) == 4
    assert ceil_root(9, 2, 3) == 5  # smallest d with d^3 >= 81


def test_all_light_matches_simple():
    edges = [(0, 1), (1, 2), (3, 4)]
    alg = TwoLevelMis(build(6, edges))
    ref = SimpleMis(build(6, edges))
    assert alg.heavy == set()
    assert alg.mis() == ref.mis()


def test_hub_is_heavy():
    # one degree-5 hub among 6 vertices; m=5 gives delta_c = 3
    g = build(6, [(0, w) for w in range(1, 6)])
    alg = TwoLevelMis(g)
    assert alg.delta_c == 3
    assert alg.heavy == {0}
    # every leaf is in the light MIS, so the hub is gated out of the heavy MIS
    assert alg.count[0] == 5
    assert alg.heavy_mis == set()
    assert is_mis(g.adj, alg.mis()).ok


# (edges, hub, in the light MIS, heavy, in the heavy MIS): a heavy 40-leaf
# hub (m = 40, delta_c = 12) gated by its leaves; a light degree-3 hub beside
# ten background edges (m = 13, delta_c = 6) that enters the light MIS first
# (hub 0) or is blocked by its leaves (hub 3); and a heavy hub in the heavy
# MIS (m = 16, delta_c = 7), whose eight leaves 9..16 are each blocked by a
# private neighbour 1..8
_BACKGROUND = [(v, v + 1) for v in range(4, 24, 2)]
_PRIVATE = [(i, 8 + i) for i in range(1, 9)] + [(0, 8 + i) for i in range(1, 9)]
HUBS = (
    ([(0, w) for w in range(1, 41)], 0, False, True, False),
    ([(0, w) for w in (1, 2, 3)] + _BACKGROUND, 0, True, False, False),
    ([(3, w) for w in (0, 1, 2)] + _BACKGROUND, 3, False, False, False),
    (_PRIVATE, 0, False, True, True),
)


@pytest.mark.parametrize("edges,hub,member,heavy,heavy_member", HUBS)
def test_vertex_deletion_charges_its_degree_once(edges, hub, member, heavy, heavy_member):
    g = build(1 + max(max(e) for e in edges), edges)
    alg = TwoLevelMis(g)
    assert (hub in alg.in_M, hub in alg.heavy, hub in alg.heavy_mis) == (member, heavy, heavy_member)
    deg = len(g.adj[hub])
    log = alg.apply(DeleteVertex(hub))
    # a phase rebuild charges what a fresh build on the graph left charges
    rebuild = TwoLevelMis(copy.deepcopy(g)).meter.edges_touched if alg.phase_rebuilds else 0
    assert alg.meter.op_edges_touched == deg + rebuild
    if heavy_member:
        # the heavy MIS rebuild logs the hub's leave, once; the halved m
        # rebuilds the phase, which moves nothing
        assert log.changes == [("leave", hub)] and alg.meter.op_adjustments == 1
        assert alg.phase_rebuilds == 1
    assert alg.verify() and is_mis(alg.g.adj, alg.mis()).ok


def _blocked_leaf_hub():
    # hub 0 adjacent to the blocked endpoint of four light pairs: m=8,
    # delta_c=4, the hub is heavy with count 0 and joins the heavy MIS
    edges = [(2, 3), (4, 5), (6, 7), (8, 9)] + [(0, w) for w in (3, 5, 7, 9)]
    return build(10, edges)


def test_hub_with_blocked_neighbors_joins_heavy_mis():
    alg = TwoLevelMis(_blocked_leaf_hub())
    assert alg.heavy == {0}
    assert alg.count[0] == 0
    assert alg.heavy_mis == {0}
    assert is_mis(alg.g.adj, alg.mis()).ok


def test_insert_between_light_members():
    g = build(8, [(0, 1), (2, 3), (4, 5)])
    alg = TwoLevelMis(g)
    log = alg.apply(InsertEdge(0, 2))
    assert len(log.removed) <= 1
    assert alg.verify()
    assert is_mis(g.adj, alg.mis()).ok


def test_insert_light_member_to_heavy():
    alg = TwoLevelMis(_blocked_leaf_hub())
    assert 0 in alg.heavy_mis and 2 in alg.in_M
    log = alg.apply(InsertEdge(2, 0))
    assert alg.count[0] == 1
    assert 0 not in alg.heavy_mis
    assert ("leave", 0) in log.changes
    assert alg.verify()


def test_phase_rebuild_at_doubling():
    g = build(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    alg = TwoLevelMis(g)
    assert alg.m_c == 4
    edges = [(0, 2), (0, 4), (0, 6)]
    for u, v in edges:
        alg.apply(InsertEdge(u, v))
    assert alg.phase_rebuilds == 0
    alg.apply(InsertEdge(1, 3))  # m reaches 8 = 2*m_c
    assert alg.phase_rebuilds == 1
    assert alg.m_c == 8


def test_phase_rebuild_at_halving():
    g = build(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    alg = TwoLevelMis(g)
    alg.apply(DeleteEdge(0, 1))
    assert alg.phase_rebuilds == 0
    alg.apply(DeleteEdge(2, 3))  # m reaches 2 = m_c/2
    assert alg.phase_rebuilds == 1
    assert alg.m_c == 2


def test_migration_to_heavy_on_insert():
    g = build(8, [(0, w) for w in range(1, 5)])
    alg = TwoLevelMis(g)  # m=4, delta_c=3: 0 is already heavy
    assert 0 in alg.heavy
    # vertex 1 grows to degree delta_c and must migrate
    alg.apply(InsertEdge(1, 5))
    alg.apply(InsertEdge(1, 6))
    assert len(g.adj[1]) >= alg.delta_c
    assert 1 in alg.heavy
    assert alg.verify()


def test_migration_to_light_on_delete():
    # hub plus filler pairs keeps delta_c at 5 while the hub drops below it
    edges = [(0, w) for w in range(1, 6)]
    edges += [(6 + 2 * i, 7 + 2 * i) for i in range(6)]
    g = build(18, edges)
    alg = TwoLevelMis(g)
    assert alg.delta_c == 5 and 0 in alg.heavy
    alg.apply(DeleteEdge(0, 5))
    assert 0 not in alg.heavy
    assert alg.verify()
    assert is_mis(g.adj, alg.mis()).ok


def test_verify_catches_stale_count():
    g = build(7, [(0, w) for w in range(1, 6)] + [(1, 6)])
    alg = TwoLevelMis(g)
    assert alg.verify()
    alg.count[0] += 1
    assert not alg.verify()


def test_light_counts_cover_every_id():
    g = build(4, [(0, 1), (1, 2)])
    alg = TwoLevelMis(g)
    alg.apply(InsertVertex((0, 2)))
    alg.apply(DeleteVertex(3))
    assert len(alg.count) == g.id_bound == 5 and alg.count[3] == 0
    assert alg.verify()


def test_verify_catches_short_light_count_list():
    alg = TwoLevelMis(build(3, [(0, 1)]))
    alg.apply(InsertVertex((1,)))
    alg.count.pop()
    assert not alg.verify()


def test_verify_catches_wrong_count_on_inserted_vertex():
    alg = TwoLevelMis(build(5, [(0, 1), (2, 3)]))
    alg.apply(InsertVertex((0, 2, 4)))
    v = alg.g.id_bound - 1
    assert alg.count[v] >= 1 and alg.verify()
    alg.count[v] += 1
    assert not alg.verify()


def test_verify_catches_gated_heavy_member():
    alg = TwoLevelMis(_blocked_leaf_hub())
    assert alg.verify()
    alg.count[0] += 1  # 0 now looks gated but is still in heavy_mis
    assert not alg.verify()


def test_verify_catches_nonmaximal_light():
    alg = TwoLevelMis(build(4, [(0, 1)]))
    alg.in_M.discard(2)
    assert not alg.verify()


def _random_event(rng, g):
    live = sorted(g.adj)
    for _ in range(30):
        r = rng.random()
        if r < 0.45 and len(live) >= 2:
            u, v = rng.sample(live, 2)
            if not g.has_edge(u, v):
                return InsertEdge(u, v)
        elif r < 0.7:
            edges = sorted(g.edges())
            if edges:
                return DeleteEdge(*rng.choice(edges))
        elif r < 0.85:
            d = rng.randint(0, min(3, len(live)))
            return InsertVertex(tuple(rng.sample(live, d)))
        elif len(live) > 3:
            return DeleteVertex(rng.choice(live))
    return None


@pytest.mark.parametrize("seed", range(10))
def test_random_streams_stay_mis(seed):
    rng = random.Random(seed)
    g = DynGraph(10)
    alg = TwoLevelMis(g)
    for _ in range(150):
        event = _random_event(rng, g)
        if event is None:
            continue
        alg.apply(event)
        assert alg.verify()
        assert is_mis(g.adj, alg.mis()).ok


@pytest.mark.parametrize("seed", range(4))
def test_heavy_rebuild_budget(seed):
    rng = random.Random(70 + seed)
    g = DynGraph(20)
    alg = TwoLevelMis(g)
    for _ in range(300):
        event = _random_event(rng, g)
        if event is None:
            continue
        alg.apply(event)
        bound = (2 * max(g.m, 1) / alg.delta_c) ** 2
        assert alg.last_heavy_rebuild_touches <= max(bound, 1)


_PHASE_STATE = ("in_M", "heavy", "heavy_mis", "count", "m_c", "delta_c")


def _assert_rebuilds_match_fresh(stream):
    g = DynGraph(stream.n)
    alg = TwoLevelMis(g)
    seen, heavy_seen = 0, False
    for event in stream.events:
        if isinstance(event, QueryInMis):
            continue
        alg.apply(event)
        if alg.phase_rebuilds == seen:
            continue
        seen = alg.phase_rebuilds
        fresh = TwoLevelMis(copy.deepcopy(g))
        for name in _PHASE_STATE:
            assert getattr(alg, name) == getattr(fresh, name), (seen, name)
        heavy_seen |= bool(alg.heavy)
    return seen, heavy_seen


def test_rebuild_state_matches_fresh_build_on_sparse_preallocated_graph():
    # 5,000 vertices, a few hundred edges: almost every vertex is isolated
    stream = gen_random_edges(5000, 700, seed=11, p_insert=0.6, query_rate=0.05)
    assert _assert_rebuilds_match_fresh(stream)[0] >= 5


def test_rebuild_state_matches_fresh_build_with_vertex_deletions():
    stream = gen_random_edges(60, 900, seed=12, p_insert=0.6, vertex_rate=0.2)
    assert any(isinstance(e, DeleteVertex) for e in stream.events)
    assert _assert_rebuilds_match_fresh(stream)[0] >= 5


def test_rebuild_state_matches_fresh_build_with_heavy_vertices():
    for stream in (gen_degree_biased(256), gen_arbitrary_removal(256, 16)):
        rebuilds, heavy_seen = _assert_rebuilds_match_fresh(stream)
        assert rebuilds >= 5 and heavy_seen


def test_deleted_member_hands_over_the_neighbours_it_freed():
    # v = 0 is the light member that blocks w = 1, z = 4 and both heavy
    # vertices, h = 2 (degree 11 = delta_c) and k = 3 (degree 12); z is
    # blocked by the leaf 5 as well, and each x_i (15-24) by its own leaf
    # y_i (5-14); h reaches x_1..x_9, k all ten.  m = 36 gives delta_c = 11.
    xs, ys = range(15, 25), range(5, 15)
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (4, 5)]
    edges += [(2, x) for x in xs[:9]] + [(3, x) for x in xs] + list(zip(ys, xs))
    alg = TwoLevelMis(build(25, edges))
    assert (alg.m_c, alg.delta_c, alg.heavy) == (36, 11, {2, 3})
    assert alg.in_M == {0, *ys} and alg.heavy_mis == set()
    handed = []

    def admit_zeros(freed, log):
        handed.append(sorted(freed))
        TwoLevelMis._admit_zeros(alg, freed, log)

    alg._admit_zeros = admit_zeros
    log = alg.apply(DeleteVertex(0))
    # the leave brought w, h and k to count zero, but not z, and the
    # deletion hands over exactly those three; h drops to degree 10 and
    # migrates to light at count zero, so it enters and blocks w again,
    # while k stays heavy
    assert handed == [[1, 2, 3]]
    assert alg.count[1] == 1  # w: rejected on its count
    assert 2 in alg.in_M  # h: rejected as a member
    assert alg.count[3] == 0 and 3 in alg.heavy  # k: rejected as heavy
    # k joins the heavy MIS in the rebuild that follows; no phase rebuild
    assert log.changes == [("leave", 0), ("enter", 2), ("enter", 3)]
    assert alg.mis() == {2, 3, *ys} and alg.phase_rebuilds == 0
    assert alg.verify() and is_mis(alg.g.adj, alg.mis()).ok

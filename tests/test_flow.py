import random

import pytest

from dynamis import (
    DeleteEdge,
    DeleteVertex,
    FlowNetwork,
    IncrementalFlow,
    InsertEdge,
    InsertVertex,
    QueryInMis,
)
from dynamis.errors import (
    DynamisError,
    MissingEdgeError,
    NotIncrementalError,
    ParallelEdgeError,
    SelfLoopError,
)
from dynamis.generators import gen_random_flow
from dynamis.oracles import static_max_flow


def oracle(net):
    return static_max_flow(net.vertices(), net.directed_edges(), net.s, net.t)


def test_insert_direct_edge():
    net = FlowNetwork(2, 0, 1)
    delta = net.insert_edge(0, 1)
    assert delta.dF == 1 and net.F == 1


def test_insert_dead_end():
    net = FlowNetwork(3, 0, 2)
    delta = net.insert_edge(0, 1)
    assert delta.dF == 0 and net.F == 0


def test_diamond_second_route():
    net = FlowNetwork(4, 0, 3)
    for u, v in [(0, 1), (1, 3), (0, 2)]:
        net.insert_edge(u, v)
    assert net.F == 1
    delta = net.insert_edge(2, 3)
    assert delta.dF == 1 and net.F == 2 == oracle(net)


def test_rejections():
    net = FlowNetwork(3, 0, 2)
    with pytest.raises(SelfLoopError):
        net.insert_edge(1, 1)
    net.insert_edge(0, 1)
    with pytest.raises(ParallelEdgeError):
        net.insert_edge(0, 1)
    net.insert_edge(1, 0)  # anti-parallel is a distinct edge
    with pytest.raises(MissingEdgeError):
        net.delete_edge(0, 2)
    with pytest.raises(SelfLoopError):
        FlowNetwork(3, 1, 1)


def test_delete_non_flow_edge():
    net = FlowNetwork(4, 0, 3)
    net.insert_edge(0, 1)
    net.insert_edge(2, 3)
    before = net.meter.edges_touched
    net.delete_edge(2, 3)
    assert net.F == 0
    assert net.meter.edges_touched == before  # no search at all


def test_delete_reroutes_via_parallel_route():
    net = FlowNetwork(6, 0, 5)
    route_a = [(0, 1), (1, 2), (2, 5)]
    route_b = [(0, 3), (3, 4), (4, 5)]
    for u, v in route_a:
        net.insert_edge(u, v)
    assert net.F == 1
    for u, v in route_b:
        net.insert_edge(u, v)
    assert net.F == 2
    net.delete_edge(1, 2)
    assert net.F == 1 == oracle(net)
    assert net.verify()


def test_delete_sends_flow_back():
    net = FlowNetwork(3, 0, 2)
    net.insert_edge(0, 1)
    net.insert_edge(1, 2)
    assert net.F == 1
    delta = net.delete_edge(1, 2)
    assert delta.dF == -1 and net.F == 0
    assert net.flow[(0, 1)] == 0  # pushed back along the send-back cycle
    assert net.verify()


def test_verify_catches_conservation_break():
    net = FlowNetwork(3, 0, 2)
    net.insert_edge(0, 1)
    net.insert_edge(1, 2)
    net.flow[(0, 1)] = 0  # vertex 1 now creates flow
    assert not net.verify()


def test_verify_catches_submaximal_flow():
    net = FlowNetwork(2, 0, 1)
    net.insert_edge(0, 1)
    net.flow[(0, 1)] = 0
    net.F = 0
    assert not net.verify()  # s-t residual path exists


def test_incremental_first_edge_augments():
    inc = IncrementalFlow(2, 0, 1)
    delta = inc.insert_edge(0, 1)
    assert delta.dF == 1 and inc.F == 1
    assert inc.verify()


def test_incremental_unreachable_noop():
    inc = IncrementalFlow(4, 0, 3)
    inc.insert_edge(1, 2)
    assert 1 not in inc.parent and 2 not in inc.parent
    assert inc.F == 0


def test_incremental_rejects_deletion():
    inc = IncrementalFlow(3, 0, 2)
    inc.insert_edge(0, 1)
    with pytest.raises(NotIncrementalError):
        inc.delete_edge(0, 1)


@pytest.mark.parametrize("seed", range(8))
def test_incremental_random_matches_oracle(seed):
    rng = random.Random(seed)
    n = 20
    inc = IncrementalFlow(n, 0, n - 1)
    arcs = set()
    for _ in range(70):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in arcs:
            continue
        arcs.add((u, v))
        inc.insert_edge(u, v)
        assert inc.F == static_max_flow(range(n), arcs, 0, n - 1)
        assert inc.verify()


@pytest.mark.parametrize("seed", range(8))
def test_fully_dynamic_random_matches_oracle(seed):
    rng = random.Random(100 + seed)
    n = 12
    net = FlowNetwork(n, 0, n - 1)
    arcs = set()
    for _ in range(150):
        if rng.random() < 0.6 or not arcs:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (u, v) in arcs:
                continue
            arcs.add((u, v))
            net.insert_edge(u, v)
        else:
            u, v = rng.choice(sorted(arcs))
            arcs.discard((u, v))
            net.delete_edge(u, v)
        assert net.F == static_max_flow(range(n), arcs, 0, n - 1)
        assert net.verify()


def test_fully_dynamic_per_update_work_linear():
    rng = random.Random(7)
    n = 15
    net = FlowNetwork(n, 0, n - 1)
    arcs = set()
    for _ in range(120):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in arcs:
            continue
        arcs.add((u, v))
        net.insert_edge(u, v)
        assert net.meter.op_edges_touched <= 4 * max(net.m, 1)


def test_incremental_stage_work_linear():
    rng = random.Random(8)
    n = 18
    inc = IncrementalFlow(n, 0, n - 1)
    arcs = set()
    for _ in range(90):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in arcs:
            continue
        arcs.add((u, v))
        inc.insert_edge(u, v)
        assert inc.current_stage_touches() <= 8 * max(inc.m, 1)
    for stage in inc.stage_touches:
        assert stage <= 8 * max(inc.m, 1)


@pytest.mark.parametrize("cls", [FlowNetwork, IncrementalFlow])
def test_apply_takes_edge_updates_and_isolated_vertices(cls):
    alg = cls(3, 0, 2)
    assert alg.apply(InsertEdge(0, 1)).dF == 0
    alg.apply(InsertVertex(()))
    assert alg.apply(InsertEdge(1, 3)).dF == 0
    assert alg.apply(InsertEdge(3, 2)).dF == 1
    for event in (DeleteVertex(1), InsertVertex((0,)), QueryInMis(0)):
        with pytest.raises(DynamisError):
            alg.apply(event)
    assert alg.F == 1 and alg.meter.updates == 4 and alg.verify()


@pytest.mark.parametrize("cls", [FlowNetwork, IncrementalFlow])
def test_isolated_vertex_insertion_is_its_own_operation(cls):
    alg = cls(3, 0, 2)
    alg.apply(InsertEdge(0, 1))
    alg.apply(InsertEdge(1, 2))  # augments
    assert alg.meter.op_edges_touched > 0
    max_before = alg.meter.max_op_edges_touched
    alg.apply(InsertVertex(()))
    assert alg.meter.op_edges_touched == 0 and alg.meter.op_adjustments == 0
    assert alg.meter.max_op_edges_touched == max_before and alg.meter.updates == 3


# -- the source reachability tree ---------------------------------------------


def residual_reach(net):
    seen, stack = {net.s}, [net.s]
    while stack:
        u = stack.pop()
        for v in net.residual_out(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@pytest.mark.parametrize("cls", [FlowNetwork, IncrementalFlow])
def test_insert_off_the_tree_touches_one(cls):
    net = cls(5, 0, 4)
    net.insert_edge(0, 1)
    net.insert_edge(2, 3)  # s does not reach the tail
    assert net.meter.op_edges_touched == 1
    net.insert_edge(1, 0)  # both ends already in the tree
    assert net.meter.op_edges_touched == 1
    assert net.parent.keys() == {0, 1} and net.verify()


def test_delete_empty_tree_arc_rehangs_subtree():
    net = FlowNetwork(4, 0, 3)
    net.insert_edge(0, 1)
    net.insert_edge(1, 2)
    assert net.parent == {0: 0, 1: 0, 2: 1}
    net.delete_edge(1, 2)
    assert net.parent == {0: 0, 1: 0}
    assert net.meter.op_edges_touched == 1  # the regrowth reads 0->1, and 1 has no arc left
    assert net.verify()


def test_delete_tree_arc_rehangs_through_the_other_arc():
    # diamond 0->1, 0->2, 1->3, 2->3, 3->4; the sink 5 stays out of reach
    net = FlowNetwork(6, 0, 5)
    for u, v in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]:
        net.insert_edge(u, v)
    assert net.parent == {0: 0, 1: 0, 2: 0, 3: 1, 4: 3}
    net.delete_edge(1, 3)
    assert net.parent == {0: 0, 1: 0, 2: 0, 3: 2, 4: 3}  # 4 stays below 3
    assert net.meter.op_edges_touched == 4  # the regrowth reads 0->1, 0->2, 2->3 and 3->4
    assert net.parent.keys() == residual_reach(net) and net.verify()


def test_delete_tree_arc_keeps_the_reachable_part_of_the_cut():
    net = FlowNetwork(7, 0, 6)
    for u, v in [(0, 1), (1, 2), (1, 3), (3, 4), (0, 3)]:
        net.insert_edge(u, v)
    assert net.parent == {0: 0, 1: 0, 2: 1, 3: 1, 4: 3}
    net.delete_edge(0, 1)  # cuts 1, 2, 3 and 4; only 3 has another way in
    assert net.parent.keys() == {0, 3, 4} == residual_reach(net)
    assert net.parent == {0: 0, 3: 0, 4: 3}
    assert net.verify()


def test_carried_deletions_repair_the_tree():
    # one unit on 0->1->2->6; 0->3->4->2->1 hangs 1 below 2
    net = FlowNetwork(7, 0, 6)
    for u, v in [(0, 1), (1, 2), (2, 6), (1, 3), (3, 4), (4, 2), (0, 3)]:
        net.insert_edge(u, v)
    assert net.F == 1 and net.parent == {0: 0, 3: 0, 4: 3, 2: 4, 1: 2}
    # the reroute 1->3->4->2 flips the tree arcs 3->4 and 4->2
    delta = net.delete_edge(1, 2)
    assert delta.dF == 0 and delta.path == [1, 3, 4, 2]
    assert net.parent.keys() == {0, 1, 3} == residual_reach(net)
    assert net.parent == {0: 0, 3: 0, 1: 3}  # 1 hangs from the gained arc 3->1
    assert net.F == 1 == oracle(net) and net.verify()
    # no other way into the sink: the unit goes back 2->4->3->1->0
    delta = net.delete_edge(2, 6)
    assert delta.dF == -1 and delta.path == [2, 4, 3, 1, 0, 6]
    assert net.parent.keys() == {0, 1, 2, 3, 4} == residual_reach(net)
    assert net.parent == {0: 0, 3: 0, 1: 0, 4: 3, 2: 4}
    assert net.F == 0 == oracle(net) and net.verify()


def test_reroute_search_stops_at_its_target():
    net = FlowNetwork(7, 0, 3)
    for u, v in [(0, 1), (1, 3), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6)]:
        net.insert_edge(u, v)
    assert net.F == 1 and net.parent.keys() == {0}
    delta = net.delete_edge(1, 3)
    assert delta.dF == 0 and delta.path == [1, 2, 3]
    # 1 reads 0, 2 and 4; 0 reads nothing; 2 reads 3 and the search stops before 4->5->6
    assert net.meter.op_edges_touched == 4
    assert net.parent.keys() == {0} and net.verify()


def test_tree_search_charges_the_whole_set_that_reaches_the_sink():
    # 2's residual set {1, 3, 4} reads the sink 1 first, and 3 and 4 lead
    # on to each other; none of it hangs from the source until (0,2) arrives
    net = FlowNetwork(5, 0, 1)
    for u, v in [(2, 1), (2, 3), (2, 4), (3, 4), (4, 3)]:
        net.insert_edge(u, v)
    assert net.F == 0 and net.parent == {0: 0}
    delta = net.insert_edge(0, 2)
    assert delta.dF == 1 and delta.path == [0, 2, 1]
    # the new arc, then the search from 2 reads all three of its arcs,
    # labels the sink from that first set and reads no other set; the
    # regrowth from 0 reads an empty set, since 0->2 is saturated
    assert net.meter.op_edges_touched == 1 + 3
    assert net.parent == {0: 0} and net.F == 1 == oracle(net) and net.verify()


def test_deletion_work_linear():
    # a deletion costs at most one search from u (m + 1, the auxiliary arc
    # included) and one regrowth (m)
    for seed in range(300):
        n = 4 + seed % 27
        stream = gen_random_flow(n, 400, seed=900 + seed, p_insert=(0.55, 0.7, 0.85)[seed % 3])
        net = FlowNetwork(n, 0, n - 1)
        for event in stream.events:
            m = net.m
            net.apply(event)
            if isinstance(event, DeleteEdge):
                assert net.meter.op_edges_touched <= 2 * m + 1, (seed, event)
        assert net.F == oracle(net), seed
        assert net.parent.keys() == residual_reach(net) and net.verify(), seed


def test_delete_empty_non_tree_arc_leaves_tree():
    net = FlowNetwork(5, 0, 4)
    for u, v in [(0, 1), (0, 2), (1, 2)]:
        net.insert_edge(u, v)
    parent = dict(net.parent)
    assert parent[2] == 0
    before = net.meter.edges_touched
    net.delete_edge(1, 2)
    assert net.meter.edges_touched == before
    assert net.parent == parent
    assert net.verify()


def test_anti_parallel_edges_with_flow_on_one():
    net = FlowNetwork(4, 0, 3)
    for u, v in [(0, 2), (2, 1), (1, 3)]:
        net.insert_edge(u, v)
    assert net.F == 1 and net.flow[(2, 1)] == 1 and net.parent.keys() == {0}
    arcs = {(0, 2), (2, 1), (1, 3)}
    steps = [
        ("+", 1, 2),  # anti-parallel to the carried (2,1), tail off the tree
        ("+", 0, 1),  # 1 joins, and 1->2 exists twice: forward and backward
        ("-", 1, 2),  # empty tree arc, but (2,1) still gives 1->2
        ("-", 2, 1),  # carried: rerouted 2->0->1
        ("+", 2, 1),
        ("+", 3, 2),  # anti-parallel to nothing yet, tail is the sink
        ("+", 2, 3),  # anti-parallel to the empty (3,2); 2 reaches t again
    ]
    for op, u, v in steps:
        if op == "+":
            net.insert_edge(u, v)
            arcs.add((u, v))
        else:
            net.delete_edge(u, v)
            arcs.discard((u, v))
        assert net.F == static_max_flow(range(4), arcs, 0, 3), (op, u, v)
        assert net.parent.keys() == residual_reach(net), (op, u, v)
        assert net.verify(), (op, u, v)
    assert net.F == 2


def test_anti_parallel_send_back():
    net = FlowNetwork(4, 0, 3)
    for u, v in [(0, 1), (1, 2), (2, 3), (2, 1)]:
        net.insert_edge(u, v)
    assert net.F == 1 and net.flow[(1, 2)] == 1 and net.flow[(2, 1)] == 0
    delta = net.delete_edge(1, 2)
    assert delta.dF == -1 and net.F == 0
    assert net.parent.keys() == residual_reach(net) == {0, 1}
    assert net.verify()
    delta = net.insert_edge(1, 3)
    assert delta.dF == 1 and delta.path == [0, 1, 3]
    assert net.verify()


@pytest.mark.parametrize("seed", range(6))
def test_fully_dynamic_dense_stream_keeps_tree(seed):
    # few vertices, so anti-parallel pairs and tree-arc deletions are common
    rng = random.Random(500 + seed)
    n = 7
    net = FlowNetwork(n, 0, n - 1)
    arcs = set()
    for _ in range(300):
        if rng.random() < 0.02:
            net.apply(InsertVertex(()))
            n += 1
        elif rng.random() < 0.55 or not arcs:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (u, v) in arcs:
                continue
            arcs.add((u, v))
            net.insert_edge(u, v)
        else:
            u, v = rng.choice(sorted(arcs))
            arcs.discard((u, v))
            net.delete_edge(u, v)
        assert net.F == static_max_flow(range(n), arcs, 0, 6)
        assert net.parent.keys() == residual_reach(net)
        assert net.verify()


def _tree_fixture():
    net = FlowNetwork(5, 0, 4)
    for u, v in [(0, 1), (1, 2), (0, 3), (3, 2)]:
        net.insert_edge(u, v)
    assert net.verify()
    return net


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda net: net.parent.pop(2),  # a reachable vertex left out
        lambda net: net.parent.update({4: 2}),  # an unreachable vertex let in
        lambda net: net.parent.pop(0),  # the source left out
        lambda net: net.parent.update({0: 1}),  # the source hung from a tree vertex
        lambda net: net.parent.update({2: 0}),  # 0->2 is no residual arc
        lambda net: net.parent.pop(3),  # a tree vertex without a parent
        lambda net: net.parent.update({1: 2, 2: 1}),  # residual arcs, but a cycle
    ],
)
def test_verify_catches_broken_tree(corrupt):
    net = _tree_fixture()
    net.insert_edge(2, 1)  # makes 2->1 residual, so the cycle case is all arcs
    assert net.verify()
    corrupt(net)
    assert not net.verify()


@pytest.mark.parametrize("cls", [FlowNetwork, IncrementalFlow])
def test_verify_does_not_touch_the_meter(cls):
    net = cls(6, 0, 5)
    for u, v in [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4)]:
        net.insert_edge(u, v)
    before = (net.meter.edges_touched, net.meter.op_edges_touched, net.current_stage_touches())
    assert net.verify()
    assert (net.meter.edges_touched, net.meter.op_edges_touched, net.current_stage_touches()) == before


# -- the residual adjacency sets ----------------------------------------------


def derived_residual(net):
    """res_out re-derived from the flow flags alone."""
    out = {v: set() for v in net.vertices()}
    for (u, v), f in net.flow.items():
        a, b = (v, u) if f else (u, v)
        out[a].add(b)
    return out


@pytest.mark.parametrize("cls", [FlowNetwork, IncrementalFlow])
def test_residual_sets_follow_the_flow(cls):
    seen = {"anti-parallel": 0, "augment": 0, "reroute": 0, "send-back": 0}
    for seed in range(40):
        n = 5 + seed % 9  # few vertices, so anti-parallel pairs are common
        p_insert = 1.0 if cls is IncrementalFlow else (0.55, 0.7)[seed % 2]
        stream = gen_random_flow(n, 150, seed=1300 + seed, p_insert=p_insert)
        net = cls(n, 0, n - 1)
        for event in stream.events:
            carried = net.flow.get((event.u, event.v)) == 1
            delta = net.apply(event)
            if delta.dF == 1:
                seen["augment"] += 1
            elif carried:
                seen["send-back" if delta.dF < 0 else "reroute"] += 1
            seen["anti-parallel"] += (event.v, event.u) in net.flow
            assert net.res_out == derived_residual(net), (seed, event)
        assert net.verify(), seed
    assert seen["anti-parallel"] and seen["augment"], seen
    if cls is FlowNetwork:
        assert seen["reroute"] and seen["send-back"], seen


def test_residual_out_lists_the_set_sorted():
    net = FlowNetwork(20, 0, 19)
    for u, v in [(0, 10), (10, 19), (10, 17), (10, 2)]:
        net.insert_edge(u, v)
    assert net.F == 1
    # 10 keeps its two empty arcs and gains 10->0 from the saturated (0,10)
    assert net.residual_out(10) == [0, 2, 17] and net.residual_out(0) == []


def _anti_parallel_fixture():
    # the unit runs 0->1->3; the empty (1,0) and the saturated (0,1) both give 1->0
    net = FlowNetwork(4, 0, 3)
    for u, v in [(0, 1), (1, 3), (1, 0), (0, 2)]:
        net.insert_edge(u, v)
    assert net.F == 1 and net.flow[(0, 1)] == 1 and net.flow[(1, 0)] == 0
    assert net.res_out[1] == {0} and net.verify()
    return net


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda net: net.res_out[0].discard(2),  # the empty (0,2)'s arc missing
        lambda net: net.res_out[2].add(3),  # a stray arc
        lambda net: net.res_out[1].discard(0),  # dropped, though (1,0) and (0,1) both give it
        lambda net: net.flow.__setitem__((0, 1), 2),  # a bad flag on the saturated side of the pair
        lambda net: net.flow.__setitem__((1, 0), -1),  # a bad flag on the empty side
        lambda net: net.flow.__setitem__((0, 1), 0),  # unsaturated, the sets as they were
    ],
)
def test_verify_catches_broken_residual_sets(corrupt):
    net = _anti_parallel_fixture()
    corrupt(net)
    assert not net.verify()


def test_anti_parallel_arc_stays_while_one_edge_gives_it():
    net = _anti_parallel_fixture()
    net.delete_edge(1, 0)  # the saturated (0,1) still gives 1->0
    assert net.res_out[1] == {0}
    assert net.res_out == derived_residual(net) and net.verify()
    net.insert_edge(1, 0)
    net.delete_edge(0, 1)  # carried and sent back; the empty (1,0) still gives 1->0
    assert net.F == 0 and net.res_out[1] == {0, 3}  # and the emptied (1,3) gives 1->3
    assert net.res_out == derived_residual(net) and net.verify()


# -- the meter against the scans it stands for --------------------------------


class CountingSet(set):
    """A set that adds every entry its iteration hands out to a shared tally."""

    def __init__(self, tally):
        super().__init__()
        self.tally = tally

    def __iter__(self):
        tally = self.tally
        for x in set.__iter__(self):
            tally[0] += 1
            yield x


@pytest.mark.parametrize("cls", [FlowNetwork, IncrementalFlow])
def test_meter_covers_every_residual_scan(cls):
    # every entry an update reads from res_out is metered;
    # verify() reads unmetered and is left out
    total_reads = 0
    for seed in range(60):
        n = 4 + seed % 37
        p_insert = 1.0 if cls is IncrementalFlow else (0.55, 0.7, 0.85)[seed % 3]
        stream = gen_random_flow(n, 300, seed=1700 + seed, p_insert=p_insert)
        net = cls(n, 0, n - 1)
        tally = [0]
        net.res_out = {v: CountingSet(tally) for v in net.res_out}
        for event in stream.events:
            before = tally[0]
            net.apply(event)
            reads = tally[0] - before
            assert reads <= net.meter.op_edges_touched, (seed, event, reads)
            total_reads += reads
        assert net.F == oracle(net), seed
    assert total_reads > 0

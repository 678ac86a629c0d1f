import random

import pytest

from dynamis import DeleteEdge, DeleteVertex, DynGraph, IncrementalMis, InsertEdge, InsertVertex, QueryInMis
from dynamis.errors import NotIncrementalError
from dynamis.generators import gen_degree_biased
from dynamis.oracles import is_mis


def test_lower_degree_endpoint_removed():
    # u=0 with degree 2, v=1 with degree 5 after the insertion: 0 is evicted
    g = DynGraph(9)
    alg = IncrementalMis(g)
    alg.apply(InsertEdge(0, 2))
    for w in range(3, 7):
        alg.apply(InsertEdge(1, w))
    assert 0 in alg.in_M and 1 in alg.in_M
    log = alg.apply(InsertEdge(0, 1))
    assert log.removed == [0]
    assert alg.verify()


def test_tie_evicts_higher_id():
    g = DynGraph(10)
    alg = IncrementalMis(g)
    for w in (5, 6):
        alg.apply(InsertEdge(4, w))  # ties evict the higher-id helpers 5, 6
    for w in (5, 6):
        alg.apply(InsertEdge(9, w))  # helpers already out: no conflict
    assert 4 in alg.in_M and 9 in alg.in_M
    log = alg.apply(InsertEdge(4, 9))  # both reach degree 3
    assert log.removed == [9]


def test_mixed_membership_no_adjustment():
    g = DynGraph(3)
    alg = IncrementalMis(g)
    alg.apply(InsertEdge(0, 1))  # evicts 1
    log = alg.apply(InsertEdge(1, 2))
    assert log.changes == []
    assert alg.count[2] == 0 and 2 in alg.in_M


def test_deletion_rejected():
    g = DynGraph(2)
    alg = IncrementalMis(g)
    alg.apply(InsertEdge(0, 1))
    with pytest.raises(NotIncrementalError):
        alg.apply(DeleteEdge(0, 1))
    with pytest.raises(NotIncrementalError):
        alg.apply(DeleteVertex(0))
    with pytest.raises(NotIncrementalError):
        alg.apply(InsertVertex((0,)))


def test_query_rejected_as_non_insertion():
    alg = IncrementalMis(DynGraph(2))
    with pytest.raises(NotIncrementalError) as info:
        alg.apply(QueryInMis(0))
    assert "not an insertion" in str(info.value)
    assert "deletion" not in str(info.value)


def test_isolated_vertex_insert_accepted():
    g = DynGraph(0)
    alg = IncrementalMis(g)
    log = alg.apply(InsertVertex(()))
    assert log.added == [0]


def test_total_work_starts_zero():
    alg = IncrementalMis(DynGraph(4))
    assert alg.meter.edges_touched == 0


def test_admission_free_insertion_is_cheap():
    g = DynGraph(3)
    alg = IncrementalMis(g)
    alg.apply(InsertEdge(0, 1))
    before = alg.meter.edges_touched
    alg.apply(InsertEdge(1, 2))  # 1 is out, 2 stays in: count bump only
    assert alg.meter.edges_touched - before <= 2


def test_degree_biased_stream_work_window():
    m = 4096
    stream = gen_degree_biased(m)
    g = DynGraph(stream.n)
    alg = IncrementalMis(g)
    for e in stream.events:
        alg.apply(e)
    total = alg.meter.edges_touched
    assert m ** 1.5 / 64 <= total <= 30 * m ** 1.5


@pytest.mark.parametrize("seed", range(10))
def test_random_insertions_stay_mis(seed):
    rng = random.Random(seed)
    n = 12
    g = DynGraph(n)
    alg = IncrementalMis(g)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs[:45]:
        log = alg.apply(InsertEdge(u, v))
        assert len(log.removed) <= 1
        assert alg.verify()
        assert is_mis(g.adj, alg.mis()).ok


@pytest.mark.parametrize("seed", range(4))
def test_sqrt_m_work_bound(seed):
    rng = random.Random(50 + seed)
    n = 20
    g = DynGraph(n)
    alg = IncrementalMis(g)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    m = 120
    for u, v in pairs[:m]:
        alg.apply(InsertEdge(u, v))
    assert alg.meter.edges_touched <= 30 * m * m ** 0.5
    assert alg.meter.edges_touched <= 30 * m * g.max_degree()

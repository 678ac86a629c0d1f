"""A rejected event raises, is not counted as an update and leaves the audit true."""

import pickle

import pytest

from dynamis import (
    DeleteEdge,
    DeleteVertex,
    DynamicMatching,
    DynamisError,
    DynGraph,
    FlowNetwork,
    ImplicitMis,
    IncrementalFlow,
    IncrementalMatching,
    IncompatibleStreamError,
    IncrementalMis,
    InsertEdge,
    InsertVertex,
    NotIncrementalError,
    QueryInMis,
    SimpleMis,
    TwoLevelMis,
)


def _incremental_matching():
    alg = IncrementalMatching()
    for _ in range(4):
        alg.insert_vertex()
    return alg


BUILDERS = {
    "SimpleMis": lambda: SimpleMis(DynGraph(4)),
    "IncrementalMis": lambda: IncrementalMis(DynGraph(4)),
    "TwoLevelMis": lambda: TwoLevelMis(DynGraph(4)),
    "ImplicitMis": lambda: ImplicitMis(DynGraph(4)),
    "FlowNetwork": lambda: FlowNetwork(4, 0, 3),
    "IncrementalFlow": lambda: IncrementalFlow(4, 0, 3),
    "DynamicMatching": lambda: DynamicMatching(DynGraph(4)),
    "IncrementalMatching": _incremental_matching,
}

REJECTED = (
    InsertEdge(0, 0),  # self-loop
    InsertEdge(0, 1),  # parallel edge
    InsertEdge(0, 9),  # unknown vertex
    DeleteEdge(2, 3),  # missing edge, or a deletion in insertion-only mode
    DeleteVertex(9),  # unknown vertex, or an unsupported vertex deletion
    InsertVertex((0, 0)),  # repeated neighbor
    InsertVertex((9,)),  # unknown neighbor
)


@pytest.mark.parametrize("name", BUILDERS)
def test_rejected_event_is_not_counted(name):
    alg = BUILDERS[name]()
    alg.apply(InsertEdge(0, 1))
    alg.apply(InsertEdge(1, 2))
    if isinstance(alg, ImplicitMis):
        alg.in_mis_query(0)
    for event in REJECTED:
        with pytest.raises(DynamisError):
            alg.apply(event)
        assert alg.meter.updates == 2, event
        assert alg.verify(), event


@pytest.mark.parametrize("name", BUILDERS)
def test_rejected_query_leaves_state_unchanged(name):
    # queries are answered outside apply(); a query passed to it is a stream
    # mismatch, or a non-insertion in insertion-only mode
    alg = BUILDERS[name]()
    alg.apply(InsertEdge(0, 1))
    alg.apply(InsertEdge(1, 2))
    before = pickle.dumps(alg)
    with pytest.raises((IncompatibleStreamError, NotIncrementalError)):
        alg.apply(QueryInMis(0))
    assert alg.meter.updates == 2
    assert pickle.dumps(alg) == before


@pytest.mark.parametrize("event", REJECTED)
@pytest.mark.parametrize("name", BUILDERS)
def test_rejected_event_leaves_state_unchanged(name, event):
    # the last operation leaves non-zero per-operation counters, which a
    # rejected event must not reset
    alg = BUILDERS[name]()
    alg.apply(InsertEdge(0, 1))
    alg.apply(InsertEdge(1, 2))
    # where those two updates touch nothing, one more operation that does
    if isinstance(alg, IncrementalMis):
        alg.apply(InsertEdge(0, 2))  # joins two members and evicts one
    elif isinstance(alg, ImplicitMis):
        alg.in_mis_query(0)
    assert alg.meter.op_edges_touched > 0
    before = pickle.dumps(alg)
    with pytest.raises(DynamisError):
        alg.apply(event)
    assert pickle.dumps(alg) == before

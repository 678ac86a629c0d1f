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
    MissingEdgeError,
    NotIncrementalError,
    ParallelEdgeError,
    QueryInMis,
    SelfLoopError,
    SimpleMis,
    TwoLevelMis,
    UnknownVertexError,
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
    elif isinstance(alg, DynamicMatching):
        # 2 was the only free vertex with an edge, so no forest was grown;
        # with 3 a second one, this grows one
        alg.apply(InsertEdge(1, 3))
    assert alg.meter.op_edges_touched > 0
    before = pickle.dumps(alg)
    with pytest.raises(DynamisError):
        alg.apply(event)
    assert pickle.dumps(alg) == before


# Direct calls: the edge updates of DynGraph and FlowNetwork reject in the
# order self-loop, unknown tail, unknown head, then a parallel or missing
# edge, with these errors and messages, and change nothing.

GRAPH_REJECTED = (
    ("insert_edge", (2, 2), SelfLoopError, "self-loop at 2"),
    ("insert_edge", (3, 3), SelfLoopError, "self-loop at 3"),
    ("insert_edge", (3, 0), UnknownVertexError, "vertex 3 is not live"),
    ("insert_edge", (0, 3), UnknownVertexError, "vertex 3 is not live"),
    ("insert_edge", (3, 9), UnknownVertexError, "vertex 3 is not live"),
    ("insert_edge", (9, 3), UnknownVertexError, "vertex 9 is not live"),
    ("insert_edge", (0, 1), ParallelEdgeError, "edge (0,1) already present"),
    ("insert_edge", (1, 0), ParallelEdgeError, "edge (1,0) already present"),
    ("delete_edge", (3, 0), UnknownVertexError, "vertex 3 is not live"),
    ("delete_edge", (0, 3), UnknownVertexError, "vertex 3 is not live"),
    ("delete_edge", (3, 9), UnknownVertexError, "vertex 3 is not live"),
    ("delete_edge", (3, 3), UnknownVertexError, "vertex 3 is not live"),
    ("delete_edge", (0, 2), MissingEdgeError, "edge (0,2) not present"),
    ("delete_edge", (2, 2), MissingEdgeError, "edge (2,2) not present"),
)


@pytest.mark.parametrize("method,args,error,message", GRAPH_REJECTED)
def test_graph_rejects_in_order(method, args, error, message):
    g = DynGraph(4)
    g.insert_edge(0, 1)
    g.delete_vertex(3)  # a retired id
    before = pickle.dumps(g)
    with pytest.raises(error) as info:
        getattr(g, method)(*args)
    assert type(info.value) is error and str(info.value) == message
    assert pickle.dumps(g) == before


FLOW_REJECTED = (
    ((1, 1), SelfLoopError, "self-loop at 1"),
    ((9, 9), SelfLoopError, "self-loop at 9"),
    ((9, 1), UnknownVertexError, "vertex 9 is not live"),
    ((1, 9), UnknownVertexError, "vertex 9 is not live"),
    ((9, 7), UnknownVertexError, "vertex 9 is not live"),
    ((7, 9), UnknownVertexError, "vertex 7 is not live"),
    ((0, 1), ParallelEdgeError, "edge (0,1) already present"),
)


@pytest.mark.parametrize("args,error,message", FLOW_REJECTED)
@pytest.mark.parametrize("cls", [FlowNetwork, IncrementalFlow])
def test_flow_insertion_rejects_in_order(cls, args, error, message):
    net = cls(4, 0, 3)
    net.insert_edge(0, 1)
    net.insert_edge(1, 0)  # anti-parallel edges are distinct
    before = pickle.dumps(net)
    with pytest.raises(error) as info:
        net.insert_edge(*args)
    assert type(info.value) is error and str(info.value) == message
    assert pickle.dumps(net) == before


FLOW_DELETE_REJECTED = (
    ((7, 1), UnknownVertexError, "vertex 7 is not live"),
    ((1, 7), UnknownVertexError, "vertex 7 is not live"),
    ((9, 7), UnknownVertexError, "vertex 9 is not live"),
    ((1, 1), MissingEdgeError, "edge (1,1) not present"),
    ((0, 2), MissingEdgeError, "edge (0,2) not present"),
    ((2, 1), MissingEdgeError, "edge (2,1) not present"),
)


@pytest.mark.parametrize("args,error,message", FLOW_DELETE_REJECTED)
@pytest.mark.parametrize("cls", [FlowNetwork, IncrementalFlow])
def test_flow_deletion_rejects_in_order(cls, args, error, message):
    net = cls(4, 0, 3)
    net.insert_edge(0, 1)
    net.insert_edge(1, 0)
    before = pickle.dumps(net)
    if cls is IncrementalFlow:
        error, message = NotIncrementalError, "incremental flow rejects deletions"
    with pytest.raises(error) as info:
        net.delete_edge(*args)
    assert type(info.value) is error and str(info.value) == message
    assert pickle.dumps(net) == before

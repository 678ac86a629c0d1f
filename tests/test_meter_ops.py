"""The per-operation meter contract, for every registry row.

An operation is one call of an entry point: ``apply``, or an MIS row's
In-MIS query, the method its registry row names (``contains`` or
``in_mis_query``).  Its figures are the growth of the meter's totals across
the call, and the maxima are the running maxima of those figures; an
accepted update counts one update and an accepted query one query.  A
rejected event or query (unknown or dead ids, parallel or missing edges,
unsupported kinds) leaves the whole structure, its meter included, as it
was, and the set-up work a constructor does is never an operation.
"""

import pickle
import random

import pytest

from dynamis import (
    DeleteEdge,
    DeleteVertex,
    DynamicMatching,
    DynamisError,
    DynGraph,
    ImplicitMis,
    IncrementalMis,
    InsertEdge,
    InsertVertex,
    QueryInMis,
    SimpleMis,
    TwoLevelMis,
    UpdateStream,
)
from dynamis.bench import REGISTRY

N = 10


def _random_call(rng, alg, row):
    """An entry point and its argument, valid or not.

    Ids are mostly live ones, now and then a dead one or one past the last
    id given out; edges to delete mostly the present ones.
    """
    if row.flow:
        live, bound, edges = list(alg.res_out), alg.n, list(alg.flow)
    else:
        adj = alg.g.adj
        live, bound, edges = list(adj), alg.g.id_bound, [(u, v) for u in adj for v in adj[u] if u < v]

    def pick():
        return rng.choice(live) if live and rng.random() < 0.85 else rng.randrange(bound + 2)

    r = rng.random()
    if r < 0.35:
        return alg.apply, InsertEdge(pick(), pick())
    if r < 0.55:
        if edges and rng.random() < 0.8:
            u, v = rng.choice(edges)
            return alg.apply, DeleteEdge(u, v) if row.flow or rng.random() < 0.5 else DeleteEdge(v, u)
        return alg.apply, DeleteEdge(pick(), pick())
    if r < 0.7:
        k = 0 if rng.random() < 0.5 else rng.randrange(1, 4)
        return alg.apply, InsertVertex(tuple(pick() for _ in range(k)))
    if r < 0.85:
        return alg.apply, DeleteVertex(pick())
    # apply refuses queries on every row; an MIS row answers them through
    # its query entry
    if row.query and rng.random() < 0.7:
        return getattr(alg, row.query), pick()
    return alg.apply, QueryInMis(pick())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", REGISTRY)
def test_op_figures_are_the_growth_of_the_totals(name, seed):
    rng = random.Random(seed)
    row = REGISTRY[name]
    alg = row.build(UpdateStream(n=N, flow=(0, N - 1) if row.flow else None))
    meter = alg.meter
    max_touched = max_adjusted = 0
    accepted = rejected = 0
    for _ in range(300):
        call, arg = _random_call(rng, alg, row)
        before = pickle.dumps(alg)
        touched, adjusted = meter.edges_touched, meter.adjustments
        counted = meter.updates + meter.queries
        try:
            call(arg)
        except DynamisError:
            rejected += 1
            assert pickle.dumps(alg) == before, arg
            continue
        accepted += 1
        assert meter.updates + meter.queries == counted + 1, arg
        assert meter.op_edges_touched == meter.edges_touched - touched, arg
        assert meter.op_adjustments == meter.adjustments - adjusted, arg
        max_touched = max(max_touched, meter.op_edges_touched)
        max_adjusted = max(max_adjusted, meter.op_adjustments)
        assert meter.max_op_edges_touched == max_touched, arg
        assert meter.max_op_adjustments == max_adjusted, arg
    assert accepted >= 50 and rejected >= 50, (accepted, rejected)
    assert max_touched > 0
    assert alg.verify()


SET_UP = {
    "SimpleMis": SimpleMis,
    "IncrementalMis": IncrementalMis,
    "TwoLevelMis": TwoLevelMis,
    "ImplicitMis": ImplicitMis,
    "DynamicMatching": DynamicMatching,
}


@pytest.mark.parametrize("cls", SET_UP.values(), ids=SET_UP)
def test_set_up_is_not_an_operation(cls):
    rng = random.Random(7)
    g = DynGraph(20)
    while g.m < 40:
        u, v = rng.sample(range(20), 2)
        if not g.has_edge(u, v):
            g.insert_edge(u, v)
    alg = cls(g)
    meter = alg.meter
    set_up = meter.edges_touched
    assert set_up > 0
    assert (meter.op_edges_touched, meter.max_op_edges_touched) == (0, 0)
    assert (meter.op_adjustments, meter.max_op_adjustments) == (0, 0)
    alg.apply(InsertVertex(()))
    assert meter.op_edges_touched == meter.edges_touched - set_up < set_up
    assert meter.max_op_edges_touched == meter.op_edges_touched
    assert meter.max_op_adjustments == meter.op_adjustments

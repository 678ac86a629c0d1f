import random

import pytest

from dynamis import DynGraph
from dynamis.errors import (
    DuplicateNeighborError,
    MissingEdgeError,
    ParallelEdgeError,
    SelfLoopError,
    UnknownVertexError,
)


def test_single_edge():
    g = DynGraph(2)
    g.insert_edge(0, 1)
    assert g.adj == {0: {1}, 1: {0}}
    assert g.m == 1


def test_parallel_edge_rejected():
    g = DynGraph(2)
    g.insert_edge(0, 1)
    with pytest.raises(ParallelEdgeError):
        g.insert_edge(0, 1)
    with pytest.raises(ParallelEdgeError):
        g.insert_edge(1, 0)


def test_self_loop_rejected():
    g = DynGraph(1)
    with pytest.raises(SelfLoopError):
        g.insert_edge(0, 0)


def test_delete_edge():
    g = DynGraph(2)
    g.insert_edge(0, 1)
    g.delete_edge(0, 1)
    assert g.m == 0


def test_delete_missing_edge():
    g = DynGraph(2)
    with pytest.raises(MissingEdgeError):
        g.delete_edge(0, 1)


def test_triangle_delete_degrees():
    g = DynGraph(3)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        g.insert_edge(u, v)
    g.delete_edge(1, 2)
    assert g.adj == {0: {1, 2}, 1: {0}, 2: {0}}


def test_insert_vertex_empty():
    g = DynGraph()
    v = g.insert_vertex([])
    assert v == 0
    assert g.adj == {0: set()}


def test_insert_vertex_with_neighbors():
    g = DynGraph(2)
    v = g.insert_vertex([0, 1])
    assert v == 2
    assert g.adj == {0: {2}, 1: {2}, 2: {0, 1}}
    assert g.m == 2


def test_insert_vertex_duplicate_neighbor():
    g = DynGraph(1)
    with pytest.raises(DuplicateNeighborError):
        g.insert_vertex([0, 0])


def test_delete_star_center():
    g = DynGraph(1)
    for _ in range(3):
        g.insert_vertex([0])
    g.delete_vertex(0)
    assert g.m == 0
    assert g.n == 3


def test_delete_isolated_vertex():
    g = DynGraph(3)
    g.delete_vertex(1)
    assert g.n == 2


def test_delete_vertex_twice():
    g = DynGraph(1)
    g.delete_vertex(0)
    with pytest.raises(UnknownVertexError):
        g.delete_vertex(0)


def test_ids_not_reused():
    g = DynGraph(2)
    g.delete_vertex(1)
    assert g.insert_vertex([]) == 2


def test_unknown_vertex_edge():
    g = DynGraph(1)
    with pytest.raises(UnknownVertexError):
        g.insert_edge(0, 5)


def test_audit_after_random_ops():
    """The adjacency and the edge count equal a shadow vertex and edge set's."""
    rng = random.Random(11)
    g = DynGraph(8)
    ids = set(range(8))
    edges = set()
    for _ in range(400):
        op = rng.random()
        live = sorted(g.adj)
        if op < 0.45 and len(live) >= 2:
            u, v = rng.sample(live, 2)
            if (min(u, v), max(u, v)) not in edges:
                g.insert_edge(u, v)
                edges.add((min(u, v), max(u, v)))
        elif op < 0.65 and edges:
            u, v = rng.choice(sorted(edges))
            g.delete_edge(u, v)
            edges.discard((u, v))
        elif op < 0.8:
            d = rng.randint(0, min(3, len(live)))
            nbrs = rng.sample(live, d)
            v = g.insert_vertex(nbrs)
            ids.add(v)
            edges.update((w, v) for w in nbrs)
        elif live:
            v = rng.choice(live)
            g.delete_vertex(v)
            ids.discard(v)
            edges = {e for e in edges if v not in e}
        want = {v: set() for v in ids}
        for u, v in edges:
            want[u].add(v)
            want[v].add(u)
        assert g.adj == want
        assert g.m == len(edges)

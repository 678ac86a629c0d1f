"""The random families' streams equal those of the plain sorted-set sampler.

The generators keep a sorted edge list up to date with ``bisect`` instead of
sorting the edge set on every deletion.  ``rng.choice`` reads only the
sequence, so streams must stay byte-identical.  The reference samplers below
are the sort-on-every-delete versions, kept verbatim for comparison.
"""

import random

import pytest

from dynamis import GenSpec
from dynamis.stream import (
    DeleteEdge,
    DeleteVertex,
    InsertEdge,
    InsertVertex,
    QueryInMis,
    UpdateStream,
    serialize_stream,
)


def _reference_random_edges(n, events, seed, p_insert=0.7, query_rate=0.0, vertex_rate=0.0):
    rng = random.Random(seed)
    live = list(range(n))
    next_id = n
    edges = set()
    adj = {v: set() for v in live}
    stream = UpdateStream(n=n)

    def random_non_edge():
        for _ in range(40):
            u, v = rng.sample(live, 2)
            if u != v and (min(u, v), max(u, v)) not in edges:
                return (u, v)
        free = [
            (u, v)
            for i, u in enumerate(live)
            for v in live[i + 1 :]
            if (min(u, v), max(u, v)) not in edges
        ]
        return rng.choice(free) if free else None

    while len(stream.events) < events:
        r = rng.random()
        if r < query_rate and live:
            stream.events.append(QueryInMis(rng.choice(live)))
            continue
        if r < query_rate + vertex_rate:
            if rng.random() < 0.5 or len(live) <= 2:
                d = rng.randint(0, min(3, len(live)))
                nbrs = tuple(sorted(rng.sample(live, d)))
                stream.events.append(InsertVertex(nbrs))
                v = next_id
                next_id += 1
                adj[v] = set(nbrs)
                for w in nbrs:
                    adj[w].add(v)
                    edges.add((min(v, w), max(v, w)))
                live.append(v)
            else:
                v = rng.choice(live)
                stream.events.append(DeleteVertex(v))
                for w in adj[v]:
                    adj[w].discard(v)
                    edges.discard((min(v, w), max(v, w)))
                del adj[v]
                live.remove(v)
            continue
        if (rng.random() < p_insert or not edges) and len(live) >= 2:
            pair = random_non_edge()
            if pair is None:
                if p_insert >= 1.0:
                    stream.events.append(InsertVertex(()))
                    v = next_id
                    next_id += 1
                    adj[v] = set()
                    live.append(v)
                    continue
                if not edges:
                    continue
            else:
                u, v = pair
                stream.events.append(InsertEdge(u, v))
                edges.add((min(u, v), max(u, v)))
                adj[u].add(v)
                adj[v].add(u)
                continue
        if edges:
            u, v = rng.choice(sorted(edges))
            stream.events.append(DeleteEdge(u, v))
            edges.discard((u, v))
            adj[u].discard(v)
            adj[v].discard(u)
    return stream


def _reference_random_flow(n, events, seed, p_insert=0.7):
    rng = random.Random(seed)
    arcs = set()
    stream = UpdateStream(n=n, flow=(0, n - 1))
    while len(stream.events) < events:
        if rng.random() < p_insert or not arcs:
            placed = False
            for _ in range(40):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v and (u, v) not in arcs:
                    stream.events.append(InsertEdge(u, v))
                    arcs.add((u, v))
                    placed = True
                    break
            if placed:
                continue
            if p_insert >= 1.0:
                free = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in arcs]
                if not free:
                    break
                u, v = rng.choice(free)
                stream.events.append(InsertEdge(u, v))
                arcs.add((u, v))
                continue
        if arcs:
            u, v = rng.choice(sorted(arcs))
            stream.events.append(DeleteEdge(u, v))
            arcs.discard((u, v))
    return stream


EDGE_CASES = [
    # (n, events, p_insert, query_rate, vertex_rate)
    (30, 400, 0.7, 0.0, 0.0),
    (30, 400, 0.4, 0.1, 0.0),
    (20, 400, 0.55, 0.1, 0.25),  # vertex deletions drop several edges at once
    (6, 60, 0.5, 0.0, 0.3),
    (5, 40, 1.0, 0.0, 0.0),  # saturates the clique and grows vertices
]
FLOW_CASES = [(30, 500, 0.7), (12, 500, 0.35), (4, 40, 1.0)]  # the last one stops short


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", ["random-edges", "random-matching"])
@pytest.mark.parametrize("n,events,p_insert,query_rate,vertex_rate", EDGE_CASES)
def test_random_edges_streams_unchanged(family, n, events, p_insert, query_rate, vertex_rate, seed):
    spec = GenSpec(family, n=n, events=events, seed=seed, p_insert=p_insert,
                   query_rate=query_rate, vertex_rate=vertex_rate)
    want = _reference_random_edges(n, events, seed, p_insert, query_rate, vertex_rate)
    assert serialize_stream(spec.generate()) == serialize_stream(want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n,events,p_insert", FLOW_CASES)
def test_random_flow_streams_unchanged(n, events, p_insert, seed):
    spec = GenSpec("random-flow", n=n, events=events, seed=seed, p_insert=p_insert)
    want = _reference_random_flow(n, events, seed, p_insert)
    assert serialize_stream(spec.generate()) == serialize_stream(want)

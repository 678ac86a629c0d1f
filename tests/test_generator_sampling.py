"""The random families' streams equal those of the plain ``random`` sampler.

The generators draw through ``generators._draws``, which repeats
``Random._randbelow`` on ``getrandbits``, and pick a deleted edge by index
from a sorted edge list kept by ``bisect`` (none in insertion-only streams).
The RNG call sequence must not change, so streams must stay byte-identical to
those of the reference samplers below: the sort-on-every-delete versions
built on ``rng.sample``, ``rng.choice`` and ``rng.randrange``, kept verbatim
for comparison.  Both sides are serialized by ``_reference_serialize``, a
verbatim copy of ``serialize_stream`` as it was when the references were
recorded, so a change to the serializer cannot hide a change to a stream.
"""

import random

import pytest

from dynamis import GenSpec
from dynamis.generators import _draws, gen_arbitrary_removal, gen_degree_biased
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


def _reference_serialize(stream: UpdateStream) -> str:
    lines: list[str] = []
    if stream.n:
        lines.append(f"n {stream.n}")
    if stream.flow is not None:
        lines.append(f"flow {stream.flow[0]} {stream.flow[1]}")
    for e in stream.events:
        if isinstance(e, InsertEdge):
            lines.append(f"+e {e.u} {e.v}")
        elif isinstance(e, DeleteEdge):
            lines.append(f"-e {e.u} {e.v}")
        elif isinstance(e, InsertVertex):
            lines.append("+v " + " ".join([str(len(e.neighbors))] + [str(w) for w in e.neighbors]))
        elif isinstance(e, DeleteVertex):
            lines.append(f"-v {e.v}")
        else:
            lines.append(f"? {e.v}")
    return "\n".join(lines) + "\n"


EDGE_CASES = [
    # (n, events, p_insert, query_rate, vertex_rate)
    (30, 400, 0.7, 0.0, 0.0),
    (30, 400, 0.4, 0.1, 0.0),
    (20, 400, 0.55, 0.1, 0.25),  # vertex deletions drop several edges at once
    (6, 60, 0.5, 0.0, 0.3),
    (5, 40, 1.0, 0.0, 0.0),  # saturates the clique and grows vertices
    (21, 600, 0.5, 0.05, 0.4),  # live size crosses 21 <-> 22, where sample switches branch
    (30, 400, 1.0, 0.1, 0.2),  # insertion-only with vertex deletions: no sorted list
    (5, 120, 1.0, 0.0, 0.3),  # the same, saturating
]
FLOW_CASES = [(30, 500, 0.7), (12, 500, 0.35), (4, 40, 1.0)]  # the last one stops short

# the benchmark workloads' sizes, at sub-seeds of a workload seed the
# pinned-stream test does not use
WORKLOAD_EDGE_CASES = [
    # (family, n, events, p_insert, query_rate, vertex_rate)
    ("random-edges", 100, 400, 0.7, 0.1, 0.02),
    ("random-edges", 100, 400, 1.0, 0.1, 0.0),
    ("random-edges", 2000, 5000, 0.7, 0.1, 0.02),
    ("random-edges", 2000, 5000, 1.0, 0.1, 0.0),
    ("random-matching", 60, 300, 0.7, 0.0, 0.0),
    ("random-matching", 60, 300, 1.0, 0.0, 0.0),
    ("random-matching", 100, 600, 0.7, 0.0, 0.0),
    ("random-matching", 100, 600, 1.0, 0.0, 0.0),
]
WORKLOAD_FLOW_CASES = [(60, 300, 0.7), (60, 300, 1.0), (100, 750, 0.7), (100, 1500, 1.0)]


def _assert_same(got, want):
    assert got.n == want.n and got.flow == want.flow
    assert got.events == want.events  # events compare equal only within their kind
    assert serialize_stream(got) == _reference_serialize(want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", ["random-edges", "random-matching"])
@pytest.mark.parametrize("n,events,p_insert,query_rate,vertex_rate", EDGE_CASES)
def test_random_edges_streams_unchanged(family, n, events, p_insert, query_rate, vertex_rate, seed):
    spec = GenSpec(family, n=n, events=events, seed=seed, p_insert=p_insert,
                   query_rate=query_rate, vertex_rate=vertex_rate)
    want = _reference_random_edges(n, events, seed, p_insert, query_rate, vertex_rate)
    _assert_same(spec.generate(), want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n,events,p_insert", FLOW_CASES)
def test_random_flow_streams_unchanged(n, events, p_insert, seed):
    spec = GenSpec("random-flow", n=n, events=events, seed=seed, p_insert=p_insert)
    want = _reference_random_flow(n, events, seed, p_insert)
    _assert_same(spec.generate(), want)


@pytest.mark.parametrize("seed", [7000, 7301])
@pytest.mark.parametrize("family,n,events,p_insert,query_rate,vertex_rate", WORKLOAD_EDGE_CASES)
def test_workload_sized_edge_streams_unchanged(family, n, events, p_insert, query_rate, vertex_rate, seed):
    spec = GenSpec(family, n=n, events=events, seed=seed, p_insert=p_insert,
                   query_rate=query_rate, vertex_rate=vertex_rate)
    want = _reference_random_edges(n, events, seed, p_insert, query_rate, vertex_rate)
    _assert_same(spec.generate(), want)


@pytest.mark.parametrize("seed", [7000, 7201])
@pytest.mark.parametrize("n,events,p_insert", WORKLOAD_FLOW_CASES)
def test_workload_sized_flow_streams_unchanged(n, events, p_insert, seed):
    spec = GenSpec("random-flow", n=n, events=events, seed=seed, p_insert=p_insert)
    want = _reference_random_flow(n, events, seed, p_insert)
    _assert_same(spec.generate(), want)


def _live_sizes_at_edge_insertions(stream):
    live, sizes = stream.n, set()
    for e in stream.events:
        if isinstance(e, InsertEdge):
            sizes.add(live)
        elif isinstance(e, InsertVertex):
            live += 1
        elif isinstance(e, DeleteVertex):
            live -= 1
    return sizes


def test_edge_draws_cross_the_sample_branch_boundary():
    """Most seeds of the crossing case draw edges at 21 live vertices (pool) and at 22 (rejection)."""
    crossing = [
        seed
        for seed in range(6)
        if {21, 22} <= _live_sizes_at_edge_insertions(
            GenSpec("random-edges", n=21, events=600, seed=seed, p_insert=0.5,
                    query_rate=0.05, vertex_rate=0.4).generate()
        )
    ]
    assert len(crossing) >= 4


@pytest.mark.parametrize("seed", range(3))
def test_draws_match_random_on_a_twin_rng(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    below, two = _draws(ours)
    for n in range(1, 71):
        seq = list(range(1000, 1000 + n))
        for _ in range(4):
            assert below(n) == theirs.randrange(n)
            assert seq[below(n)] == theirs.choice(seq)
            assert below(n) == theirs.randint(0, n - 1)
            if n >= 2:
                assert two(seq) == tuple(theirs.sample(seq, 2))
        assert ours.getstate() == theirs.getstate()


def _hand_built_streams():
    yield UpdateStream()  # n 0: no header line
    yield UpdateStream(n=0, flow=(0, 3), events=[InsertEdge(0, 1), DeleteEdge(0, 1)])
    yield UpdateStream(n=4, flow=(3, 0), events=[InsertEdge(3, 2)])
    yield UpdateStream(n=3, events=[
        InsertVertex(()), InsertVertex((0,)), InsertVertex((0, 2, 4)),
        DeleteVertex(1), QueryInMis(0), InsertEdge(0, 5), DeleteEdge(0, 5),
    ])


def _generated_streams():
    yield gen_arbitrary_removal(64, 8)
    yield gen_degree_biased(64)
    for family in ("random-edges", "random-matching"):
        yield GenSpec(family, n=12, events=300, seed=3, p_insert=0.6,
                      query_rate=0.1, vertex_rate=0.2).generate()
    yield GenSpec("random-flow", n=12, events=300, seed=3).generate()


@pytest.mark.parametrize("stream", list(_hand_built_streams()) + list(_generated_streams()))
def test_serializer_matches_reference(stream):
    assert serialize_stream(stream) == _reference_serialize(stream)


def _line_kind(line):
    head = line.split()[0]
    if head == "+v":
        return "+v 0" if line == "+v 0" else "+v d"
    return head


def test_generated_streams_cover_every_line_kind():
    kinds = {_line_kind(line) for stream in _generated_streams() for line in serialize_stream(stream).splitlines()}
    assert kinds == {"n", "flow", "+e", "-e", "+v 0", "+v d", "-v", "?"}

"""The MIS family's numbers, pinned to digests of recorded replays.

Each case replays one fixed seeded stream through one algorithm and hashes
what the replay produced: every ``apply``'s ``(changes, edges_touched)``,
every query answer, the final ``meter.totals()``, ``max_op_edges_touched``
and, for mis-2level, ``phase_rebuilds``.  A refactor that keeps the
algorithms' behaviour keeps every digest.  A change that is meant to alter
the numbers must record new digests and say why.

mis-implicit takes only isolated vertex insertions, so on the churn stream a
vertex inserted with neighbours is replayed as an isolated insertion followed
by one edge insertion per neighbour; ids are dense, so it gets the same id.
"""

import hashlib

import pytest

from dynamis import DynGraph, ImplicitMis, IncrementalMis, SimpleMis, TwoLevelMis
from dynamis.generators import gen_arbitrary_removal, gen_degree_biased, gen_random_edges
from dynamis.stream import InsertEdge, InsertVertex, QueryInMis

CLASSES = {
    "mis-simple": (SimpleMis, "contains"),
    "mis-inc": (IncrementalMis, "contains"),
    "mis-2level": (TwoLevelMis, "contains"),
    "mis-implicit": (ImplicitMis, "in_mis_query"),
}


def _stream(name, algorithm):
    if name == "arbitrary-removal":
        return gen_arbitrary_removal(256, 16)
    if name == "degree-biased":
        return gen_degree_biased(256)
    n = int(name.rpartition("/")[2])
    if algorithm == "mis-inc":
        # insertion-only, saturating: the generator grows by isolated vertices
        return gen_random_edges(n // 2, 300, seed=5, p_insert=1.0, query_rate=0.05)
    # n = 40 takes mis-implicit out of eager mode; n = 30, with more vertex
    # churn, gives mis-2level heavy vertices on a random stream
    p_insert, vertex_rate = (0.7, 0.05) if n == 40 else (0.6, 0.1)
    return gen_random_edges(n, 1500, seed=7, p_insert=p_insert, query_rate=0.05, vertex_rate=vertex_rate)


def _events(alg, stream):
    for event in stream.events:
        if isinstance(alg, ImplicitMis) and isinstance(event, InsertVertex) and event.neighbors:
            v = alg.g.id_bound
            yield InsertVertex(())
            for w in event.neighbors:
                yield InsertEdge(v, w)
        else:
            yield event


def _digest(algorithm, name):
    cls, query_name = CLASSES[algorithm]
    stream = _stream(name, algorithm)
    alg = cls(DynGraph(stream.n))
    query = getattr(alg, query_name)
    h = hashlib.sha256()
    for event in _events(alg, stream):
        if isinstance(event, QueryInMis):
            record = ("?", event.v, query(event.v))
        else:
            log = alg.apply(event)
            record = (log.changes, log.edges_touched)
        h.update(repr(record).encode())
    final = (
        sorted(alg.meter.totals().items()),
        alg.meter.max_op_edges_touched,
        getattr(alg, "phase_rebuilds", None),
    )
    h.update(repr(final).encode())
    return h.hexdigest()[:16]


PINNED = {
    ("mis-simple", "random-edges/40"): "3894d490ec8b87f0",
    ("mis-simple", "random-edges/30"): "f1d1d210c77799a9",
    ("mis-simple", "arbitrary-removal"): "97b6d3a6f1098f16",
    ("mis-simple", "degree-biased"): "b6279c599e99e9bd",
    ("mis-inc", "random-edges/40"): "69420483d9da0625",
    ("mis-inc", "random-edges/30"): "175c3692bac059a1",
    ("mis-inc", "arbitrary-removal"): "538a550264362e62",
    ("mis-inc", "degree-biased"): "ef719d3889188389",
    ("mis-2level", "random-edges/40"): "21e10ce008d0952a",
    ("mis-2level", "random-edges/30"): "e196a88f3d4e5586",
    ("mis-2level", "arbitrary-removal"): "ece9531a5ef20001",
    ("mis-2level", "degree-biased"): "c11d0c943fdcea03",
    ("mis-implicit", "random-edges/40"): "648ef0a44d9e27fe",
    ("mis-implicit", "random-edges/30"): "1aa15eeb4f56fff5",
    ("mis-implicit", "arbitrary-removal"): "cab9cc242ab70eeb",
    ("mis-implicit", "degree-biased"): "220a587d43c82cf7",
}


@pytest.mark.parametrize("algorithm, name", sorted(PINNED))
def test_replay_matches_pinned_digest(algorithm, name):
    assert _digest(algorithm, name) == PINNED[algorithm, name]

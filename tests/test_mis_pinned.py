"""The MIS family's numbers, pinned to digests of recorded replays.

Each case replays one fixed seeded stream through one algorithm and hashes
what the replay produced: every ``apply``'s ``changes`` and the meter's
``op_edges_touched`` for it,
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
    if name == "random-edges-shrink/30":
        # shrink-heavy: mis-implicit's m_c halves 53 times and doubles 59
        # times, up to 64, and candidates stay queued after 34 updates
        return gen_random_edges(30, 3000, seed=43, p_insert=0.5, query_rate=0.1)
    n = int(name.rpartition("/")[2])
    if algorithm == "mis-inc":
        # insertion-only, saturating: the generator grows by isolated vertices
        return gen_random_edges(n // 2, 300, seed=5, p_insert=1.0, query_rate=0.05)
    # n = 40 doubles mis-implicit's m_c up to 256; n = 30, with more vertex
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
            record = (log.changes, alg.meter.op_edges_touched)
        h.update(repr(record).encode())
    final = (
        sorted(alg.meter.totals().items()),
        alg.meter.max_op_edges_touched,
        getattr(alg, "phase_rebuilds", None),
    )
    h.update(repr(final).encode())
    return h.hexdigest()[:16]


PINNED = {
    ("mis-simple", "random-edges/40"): "41d29d6bc12e8e01",
    ("mis-simple", "random-edges/30"): "4122943c23de065c",
    ("mis-simple", "arbitrary-removal"): "97b6d3a6f1098f16",
    ("mis-simple", "degree-biased"): "b6279c599e99e9bd",
    ("mis-inc", "random-edges/40"): "0cedfff679631290",
    ("mis-inc", "random-edges/30"): "d11349f3474da720",
    ("mis-inc", "arbitrary-removal"): "538a550264362e62",
    ("mis-inc", "degree-biased"): "ef719d3889188389",
    ("mis-2level", "random-edges/40"): "6dcbc7b3ff5fce88",
    ("mis-2level", "random-edges/30"): "eb977fe0c14e0061",
    ("mis-2level", "arbitrary-removal"): "ece9531a5ef20001",
    ("mis-2level", "degree-biased"): "c11d0c943fdcea03",
    ("mis-implicit", "random-edges/40"): "fb9888167e3b9a20",
    ("mis-implicit", "random-edges/30"): "0eaee3dac7514251",
    ("mis-implicit", "arbitrary-removal"): "af23caa5575e4a0e",
    ("mis-implicit", "degree-biased"): "086b373fb518b502",
    ("mis-implicit", "random-edges-shrink/30"): "b408d6b9ee45af67",
}


@pytest.mark.parametrize("algorithm, name", sorted(PINNED))
def test_replay_matches_pinned_digest(algorithm, name):
    assert _digest(algorithm, name) == PINNED[algorithm, name]

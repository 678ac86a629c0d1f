"""match-fd's and match-inc's numbers, pinned to digests of recorded replays.

Each case replays one fixed seeded ``random-matching`` stream and hashes what
the replay produced: every update's ``MatchDelta`` (``delta`` and
``flipped``), the final ``meter.totals()``, ``max_op_edges_touched`` and
``stage_touches``.  match-fd gets streams with deletions, some with vertex
churn; match-inc gets insertion-only streams that also grow by isolated
vertices, built the way ``dynamis run match-inc`` builds it.  A refactor that
keeps the forest's behaviour keeps every digest.  A change that is meant to
alter the numbers must record new digests and say why.
"""

import hashlib

import pytest

from dynamis import DynamicMatching, DynGraph, IncrementalMatching
from dynamis.generators import gen_random_edges


def _build(algorithm, n):
    if algorithm == "match-fd":
        return DynamicMatching(DynGraph(n))
    alg = IncrementalMatching()
    for _ in range(n):
        alg.insert_vertex()
    return alg


def _digest(algorithm, n, events, seed, p_insert, vertex_rate):
    stream = gen_random_edges(n, events, seed, p_insert=p_insert, vertex_rate=vertex_rate)
    alg = _build(algorithm, stream.n)
    h = hashlib.sha256()
    for event in stream.events:
        delta = alg.apply(event)
        h.update(repr((delta.delta, delta.flipped)).encode())
    final = (
        sorted(alg.meter.totals().items()),
        alg.meter.max_op_edges_touched,
        alg.stage_touches,
    )
    h.update(repr(final).encode())
    return h.hexdigest()[:16]


PINNED = {
    # algorithm, n, events, seed, p_insert, vertex_rate
    ("match-fd", 12, 200, 1, 0.6, 0.0): "03886d6ee1dc3314",
    ("match-fd", 30, 400, 2, 0.7, 0.1): "21d48eb35f01edd4",
    ("match-fd", 60, 300, 3, 0.7, 0.0): "31342c34ad8bc1de",
    ("match-fd", 60, 600, 4, 0.6, 0.05): "116e562e168e1b12",
    ("match-fd", 100, 1000, 5, 0.7, 0.0): "62a2b7886fed0ff4",
    ("match-inc", 12, 100, 1, 1.0, 0.0): "9bf69e6d8647777a",
    ("match-inc", 40, 400, 2, 1.0, 0.0): "bcbb2dc7c24c5cac",
    ("match-inc", 100, 600, 3, 1.0, 0.0): "45c4648cada9c123",
}


@pytest.mark.parametrize("algorithm, n, events, seed, p_insert, vertex_rate", sorted(PINNED))
def test_replay_matches_pinned_digest(algorithm, n, events, seed, p_insert, vertex_rate):
    key = (algorithm, n, events, seed, p_insert, vertex_rate)
    assert _digest(*key) == PINNED[key]

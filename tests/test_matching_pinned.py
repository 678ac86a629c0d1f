"""match-fd's and match-inc's numbers, pinned to digests of recorded replays.

Each case replays one fixed seeded ``random-matching`` stream and hashes what
the replay produced: every update's ``MatchDelta`` (``delta`` and
``flipped``), the final ``meter.totals()``, ``max_op_edges_touched`` and
``stage_touches``.  match-fd gets streams with deletions, some with vertex
churn; match-inc gets insertion-only streams that also grow by isolated
vertices, built the way ``dynamis run match-inc`` builds it.  A refactor that
keeps the forest's behaviour keeps every digest.  A change that is meant to
alter the numbers must record new digests and say why.

The digests were last recorded when the forest stopped growing futile
forests, those grown while fewer than two free vertices have edges.  Every
``delta`` stayed the same.  Skipping those forests moved ``edges_touched``,
``max_op_edges_touched`` and ``stage_touches``, and, where a later
augmentation is found by a fresh forest instead of a kept one, which path it
flips.
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
    ("match-fd", 12, 200, 1, 0.6, 0.0): "d5bda73213dd52fd",
    ("match-fd", 30, 400, 2, 0.7, 0.1): "ca059f327b0f8257",
    ("match-fd", 60, 300, 3, 0.7, 0.0): "33c40635c19bf9ad",
    ("match-fd", 60, 600, 4, 0.6, 0.05): "3a2f6b1ebf077fae",
    ("match-fd", 100, 1000, 5, 0.7, 0.0): "434ecc8c932897a8",
    ("match-inc", 12, 100, 1, 1.0, 0.0): "da08f3018a8616a4",
    ("match-inc", 40, 400, 2, 1.0, 0.0): "dd56bf1bf4a2af50",
    ("match-inc", 100, 600, 3, 1.0, 0.0): "6fc8af0109977087",
}


@pytest.mark.parametrize("algorithm, n, events, seed, p_insert, vertex_rate", sorted(PINNED))
def test_replay_matches_pinned_digest(algorithm, n, events, seed, p_insert, vertex_rate):
    key = (algorithm, n, events, seed, p_insert, vertex_rate)
    assert _digest(*key) == PINNED[key]

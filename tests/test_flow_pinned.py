"""flow-inc's and flow-fd's numbers, pinned to digests of recorded replays.

Each case replays one fixed seeded flow stream and hashes what the replay
produced: every update's ``FlowDelta`` (``dF`` and ``path``), the final
``meter.totals()``, ``max_op_edges_touched`` and ``stage_touches``.  flow-inc
gets insertion-only streams through ``IncrementalFlow``; deletions never
reach it, so a change to how ``FlowNetwork`` handles them must keep its
digests too.  flow-fd gets streams with deletions through ``FlowNetwork``.
A refactor that keeps the searches' behaviour keeps every digest.  A change
that is meant to alter the numbers must record new digests and say why.
"""

import hashlib

import pytest

from dynamis import FlowNetwork, IncrementalFlow
from dynamis.generators import gen_random_flow


def _digest(n, events, seed, p_insert=1.0):
    stream = gen_random_flow(n, events, seed=seed, p_insert=p_insert)
    s, t = stream.flow
    net = (IncrementalFlow if p_insert >= 1.0 else FlowNetwork)(stream.n, s, t)
    h = hashlib.sha256()
    for event in stream.events:
        delta = net.apply(event)
        h.update(repr((delta.dF, delta.path)).encode())
    final = (
        sorted(net.meter.totals().items()),
        net.meter.max_op_edges_touched,
        net.stage_touches,
    )
    h.update(repr(final).encode())
    return h.hexdigest()[:16]


PINNED = {
    (12, 100, 1): "4be19998e9b8fbb9",
    (30, 400, 2): "610fce996c300b86",
    (60, 1500, 3): "1555ced667672346",
    (100, 3000, 5): "d60faf19c83b0df2",
}


@pytest.mark.parametrize("n, events, seed", sorted(PINNED))
def test_replay_matches_pinned_digest(n, events, seed):
    assert _digest(n, events, seed) == PINNED[n, events, seed]


PINNED_FD = {
    # n, events, seed, p_insert
    (10, 400, 7, 0.55): "edcf6e22a871f4d6",
    (30, 300, 6, 0.7): "4ba6a4755f4b7793",
    (60, 800, 4, 0.6): "7eac2920a62d6221",
    (100, 750, 8, 0.7): "4a85f4cdff79042c",
    (100, 1500, 9, 0.8): "6ba8f5c932166824",
}


@pytest.mark.parametrize("n, events, seed, p_insert", sorted(PINNED_FD))
def test_fully_dynamic_replay_matches_pinned_digest(n, events, seed, p_insert):
    assert _digest(n, events, seed, p_insert) == PINNED_FD[n, events, seed, p_insert]

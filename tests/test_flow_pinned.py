"""flow-inc's numbers, pinned to digests of recorded replays.

Each case replays one fixed seeded insertion-only flow stream through
``IncrementalFlow`` and hashes what the replay produced: every insertion's
``FlowDelta`` (``dF`` and ``path``), the final ``meter.totals()``,
``max_op_edges_touched`` and ``stage_touches``.  A refactor that keeps the
insertion path's behaviour keeps every digest; deletions never reach this
class, so a change to how ``FlowNetwork`` handles them must keep it too.  A
change that is meant to alter the numbers must record new digests and say
why.
"""

import hashlib

import pytest

from dynamis import IncrementalFlow
from dynamis.generators import gen_random_flow


def _digest(n, events, seed):
    stream = gen_random_flow(n, events, seed=seed, p_insert=1.0)
    s, t = stream.flow
    net = IncrementalFlow(stream.n, s, t)
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

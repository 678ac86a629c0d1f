"""Every MIS update's log replays: the set before it, changed as logged, is the set after it.

``apply`` logs ("leave", v) and ("enter", v) in processing order.  Starting
from the maintained set just before the update (``mis()``, or
``independent_set()`` for mis-implicit), each leave must name a member and
each enter a non-member, and the set the log leaves must be the one the
algorithm maintains after the update, and the meter must count one
adjustment per entry, no more.  Queries run between updates, so
mis-implicit's query admissions are read into the next update's start.  As
in the pinned replays, mis-implicit gets each vertex inserted with
neighbours as an isolated insertion followed by its edges.
"""

import pytest

from dynamis import DynGraph, ImplicitMis, IncrementalMis, SimpleMis, TwoLevelMis
from dynamis.generators import gen_random_edges
from dynamis.stream import QueryInMis
from test_mis_pinned import _events

CLASSES = {
    "mis-simple": (SimpleMis, SimpleMis.mis, SimpleMis.contains),
    "mis-inc": (IncrementalMis, IncrementalMis.mis, IncrementalMis.contains),
    "mis-2level": (TwoLevelMis, TwoLevelMis.mis, TwoLevelMis.contains),
    "mis-implicit": (ImplicitMis, ImplicitMis.independent_set, ImplicitMis.in_mis_query),
}


def _stream(algorithm, seed):
    if algorithm == "mis-inc":
        return gen_random_edges(30, 600, seed=seed, p_insert=1.0, query_rate=0.05)
    return gen_random_edges(30, 600, seed=seed, p_insert=0.6, query_rate=0.05, vertex_rate=0.1)


def _replay(members, changes):
    members = set(members)
    for op, v in changes:
        if op == "leave":
            assert v in members, f"{v} left but was not a member"
            members.discard(v)
        else:
            assert op == "enter", op
            assert v not in members, f"{v} entered but was a member"
            members.add(v)
    return members


@pytest.mark.parametrize("algorithm", sorted(CLASSES))
@pytest.mark.parametrize("seed", range(40))
def test_every_log_replays(algorithm, seed):
    cls, current, query = CLASSES[algorithm]
    stream = _stream(algorithm, seed)
    alg = cls(DynGraph(stream.n))
    for i, event in enumerate(_events(alg, stream)):
        if isinstance(event, QueryInMis):
            query(alg, event.v)
            continue
        before = current(alg)
        changes = alg.apply(event).changes
        assert _replay(before, changes) == current(alg), (i, event, changes)
        assert alg.meter.op_adjustments == len(changes), (i, event, changes)

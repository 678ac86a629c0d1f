"""Updates that change nothing return one shared result, and it stays empty.

Each module keeps one pre-built result for the updates that change
nothing: ``QUIET_FLOW`` (no flow moved), ``QUIET_MATCH`` (the cardinality
did not change and no pair flipped) and ``QUIET_LOG`` (no vertex entered or
left the set).  Every other update returns a fresh object.  Queries are
answered between updates, since mis-implicit's set grows only by query
admissions.  Results are read-only, so after every pinned replay the shared
ones must still read empty.
"""

import pytest

import test_flow_pinned
import test_matching_pinned
import test_mis_pinned
from dynamis import (
    DynamicMatching,
    DynGraph,
    FlowNetwork,
    ImplicitMis,
    IncrementalFlow,
    IncrementalMatching,
    IncrementalMis,
    SimpleMis,
    TwoLevelMis,
)
from dynamis.flow import QUIET_FLOW
from dynamis.generators import gen_random_edges, gen_random_flow
from dynamis.matching import QUIET_MATCH
from dynamis.meter import QUIET_LOG
from dynamis.stream import QueryInMis


def _flow(cls, p_insert):
    stream = gen_random_flow(30, 400, seed=2, p_insert=p_insert)
    return cls(stream.n, *stream.flow), stream


def _matching(algorithm, p_insert):
    stream = gen_random_edges(30, 400, seed=2, p_insert=p_insert, vertex_rate=0.0 if p_insert >= 1 else 0.1)
    return test_matching_pinned._build(algorithm, stream.n), stream


def _mis(cls, p_insert, vertex_rate):
    stream = gen_random_edges(30, 600, seed=2, p_insert=p_insert, query_rate=0.05, vertex_rate=vertex_rate)
    return cls(DynGraph(stream.n)), stream


def _quiet_flow(delta):
    return delta.dF == 0 and delta.path is None


def _quiet_match(delta):
    return delta.delta == 0 and delta.flipped == []


def _quiet_log(log):
    return log.changes == []


# name: (algorithm and stream, the shared result, whether a result is quiet)
CASES = {
    "flow-fd": (lambda: _flow(FlowNetwork, 0.7), QUIET_FLOW, _quiet_flow),
    "flow-inc": (lambda: _flow(IncrementalFlow, 1.0), QUIET_FLOW, _quiet_flow),
    "match-fd": (lambda: _matching("match-fd", 0.7), QUIET_MATCH, _quiet_match),
    "match-inc": (lambda: _matching("match-inc", 1.0), QUIET_MATCH, _quiet_match),
    "mis-simple": (lambda: _mis(SimpleMis, 0.6, 0.1), QUIET_LOG, _quiet_log),
    "mis-inc": (lambda: _mis(IncrementalMis, 1.0, 0.0), QUIET_LOG, _quiet_log),
    "mis-2level": (lambda: _mis(TwoLevelMis, 0.6, 0.1), QUIET_LOG, _quiet_log),
    "mis-implicit": (lambda: _mis(ImplicitMis, 0.6, 0.0), QUIET_LOG, _quiet_log),
}


def _assert_empty():
    assert QUIET_FLOW.dF == 0 and QUIET_FLOW.path is None
    assert QUIET_MATCH.delta == 0 and QUIET_MATCH.flipped == []
    assert QUIET_LOG.changes == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_quiet_updates_share_one_result(name):
    build, shared, is_quiet = CASES[name]
    alg, stream = build()
    fresh = []
    quiet = 0
    for event in stream.events:
        if isinstance(event, QueryInMis):
            query = getattr(alg, "in_mis_query", None) or alg.contains
            query(event.v)
            continue
        result = alg.apply(event)
        if is_quiet(result):
            assert result is shared, event
            quiet += 1
        else:
            assert result is not shared, event
            fresh.append(result)
    assert quiet and fresh
    # every changing update got its own object
    assert len(set(map(id, fresh))) == len(fresh)
    _assert_empty()


def test_shared_results_stay_empty_after_every_pinned_replay():
    for key in test_mis_pinned.PINNED:
        test_mis_pinned._digest(*key)
    for key in test_flow_pinned.PINNED:
        test_flow_pinned._digest(*key)
    for key in test_flow_pinned.PINNED_FD:
        test_flow_pinned._digest(*key)
    for key in test_matching_pinned.PINNED:
        test_matching_pinned._digest(*key)
    _assert_empty()

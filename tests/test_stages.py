"""Stage meters of the augmenting algorithms: stages partition the metered work.

A stage ends when the flow or the matching grows; ``stage_touches`` holds the
closed stages and ``_stage_start`` the meter total where the open one began.
"""

import pytest

from dynamis import DynamicMatching, DynGraph, GenSpec
from dynamis.bench import REGISTRY

STREAMS = {
    "flow-fd": dict(family="random-flow", p_insert=0.7),
    "flow-inc": dict(family="random-flow", p_insert=1.0),
    "match-fd": dict(family="random-matching", p_insert=0.7, vertex_rate=0.05),
    "match-inc": dict(family="random-matching", p_insert=1.0),
}


@pytest.mark.parametrize("algorithm", STREAMS)
def test_stages_sum_to_the_work_since_construction(algorithm):
    stages = 0
    for seed in range(6):
        stream = GenSpec(n=12 + seed, events=120, seed=seed, **STREAMS[algorithm]).generate()
        alg = REGISTRY[algorithm].build(stream)
        start = alg.meter.edges_touched
        for event in stream.events:
            alg.apply(event)
            open_stage = alg.meter.edges_touched - alg._stage_start
            assert sum(alg.stage_touches) + open_stage == alg.meter.edges_touched - start, event
        stages += len(alg.stage_touches)
    assert stages > 0


def test_construction_work_opens_no_stage():
    g = DynGraph(6)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
        g.insert_edge(u, v)
    alg = DynamicMatching(g)
    assert alg.cardinality == 3 and alg.meter.edges_touched > 0
    assert alg.stage_touches == [] and alg._stage_start == alg.meter.edges_touched

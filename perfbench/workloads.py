"""The four workloads: which streams each one generates and who replays them.

A workload is a list of sources.  A source is one generator call; each of its
uses names an algorithm and an optional transform of the generated stream, so
that every algorithm gets the variant its compatibility rules accept.  Set-up
(generate, transform, serialize to stream text) is what ``dynamis gen`` does
and is timed as ``setup_s``.

Random families derive their seeds from the workload seed; the adversarial
families are deterministic and ignore it.  ``scale`` shrinks every size for
the smoke test; the benchmark always runs at scale 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt
from typing import Callable

import dynamis


@dataclass(frozen=True)
class Source:
    label: str
    spec: dynamis.GenSpec
    # (algorithm, transform name or None); each distinct transform is one file
    uses: tuple[tuple[str, str | None], ...]


@dataclass(frozen=True)
class Pair:
    """One (algorithm, stream) replay: the unit that passes or fails."""

    algorithm: str
    label: str
    path: str
    stream: dynamis.UpdateStream


def isolate_vertex_inserts(stream: dynamis.UpdateStream) -> dynamis.UpdateStream:
    """Replace ``+v d w1..wd`` by ``+v 0`` and d edge insertions.

    The new vertex takes the next id in either form, so every later event
    still names the same vertices and the graph after each original event is
    unchanged.  mis-implicit and mis-inc accept only isolated vertex inserts.
    """
    next_id = stream.n
    events = []
    for e in stream.events:
        if isinstance(e, dynamis.InsertVertex):
            events.append(dynamis.InsertVertex(()))
            events.extend(dynamis.InsertEdge(next_id, w) for w in e.neighbors)
            next_id += 1
        else:
            events.append(e)
    return dynamis.UpdateStream(n=stream.n, flow=stream.flow, events=events)


def mirror_flow(stream: dynamis.UpdateStream) -> dynamis.UpdateStream:
    """Reverse every arc and map vertex x to n-1-x, so source and sink swap.

    flow-fd's residual search from the source covers the source side of the
    minimum cut.  Which side is small is close to a coin flip per seed, so one
    random-flow stream costs either very little or a lot; a stream and its
    mirror together cover both sides and cost about the same on every seed.
    """
    n = stream.n
    s, t = stream.flow
    events = []
    for e in stream.events:
        if not isinstance(e, (dynamis.InsertEdge, dynamis.DeleteEdge)):
            raise ValueError(f"cannot mirror {e!r}")
        events.append(type(e)(n - 1 - e.v, n - 1 - e.u))
    return dynamis.UpdateStream(n=n, flow=(n - 1 - t, n - 1 - s), events=events)


TRANSFORMS: dict[str, Callable[[dynamis.UpdateStream], dynamis.UpdateStream]] = {
    "isolated": isolate_vertex_inserts,
    "mirror": mirror_flow,
}


def _events(count: int, scale: float) -> int:
    return max(20, int(count * scale))


def _copies(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _sub_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def mis_churn(seed: int, scale: float) -> list[Source]:
    # Cheap updates (under 2 metered touches each): parsing, dispatch, graph
    # mutation and meter bookkeeping dominate.  Generation is quadratic in the
    # deletions (sorted(edges) per delete), so the size keeps setup_s in the
    # run without dwarfing it.  Two streams of each kind, because mis-2level's
    # cost follows its rebuilds, which vary from stream to stream.
    n, events = 2000, _events(5000, scale)
    sources = []
    for i in range(_copies(2, scale)):
        mixed = dynamis.GenSpec(
            "random-edges", n=n, events=events, seed=_sub_seed(seed, i),
            p_insert=0.7, query_rate=0.1, vertex_rate=0.02,
        )
        growing = dynamis.GenSpec(
            "random-edges", n=n, events=events, seed=_sub_seed(seed, 100 + i), p_insert=1.0, query_rate=0.1,
        )
        sources.append(
            Source(f"mixed{i}", mixed, (("mis-simple", None), ("mis-2level", None), ("mis-implicit", "isolated")))
        )
        sources.append(Source(f"growing{i}", growing, (("mis-inc", None),)))
    return sources


def mis_adversarial(seed: int, scale: float) -> list[Source]:
    # The paper's worst case: eviction scans dominate, parsing is a small
    # share.  Deterministic streams; the seed is ignored.
    m = max(64, int(16384 * scale))
    delta = isqrt(m - 1) + 1
    return [
        Source(
            "arbitrary-removal",
            dynamis.GenSpec("arbitrary-removal", m=m, delta=delta),
            (("mis-simple", None), ("mis-2level", None), ("mis-implicit", None)),
        ),
        Source(
            "degree-biased",
            dynamis.GenSpec("degree-biased", m=m),
            (("mis-inc", None), ("mis-2level", None), ("mis-implicit", None)),
        ),
    ]


def flow_match(seed: int, scale: float) -> list[Source]:
    # Searches dominate and the meter sees little of them (residual_out's
    # sets and sorts, the matching re-index per augment call).  The cost of
    # one random flow or matching stream swings widely from seed to seed, so
    # a run replays many small streams: for the same replay time, 14 flow
    # streams of 750 events vary less in total than 4 of 1500, and matching
    # streams at n=60 cost a third of those at n=100 and vary as much.
    sources = []
    for i in range(_copies(14, scale)):
        spec = dynamis.GenSpec("random-flow", n=100, events=_events(750, scale), seed=_sub_seed(seed, i))
        sources.append(Source(f"flow{i}", spec, (("flow-fd", None), ("flow-fd", "mirror"))))
    for i in range(_copies(16, scale)):
        spec = dynamis.GenSpec(
            "random-matching", n=60, events=_events(300, scale), seed=_sub_seed(seed, 100 + i)
        )
        sources.append(Source(f"match{i}", spec, (("match-fd", None),)))
    # flow-inc's slowest updates are its few augmenting ones, whose number
    # follows the stream; its p99 needs more streams than its time does.
    for i in range(_copies(10, scale)):
        spec = dynamis.GenSpec(
            "random-flow", n=100, events=_events(1500, scale), seed=_sub_seed(seed, 200 + i), p_insert=1.0
        )
        sources.append(Source(f"grow-flow{i}", spec, (("flow-inc", None), ("flow-inc", "mirror"))))
    for i in range(_copies(4, scale)):
        spec = dynamis.GenSpec(
            "random-matching", n=100, events=_events(600, scale), seed=_sub_seed(seed, 300 + i), p_insert=1.0
        )
        sources.append(Source(f"grow-match{i}", spec, (("match-inc", None),)))
    return sources


def verified(seed: int, scale: float) -> list[Source]:
    # Every algorithm with --verify: the module audit and the independent
    # oracle after every event take almost all the time.  The flow oracle's
    # cost follows the flow value, which varies from seed to seed, so every
    # algorithm gets several streams, the flow algorithms the most.
    mis_events, events = _events(400, scale), _events(300, scale)
    sources = []
    for i in range(_copies(2, scale)):
        sources.append(Source(
            f"mis-mixed{i}",
            dynamis.GenSpec(
                "random-edges", n=100, events=mis_events, seed=_sub_seed(seed, i),
                p_insert=0.7, query_rate=0.1, vertex_rate=0.02,
            ),
            (("mis-simple", None), ("mis-2level", None), ("mis-implicit", "isolated")),
        ))
        sources.append(Source(
            f"mis-growing{i}",
            dynamis.GenSpec(
                "random-edges", n=100, events=mis_events, seed=_sub_seed(seed, 10 + i),
                p_insert=1.0, query_rate=0.1,
            ),
            (("mis-inc", None),),
        ))
    for family, algorithm, p_insert, copies, base in (
        ("random-flow", "flow-fd", 0.7, 8, 100),
        ("random-flow", "flow-inc", 1.0, 8, 200),
        ("random-matching", "match-fd", 0.7, 4, 300),
        ("random-matching", "match-inc", 1.0, 4, 400),
    ):
        for i in range(_copies(copies, scale)):
            spec = dynamis.GenSpec(family, n=60, events=events, seed=_sub_seed(seed, base + i), p_insert=p_insert)
            sources.append(Source(f"{algorithm}{i}", spec, ((algorithm, None),)))
    return sources


WORKLOADS: dict[str, tuple[Callable[[int, float], list[Source]], bool]] = {
    # name: (sources, replay with --verify)
    "mis-churn": (mis_churn, False),
    "mis-adversarial": (mis_adversarial, False),
    "flow-match": (flow_match, False),
    "verified": (verified, True),
}


def generate_texts(sources: list[Source]) -> dict[tuple[str, str | None], str]:
    """Generate every source and serialize each variant its uses need.

    Names are looked up on the package at call time, so a traced run sees
    these calls through its wrappers.
    """
    texts = {}
    for src in sources:
        stream = src.spec.generate()
        for transform in dict.fromkeys(t for _, t in src.uses):
            variant = stream if transform is None else TRANSFORMS[transform](stream)
            texts[(src.label, transform)] = dynamis.serialize_stream(variant)
    return texts


def timed_setup(sources: list[Source]) -> tuple[float, dict[tuple[str, str | None], str]]:
    start = time.perf_counter()
    texts = generate_texts(sources)
    return time.perf_counter() - start, texts

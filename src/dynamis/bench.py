"""Replay harness: run an update stream through an algorithm and report.

``REGISTRY`` holds one row per algorithm: how to build it over a stream, what
the stream must look like, which method answers In-MIS queries, how to check
it, and what its result is.  Every algorithm takes events through
``apply(event)`` and audits itself with ``verify()``, so ``replay`` drives
all of them the same way and is the only place a run report is built.
Compatibility is checked up front from the row: a mismatch raises before any
event is applied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt, log
from operator import attrgetter
from typing import Any, Callable

from .errors import IncompatibleStreamError, VerificationFailedError
from .flow import FlowNetwork, IncrementalFlow
from .generators import FAMILIES, GenSpec
from .graph import DynGraph
from .matching import DynamicMatching, IncrementalMatching
from .mis import ImplicitMis, IncrementalMis, SimpleMis, TwoLevelMis
from .mis.base import ceil_root
from .oracles import is_mis, static_max_flow
from .stream import DeleteEdge, DeleteVertex, InsertVertex, QueryInMis, UpdateStream


@dataclass(frozen=True)
class Algorithm:
    """One registry row.

    ``--verify`` calls the algorithm's ``verify()`` audit and then, for
    modules whose audit does not consult an oracle itself,
    ``oracle(alg, graph(alg))``, which returns a failure detail or None.
    ``graph(alg)`` is also the structure whose ``n`` and ``m`` the report
    gives.

    ``query`` names the method that answers In-MIS queries.  On all four MIS
    classes it is the one metered query operation, ``UpdateLoop._query_op``,
    bound per class; the row still names it because the benchmark's tracer
    wraps ``contains`` and ``in_mis_query`` by those names, until the
    benchmark reads this registry instead.
    """

    build: Callable[[UpdateStream], Any]
    result: tuple[str, Callable[[Any], int]]
    oracle: Callable[[Any, Any], str | None] | None = None
    graph: Callable[[Any], Any] = attrgetter("g")
    query: str | None = None  # method answering In-MIS queries
    flow: bool = False  # needs a `flow s t` header; no vertex deletions
    incremental: bool = False  # rejects deletions
    isolated_vertices: bool = False  # vertex insertions may not carry edges


def _on_graph(cls) -> Callable[[UpdateStream], Any]:
    return lambda stream: cls(DynGraph(stream.n))


def _on_network(cls) -> Callable[[UpdateStream], Any]:
    def build(stream: UpdateStream):
        s, t = stream.flow
        return cls(max(stream.n, max(s, t) + 1), s, t)

    return build


def _incremental_matching(stream: UpdateStream) -> IncrementalMatching:
    alg = IncrementalMatching()
    for _ in range(stream.n):
        alg.insert_vertex()
    return alg


def _mis_oracle(alg, g) -> str | None:
    report = is_mis(g.adj, alg.mis())
    return None if report.ok else report.detail


def _flow_oracle(alg, net) -> str | None:
    want = static_max_flow(net.vertices(), net.directed_edges(), net.s, net.t)
    return None if net.F == want else f"F={net.F}, oracle={want}"


_MIS_SIZE = ("mis_size", lambda alg: len(alg.mis()))
_FLOW_VALUE = ("flow_value", attrgetter("F"))
_MATCHING_SIZE = ("matching_size", attrgetter("cardinality"))

REGISTRY: dict[str, Algorithm] = {
    "mis-simple": Algorithm(_on_graph(SimpleMis), _MIS_SIZE, oracle=_mis_oracle, query="contains"),
    "mis-inc": Algorithm(
        _on_graph(IncrementalMis), _MIS_SIZE, oracle=_mis_oracle, query="contains",
        incremental=True, isolated_vertices=True,
    ),
    "mis-2level": Algorithm(
        _on_graph(TwoLevelMis), _MIS_SIZE, oracle=_mis_oracle, query="contains",
    ),
    "mis-implicit": Algorithm(
        _on_graph(ImplicitMis), ("independent_set_size", lambda alg: len(alg.independent_set())),
        query="in_mis_query", isolated_vertices=True,
    ),
    "flow-fd": Algorithm(
        _on_network(FlowNetwork), _FLOW_VALUE, oracle=_flow_oracle, graph=lambda net: net,
        flow=True, isolated_vertices=True,
    ),
    "flow-inc": Algorithm(
        _on_network(IncrementalFlow), _FLOW_VALUE, oracle=_flow_oracle, graph=lambda net: net,
        flow=True, incremental=True, isolated_vertices=True,
    ),
    "match-fd": Algorithm(_on_graph(DynamicMatching), _MATCHING_SIZE),
    "match-inc": Algorithm(
        _incremental_matching, _MATCHING_SIZE, incremental=True, isolated_vertices=True,
    ),
}
ALGORITHMS = tuple(REGISTRY)


def check_compatible(algorithm: str, stream: UpdateStream) -> Algorithm:
    """The algorithm's registry row; raises if the stream does not suit it."""
    row = REGISTRY.get(algorithm)
    if row is None:
        raise IncompatibleStreamError(f"unknown algorithm {algorithm!r}")
    if row.flow and stream.flow is None:
        raise IncompatibleStreamError(f"{algorithm} needs a `flow s t` header")
    if not row.flow and stream.flow is not None:
        raise IncompatibleStreamError(f"{algorithm} cannot replay a flow stream")
    kinds = set(map(type, stream.events))
    if row.incremental and (DeleteEdge in kinds or DeleteVertex in kinds):
        raise IncompatibleStreamError(f"{algorithm} rejects deletions")
    if row.query is None and QueryInMis in kinds:
        raise IncompatibleStreamError(f"{algorithm} does not answer In-MIS queries")
    if row.isolated_vertices and InsertVertex in kinds:
        if any(isinstance(e, InsertVertex) and e.neighbors for e in stream.events):
            raise IncompatibleStreamError(
                f"{algorithm} accepts only isolated vertex insertions"
            )
    if row.flow and DeleteVertex in kinds:
        raise IncompatibleStreamError(f"{algorithm} does not delete vertices")
    return row


def replay(
    algorithm: str,
    stream: UpdateStream,
    verify: bool = False,
    on_query: Callable[[int, int], Any] | None = None,
) -> dict:
    """Run the whole stream and build a RunReport dictionary.

    With ``verify`` the row's check runs before the first event and after
    every event.  ``on_query(v, answer)`` is called as each In-MIS query is
    answered, before the report exists.
    """
    row = check_compatible(algorithm, stream)
    alg = row.build(stream)
    query = getattr(alg, row.query) if row.query else None
    query_results: list[list[int]] = []

    def check(event_index: int) -> None:
        if not alg.verify():
            raise VerificationFailedError(event_index, "internal audit failed")
        detail = row.oracle(alg, row.graph(alg)) if row.oracle else None
        if detail is not None:
            raise VerificationFailedError(event_index, detail)

    start = time.perf_counter()
    verified: bool | None = None
    if verify:
        check(-1)
        verified = True
    for i, event in enumerate(stream.events):
        if isinstance(event, QueryInMis):
            answer = int(query(event.v))
            query_results.append([event.v, answer])
            if on_query is not None:
                on_query(event.v, answer)
        else:
            alg.apply(event)
        if verify:
            check(i)
    wall = time.perf_counter() - start
    g = row.graph(alg)
    meter = alg.meter
    report = {
        "algorithm": algorithm,
        "stream": {"events": len(stream.events), "final_n": g.n, "final_m": g.m},
        "totals": dict(meter.totals(), wall_time_s=round(wall, 6)),
        "per_update_max": {
            "edges_touched": meter.max_op_edges_touched,
            "adjustments": meter.max_op_adjustments,
        },
        "verified": verified,
        "result": {row.result[0]: row.result[1](alg)},
    }
    if query_results:
        report["query_results"] = query_results
    return report


def stream_for_size(family: str, m: int, seed: int = 0) -> UpdateStream:
    """An insertion-only stream of the family with an edge budget of ``m``."""
    if family not in FAMILIES:
        raise IncompatibleStreamError(f"unknown family {family!r}")
    n = max(16, 2 * isqrt(m))
    return GenSpec(family, m=m, delta=ceil_root(m, 1, 2), n=n, events=m, seed=seed, p_insert=1.0).generate()


def fit_slope(sizes: list[int], totals: list[int]) -> float:
    """Least-squares slope of log(total) against log(size)."""
    from statistics import linear_regression

    xs = [log(s) for s in sizes]
    ys = [log(max(t, 1)) for t in totals]
    return linear_regression(xs, ys).slope


def scaling(algorithm: str, family: str, sizes: list[int], seed: int = 0) -> dict:
    per_size = []
    for m in sizes:
        stream = stream_for_size(family, m, seed)
        run = replay(algorithm, stream)
        per_size.append({"m": m, "totals": run["totals"]})
    totals = [entry["totals"]["edges_touched"] for entry in per_size]
    return {
        "algorithm": algorithm,
        "family": family,
        "sizes": list(sizes),
        "per_size": per_size,
        "slope": round(fit_slope(sizes, totals), 4),
    }

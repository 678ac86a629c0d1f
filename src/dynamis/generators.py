"""Update-stream generators: adversarial worst cases and seeded random mixes.

The two adversarial families drive the eviction policies into their
worst-case regimes: ``arbitrary-removal`` makes first-endpoint eviction pay a
full neighbor scan on almost every insertion, ``degree-biased`` does the same
for lower-degree eviction by padding one side with high-degree anchors.  Both
are pure insertion streams organized in phases; vertex ids and endpoint
orderings are part of the contract because the eviction policies key off
them.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from math import isqrt

from .errors import GeneratorParameterError
from .stream import (
    DeleteEdge,
    DeleteVertex,
    InsertEdge,
    InsertVertex,
    QueryInMis,
    UpdateStream,
)

FAMILIES = (
    "arbitrary-removal",
    "degree-biased",
    "random-edges",
    "random-flow",
    "random-matching",
)


@dataclass
class GenSpec:
    family: str
    m: int = 0
    delta: int = 0
    n: int = 10
    events: int = 100
    seed: int = 0
    p_insert: float = 0.7
    query_rate: float = 0.0
    vertex_rate: float = 0.0

    def generate(self) -> UpdateStream:
        for name in ("p_insert", "query_rate", "vertex_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise GeneratorParameterError(f"{name} must lie in [0, 1], got {value}")
        if self.family == "arbitrary-removal":
            return gen_arbitrary_removal(self.m, self.delta)
        if self.family == "degree-biased":
            return gen_degree_biased(self.m)
        if self.family in ("random-edges", "random-matching"):
            return gen_random_edges(
                self.n, self.events, self.seed, self.p_insert, self.query_rate, self.vertex_rate
            )
        if self.family == "random-flow":
            return gen_random_flow(self.n, self.events, self.seed, self.p_insert)
        raise GeneratorParameterError(f"unknown family {self.family!r}")


def gen_arbitrary_removal(m: int, delta: int) -> UpdateStream:
    """Phased insertion stream defeating first-endpoint eviction.

    Block A (ids 0..k-1, k = m // delta) is knocked out of the maintained
    set one vertex at a time in each of the delta phases by edges listed
    A-vertex first.  Each phase closes with an edge from the phase anchor
    b_j to the fixed terminal vertex b_{delta+1}: that evicts b_j (listed
    first), readmits all of A at its current degree, and leaves b_j blocked
    by the terminal forever, so the next phase starts clean.  Anchor degrees
    are at most delta + 1 (k a-edges plus the terminal edge when k = delta).
    """
    if delta < 2:
        raise GeneratorParameterError("delta must be at least 2")
    if m < delta:
        raise GeneratorParameterError("need m >= delta for a nonempty A block")
    if m > delta * delta:
        raise GeneratorParameterError(f"m={m} exceeds delta^2={delta * delta}")
    k = m // delta
    stream = UpdateStream(n=k + delta + 1)
    terminal = k + delta  # b_{delta+1}
    for j in range(1, delta + 1):
        anchor = k + (j - 1)
        for i in range(k):
            stream.events.append(InsertEdge(i, anchor))
        stream.events.append(InsertEdge(anchor, terminal))
    return stream


def gen_degree_biased(m: int) -> UpdateStream:
    """Phased insertion stream defeating lower-degree eviction.

    Anchors b_1..b_t each get a private block of t+1 padding vertices and
    b_0 is wired to all padding, so every anchor outranks the A block by
    degree for the whole run; each phase therefore evicts all of A and then
    trades the phase anchor against b_0, which readmits A and leaves the
    anchor blocked by b_0.  Parameters are scaled so the stream consumes
    the whole edge budget: k = t is the largest value with 3t(t+1) <= m.
    """
    if m < 64:
        raise GeneratorParameterError("need m >= 64")
    t = isqrt(m // 3)
    while 3 * t * (t + 1) > m:
        t -= 1
    k = t
    s = t + 1
    b0 = k
    c_base = k + t + 1
    n = k + 1 + t + t * s
    stream = UpdateStream(n=n)
    for j in range(1, t + 1):
        anchor = k + j  # b_j
        for c in range(c_base + (j - 1) * s, c_base + j * s):
            stream.events.append(InsertEdge(anchor, c))
    for c in range(c_base, c_base + t * s):
        stream.events.append(InsertEdge(b0, c))
    for j in range(1, t + 1):
        anchor = k + j
        for i in range(k):
            stream.events.append(InsertEdge(i, anchor))
        stream.events.append(InsertEdge(anchor, b0))
    return stream


def _discard_sorted(seq: list, item) -> None:
    del seq[bisect_left(seq, item)]


def gen_random_edges(
    n: int,
    events: int,
    seed: int,
    p_insert: float = 0.7,
    query_rate: float = 0.0,
    vertex_rate: float = 0.0,
) -> UpdateStream:
    """Seeded mixed stream over an undirected shadow graph; always replayable."""
    if n < 2 or events < 0:
        raise GeneratorParameterError("need n >= 2 and events >= 0")
    rng = random.Random(seed)
    live: list[int] = list(range(n))
    next_id = n
    edges: set[tuple[int, int]] = set()
    edge_list: list[tuple[int, int]] = []  # sorted(edges), kept by bisect
    adj: dict[int, set[int]] = {v: set() for v in live}
    stream = UpdateStream(n=n)

    def random_non_edge() -> tuple[int, int] | None:
        for _ in range(40):
            u, v = rng.sample(live, 2)
            if u != v and (min(u, v), max(u, v)) not in edges:
                return (u, v)
        free = [
            (u, v)
            for i, u in enumerate(live)
            for v in live[i + 1 :]
            if (min(u, v), max(u, v)) not in edges
        ]
        return rng.choice(free) if free else None

    while len(stream.events) < events:
        r = rng.random()
        if r < query_rate and live:
            stream.events.append(QueryInMis(rng.choice(live)))
            continue
        if r < query_rate + vertex_rate:
            if rng.random() < 0.5 or len(live) <= 2:
                d = rng.randint(0, min(3, len(live)))
                nbrs = tuple(sorted(rng.sample(live, d)))
                stream.events.append(InsertVertex(nbrs))
                v = next_id
                next_id += 1
                adj[v] = set(nbrs)
                for w in nbrs:
                    adj[w].add(v)
                    e = (min(v, w), max(v, w))
                    edges.add(e)
                    insort(edge_list, e)
                live.append(v)
            else:
                v = rng.choice(live)
                stream.events.append(DeleteVertex(v))
                for w in adj[v]:
                    adj[w].discard(v)
                    e = (min(v, w), max(v, w))
                    edges.discard(e)
                    _discard_sorted(edge_list, e)
                del adj[v]
                live.remove(v)
            continue
        if (rng.random() < p_insert or not edges) and len(live) >= 2:
            pair = random_non_edge()
            if pair is None:
                if p_insert >= 1.0:
                    # saturated clique in insertion-only mode: grow instead
                    stream.events.append(InsertVertex(()))
                    v = next_id
                    next_id += 1
                    adj[v] = set()
                    live.append(v)
                    continue
                if not edges:
                    continue
            else:
                u, v = pair
                stream.events.append(InsertEdge(u, v))
                e = (min(u, v), max(u, v))
                edges.add(e)
                insort(edge_list, e)
                adj[u].add(v)
                adj[v].add(u)
                continue
        if edges:
            u, v = rng.choice(edge_list)
            stream.events.append(DeleteEdge(u, v))
            edges.discard((u, v))
            _discard_sorted(edge_list, (u, v))
            adj[u].discard(v)
            adj[v].discard(u)
    return stream


def gen_random_flow(n: int, events: int, seed: int, p_insert: float = 0.7) -> UpdateStream:
    """Seeded directed stream with source 0 and sink n-1."""
    if n < 2 or events < 0:
        raise GeneratorParameterError("need n >= 2 and events >= 0")
    rng = random.Random(seed)
    arcs: set[tuple[int, int]] = set()
    arc_list: list[tuple[int, int]] = []  # sorted(arcs), kept by bisect
    stream = UpdateStream(n=n, flow=(0, n - 1))
    while len(stream.events) < events:
        if rng.random() < p_insert or not arcs:
            placed = False
            for _ in range(40):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v and (u, v) not in arcs:
                    stream.events.append(InsertEdge(u, v))
                    arcs.add((u, v))
                    insort(arc_list, (u, v))
                    placed = True
                    break
            if placed:
                continue
            if p_insert >= 1.0:
                free = [
                    (u, v)
                    for u in range(n)
                    for v in range(n)
                    if u != v and (u, v) not in arcs
                ]
                if not free:
                    break  # saturated in insertion-only mode: stop short
                u, v = rng.choice(free)
                stream.events.append(InsertEdge(u, v))
                arcs.add((u, v))
                insort(arc_list, (u, v))
                continue
        if arcs:
            u, v = rng.choice(arc_list)
            stream.events.append(DeleteEdge(u, v))
            arcs.discard((u, v))
            _discard_sorted(arc_list, (u, v))
    return stream

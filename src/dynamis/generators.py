"""Update-stream generators: adversarial worst cases and seeded random mixes.

Every stream is a pure function of its family, parameters and seed: the same
``GenSpec`` gives the same events, and so the same stream text, on every run.

``FAMILIES``, at the end of the module, is the one place to add a family: a
row names its generator and the ``GenSpec`` fields it reads.

The two adversarial families drive the eviction policies into their
worst-case regimes: ``arbitrary-removal`` makes first-endpoint eviction pay a
full neighbor scan on almost every insertion, ``degree-biased`` does the same
for lower-degree eviction by padding one side with high-degree anchors.  Both
are pure insertion streams organized in phases; vertex ids and endpoint
orderings are part of the contract because the eviction policies key off
them.

The random families draw from one ``random.Random(seed)``.  Apart from the
rare ``rng.sample`` of a new vertex's neighbours, their integer draws go
through one helper, ``_draws``, whose ``below`` and ``two`` make exactly the
``getrandbits`` calls that ``randrange``/``choice`` and ``sample(seq, 2)``
make, so the streams are those of the plain ``random`` calls at a fraction of
the interpreter steps.  A deleted edge is drawn by index from a sorted list of
the live edges, kept by bisect; insertion-only streams (``p_insert >= 1``)
never delete an edge and keep no sorted list.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from functools import cache
from inspect import signature
from math import isqrt
from typing import Callable

from .errors import GeneratorParameterError
from .stream import DeleteEdge, DeleteVertex, InsertEdge, InsertVertex, QueryInMis, UpdateStream


@dataclass
class GenSpec:
    """A family and the fields it reads; a field left at None takes the generator's default."""

    family: str
    m: int | None = None
    delta: int | None = None
    n: int | None = None
    events: int | None = None
    seed: int | None = None
    p_insert: float | None = None
    query_rate: float | None = None
    vertex_rate: float | None = None

    def generate(self) -> UpdateStream:
        for name in ("p_insert", "query_rate", "vertex_rate"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise GeneratorParameterError(f"{name} must lie in [0, 1], got {value}")
        if self.family not in FAMILIES:
            raise GeneratorParameterError(f"unknown family {self.family!r}")
        gen, reads = FAMILIES[self.family]
        given = {f.name: getattr(self, f.name) for f in fields(self)[1:] if getattr(self, f.name) is not None}
        for name in given:
            if name not in reads:
                readers = [family for family, (_, names) in FAMILIES.items() if name in names]
                raise GeneratorParameterError(f"{name} applies to {_and(readers)} only, not {self.family}")
        missing = [k for k, p in _signature(gen).parameters.items() if p.default is p.empty and k not in given]
        if missing:
            raise GeneratorParameterError(f"{self.family} needs {_and(missing)}")
        return gen(**given)


_signature = cache(signature)  # one inspection per generator, not one per generate


def _and(names: list[str]) -> str:  # a; a and b; a, b and c
    return names[-1] if len(names) == 1 else f"{', '.join(names[:-1])} and {names[-1]}"


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
    events, new = stream.events, tuple.__new__
    for j in range(1, delta + 1):
        anchor = k + (j - 1)
        events.extend([new(InsertEdge, (i, anchor)) for i in range(k)])
        events.append(new(InsertEdge, (anchor, terminal)))
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
    events, new = stream.events, tuple.__new__
    for j in range(1, t + 1):
        anchor = k + j  # b_j
        events.extend([new(InsertEdge, (anchor, c)) for c in range(c_base + (j - 1) * s, c_base + j * s)])
    events.extend([new(InsertEdge, (b0, c)) for c in range(c_base, c_base + t * s)])
    for j in range(1, t + 1):
        anchor = k + j
        events.extend([new(InsertEdge, (i, anchor)) for i in range(k)])
        events.append(new(InsertEdge, (anchor, b0)))
    return stream


_TRIES = range(40)  # random draws per insertion before listing every free pair


def _draws(rng: random.Random) -> tuple[Callable[[int], int], Callable[[list], tuple]]:
    """``below(n)`` and ``two(seq)``, draw for draw equal to ``rng.randrange(n)``
    and ``rng.sample(seq, 2)``.

    Both repeat ``Random._randbelow`` (which ``randrange``, ``randint``,
    ``choice`` and ``sample`` call) on the public ``rng.getrandbits``: draw
    ``n.bit_length()`` bits until the value is below n.  ``two`` follows
    ``sample``'s two branches for k = 2: a pool of ``seq`` up to 21 items,
    rejection of a repeated index above that.  n must be at least 1, and
    ``len(seq)`` at least 2.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def two(seq: list) -> tuple:
        n = len(seq)
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        if n <= 21:
            # the pool branch: seq[i] is replaced by the last item, then one
            # of the first n - 1 is drawn
            last = n - 1
            k = last.bit_length()
            j = getrandbits(k)
            while j >= last:
                j = getrandbits(k)
            return seq[i], seq[last if j == i else j]
        j = getrandbits(k)
        while j >= n or j == i:
            j = getrandbits(k)
        return seq[i], seq[j]

    return below, two


def gen_random_edges(
    n: int = 10,
    events: int = 100,
    seed: int = 0,
    p_insert: float = 0.7,
    query_rate: float = 0.0,
    vertex_rate: float = 0.0,
) -> UpdateStream:
    """Seeded mixed stream over an undirected shadow graph; always replayable."""
    if n < 2 or events < 0:
        raise GeneratorParameterError("need n >= 2 and events >= 0")
    rng = random.Random(seed)
    below, two = _draws(rng)
    draw = rng.random
    insertion_only = p_insert >= 1.0  # then no edge is ever deleted
    live: list[int] = list(range(n))
    next_id = n
    edges: set[tuple[int, int]] = set()
    edge_list: list[tuple[int, int]] = []  # sorted(edges), kept by bisect unless insertion_only
    adj: dict[int, set[int]] = {v: set() for v in live}
    stream = UpdateStream(n=n)
    out = stream.events
    append = out.append
    new = tuple.__new__

    while len(out) < events:
        r = draw()
        if r < query_rate and live:
            append(new(QueryInMis, (live[below(len(live))],)))
            continue
        if r < query_rate + vertex_rate:
            if draw() < 0.5 or len(live) <= 2:
                d = below(min(3, len(live)) + 1)
                nbrs = tuple(sorted(rng.sample(live, d)))
                append(new(InsertVertex, (nbrs,)))
                v = next_id
                next_id += 1
                adj[v] = set(nbrs)
                for w in nbrs:
                    adj[w].add(v)
                    e = (w, v)  # w < v: v is the largest id so far
                    edges.add(e)
                    if not insertion_only:
                        insort(edge_list, e)
                live.append(v)
            else:
                v = live.pop(below(len(live)))
                append(new(DeleteVertex, (v,)))
                for w in adj.pop(v):
                    adj[w].discard(v)
                    e = (w, v) if w < v else (v, w)
                    edges.remove(e)
                    if not insertion_only:
                        del edge_list[bisect_left(edge_list, e)]
            continue
        if (draw() < p_insert or not edges) and len(live) >= 2:
            for _ in _TRIES:
                u, v = two(live)
                e = (u, v) if u < v else (v, u)
                if e not in edges:
                    break
            else:
                # live is increasing, so every listed pair is ordered
                free = [(u, v) for i, u in enumerate(live) for v in live[i + 1 :] if (u, v) not in edges]
                if free:
                    u, v = e = free[below(len(free))]
                elif insertion_only:
                    # saturated clique in insertion-only mode: grow instead
                    append(new(InsertVertex, ((),)))
                    adj[next_id] = set()
                    live.append(next_id)
                    next_id += 1
                    continue
                else:
                    e = None
            if e is not None:
                append(new(InsertEdge, (u, v)))
                edges.add(e)
                if not insertion_only:
                    insort(edge_list, e)
                adj[u].add(v)
                adj[v].add(u)
                continue
        if edges:
            e = edge_list.pop(below(len(edge_list)))
            append(new(DeleteEdge, e))
            edges.remove(e)
            u, v = e
            adj[u].discard(v)
            adj[v].discard(u)
    return stream


def gen_random_flow(n: int = 10, events: int = 100, seed: int = 0, p_insert: float = 0.7) -> UpdateStream:
    """Seeded directed stream with source 0 and sink n-1."""
    if n < 2 or events < 0:
        raise GeneratorParameterError("need n >= 2 and events >= 0")
    rng = random.Random(seed)
    below, _ = _draws(rng)
    draw = rng.random
    insertion_only = p_insert >= 1.0  # then no arc is ever deleted
    arcs: set[tuple[int, int]] = set()
    arc_list: list[tuple[int, int]] = []  # sorted(arcs), kept by bisect unless insertion_only
    stream = UpdateStream(n=n, flow=(0, n - 1))
    out = stream.events
    append = out.append
    new = tuple.__new__
    while len(out) < events:
        if draw() < p_insert or not arcs:
            for _ in _TRIES:
                arc = (below(n), below(n))
                if arc[0] != arc[1] and arc not in arcs:
                    break
            else:
                arc = None
                if insertion_only:
                    free = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in arcs]
                    if not free:
                        break  # saturated in insertion-only mode: stop short
                    arc = free[below(len(free))]
            if arc is not None:
                append(new(InsertEdge, arc))
                arcs.add(arc)
                if not insertion_only:
                    insort(arc_list, arc)
                continue
        if arcs:
            arc = arc_list.pop(below(len(arc_list)))
            append(new(DeleteEdge, arc))
            arcs.remove(arc)
    return stream


FAMILIES: dict[str, tuple[Callable[..., UpdateStream], tuple[str, ...]]] = {
    "arbitrary-removal": (gen_arbitrary_removal, ("m", "delta")),
    "degree-biased": (gen_degree_biased, ("m",)),
    "random-edges": (gen_random_edges, ("n", "events", "seed", "p_insert", "query_rate", "vertex_rate")),
    "random-flow": (gen_random_flow, ("n", "events", "seed", "p_insert")),
    "random-matching": (gen_random_edges, ("n", "events", "seed", "p_insert", "query_rate", "vertex_rate")),
}

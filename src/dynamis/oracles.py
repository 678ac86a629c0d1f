"""Independent reference implementations used as ground truth.

Nothing here shares code with the dynamic modules it validates.
``dynamis run --verify`` calls ``is_mis``, ``static_max_flow`` and (through
the matching audits) ``static_max_matching`` after every event, so those
three are kept cheap.  ``static_max_flow`` computes its answer from
scratch.  ``static_max_matching`` takes an optional start, the module's own
matching, and searches on from it when it is a valid matching: a maximum
start then costs about one pass over the graph instead of a full
recomputation, while any start, or none, still yields the exact optimum, so
a module whose matching is valid but short of the optimum fails the check.  The
enumerations (``min_cut_enumerate``, ``exhaustive_max_matching``) are
exponential and only cross-check the other oracles in tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence


@dataclass
class OracleReport:
    ok: bool
    detail: str = ""


def is_mis(adj: Mapping[int, set[int]], mis: set[int]) -> OracleReport:
    """Check independence and maximality of ``mis`` against adjacency ``adj``."""
    for v in mis:
        if v not in adj:
            return OracleReport(False, f"{v} is not a live vertex")
        if not adj[v].isdisjoint(mis):
            return OracleReport(False, f"edge inside the set: ({v},{min(adj[v] & mis)})")
    for v in adj:
        if v not in mis and adj[v].isdisjoint(mis):
            return OracleReport(False, f"vertex {v} outside the set has no neighbor in it")
    return OracleReport(True)


def static_mis(adj: Mapping[int, set[int]], order: Sequence[int] | None = None) -> set[int]:
    """Greedy MIS in the given vertex order (ascending id by default)."""
    mis: set[int] = set()
    for v in sorted(adj) if order is None else order:
        if not (adj[v] & mis):
            mis.add(v)
    return mis


# -- unit-capacity max flow ----------------------------------------------


def static_max_flow(vertices: Iterable[int], edges: Iterable[tuple[int, int]], s: int, t: int) -> int:
    """Max-flow value by repeated augmenting BFS from scratch (unit capacities).

    ``res[u][v]`` is the residual capacity of arc u->v.  A reverse arc gets
    its entry when flow first crosses its edge, so building the map costs one
    lookup per edge and a BFS scans one dict per vertex.
    """
    res: dict[int, dict[int, int]] = {v: {} for v in vertices}
    for u, v in edges:
        out = res[u]
        out[v] = out.get(v, 0) + 1
    if s == t or s not in res or t not in res:
        return 0
    value = 0
    while True:
        prev: dict[int, int] = {s: s}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for v, c in res[u].items():
                if c and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if t not in prev:
            return value
        v = t
        while v != s:
            u = prev[v]
            res[u][v] -= 1
            back = res[v]
            back[u] = back.get(u, 0) + 1
            v = u
        value += 1


def min_cut_enumerate(vertices: Iterable[int], edges: Iterable[tuple[int, int]], s: int, t: int) -> int:
    """Minimum s-t cut by enumerating all vertex bipartitions (tiny nets only)."""
    others = [v for v in vertices if v not in (s, t)]
    edge_list = list(edges)
    best = len(edge_list)
    for r in range(len(others) + 1):
        for side in combinations(others, r):
            src = set(side) | {s}
            best = min(best, sum(1 for u, v in edge_list if u in src and v not in src))
    return best


# -- maximum cardinality matching ----------------------------------------


def static_max_matching(adj: Mapping[int, set[int]], start: Mapping[int, int] | None = None) -> int:
    """Maximum matching cardinality via static blossom-contraction searches.

    The searches begin from ``start`` if it is a matching of ``adj`` (a
    symmetric mate map along edges) and from the empty matching otherwise,
    extended greedily to a maximal one.  Then one search runs from each
    vertex still free.  By Edmonds' theorem a vertex with no augmenting path
    never gains one after later augmentations.  The tree of a failed search
    is Hungarian (Edmonds 1965): no edge joins one of its even vertices to a
    vertex outside it, so no later augmenting path passes through it, and its
    vertices are skipped from then on.  A maximum start therefore costs about
    one pass over the graph.
    """
    mate: dict[int, int] = {}
    if start:
        for x, y in start.items():
            if start.get(y) != x or x not in adj or y not in adj[x]:
                break
        else:
            mate.update(start)
    for v in adj:
        if v not in mate:
            for w in adj[v]:
                if w not in mate:
                    mate[v] = w
                    mate[w] = v
                    break
    dead: set[int] = set()  # vertices of failed searches' trees

    def search(root: int) -> None:
        """Flip an augmenting path from the free ``root``, or retire its tree."""
        # ``base`` maps every tree vertex to its blossom's base; ``parent``
        # links an odd vertex to the even one it hangs from, and an even
        # vertex on a contracted cycle to its neighbour across the cycle
        base = {root: root}
        parent: dict[int, int] = {}
        even = {root}
        queue = deque([root])

        def lca(a: int, b: int) -> int:
            seen = set()
            while True:
                a = base[a]
                seen.add(a)
                if a not in mate:
                    break
                a = parent[mate[a]]
            while True:
                b = base[b]
                if b in seen:
                    return b
                b = parent[mate[b]]

        def mark_path(blossom: set[int], v: int, b: int, child: int) -> None:
            while base[v] != b:
                blossom.add(base[v])
                blossom.add(base[mate[v]])
                parent[v] = child
                child = mate[v]
                v = parent[mate[v]]

        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if to in dead or base[v] == base.get(to) or mate.get(v) == to:
                    continue
                if to == root or (to in mate and mate[to] in parent):
                    cur = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(blossom, v, cur, to)
                    mark_path(blossom, to, cur, v)
                    for i, b in base.items():
                        if b in blossom:
                            base[i] = cur
                            if i not in even:
                                even.add(i)
                                queue.append(i)
                elif to not in parent:
                    parent[to] = v
                    if to not in mate:
                        w: int | None = to
                        while w is not None:
                            pw = parent[w]
                            nxt = mate.get(pw)
                            mate[w] = pw
                            mate[pw] = w
                            w = nxt
                        return
                    m = mate[to]
                    base[to] = to
                    base[m] = m
                    even.add(m)
                    queue.append(m)
        dead.update(base)

    for v in adj:
        if v not in mate and v not in dead and adj[v]:
            search(v)
    return len(mate) // 2


def exhaustive_max_matching(adj: Mapping[int, set[int]]) -> int:
    """Exact maximum matching by branching on the lowest free vertex (n <= ~12)."""
    ids = sorted(adj)

    def recurse(i: int, used: set[int]) -> int:
        while i < len(ids) and ids[i] in used:
            i += 1
        if i == len(ids):
            return 0
        v = ids[i]
        best = recurse(i + 1, used)
        for w in adj[v]:
            if w > v and w not in used:
                used.add(v)
                used.add(w)
                best = max(best, 1 + recurse(i + 1, used))
                used.discard(v)
                used.discard(w)
        return best

    return recurse(0, set())

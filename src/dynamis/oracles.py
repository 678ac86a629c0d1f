"""Independent reference implementations used as ground truth.

Nothing here shares code with the dynamic modules it validates.
``dynamis run --verify`` calls ``is_mis``, ``static_max_flow`` and (through
the matching audits) ``static_max_matching`` after every event, so those
three are kept cheap while still computing every answer from scratch.  The
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


def static_max_matching(adj: Mapping[int, set[int]]) -> int:
    """Maximum matching cardinality via a static blossom-contraction search.

    A greedy maximal matching seeds the searches.  By Edmonds' theorem a
    vertex with no augmenting path from it never gains one after later
    augmentations, so one search per vertex still free is enough.
    """
    ids = sorted(adj)
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    nbrs = [[index[w] for w in adj[v]] for v in ids]
    match = [-1] * n

    def lca(base: list[int], p: list[int], a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(base: list[int], p: list[int], blossom: list[bool], v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in nbrs[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(base, p, v, to)
                    blossom = [False] * n
                    mark_path(base, p, blossom, v, cur, to)
                    mark_path(base, p, blossom, to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        w = to
                        while w != -1:
                            pw = p[w]
                            nxt = match[pw]
                            match[w] = pw
                            match[pw] = w
                            w = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    size = 0
    for v in range(n):
        if match[v] == -1:
            for w in nbrs[v]:
                if match[w] == -1:
                    match[v], match[w] = w, v
                    size += 1
                    break
    for v in range(n):
        if match[v] == -1 and nbrs[v] and find_path(v):
            size += 1
    return size


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

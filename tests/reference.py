"""Exponential brute-force references that cross-check the static oracles.

They enumerate, so they serve only tiny graphs, and only tests call them.
Like ``dynamis.oracles`` they import nothing from ``dynamis``, so a fault in
the package cannot leak into the answer they give.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping


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

"""Dynamic undirected simple graph with adjacency sets and degree tracking."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import (
    DuplicateNeighborError,
    MissingEdgeError,
    ParallelEdgeError,
    SelfLoopError,
    UnknownVertexError,
)


class DynGraph:
    """Undirected simple graph under fully dynamic updates.

    Vertex ids are dense non-negative integers; deleted ids are retired and
    never reused within one run, so replaying a stream is deterministic.
    Algorithms may therefore keep per-vertex state in lists of length
    ``id_bound``, indexed by id.
    """

    def __init__(self, n: int = 0):
        self.adj: dict[int, set[int]] = {i: set() for i in range(n)}
        self.m = 0
        self._next_id = n

    # -- queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def id_bound(self) -> int:
        """One past the largest id issued so far; every live id is below it."""
        return self._next_id

    def vertices(self) -> Iterator[int]:
        return iter(self.adj)

    # -- updates ---------------------------------------------------------

    # The edge updates look each endpoint up once and name the unknown one
    # through _require only after a lookup misses.

    def insert_edge(self, u: int, v: int) -> None:
        if u == v:
            raise SelfLoopError(f"self-loop at {u}")
        nu, nv = self.adj.get(u), self.adj.get(v)
        if nu is None or nv is None:
            self._require(u)
            self._require(v)
        if v in nu:
            raise ParallelEdgeError(f"edge ({u},{v}) already present")
        nu.add(v)
        nv.add(u)
        self.m += 1

    def delete_edge(self, u: int, v: int) -> None:
        nu, nv = self.adj.get(u), self.adj.get(v)
        if nu is None or nv is None:
            self._require(u)
            self._require(v)
        if v not in nu:
            raise MissingEdgeError(f"edge ({u},{v}) not present")
        nu.discard(v)
        nv.discard(u)
        self.m -= 1

    def insert_vertex(self, neighbors: Iterable[int] = ()) -> int:
        nbrs = list(neighbors)
        if len(set(nbrs)) != len(nbrs):
            raise DuplicateNeighborError(f"duplicate neighbors in {nbrs}")
        for w in nbrs:
            self._require(w)
        v = self._next_id
        self._next_id += 1
        self.adj[v] = set()
        for w in nbrs:
            self.adj[v].add(w)
            self.adj[w].add(v)
        self.m += len(nbrs)
        return v

    def delete_vertex(self, v: int) -> None:
        self._require(v)
        for w in self.adj[v]:
            self.adj[w].discard(v)
        self.m -= len(self.adj[v])
        del self.adj[v]

    def _require(self, v: int) -> None:
        if v not in self.adj:
            raise UnknownVertexError(f"vertex {v} is not live")

"""Count-based maximal independent set maintenance under all update types.

Every vertex carries the number of its neighbors currently in the maintained
set M.  A vertex outside M with count zero is always admitted; on an edge
insertion joining two members, one endpoint is evicted according to the
configured removal policy and the freed neighbors are re-admitted in
ascending id order.  The meter additionally tracks the potential
sum-of-degrees-outside-M used by the amortized accounting.

The counts live in a list indexed by vertex id, of length ``g.id_bound``:
ids are dense and never reused, so a vertex insertion appends its count and
a deletion zeroes its slot.  Dead ids hold 0 and are never read.
"""

from __future__ import annotations

from enum import Enum
from itertools import filterfalse
from typing import Iterable

from ..errors import IncompatibleStreamError
from ..graph import DynGraph
from ..meter import AdjustmentLog, CostMeter
from ..stream import DeleteEdge, DeleteVertex, InsertEdge, InsertVertex, QueryInMis, UpdateEvent


class RemovalPolicy(Enum):
    FIRST_ENDPOINT = "first-endpoint"
    LOWER_DEGREE = "lower-degree"


class SimpleMis:
    def __init__(self, g: DynGraph, policy: RemovalPolicy = RemovalPolicy.FIRST_ENDPOINT):
        self.g = g
        self.policy = policy
        self.meter = CostMeter()
        self.in_M: set[int] = set()
        self.count: list[int] = [0] * g.id_bound
        for v in sorted(g.vertices()):
            if self.count[v] == 0:
                self.in_M.add(v)
                for w in g.adj[v]:
                    self.count[w] += 1
                self.meter.touch(len(g.adj[v]))
        self.meter.potential = sum(len(g.adj[v]) for v in g.vertices() if v not in self.in_M)

    # -- public surface --------------------------------------------------

    def contains(self, v: int) -> bool:
        self.g._require(v)
        return v in self.in_M

    def mis(self) -> set[int]:
        return set(self.in_M)

    def apply(self, event: UpdateEvent) -> AdjustmentLog:
        if isinstance(event, QueryInMis):
            raise IncompatibleStreamError("queries are not updates; read membership directly")
        # each handler begins the operation once the graph accepts the event,
        # so a rejected event leaves the meter as it was
        log = AdjustmentLog()
        if isinstance(event, InsertEdge):
            self._insert_edge(event.u, event.v, log)
        elif isinstance(event, DeleteEdge):
            self._delete_edge(event.u, event.v, log)
        elif isinstance(event, InsertVertex):
            self._insert_vertex(event.neighbors, log)
        else:
            self._delete_vertex(event.v, log)
        self.meter.updates += 1
        log.edges_touched = self.meter.op_edges_touched
        self.meter.end_op()
        return log

    def verify(self) -> bool:
        """Full-rescan audit: independence, maximality, counts, potential."""
        if len(self.count) != self.g.id_bound:
            return False
        for v in self.g.vertices():
            if self.count[v] != len(self.g.adj[v] & self.in_M):
                return False
            if v in self.in_M and self.count[v] != 0:
                return False
            if v not in self.in_M and self.count[v] == 0:
                return False
        recomputed = sum(len(self.g.adj[v]) for v in self.g.vertices() if v not in self.in_M)
        return recomputed == self.meter.potential

    # -- event handlers --------------------------------------------------

    def _insert_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.insert_edge(u, v)
        self.meter.begin_op()
        if u not in self.in_M:
            self.meter.potential += 1
        if v not in self.in_M:
            self.meter.potential += 1
        if u in self.in_M:
            self.count[v] += 1
        if v in self.in_M:
            self.count[u] += 1
        if u in self.in_M and v in self.in_M:
            victim = self._pick_victim(u, v)
            self._leave(victim, log)
            self._admit_zeros(self.g.adj[victim], log)

    def _delete_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.delete_edge(u, v)
        self.meter.begin_op()
        if u not in self.in_M:
            self.meter.potential -= 1
        if v not in self.in_M:
            self.meter.potential -= 1
        if u in self.in_M and v not in self.in_M:
            self.count[v] -= 1
            if self.count[v] == 0:
                self._enter(v, log)
        elif v in self.in_M and u not in self.in_M:
            self.count[u] -= 1
            if self.count[u] == 0:
                self._enter(u, log)

    def _insert_vertex(self, neighbors: tuple[int, ...], log: AdjustmentLog) -> int:
        v = self.g.insert_vertex(neighbors)
        self.meter.begin_op()
        inside = sum(1 for w in neighbors if w in self.in_M)
        self.count.append(inside)
        self.meter.touch(len(neighbors))
        self.meter.potential += len(neighbors)
        self.meter.potential += sum(1 for w in neighbors if w not in self.in_M)
        if inside == 0:
            self._enter(v, log)
        return v

    def _delete_vertex(self, v: int, log: AdjustmentLog) -> None:
        self.g._require(v)
        self.meter.begin_op()
        was_member = v in self.in_M
        nbrs = sorted(self.g.adj[v])
        if not was_member:
            self.meter.potential -= len(nbrs)
        self.meter.potential -= sum(1 for w in nbrs if w not in self.in_M)
        self.g.delete_vertex(v)
        count = self.count
        count[v] = 0
        self.meter.touch(len(nbrs))  # the walk over v's neighbours, member or not
        if was_member:
            self.in_M.discard(v)
            self.meter.adjust()
            log.leave(v)
            for w in nbrs:
                count[w] -= 1
            self._admit_zeros(nbrs, log)

    # -- internals -------------------------------------------------------

    def _pick_victim(self, u: int, v: int) -> int:
        if self.policy is RemovalPolicy.FIRST_ENDPOINT:
            return u
        du, dv = len(self.g.adj[u]), len(self.g.adj[v])
        if du != dv:
            return u if du < dv else v
        return max(u, v)

    def _leave(self, v: int, log: AdjustmentLog) -> None:
        self.in_M.discard(v)
        self.meter.adjust()
        log.leave(v)
        nbrs, count = self.g.adj[v], self.count
        self.meter.potential += len(nbrs)
        for w in nbrs:
            count[w] -= 1
        self.meter.touch(len(nbrs))

    def _enter(self, v: int, log: AdjustmentLog) -> None:
        self.in_M.add(v)
        self.meter.adjust()
        log.enter(v)
        nbrs, count = self.g.adj[v], self.count
        self.meter.potential -= len(nbrs)
        for w in nbrs:
            count[w] += 1
        self.meter.touch(len(nbrs))

    def _admit_zeros(self, candidates: Iterable[int], log: AdjustmentLog) -> None:
        # Candidates are live.  An entry only raises counts, so only those at
        # count zero now can enter; they are re-checked in id order.
        count, in_M = self.count, self.in_M
        for w in sorted(filterfalse(count.__getitem__, candidates)):
            if count[w] == 0 and w not in in_M:
                self._enter(w, log)

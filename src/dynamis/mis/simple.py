"""Count-based maximal independent set maintenance under all update types.

Every vertex carries the number of its neighbors currently in the maintained
set M.  A vertex outside M with count zero is always admitted; on an edge
insertion joining two members, one endpoint is evicted according to the
configured removal policy and the freed neighbors are re-admitted in
ascending id order.  The counts and the admission are the shared
``CountMaintainer``, run here on the whole graph.
"""

from __future__ import annotations

from enum import Enum

from ..graph import DynGraph
from ..meter import AdjustmentLog, CostMeter
from .base import CountMaintainer, UpdateLoop


class RemovalPolicy(Enum):
    FIRST_ENDPOINT = "first-endpoint"
    LOWER_DEGREE = "lower-degree"


class SimpleMis(CountMaintainer):
    def __init__(self, g: DynGraph, policy: RemovalPolicy = RemovalPolicy.FIRST_ENDPOINT):
        self.g = g
        self.policy = policy
        self.meter = CostMeter()
        self.in_M: set[int] = set()
        self.count: list[int] = [0] * g.id_bound
        self._greedy(sorted(g.vertices()))

    # -- public surface --------------------------------------------------

    def contains(self, v: int) -> bool:
        self.g._require(v)
        return v in self.in_M

    def mis(self) -> set[int]:
        return set(self.in_M)

    apply = UpdateLoop.apply

    def verify(self) -> bool:
        """Full-rescan audit: independence, maximality, counts."""
        return self._audit_counts()

    # -- event handlers --------------------------------------------------

    def _insert_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.insert_edge(u, v)
        self.meter.begin_op()
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
        if u in self.in_M and v not in self.in_M:
            self.count[v] -= 1
            if self.count[v] == 0:
                self._enter(v, log)
        elif v in self.in_M and u not in self.in_M:
            self.count[u] -= 1
            if self.count[u] == 0:
                self._enter(u, log)

    def _insert_vertex(self, neighbors: tuple[int, ...], log: AdjustmentLog) -> None:
        v = self._insert_counted(neighbors)
        if self.count[v] == 0:
            self._enter(v, log)

    def _delete_vertex(self, v: int, log: AdjustmentLog) -> None:
        # only v's neighbours can reach count zero, and only if v was a member
        self._admit_zeros(self._delete_counted(v, log), log)

    # -- internals -------------------------------------------------------

    def _pick_victim(self, u: int, v: int) -> int:
        if self.policy is RemovalPolicy.FIRST_ENDPOINT:
            return u
        du, dv = len(self.g.adj[u]), len(self.g.adj[v])
        if du != dv:
            return u if du < dv else v
        return max(u, v)

"""The update loop and the count maintainer that the MIS algorithms share.

``UpdateLoop.apply`` rejects queries, hands each update to the class's four
handlers, counts it, and then calls the class's ``_settle(log)`` for the
work an update leaves behind (mis-2level's heavy MIS and phase check,
mis-implicit's candidate step and epoch check).  Each handler begins the
metered operation once the graph accepts the event, so a rejected event
leaves the meter as it was.

``CountMaintainer`` is the count-based maintainer of the paper: a set
``in_M`` and, for every vertex, the number ``count`` of its neighbours in
``in_M``.  A vertex outside ``in_M`` with count zero is admitted; admission
re-checks the candidates at count zero in ascending id order.  mis-simple
and mis-inc run it on the whole graph, and mis-2level's light level is the
same maintainer with heavy vertices kept out.

``count`` is a list indexed by vertex id, of length ``g.id_bound``: ids are
dense and never reused, so a vertex insertion appends its count and a
deletion zeroes its slot.  Dead ids hold 0 and are never read.

The benchmark's tracer wraps a method only on the class that defines it, so
each algorithm binds the loop in its own namespace: ``apply =
UpdateLoop.apply``.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import AbstractSet, Iterable

from ..errors import IncompatibleStreamError
from ..graph import DynGraph
from ..meter import AdjustmentLog, CostMeter
from ..stream import DeleteEdge, InsertEdge, InsertVertex, QueryInMis, UpdateEvent


class UpdateLoop:
    g: DynGraph
    meter: CostMeter

    def apply(self, event: UpdateEvent) -> AdjustmentLog:
        if isinstance(event, QueryInMis):
            raise IncompatibleStreamError("queries are not updates; ask the algorithm's membership query")
        log = AdjustmentLog()
        if isinstance(event, InsertEdge):
            self._insert_edge(event.u, event.v, log)
        elif isinstance(event, DeleteEdge):
            self._delete_edge(event.u, event.v, log)
        elif isinstance(event, InsertVertex):
            self._insert_vertex(event.neighbors, log)
        else:
            self._delete_vertex(event.v, log)
        meter = self.meter
        meter.updates += 1
        self._settle(log)
        log.edges_touched = meter.op_edges_touched
        meter.end_op()
        return log

    def _settle(self, log: AdjustmentLog) -> None:
        """Work that follows every update; none by default."""


class CountMaintainer(UpdateLoop):
    in_M: set[int]
    count: list[int]

    def _greedy(self, vertices: Iterable[int]) -> None:
        """Adds each of ``vertices`` at count zero, in the given order; no adjustment is counted."""
        adj, count, in_M = self.g.adj, self.count, self.in_M
        touched = 0
        for v in vertices:
            if count[v] == 0:
                in_M.add(v)
                for w in adj[v]:
                    count[w] += 1
                touched += len(adj[v])
        self.meter.touch(touched)

    def _audit_counts(self, outside: AbstractSet[int] = frozenset()) -> bool:
        """Full rescan of the counts; ``in_M`` is an MIS of the live vertices not in ``outside``."""
        g, count, in_M = self.g, self.count, self.in_M
        if len(count) != g.id_bound or not in_M.isdisjoint(outside):
            return False
        for v in g.vertices():
            if count[v] != len(g.adj[v] & in_M):
                return False
            if v not in outside and (v in in_M) != (count[v] == 0):
                return False
        return True

    def _insert_counted(self, neighbors: tuple[int, ...]) -> int:
        """Inserts a vertex and appends its count; admitting it is the caller's."""
        v = self.g.insert_vertex(neighbors)
        self.meter.begin_op()
        in_M = self.in_M
        self.count.append(sum(1 for w in neighbors if w in in_M))
        self.meter.touch(len(neighbors))
        return v

    def _delete_counted(self, v: int, log: AdjustmentLog) -> set[int]:
        """Deletes ``v``, first out of ``in_M``; returns its former neighbours, none admitted yet."""
        self.g._require(v)
        self.meter.begin_op()
        nbrs = self.g.adj[v]  # the set outlives v's deletion from the graph
        # the walk over v's neighbours costs deg v once, charged by the leave
        # when v is a member
        if v in self.in_M:
            self._leave(v, log)
        else:
            self.meter.touch(len(nbrs))
        self.g.delete_vertex(v)
        self.count[v] = 0
        return nbrs

    def _leave(self, v: int, log: AdjustmentLog) -> None:
        self.in_M.discard(v)
        self.meter.adjust()
        log.leave(v)
        nbrs, count = self.g.adj[v], self.count
        for w in nbrs:
            count[w] -= 1
        self.meter.touch(len(nbrs))

    def _enter(self, v: int, log: AdjustmentLog) -> None:
        self.in_M.add(v)
        self.meter.adjust()
        log.enter(v)
        nbrs, count = self.g.adj[v], self.count
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

"""The update loop, the query operation and the count maintainer the MIS algorithms share.

``UpdateLoop.apply`` rejects queries, hands each update to the class's four
handlers, counts it, and then calls the class's ``_settle(changes)`` for the
work an update leaves behind (mis-2level's heavy MIS and phase check,
mis-implicit's candidate step and epoch check).  The handlers append
("leave", v) and ("enter", v) to the plain list ``changes``, which is the
one record of what the update changed: ``apply`` counts one adjustment per
entry, then wraps the list in an ``AdjustmentLog``, or returns the shared
``QUIET_LOG`` when the update changed nothing.  What the update cost is the
meter's alone: the loop reads the meter's totals before it dispatches and
closes the operation after ``_settle``, so ``op_edges_touched`` is the
handler's work plus its settling.  A handler that rejects the event raises
before it writes anything, and the meter is left as it was.
``UpdateLoop._query_op`` is the In-MIS query, one operation in the same way:
it checks the vertex, counts the query, asks the class's ``_query(v)`` and
closes the operation; mis-implicit's query admission changes the set
without a log, so it counts its own adjustment.

``CountMaintainer`` is the count-based maintainer of the paper, written once
for mis-simple, mis-inc and mis-2level.  It keeps a light level and a heavy
level.  The light level is a set ``in_M`` and, for every vertex, the number
``count`` of its neighbours in ``in_M``; a light vertex outside ``in_M``
with count zero is admitted.  A leave from ``in_M`` hands over the
neighbours whose count it brought to zero, collected in its decrement loop,
and admission re-checks only those, in ascending id order.  The heavy level
is the set ``heavy`` of vertices of degree at least ``delta_c``, kept out of
``in_M``, and their MIS ``heavy_mis``; a vertex crossing ``delta_c``
migrates at once.  The answer is ``in_M | heavy_mis``.  mis-simple and
mis-inc are the light level with no heavy vertices: their ``delta_c`` is a
degree no vertex reaches.  mis-2level sets ``delta_c`` per phase and
rebuilds ``heavy_mis`` after every update.  The handlers guard the heavy
level's work, so the light-only path pays one degree comparison per endpoint
of an inserted edge and one emptiness test per deletion.

``ceil_root(x, p, q)``, the smallest d with d**q >= x**p, gives both
degree thresholds: mis-implicit's ceil(sqrt(m_c)) and mis-2level's
ceil(m_c**(2/3)).

``count`` is a list indexed by vertex id, of length ``g.id_bound``: ids are
dense and never reused, so a vertex insertion appends its count and a
deletion zeroes its slot.  Dead ids hold 0 and are never read.

The benchmark's tracer wraps a method only on the class that defines it, so
each algorithm binds the loop and the query in its own namespace: ``apply =
UpdateLoop.apply``, and ``contains`` or ``in_mis_query =
UpdateLoop._query_op``.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from ..errors import IncompatibleStreamError
from ..graph import DynGraph
from ..meter import QUIET_LOG, AdjustmentLog, Changes, CostMeter
from ..stream import DeleteEdge, InsertEdge, InsertVertex, QueryInMis, UpdateEvent


def ceil_root(x: int, p: int, q: int) -> int:
    """The smallest d >= 0 with d**q >= x**p, for x >= 0."""
    target = x**p
    # a float guess, corrected in exact integers
    d = round(x ** (p / q))
    while d**q < target:
        d += 1
    while d > 0 and (d - 1) ** q >= target:
        d -= 1
    return d


class UpdateLoop:
    g: DynGraph
    meter: CostMeter

    def apply(self, event: UpdateEvent) -> AdjustmentLog:
        if isinstance(event, QueryInMis):
            raise IncompatibleStreamError("queries are not updates; ask the algorithm's membership query")
        changes: Changes = []
        meter = self.meter
        touched, adjusted = meter.edges_touched, meter.adjustments
        if isinstance(event, InsertEdge):
            self._insert_edge(event.u, event.v, changes)
        elif isinstance(event, DeleteEdge):
            self._delete_edge(event.u, event.v, changes)
        elif isinstance(event, InsertVertex):
            self._insert_vertex(event.neighbors, changes)
        else:
            self._delete_vertex(event.v, changes)
        meter.updates += 1
        self._settle(changes)
        meter.adjustments += len(changes)
        meter.end_op(touched, adjusted)
        return AdjustmentLog(changes) if changes else QUIET_LOG

    def _settle(self, changes: Changes) -> None:
        """Work that follows every update; none by default."""

    def _query_op(self, v: int) -> bool:
        self.g._require(v)
        meter = self.meter
        touched, adjusted = meter.edges_touched, meter.adjustments
        meter.queries += 1
        result = self._query(v)
        meter.end_op(touched, adjusted)
        return result


class CountMaintainer(UpdateLoop):
    in_M: set[int]
    count: list[int]
    heavy: set[int]
    heavy_mis: set[int]
    delta_c: int

    def mis(self) -> set[int]:
        return self.in_M | self.heavy_mis

    def _query(self, v: int) -> bool:
        return v in self.in_M or v in self.heavy_mis

    # -- event handlers --------------------------------------------------

    def _insert_edge(self, u: int, v: int, changes: Changes) -> None:
        self.g.insert_edge(u, v)
        adj, in_M, count, delta_c = self.g.adj, self.in_M, self.count, self.delta_c
        if u in in_M:
            count[v] += 1
        if v in in_M:
            count[u] += 1
        if len(adj[u]) >= delta_c and u not in self.heavy:
            self._migrate_to_heavy(u, changes)
        if len(adj[v]) >= delta_c and v not in self.heavy:
            self._migrate_to_heavy(v, changes)
        if u in in_M and v in in_M:
            self._admit_zeros(self._leave(self._pick_victim(u, v), changes), changes)

    def _delete_edge(self, u: int, v: int, changes: Changes) -> None:
        self.g.delete_edge(u, v)
        in_M, count, heavy = self.in_M, self.count, self.heavy
        # u and v were adjacent, so at most one of them is a member; only the
        # other one's count drops, and only it can reach zero
        x = v if u in in_M else u if v in in_M else None
        if x is not None:
            count[x] -= 1
        if heavy:
            adj, delta_c = self.g.adj, self.delta_c
            for y in (u, v):
                if y in heavy and len(adj[y]) < delta_c:
                    self._migrate_to_light(y, changes)
        if x is not None and count[x] == 0 and x not in in_M and x not in heavy:
            self._enter(x, changes)

    def _insert_vertex(self, neighbors: tuple[int, ...], changes: Changes) -> None:
        v = self.g.insert_vertex(neighbors)
        adj, in_M, heavy, delta_c = self.g.adj, self.in_M, self.heavy, self.delta_c
        self.count.append(sum(1 for w in neighbors if w in in_M))
        self.meter.touch(len(neighbors))
        if len(neighbors) >= delta_c:
            heavy.add(v)
        for w in neighbors:
            if w not in heavy and len(adj[w]) >= delta_c:
                self._migrate_to_heavy(w, changes)
        # a neighbour's migration may have admitted v already
        if self.count[v] == 0 and v not in in_M and v not in heavy:
            self._enter(v, changes)

    def _delete_vertex(self, v: int, changes: Changes) -> None:
        g = self.g
        g._require(v)
        nbrs = g.adj[v]  # the set outlives v's deletion from the graph
        # the walk over v's neighbours costs deg v once, charged by the leave
        # when v is a member
        if v in self.in_M:
            freed = self._leave(v, changes)
        else:
            freed = []
            self.meter.touch(len(nbrs))
        g.delete_vertex(v)
        self.count[v] = 0
        heavy = self.heavy
        if heavy:
            # no longer heavy, v drops out of the heavy MIS rebuild that
            # follows, which logs its leave
            heavy.discard(v)
            adj, delta_c = g.adj, self.delta_c
            for w in sorted(nbrs):
                if w in heavy and len(adj[w]) < delta_c:
                    self._migrate_to_light(w, changes)
        # only the neighbours v's leave freed can be at count zero
        self._admit_zeros(freed, changes)

    # -- internals -------------------------------------------------------

    def _pick_victim(self, u: int, v: int) -> int:
        return u

    def _migrate_to_heavy(self, v: int, changes: Changes) -> None:
        self.heavy.add(v)
        if v in self.in_M:
            self._admit_zeros(self._leave(v, changes), changes)

    def _migrate_to_light(self, v: int, changes: Changes) -> None:
        self.heavy.discard(v)
        in_mis = v in self.heavy_mis
        self.heavy_mis.discard(v)
        if self.count[v] == 0:
            # a member of the heavy MIS moves to the light one and stays in mis()
            self._enter(v, None if in_mis else changes)

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
        for v, nbrs in g.adj.items():
            c = count[v]
            if c != len(nbrs & in_M):
                return False
            if v not in outside and (v in in_M) != (c == 0):
                return False
        return True

    def _leave(self, v: int, changes: Changes) -> list[int]:
        """Takes ``v`` out of ``in_M``; returns the neighbours whose count fell to zero."""
        self.in_M.discard(v)
        changes.append(("leave", v))
        nbrs, count = self.g.adj[v], self.count
        freed = []
        for w in nbrs:
            c = count[w] = count[w] - 1
            if not c:
                freed.append(w)
        self.meter.touch(len(nbrs))
        return freed

    def _enter(self, v: int, changes: Changes | None) -> None:
        """Adds ``v`` to ``in_M`` and logs its entry in ``changes``.

        With ``changes`` None, v was in mis() already: its neighbours' counts
        rise, but no entry is logged.
        """
        self.in_M.add(v)
        if changes is not None:
            changes.append(("enter", v))
        nbrs, count = self.g.adj[v], self.count
        for w in nbrs:
            count[w] += 1
        self.meter.touch(len(nbrs))

    def _admit_zeros(self, freed: Iterable[int], changes: Changes) -> None:
        # ``freed`` holds the live neighbours a leave brought to count zero;
        # counts only rise after it, so no other vertex can be at zero.  Each
        # is re-checked in id order, since an earlier entry or a migration
        # may have blocked it again.
        count, in_M, heavy = self.count, self.in_M, self.heavy
        for w in sorted(freed):
            if count[w] == 0 and w not in in_M and w not in heavy:
                self._enter(w, changes)

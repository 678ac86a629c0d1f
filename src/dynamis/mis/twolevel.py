"""Fully dynamic MIS with a heavy/light degree split.

Light vertices (degree below the phase threshold) run the count-based
maintainer among themselves; after every update the MIS of the heavy-induced
subgraph is rebuilt from scratch over the heavy vertices with no light
neighbor in the light MIS.  The threshold is re-baselined whenever the edge
count drifts by a factor of two since the phase started.

Classification follows the current degree: a vertex crossing the threshold
migrates at once.  No index of heavy neighbours is kept, so a migration
itself reads no adjacency; it scans its neighbours only when it changes the
light MIS.  The heavy MIS rebuild tests ``adj[v].isdisjoint(chosen)``, which
walks the smaller set; ``chosen`` holds heavy vertices only, so each test
costs at most min(deg v, |heavy|) and the rebuild at most |heavy|**2.

``light_count`` is a list indexed by vertex id, of length ``g.id_bound``:
ids are dense and never reused, so a vertex insertion appends its count and
a deletion zeroes its slot.  Isolated and dead vertices hold 0.

A phase rebuild touches only the non-isolated vertices.  An isolated vertex
is light and in the light MIS in every phase, so its state is kept as it is,
and a rebuild costs O(m) rather than O(n + m), plus C-level passes over the
vertex table to find the non-isolated vertices and to zero ``light_count``.
The heavy MIS rebuild after each update returns at once when there are no
heavy vertices and no heavy MIS.
"""

from __future__ import annotations

from itertools import compress, filterfalse
from typing import Iterable

from ..errors import IncompatibleStreamError
from ..graph import DynGraph
from ..meter import AdjustmentLog, CostMeter
from ..stream import DeleteEdge, DeleteVertex, InsertEdge, InsertVertex, QueryInMis, UpdateEvent


def _ceil_pow_two_thirds(m: int) -> int:
    """Smallest d with d**3 >= m**2."""
    d = max(1, round(m ** (2.0 / 3.0)))
    while d ** 3 < m * m:
        d += 1
    while d > 1 and (d - 1) ** 3 >= m * m:
        d -= 1
    return d


class TwoLevelMis:
    def __init__(self, g: DynGraph):
        self.g = g
        self.meter = CostMeter()
        self.phase_rebuilds = 0
        self.last_heavy_rebuild_touches = 0
        # every vertex starts in the state an isolated vertex keeps across
        # phases; the phase set-up then rebuilds the non-isolated ones
        self.heavy: set[int] = set()
        self.heavy_mis: set[int] = set()
        self.light_M: set[int] = set(g.vertices())
        self._init_phase(self._non_isolated())

    # -- public surface --------------------------------------------------

    def mis(self) -> set[int]:
        return self.light_M | self.heavy_mis

    def contains(self, v: int) -> bool:
        self.g._require(v)
        return v in self.light_M or v in self.heavy_mis

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
        self._rebuild_heavy_mis(log)
        if self.g.m <= self.m_c // 2 or self.g.m >= 2 * self.m_c:
            self._phase_rebuild(log)
        log.edges_touched = self.meter.op_edges_touched
        self.meter.end_op()
        return log

    def verify(self) -> bool:
        """Full-rescan audit of classification, counts and both MIS levels."""
        g = self.g
        if g.m > 0 and not (self.m_c / 2 < g.m < 2 * self.m_c):
            return False
        if len(self.light_count) != g.id_bound:
            return False
        for v in g.vertices():
            if (v in self.heavy) != (len(g.adj[v]) >= self.delta_c):
                return False
            if self.light_count[v] != len(g.adj[v] & self.light_M):
                return False
        for v in self.light_M:
            if v in self.heavy or self.light_count[v] != 0:
                return False
        for v in g.vertices():
            if v not in self.heavy and v not in self.light_M and self.light_count[v] == 0:
                return False
        eligible = {v for v in self.heavy if self.light_count[v] == 0}
        if not self.heavy_mis <= eligible:
            return False
        for v in eligible:
            inside = g.adj[v] & self.heavy_mis
            if v in self.heavy_mis and inside:
                return False
            if v not in self.heavy_mis and not inside:
                return False
        return True

    # -- phase management ------------------------------------------------

    def _non_isolated(self) -> list[int]:
        adj = self.g.adj
        return sorted(compress(adj, adj.values()))

    def _init_phase(self, active: list[int]) -> None:
        """Re-baseline the phase over ``active``, the sorted non-isolated vertices.

        An isolated vertex is light, in ``light_M``, with ``light_count`` 0
        before and after any rebuild, so the rebuild leaves it alone; zeroing
        the whole ``light_count`` list changes only the active entries.  The greedy over ``active`` picks what a greedy
        over all vertices would, and charges the same touches.
        """
        adj = self.g.adj
        self.m_c = max(self.g.m, 1)
        delta_c = self.delta_c = _ceil_pow_two_thirds(self.m_c)
        heavy = self.heavy = {v for v in active if len(adj[v]) >= delta_c}
        light_M = self.light_M
        light_count: list[int] = [0] * self.g.id_bound
        self.light_count = light_count
        light_M.difference_update(active)
        touched = 0
        for v in active:
            if v not in heavy and light_count[v] == 0:
                light_M.add(v)
                for w in adj[v]:
                    light_count[w] += 1
                touched += len(adj[v])
        self.meter.touch(touched)
        self.heavy_mis = set()
        self.meter.touch(2 * self.g.m)
        self._rebuild_heavy_mis(AdjustmentLog(), account=False)

    def _phase_rebuild(self, log: AdjustmentLog) -> None:
        # isolated vertices are in the MIS before and after, so compare the rest
        active = self._non_isolated()
        before = self.light_M.intersection(active) | self.heavy_mis
        self._init_phase(active)
        self.phase_rebuilds += 1
        after = self.light_M.intersection(active) | self.heavy_mis
        for v in sorted(before - after):
            log.leave(v)
        for v in sorted(after - before):
            log.enter(v)
        self.meter.adjust(len(before ^ after))

    # -- event handlers --------------------------------------------------

    def _insert_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.insert_edge(u, v)
        self.meter.begin_op()
        if u in self.light_M:
            self.light_count[v] += 1
        if v in self.light_M:
            self.light_count[u] += 1
        for x in (u, v):
            if x not in self.heavy and len(self.g.adj[x]) >= self.delta_c:
                self._migrate_to_heavy(x, log)
        if u in self.light_M and v in self.light_M:
            self._light_leave(u, log)
            self._admit_light_zeros(self.g.adj[u], log)

    def _delete_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.delete_edge(u, v)
        self.meter.begin_op()
        if u in self.light_M:
            self.light_count[v] -= 1
        if v in self.light_M:
            self.light_count[u] -= 1
        for x in (u, v):
            if x in self.heavy and len(self.g.adj[x]) < self.delta_c:
                self._migrate_to_light(x, log)
        # u and v are no longer adjacent, so admitting one cannot block the other
        for x in ((u, v) if u < v else (v, u)):
            if self.light_count[x] == 0 and x not in self.light_M and x not in self.heavy:
                self._light_enter(x, log)

    def _insert_vertex(self, neighbors: tuple[int, ...], log: AdjustmentLog) -> None:
        v = self.g.insert_vertex(neighbors)
        self.meter.begin_op()
        self.light_count.append(sum(1 for w in neighbors if w in self.light_M))
        self.meter.touch(len(neighbors))
        if len(neighbors) >= self.delta_c:
            self.heavy.add(v)
        for w in neighbors:
            if w not in self.heavy and len(self.g.adj[w]) >= self.delta_c:
                self._migrate_to_heavy(w, log)
        if self.light_count[v] == 0 and v not in self.light_M and v not in self.heavy:
            self._light_enter(v, log)

    def _delete_vertex(self, v: int, log: AdjustmentLog) -> None:
        self.g._require(v)
        self.meter.begin_op()
        nbrs = sorted(self.g.adj[v])
        # the walk over v's neighbours costs deg v once, charged by the leave
        # when v is in the light MIS
        if v in self.light_M:
            self._light_leave(v, log)
        else:
            self.meter.touch(len(nbrs))
        self.heavy.discard(v)
        if v in self.heavy_mis:
            self.heavy_mis.discard(v)
            self.meter.adjust()
            log.leave(v)
        self.g.delete_vertex(v)
        self.light_count[v] = 0
        for w in nbrs:
            if w in self.heavy and len(self.g.adj[w]) < self.delta_c:
                self._migrate_to_light(w, log)
        self._admit_light_zeros(nbrs, log)

    # -- internals -------------------------------------------------------

    def _migrate_to_heavy(self, v: int, log: AdjustmentLog) -> None:
        self.heavy.add(v)
        if v in self.light_M:
            self._light_leave(v, log)
            self._admit_light_zeros(self.g.adj[v], log)

    def _migrate_to_light(self, v: int, log: AdjustmentLog) -> None:
        self.heavy.discard(v)
        self.heavy_mis.discard(v)
        if self.light_count[v] == 0:
            self._light_enter(v, log)

    def _light_leave(self, v: int, log: AdjustmentLog) -> None:
        self.light_M.discard(v)
        self.meter.adjust()
        log.leave(v)
        nbrs, light_count = self.g.adj[v], self.light_count
        for w in nbrs:
            light_count[w] -= 1
        self.meter.touch(len(nbrs))

    def _light_enter(self, v: int, log: AdjustmentLog) -> None:
        self.light_M.add(v)
        self.meter.adjust()
        log.enter(v)
        nbrs, light_count = self.g.adj[v], self.light_count
        for w in nbrs:
            light_count[w] += 1
        self.meter.touch(len(nbrs))

    def _admit_light_zeros(self, candidates: Iterable[int], log: AdjustmentLog) -> None:
        # Candidates are live.  An entry only raises counts, so only those at
        # count zero now can enter; they are re-checked in id order.
        light_count, light_M, heavy = self.light_count, self.light_M, self.heavy
        for w in sorted(filterfalse(light_count.__getitem__, candidates)):
            if light_count[w] == 0 and w not in light_M and w not in heavy:
                self._light_enter(w, log)

    def _rebuild_heavy_mis(self, log: AdjustmentLog, account: bool = True) -> None:
        if not self.heavy and not self.heavy_mis:
            # the greedy would touch nothing and choose nothing
            self.last_heavy_rebuild_touches = 0
            return
        adj, light_count = self.g.adj, self.light_count
        touched = 0
        chosen: set[int] = set()
        for v in sorted(self.heavy):
            if light_count[v] != 0:
                continue
            touched += min(len(adj[v]), len(chosen))
            if adj[v].isdisjoint(chosen):
                chosen.add(v)
        self.meter.touch(touched)
        self.last_heavy_rebuild_touches = touched
        if chosen != self.heavy_mis:
            if account:
                for v in sorted(self.heavy_mis - chosen):
                    log.leave(v)
                for v in sorted(chosen - self.heavy_mis):
                    log.enter(v)
                self.meter.adjust(len(chosen ^ self.heavy_mis))
            self.heavy_mis = chosen

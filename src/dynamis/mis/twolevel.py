"""Fully dynamic MIS with a heavy/light degree split.

Light vertices (degree below the phase threshold) run the count-based
maintainer among themselves: the light level is the shared
``CountMaintainer``, its ``in_M`` the light MIS and its ``count`` each
vertex's number of neighbours there, with heavy vertices kept out of it.
After every update the MIS of the heavy-induced subgraph is rebuilt from
scratch over the heavy vertices with no light neighbor in the light MIS.
The threshold is re-baselined whenever the edge count drifts by a factor of
two since the phase started.

Classification follows the current degree: a vertex crossing the threshold
migrates at once.  No index of heavy neighbours is kept, so a migration
itself reads no adjacency; it scans its neighbours only when it changes the
light MIS.  The heavy MIS rebuild tests ``adj[v].isdisjoint(chosen)``, which
walks the smaller set; ``chosen`` holds heavy vertices only, so each test
costs at most min(deg v, |heavy|) and the rebuild at most |heavy|**2.

``count`` is the maintainer's id-indexed list; isolated and dead vertices
hold 0.

A phase rebuild touches only the non-isolated vertices.  An isolated vertex
is light and in the light MIS in every phase, so its state is kept as it is,
and a rebuild costs O(m) rather than O(n + m), plus C-level passes over the
vertex table to find the non-isolated vertices and to zero ``count``.
The heavy MIS rebuild after each update is skipped when there are no heavy
vertices and no heavy MIS.
"""

from __future__ import annotations

from itertools import compress, filterfalse
from typing import Iterable

from ..graph import DynGraph
from ..meter import AdjustmentLog, CostMeter
from .base import CountMaintainer, UpdateLoop


def _ceil_pow_two_thirds(m: int) -> int:
    """Smallest d with d**3 >= m**2."""
    d = max(1, round(m ** (2.0 / 3.0)))
    while d ** 3 < m * m:
        d += 1
    while d > 1 and (d - 1) ** 3 >= m * m:
        d -= 1
    return d


class TwoLevelMis(CountMaintainer):
    def __init__(self, g: DynGraph):
        self.g = g
        self.meter = CostMeter()
        self.phase_rebuilds = 0
        self.last_heavy_rebuild_touches = 0
        # every vertex starts in the state an isolated vertex keeps across
        # phases; the phase set-up then rebuilds the non-isolated ones
        self.heavy: set[int] = set()
        self.heavy_mis: set[int] = set()
        self.in_M: set[int] = set(g.vertices())
        self._init_phase(self._non_isolated())

    # -- public surface --------------------------------------------------

    def mis(self) -> set[int]:
        return self.in_M | self.heavy_mis

    def contains(self, v: int) -> bool:
        self.g._require(v)
        return v in self.in_M or v in self.heavy_mis

    apply = UpdateLoop.apply

    def verify(self) -> bool:
        """Full-rescan audit of classification, counts and both MIS levels."""
        g = self.g
        if g.m > 0 and not (self.m_c / 2 < g.m < 2 * self.m_c):
            return False
        if not self._audit_counts(self.heavy):
            return False
        for v in g.vertices():
            if (v in self.heavy) != (len(g.adj[v]) >= self.delta_c):
                return False
        eligible = {v for v in self.heavy if self.count[v] == 0}
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

        An isolated vertex is light, in ``in_M``, with ``count`` 0 before and
        after any rebuild, so the rebuild leaves it alone; zeroing the whole
        ``count`` list changes only the active entries.  The greedy over
        ``active`` picks what a greedy over all vertices would, and charges
        the same touches.
        """
        adj = self.g.adj
        self.m_c = max(self.g.m, 1)
        delta_c = self.delta_c = _ceil_pow_two_thirds(self.m_c)
        heavy = self.heavy = {v for v in active if len(adj[v]) >= delta_c}
        self.count = [0] * self.g.id_bound
        self.in_M.difference_update(active)
        self._greedy(filterfalse(heavy.__contains__, active))
        self.heavy_mis = set()
        self.meter.touch(2 * self.g.m)
        self._rebuild_heavy_mis(AdjustmentLog(), account=False)

    def _settle(self, log: AdjustmentLog) -> None:
        if self.heavy or self.heavy_mis:
            self._rebuild_heavy_mis(log)
        else:
            # the greedy would touch nothing and choose nothing
            self.last_heavy_rebuild_touches = 0
        m = self.g.m
        if m <= self.m_c // 2 or m >= 2 * self.m_c:
            self._phase_rebuild(log)

    def _phase_rebuild(self, log: AdjustmentLog) -> None:
        # isolated vertices are in the MIS before and after, so compare the rest
        active = self._non_isolated()
        before = self.in_M.intersection(active) | self.heavy_mis
        self._init_phase(active)
        self.phase_rebuilds += 1
        after = self.in_M.intersection(active) | self.heavy_mis
        for v in sorted(before - after):
            log.leave(v)
        for v in sorted(after - before):
            log.enter(v)
        self.meter.adjust(len(before ^ after))

    # -- event handlers --------------------------------------------------

    def _insert_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.insert_edge(u, v)
        self.meter.begin_op()
        if u in self.in_M:
            self.count[v] += 1
        if v in self.in_M:
            self.count[u] += 1
        for x in (u, v):
            if x not in self.heavy and len(self.g.adj[x]) >= self.delta_c:
                self._migrate_to_heavy(x, log)
        if u in self.in_M and v in self.in_M:
            self._leave(u, log)
            self._admit_zeros(self.g.adj[u], log)

    def _delete_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.delete_edge(u, v)
        self.meter.begin_op()
        if u in self.in_M:
            self.count[v] -= 1
        if v in self.in_M:
            self.count[u] -= 1
        for x in (u, v):
            if x in self.heavy and len(self.g.adj[x]) < self.delta_c:
                self._migrate_to_light(x, log)
        # u and v are no longer adjacent, so admitting one cannot block the other
        for x in ((u, v) if u < v else (v, u)):
            if self.count[x] == 0 and x not in self.in_M and x not in self.heavy:
                self._enter(x, log)

    def _insert_vertex(self, neighbors: tuple[int, ...], log: AdjustmentLog) -> None:
        v = self._insert_counted(neighbors)
        if len(neighbors) >= self.delta_c:
            self.heavy.add(v)
        for w in neighbors:
            if w not in self.heavy and len(self.g.adj[w]) >= self.delta_c:
                self._migrate_to_heavy(w, log)
        if self.count[v] == 0 and v not in self.in_M and v not in self.heavy:
            self._enter(v, log)

    def _delete_vertex(self, v: int, log: AdjustmentLog) -> None:
        nbrs = sorted(self._delete_counted(v, log))
        self.heavy.discard(v)
        if v in self.heavy_mis:
            self.heavy_mis.discard(v)
            self.meter.adjust()
            log.leave(v)
        for w in nbrs:
            if w in self.heavy and len(self.g.adj[w]) < self.delta_c:
                self._migrate_to_light(w, log)
        self._admit_zeros(nbrs, log)

    # -- internals -------------------------------------------------------

    def _migrate_to_heavy(self, v: int, log: AdjustmentLog) -> None:
        self.heavy.add(v)
        if v in self.in_M:
            self._leave(v, log)
            self._admit_zeros(self.g.adj[v], log)

    def _migrate_to_light(self, v: int, log: AdjustmentLog) -> None:
        self.heavy.discard(v)
        self.heavy_mis.discard(v)
        if self.count[v] == 0:
            self._enter(v, log)

    def _admit_zeros(self, candidates: Iterable[int], log: AdjustmentLog) -> None:
        # Candidates are live.  An entry only raises counts, so only those at
        # count zero now can enter; they are re-checked in id order.
        count, in_M, heavy = self.count, self.in_M, self.heavy
        for w in sorted(filterfalse(count.__getitem__, candidates)):
            if count[w] == 0 and w not in in_M and w not in heavy:
                self._enter(w, log)

    def _rebuild_heavy_mis(self, log: AdjustmentLog, account: bool = True) -> None:
        adj, count = self.g.adj, self.count
        touched = 0
        chosen: set[int] = set()
        for v in sorted(self.heavy):
            if count[v] != 0:
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

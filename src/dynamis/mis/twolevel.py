"""Fully dynamic MIS with a heavy/light degree split.

mis-2level is the shared ``CountMaintainer`` with a heavy level: ``delta_c``
is the phase threshold, the smallest d with d**3 >= m_c**2, where m_c is
the edge count when the phase began.  Light vertices (degree below
``delta_c``) run the count-based maintainer among themselves, its ``in_M``
the light MIS.  After every update this class rebuilds the MIS of the
heavy-induced subgraph from scratch over the heavy vertices with no
neighbour in the light MIS, and it re-baselines the phase whenever the edge
count drifts by a factor of two.  The handlers, the migrations and the
admission are the maintainer's; this class keeps the phases, the heavy-MIS
rebuild and the audit.

No index of heavy neighbours is kept, so a migration itself reads no
adjacency; it scans its neighbours only when it changes the light MIS.  The
heavy MIS rebuild tests ``adj[v].isdisjoint(chosen)``, which walks the
smaller set; ``chosen`` holds heavy vertices only, so each test costs at
most min(deg v, |heavy|) and the rebuild at most |heavy|**2.

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

from ..graph import DynGraph
from ..meter import Changes, CostMeter
from .base import CountMaintainer, UpdateLoop, ceil_root


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

    apply = UpdateLoop.apply
    contains = UpdateLoop._query_op

    def verify(self) -> bool:
        """Full-rescan audit of classification, counts and both MIS levels."""
        g = self.g
        if g.m > 0 and not (self.m_c / 2 < g.m < 2 * self.m_c):
            return False
        if not self._audit_counts(self.heavy):
            return False
        adj, heavy, heavy_mis, delta_c = g.adj, self.heavy, self.heavy_mis, self.delta_c
        for v, nbrs in adj.items():
            if (v in heavy) != (len(nbrs) >= delta_c):
                return False
        eligible = {v for v in heavy if self.count[v] == 0}
        if not heavy_mis <= eligible:
            return False
        for v in eligible:
            # a member has no neighbour in heavy_mis, any other eligible vertex one
            if (v in heavy_mis) != adj[v].isdisjoint(heavy_mis):
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
        delta_c = self.delta_c = ceil_root(self.m_c, 2, 3)
        heavy = self.heavy = {v for v in active if len(adj[v]) >= delta_c}
        self.count = [0] * self.g.id_bound
        self.in_M.difference_update(active)
        self._greedy(filterfalse(heavy.__contains__, active))
        self.meter.touch(2 * self.g.m)
        self.heavy_mis = self._rebuild_heavy_mis()

    def _settle(self, changes: Changes) -> None:
        if self.heavy or self.heavy_mis:
            chosen = self._rebuild_heavy_mis()
            if chosen != self.heavy_mis:
                self._log_change(changes, self.heavy_mis, chosen)
                self.heavy_mis = chosen
        else:
            # the greedy would touch nothing and choose nothing
            self.last_heavy_rebuild_touches = 0
        m = self.g.m
        if m <= self.m_c // 2 or m >= 2 * self.m_c:
            self._phase_rebuild(changes)

    def _phase_rebuild(self, changes: Changes) -> None:
        # isolated vertices are in the MIS before and after, so compare the rest
        active = self._non_isolated()
        before = self.in_M.intersection(active) | self.heavy_mis
        self._init_phase(active)
        self.phase_rebuilds += 1
        after = self.in_M.intersection(active) | self.heavy_mis
        self._log_change(changes, before, after)

    def _log_change(self, changes: Changes, before: set[int], after: set[int]) -> None:
        for v in sorted(before - after):
            changes.append(("leave", v))
        for v in sorted(after - before):
            changes.append(("enter", v))

    # -- heavy MIS -------------------------------------------------------

    def _rebuild_heavy_mis(self) -> set[int]:
        """Greedy MIS of the heavy vertices with no neighbour in the light MIS."""
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
        return chosen

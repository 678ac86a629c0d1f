"""Implicit MIS: an independent set plus partial counts, grown by queries.

Updates never add vertices to the maintained set S; an edge landing inside S
evicts one endpoint, so S stays independent at worst-case cost bounded by the
number of tracked (high-degree) neighbors.  Membership queries lazily admit
the queried vertex when legal, so sweeping all vertices materializes an MIS.

Tracked vertices keep an exact count of neighbors in S.  Tracking follows two
thresholds derived from the epoch baseline m_c: degree above ceil(sqrt(m_c))
forces immediate tracking, degree above ceil(sqrt(m_c/2)) queues the vertex
as a candidate, and one candidate is promoted per update so that every future
heavy vertex is already tracked when the baseline halves.  Below a small m_c
floor every vertex is tracked; the thresholds would be degenerate there.

No index of tracked neighbors is kept: a vertex entering or leaving S reads
``adj[v] & tracked``, which walks the smaller set, so it costs
min(deg v, |tracked|) and is metered as such; outside eager mode
|tracked| * ceil(sqrt(m_c/2)) <= 4m keeps that O(min(deg v, sqrt(m))).
Promotion reads ``adj[v] & S`` once for the count, and demotion reads no
adjacency, so a doubling of m that demotes many vertices at once reads only
their degrees (unmetered).  That demotion builds a fresh ``tracked`` set: a
set never shrinks its table on discard, and every later intersection would
walk the old table.
"""

from __future__ import annotations

from math import isqrt

from ..errors import VertexUpdateUnsupportedError
from ..graph import DynGraph
from ..meter import AdjustmentLog, CostMeter
from .base import UpdateLoop

EAGER_FLOOR = 64


def _ceil_sqrt(x: int) -> int:
    return 0 if x <= 0 else isqrt(x - 1) + 1


class ImplicitMis(UpdateLoop):
    def __init__(self, g: DynGraph):
        self.g = g
        self.meter = CostMeter()
        self.in_S: set[int] = set()
        self.tracked: set[int] = set()
        self.hcount: dict[int, int] = {}
        self.candidates: set[int] = set()
        self.m_c = max(g.m, 1)
        self._set_thresholds()
        if self.eager:
            for v in g.vertices():
                self._promote(v)
        else:
            for v in g.vertices():
                if len(g.adj[v]) > self.tau:
                    self._promote(v)
                elif len(g.adj[v]) > self.cand_thresh:
                    self.candidates.add(v)

    def _set_thresholds(self) -> None:
        self.tau = _ceil_sqrt(self.m_c)
        self.cand_thresh = _ceil_sqrt((self.m_c + 1) // 2)
        self.eager = self.m_c < EAGER_FLOOR

    # -- public surface --------------------------------------------------

    def independent_set(self) -> set[int]:
        return set(self.in_S)

    apply = UpdateLoop.apply

    def in_mis_query(self, v: int) -> bool:
        self.g._require(v)
        self.meter.begin_op()
        self.meter.queries += 1
        result = self._query(v)
        self.meter.end_op()
        return result

    def verify(self) -> bool:
        """Full-rescan check of independence, tracking and count invariants."""
        g = self.g
        if g.m > 0 and not (self.m_c / 2 < g.m < 2 * self.m_c):
            return False
        for v in self.in_S:
            if g.adj[v] & self.in_S:
                return False
        for v in g.vertices():
            deg = len(g.adj[v])
            if deg > self.tau and v not in self.tracked:
                return False
            if v in self.tracked and self.hcount[v] != len(g.adj[v] & self.in_S):
                return False
            if v not in self.tracked and deg > self.cand_thresh and v not in self.candidates:
                return False
        if not self.candidates.isdisjoint(self.tracked):
            return False
        if not self.eager and self.cand_thresh > 0:
            if len(self.tracked) * self.cand_thresh > 4 * max(g.m, 1):
                return False
        return True

    # -- event handlers --------------------------------------------------

    def _insert_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.insert_edge(u, v)
        self.meter.begin_op()
        for x in (u, v):
            deg = len(self.g.adj[x])
            if x not in self.tracked:
                if deg > self.tau:
                    self._promote(x)
                elif deg > self.cand_thresh:
                    self.candidates.add(x)
        if u in self.in_S and v in self.tracked:
            self.hcount[v] += 1
            self.meter.touch()
        if v in self.in_S and u in self.tracked:
            self.hcount[u] += 1
            self.meter.touch()
        if u in self.in_S and v in self.in_S:
            self._leave_S(max(u, v), log)

    def _delete_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.delete_edge(u, v)
        self.meter.begin_op()
        self._drop_edge(u, v)

    def _drop_edge(self, u: int, v: int) -> None:
        """Bookkeeping for the edge (u, v), just deleted from the graph."""
        if u in self.in_S and v in self.tracked:
            self.hcount[v] -= 1
            self.meter.touch()
        if v in self.in_S and u in self.tracked:
            self.hcount[u] -= 1
            self.meter.touch()
        for x in (u, v):
            self._recheck_after_degree_drop(x)

    def _insert_vertex(self, neighbors: tuple[int, ...], log: AdjustmentLog) -> None:
        if neighbors:
            raise VertexUpdateUnsupportedError("vertex insertion with incident edges")
        v = self.g.insert_vertex(())
        self.meter.begin_op()
        if self.eager:
            self._promote(v)

    def _delete_vertex(self, v: int, log: AdjustmentLog) -> None:
        self.g._require(v)
        self.meter.begin_op()
        if v in self.in_S:
            self._leave_S(v, log)
        for w in sorted(self.g.adj[v]):
            self.g.delete_edge(v, w)
            self._drop_edge(v, w)
        if v in self.tracked:
            self.tracked.discard(v)
            del self.hcount[v]
        self.candidates.discard(v)
        self.g.delete_vertex(v)

    def _query(self, v: int) -> bool:
        if v in self.in_S:
            return True
        if v in self.tracked:
            if self.hcount[v] != 0:
                return False
            self._enter_S(v)
            return True
        nbrs = self.g.adj[v]
        self.meter.touch(len(nbrs))
        if not nbrs.isdisjoint(self.in_S):
            return False
        self._enter_S(v)
        return True

    # -- internals -------------------------------------------------------

    def _enter_S(self, v: int) -> None:
        self.in_S.add(v)
        self.meter.adjust()
        nbrs, hcount = self.g.adj[v], self.hcount
        for x in nbrs & self.tracked:
            hcount[x] += 1
        self.meter.touch(min(len(nbrs), len(self.tracked)))

    def _leave_S(self, v: int, log: AdjustmentLog) -> None:
        self.in_S.discard(v)
        self.meter.adjust()
        log.leave(v)
        nbrs, hcount = self.g.adj[v], self.hcount
        for x in nbrs & self.tracked:
            hcount[x] -= 1
        self.meter.touch(min(len(nbrs), len(self.tracked)))

    def _promote(self, v: int) -> None:
        self.tracked.add(v)
        self.candidates.discard(v)
        self.hcount[v] = len(self.g.adj[v] & self.in_S)
        self.meter.touch(len(self.g.adj[v]))

    def _recheck_after_degree_drop(self, v: int) -> None:
        if self.eager or len(self.g.adj[v]) > self.cand_thresh:
            return
        if v in self.tracked:
            # demotion reads no adjacency
            self.tracked.discard(v)
            del self.hcount[v]
        else:
            self.candidates.discard(v)

    def _settle(self, log: AdjustmentLog) -> None:
        candidates = self.candidates
        if candidates and not self.eager:
            c = min(candidates)
            candidates.discard(c)
            if len(self.g.adj[c]) > self.cand_thresh:
                self._promote(c)
        m = self.g.m
        if m >= 2 * self.m_c or (m <= self.m_c // 2 and self.m_c > 1):
            self._epoch_transitions()

    def _epoch_transitions(self) -> None:
        m = self.g.m
        while m >= 2 * self.m_c:
            self.m_c *= 2
            self._apply_new_thresholds(grew=True)
            m = self.g.m
        while m <= self.m_c // 2 and self.m_c > 1:
            self.m_c //= 2
            self._apply_new_thresholds(grew=False)
            m = self.g.m

    def _apply_new_thresholds(self, grew: bool) -> None:
        was_eager = self.eager
        self._set_thresholds()
        if self.eager:
            # in eager mode every live vertex is tracked already
            if not was_eager:
                for v in self.g.vertices():
                    if v not in self.tracked:
                        self._promote(v)
                self.candidates.clear()
            return
        if grew:
            stale = {v for v in self.tracked if len(self.g.adj[v]) <= self.cand_thresh}
            # a fresh set: discard never shrinks a set's table, and every
            # adj[v] & tracked would walk the old one
            self.tracked = self.tracked.difference(stale)
            for v in stale:
                del self.hcount[v]
            self.candidates = {v for v in self.candidates if len(self.g.adj[v]) > self.cand_thresh}
        else:
            for v in [v for v in self.candidates if len(self.g.adj[v]) > self.tau]:
                self._promote(v)
            # degree comparisons only; rebuilding the candidate pool reads no
            # adjacency entries, so it is not metered
            self.candidates = {
                v
                for v in self.g.vertices()
                if v not in self.tracked and len(self.g.adj[v]) > self.cand_thresh
            }

"""Implicit MIS: an independent set plus partial counts, grown by queries.

Updates never add vertices to the maintained set S; an edge landing inside S
evicts one endpoint, so S stays independent at worst-case cost bounded by the
number of tracked (high-degree) neighbors.  Membership queries lazily admit
the queried vertex when legal, so sweeping all vertices materializes an MIS.

Tracked vertices keep an exact count of neighbors in S.  One rule holds at
every epoch baseline m_c >= 1: degree above tau = ceil(sqrt(m_c)) forces
immediate tracking, and degree above ceil(sqrt(m_c/2)), the tau of the
halved baseline, queues the vertex as a candidate; one candidate is promoted
per update, so that few are left to promote when m_c halves.  ``_classify``
applies the rule to every untracked vertex in one pass.  The constructor
calls it, and so does an update that halves m_c, once, at the final
thresholds: it promotes the candidates left above the new tau, and any
vertex that a halving from an odd m_c puts above tau although it never was
a candidate.

No index of tracked neighbors is kept: a vertex entering or leaving S reads
``adj[v] & tracked``, which walks the smaller set, so it costs
min(deg v, |tracked|) and is metered as such; every tracked vertex has degree
above ceil(sqrt(m_c/2)), so |tracked| * ceil(sqrt(m_c/2)) <= 4m keeps that
O(min(deg v, sqrt(m))).  Promotion reads ``adj[v] & S`` once for the count,
and demotion reads no adjacency, so a doubling of m that demotes many
vertices at once reads only their degrees (unmetered).  That demotion builds
a fresh ``tracked`` set: a set never shrinks its table on discard, and every
later intersection would walk the old table.
"""

from __future__ import annotations

from math import isqrt

from ..errors import VertexUpdateUnsupportedError
from ..graph import DynGraph
from ..meter import AdjustmentLog, CostMeter
from .base import UpdateLoop


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
        self._classify()

    def _set_thresholds(self) -> None:
        self.tau = _ceil_sqrt(self.m_c)
        self.cand_thresh = _ceil_sqrt((self.m_c + 1) // 2)

    # -- public surface --------------------------------------------------

    def independent_set(self) -> set[int]:
        return set(self.in_S)

    apply = UpdateLoop.apply

    in_mis_query = UpdateLoop._query_op

    def verify(self) -> bool:
        """Full-rescan check of independence, tracking and count invariants."""
        g = self.g
        if g.m > 0 and not (self.m_c / 2 < g.m < 2 * self.m_c):
            return False
        adj, in_S, tracked, candidates = g.adj, self.in_S, self.tracked, self.candidates
        for v in in_S:
            if not adj[v].isdisjoint(in_S):
                return False
        tau, cand_thresh, hcount = self.tau, self.cand_thresh, self.hcount
        for v, nbrs in adj.items():
            if v in tracked:
                if hcount[v] != len(nbrs & in_S):
                    return False
            elif len(nbrs) > tau or (len(nbrs) > cand_thresh and v not in candidates):
                return False
        if not candidates.isdisjoint(tracked):
            return False
        return len(tracked) * cand_thresh <= 4 * max(g.m, 1)

    # -- event handlers --------------------------------------------------

    def _insert_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.insert_edge(u, v)
        # count the edge before promoting: a promotion counts it already
        if u in self.in_S and v in self.tracked:
            self.hcount[v] += 1
            self.meter.touch()
        if v in self.in_S and u in self.tracked:
            self.hcount[u] += 1
            self.meter.touch()
        for x in (u, v):
            deg = len(self.g.adj[x])
            if x not in self.tracked:
                if deg > self.tau:
                    self._promote(x)
                elif deg > self.cand_thresh:
                    self.candidates.add(x)
        if u in self.in_S and v in self.in_S:
            self._leave_S(max(u, v), log)

    def _delete_edge(self, u: int, v: int, log: AdjustmentLog) -> None:
        self.g.delete_edge(u, v)
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
        self.g.insert_vertex(())

    def _delete_vertex(self, v: int, log: AdjustmentLog) -> None:
        self.g._require(v)
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
        if len(self.g.adj[v]) > self.cand_thresh:
            return
        if v in self.tracked:
            # demotion reads no adjacency
            self.tracked.discard(v)
            del self.hcount[v]
        else:
            self.candidates.discard(v)

    def _settle(self, log: AdjustmentLog) -> None:
        candidates = self.candidates
        if candidates:
            c = min(candidates)
            candidates.discard(c)
            if len(self.g.adj[c]) > self.cand_thresh:
                self._promote(c)
        m = self.g.m
        if m >= 2 * self.m_c or (m <= self.m_c // 2 and self.m_c > 1):
            self._epoch_transitions()

    def _epoch_transitions(self) -> None:
        m = self.g.m
        if m >= 2 * self.m_c:
            while m >= 2 * self.m_c:
                self.m_c *= 2
            self._set_thresholds()
            stale = {v for v in self.tracked if len(self.g.adj[v]) <= self.cand_thresh}
            # a fresh set: discard never shrinks a set's table, and every
            # adj[v] & tracked would walk the old one
            self.tracked = self.tracked.difference(stale)
            for v in stale:
                del self.hcount[v]
            self.candidates = {v for v in self.candidates if len(self.g.adj[v]) > self.cand_thresh}
        else:
            while m <= self.m_c // 2 and self.m_c > 1:
                self.m_c //= 2
            self._set_thresholds()
            self._classify()

    def _classify(self) -> None:
        """Track every untracked vertex above tau; pool those above the candidate threshold."""
        adj, tracked, pool = self.g.adj, self.tracked, set()
        # degree comparisons only; the scan reads no adjacency entries, so
        # only the promotions are metered
        for v in self.g.vertices():
            if v in tracked:
                continue
            deg = len(adj[v])
            if deg > self.tau:
                self._promote(v)
            elif deg > self.cand_thresh:
                pool.add(v)
        self.candidates = pool

"""Implicit MIS: an independent set plus partial counts, grown by queries.

Updates never add vertices to the maintained set S; an edge landing inside S
evicts one endpoint, so S stays independent at worst-case cost bounded by the
number of tracked (high-degree) neighbors.  Membership queries lazily admit
the queried vertex when legal, so sweeping all vertices materializes an MIS.

Tracked vertices keep an exact count of neighbors in S.  One threshold rule
holds at every epoch baseline m_c >= 1, with tau = ceil(sqrt(m_c)) and the
candidate threshold ceil(sqrt(m_c/2)), the tau of the halved baseline:
a vertex is tracked above tau, an untracked vertex above the candidate
threshold is queued as a candidate, and a vertex at or below it is neither.
``_reclassify(v)`` is the only place that applies the rule; one candidate is
promoted per update, so that few are left to promote when m_c halves.  An
edge update reclassifies its two endpoints, and a vertex deletion deletes
its edges one by one, which leaves it untracked and unqueued at degree 0.
When m_c doubles, both thresholds rise, and a raised threshold can only
demote a tracked vertex or unqueue a candidate, so the doubling reclassifies
those two sets and no other vertex.  When m_c halves, both thresholds fall,
and any untracked vertex may now lie above one of them, so the halving
reclassifies every vertex (``_classify``), once, at the final thresholds, as
the constructor does.

No index of tracked neighbors is kept: a vertex entering or leaving S reads
``adj[v] & tracked``, which walks the smaller set, so it costs
min(deg v, |tracked|) and is metered as such; every tracked vertex has degree
above ceil(sqrt(m_c/2)), so |tracked| * ceil(sqrt(m_c/2)) < 2m keeps that
O(min(deg v, sqrt(m))).  Promotion reads ``adj[v] & S`` once for the count,
and demotion reads no adjacency, so a doubling of m that demotes many
vertices at once reads only their degrees (unmetered).
"""

from __future__ import annotations

from ..errors import VertexUpdateUnsupportedError
from ..graph import DynGraph
from ..meter import Changes, CostMeter
from .base import UpdateLoop, ceil_root


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
        self.tau = ceil_root(self.m_c, 1, 2)
        self.cand_thresh = ceil_root((self.m_c + 1) // 2, 1, 2)

    # -- public surface --------------------------------------------------

    def independent_set(self) -> set[int]:
        return set(self.in_S)

    apply = UpdateLoop.apply

    in_mis_query = UpdateLoop._query_op

    def verify(self) -> bool:
        """Full-rescan check of independence, the counts and the threshold rule's fixpoint."""
        g = self.g
        if g.m > 0 and not (self.m_c / 2 < g.m < 2 * self.m_c):
            return False
        adj, in_S, tracked, candidates = g.adj, self.in_S, self.tracked, self.candidates
        for v in in_S:
            if not adj[v].isdisjoint(in_S):
                return False
        tau, cand_thresh, hcount = self.tau, self.cand_thresh, self.hcount
        # every live tracked vertex must carry its count, and every live
        # untracked one above cand_thresh must be queued; with their numbers
        # equal to len(tracked), len(hcount) and len(candidates), no other
        # vertex is tracked, counted or queued
        queued = counted = 0
        for v, nbrs in adj.items():
            deg = len(nbrs)
            if v in tracked:
                if deg <= cand_thresh or hcount.get(v) != len(nbrs & in_S):
                    return False
                counted += 1
            elif deg > cand_thresh:
                if deg > tau or v not in candidates:
                    return False
                queued += 1
        return queued == len(candidates) and counted == len(tracked) == len(hcount)

    # -- event handlers --------------------------------------------------

    def _insert_edge(self, u: int, v: int, changes: Changes) -> None:
        self.g.insert_edge(u, v)
        # count the edge before promoting: a promotion counts it already
        if u in self.in_S and v in self.tracked:
            self.hcount[v] += 1
            self.meter.touch()
        if v in self.in_S and u in self.tracked:
            self.hcount[u] += 1
            self.meter.touch()
        self._reclassify(u)
        self._reclassify(v)
        if u in self.in_S and v in self.in_S:
            self._leave_S(max(u, v), changes)

    def _delete_edge(self, u: int, v: int, changes: Changes) -> None:
        self.g.delete_edge(u, v)
        if u in self.in_S and v in self.tracked:
            self.hcount[v] -= 1
            self.meter.touch()
        if v in self.in_S and u in self.tracked:
            self.hcount[u] -= 1
            self.meter.touch()
        self._reclassify(u)
        self._reclassify(v)

    def _insert_vertex(self, neighbors: tuple[int, ...], changes: Changes) -> None:
        if neighbors:
            raise VertexUpdateUnsupportedError("vertex insertion with incident edges")
        self.g.insert_vertex(())

    def _delete_vertex(self, v: int, changes: Changes) -> None:
        self.g._require(v)
        if v in self.in_S:
            self._leave_S(v, changes)
        for w in sorted(self.g.adj[v]):
            self._delete_edge(v, w, changes)
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
        # a query admission, logged nowhere, so it counts its own adjustment
        self.in_S.add(v)
        self.meter.adjust()
        nbrs, hcount = self.g.adj[v], self.hcount
        for x in nbrs & self.tracked:
            hcount[x] += 1
        self.meter.touch(min(len(nbrs), len(self.tracked)))

    def _leave_S(self, v: int, changes: Changes) -> None:
        self.in_S.discard(v)
        changes.append(("leave", v))
        nbrs, hcount = self.g.adj[v], self.hcount
        for x in nbrs & self.tracked:
            hcount[x] -= 1
        self.meter.touch(min(len(nbrs), len(self.tracked)))

    def _promote(self, v: int) -> None:
        self.tracked.add(v)
        self.candidates.discard(v)
        self.hcount[v] = len(self.g.adj[v] & self.in_S)
        self.meter.touch(len(self.g.adj[v]))

    def _reclassify(self, v: int) -> None:
        """Applies the threshold rule to ``v`` at its current degree."""
        deg = len(self.g.adj[v])
        if v in self.tracked:
            if deg <= self.cand_thresh:
                # demotion reads no adjacency
                self.tracked.discard(v)
                del self.hcount[v]
        elif deg > self.cand_thresh:
            if deg > self.tau:
                self._promote(v)
            else:
                self.candidates.add(v)
        else:
            self.candidates.discard(v)

    def _classify(self) -> None:
        # degree comparisons only; the scan reads no adjacency entries, so
        # only the promotions are metered
        for v in self.g.vertices():
            self._reclassify(v)

    def _settle(self, changes: Changes) -> None:
        candidates = self.candidates
        if candidates:
            self._promote(min(candidates))
        m, m_c = self.g.m, self.m_c
        while m >= 2 * m_c:
            m_c *= 2
        while m <= m_c // 2 and m_c > 1:
            m_c //= 2
        if m_c == self.m_c:
            return
        grew = m_c > self.m_c
        self.m_c = m_c
        self._set_thresholds()
        if grew:
            for v in [*self.tracked, *candidates]:
                self._reclassify(v)
            # a fresh set: discard never shrinks a set's table, and every
            # adj[v] & tracked would walk the old one
            self.tracked = set(self.tracked)
        else:
            self._classify()

"""Unit-capacity s-t maximum flow under edge updates.

Both classes keep a spanning tree of the vertices the source reaches in the
residual graph, as in Italiano's incremental reachability structure.  The
tree is one map, ``parent``, with ``parent[s] == s``: after every update its
keys are exactly the residual reach of ``s`` and every other ``parent`` arc
is a residual arc; the flow is maximum exactly when ``t`` is outside the
tree.

Every search is one BFS, ``_label(prev, start, stop)``, which writes
``prev[x] = w`` for each vertex it reaches and stops after the residual set
that labels ``stop``; ``_path`` reads a path back from such a map.  The tree
is such a map, so growing it is a search into ``parent``.

- An inserted edge (u,v) adds the residual arc u->v.  Only if u is in the
  tree and v is not does the tree grow, by a search from v.  If the sink
  joins, the flow is augmented along the tree path and the tree regrown
  from ``{s: s}``; one augmentation suffices, since the flow was maximum
  before.  Any other insertion costs O(1).
- Deleting an empty edge removes only its forward arc.  If that arc leaves
  the residual graph and was a tree arc, the tree is regrown from
  ``{s: s}``; any other such deletion costs nothing.
- Deleting an edge that carries flow searches once from u for v, to reroute
  the unit.  If v is not reached, then s is (back along the unit's path)
  and t is not, so the search goes on from t through an auxiliary s->t arc,
  which costs one touch: the unit is sent back to the source and the flow
  value drops by one.  The tree is then regrown from ``{s: s}``.

The tree shrinks only by regrowth, one search of at most m touches, so a
deletion costs at most two searches and the auxiliary touch: 2m + 1.

Every update returns a ``FlowDelta``: the change in the flow value and the
path a unit moved along.  Most updates move no flow (an insertion off the
tree's frontier, an empty edge's deletion, an isolated vertex), and every
one that moves none returns the one shared ``QUIET_FLOW``, ``FlowDelta(0)``,
rather than a new object; results are read-only.

Within one stage (between augmentations) insertion-only tree work is linear
in the edge count.  ``stage_touches`` records the metered work of each
stage, as the difference of the meter's total at its two ends, and
``current_stage_touches()`` that of the open one.  ``IncrementalFlow`` is the
same structure with deletions rejected.

The residual graph is kept as adjacency sets, ``res_out[u]``, beside the
flow flags in ``flow``: an edge gives its arc forward while empty and
backward while saturated.  Insertions, deletions and flips in ``_push``
update the sets in O(1), and every search reads them directly, in set
order; that order follows from the update history alone, so replays stay
deterministic.  Anti-parallel real edges are distinct (only exact
duplicates are rejected), and both can give the same arc: an empty (u,v)
and a saturated (v,u) both give u->v, which leaves the sets only when
neither edge keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IncompatibleStreamError,
    MissingEdgeError,
    NotIncrementalError,
    ParallelEdgeError,
    SelfLoopError,
    UnknownVertexError,
)
from .meter import CostMeter
from .stream import DeleteEdge, InsertEdge, InsertVertex, UpdateEvent


@dataclass(slots=True)
class FlowDelta:
    dF: int
    path: list[int] | None = None


# what every update that moves no flow returns; results are read-only
QUIET_FLOW = FlowDelta(0)


class FlowNetwork:
    """Fully dynamic flow with a persistent source reachability tree."""

    def __init__(self, n: int, s: int, t: int):
        if s == t:
            raise SelfLoopError("source equals sink")
        self.res_out: dict[int, set[int]] = {v: set() for v in range(n)}
        self.flow: dict[tuple[int, int], int] = {}
        self.s = s
        self.t = t
        self.F = 0
        self.meter = CostMeter()
        self._require(s)
        self._require(t)
        self.parent: dict[int, int] = {s: s}
        self.stage_touches: list[int] = []
        self._stage_start = 0

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.res_out)

    @property
    def m(self) -> int:
        return len(self.flow)

    def add_vertex(self) -> int:
        v = len(self.res_out)
        self.res_out[v] = set()
        return v

    def vertices(self) -> list[int]:
        return list(self.res_out)

    def directed_edges(self) -> list[tuple[int, int]]:
        return list(self.flow)

    def residual_out(self, u: int) -> list[int]:
        """The heads of u's residual arcs, sorted (the searches read ``res_out``)."""
        return sorted(self.res_out[u])

    def current_stage_touches(self) -> int:
        return self.meter.edges_touched - self._stage_start

    # -- updates ---------------------------------------------------------

    def apply(self, event: UpdateEvent) -> FlowDelta:
        """Apply an edge update or an isolated vertex insertion.

        Any other event kind raises IncompatibleStreamError.
        """
        if isinstance(event, InsertEdge):
            return self.insert_edge(event.u, event.v)
        if isinstance(event, DeleteEdge):
            return self.delete_edge(event.u, event.v)
        if isinstance(event, InsertVertex) and not event.neighbors:
            meter = self.meter
            touched, adjusted = meter.edges_touched, meter.adjustments
            self.add_vertex()
            meter.updates += 1
            meter.end_op(touched, adjusted)
            return QUIET_FLOW
        raise IncompatibleStreamError(
            f"{type(self).__name__} takes edge updates and isolated vertices only, not {event!r}"
        )

    def insert_edge(self, u: int, v: int) -> FlowDelta:
        """Insert the empty edge (u,v); the tree grows only if u is in it and v is not.

        A self-loop, an unknown tail, an unknown head and a duplicate edge
        are rejected in that order, before anything changes.  Each endpoint
        is looked up once, and ``_require`` names the unknown one only after
        a lookup misses.
        """
        if u == v:
            raise SelfLoopError(f"self-loop at {u}")
        out_u = self.res_out.get(u)
        if out_u is None or v not in self.res_out:
            self._require(u)
            self._require(v)
        if (u, v) in self.flow:
            raise ParallelEdgeError(f"edge ({u},{v}) already present")
        meter = self.meter
        touched, adjusted = meter.edges_touched, meter.adjustments
        self.flow[(u, v)] = 0
        out_u.add(v)
        meter.updates += 1
        meter.edges_touched += 1
        parent, s, t = self.parent, self.s, self.t
        if u in parent and v not in parent:
            parent[v] = u
            self._label(parent, v, t)
            if t in parent:
                path = self._path(parent, s, t)
                self._push(path)
                self.F += 1
                self.stage_touches.append(meter.edges_touched - self._stage_start)
                self._stage_start = meter.edges_touched
                self._regrow()
                meter.end_op(touched, adjusted)
                return FlowDelta(1, path)
        meter.end_op(touched, adjusted)
        return QUIET_FLOW

    def delete_edge(self, u: int, v: int) -> FlowDelta:
        """Delete the edge (u,v), rerouting its unit if it carries one.

        An unknown tail, an unknown head and a missing edge are rejected in
        that order, before anything changes; the endpoints are checked only
        after the edge lookup misses.
        """
        if (u, v) not in self.flow:
            self._require(u)
            self._require(v)
            raise MissingEdgeError(f"edge ({u},{v}) not present")
        meter = self.meter
        touched, adjusted = meter.edges_touched, meter.adjustments
        carried = self.flow.pop((u, v))
        meter.updates += 1
        if not carried:
            self._drop_arc(u, v)
            # the tree lost an arc only if v hung from u and no other edge gives u->v
            if self.parent.get(v) == u and v not in self.res_out[u]:
                self._regrow()
            meter.end_op(touched, adjusted)
            return QUIET_FLOW
        self._drop_arc(v, u)
        prev = {u: u}
        self._label(prev, u, v)
        dF = 0
        if v not in prev:
            # u reaches s back along the unit's path but not t, and t reaches
            # v: the search goes on from t through the auxiliary arc s->t
            meter.touch(1)
            prev[self.t] = self.s
            self._label(prev, self.t, v)
            self.F -= 1
            dF = -1
        path = self._path(prev, u, v)
        self._push(path, skip_aux=dF < 0)
        self._regrow()
        meter.end_op(touched, adjusted)
        return FlowDelta(dF, path)

    # -- auditing --------------------------------------------------------

    def verify(self) -> bool:
        """Capacity, conservation, flow value, the residual sets, maximality and the tree.

        One pass over the edges checks the flags and that every arc an edge
        gives is in its residual set.  An empty edge costs one membership
        test.  The saturated branch, which holds the few edges that carry
        flow, also sums the balances and finds the arcs two edges give at
        once: a saturated (u,v) and an empty (v,u) both give v->u, and the
        pair is counted once, on its saturated side.  The set sizes must
        then sum to the number of distinct arcs, so the sets hold nothing
        else.  Only then is the residual reach recomputed from them, without
        touching the meter, and the tree checked against it: rooted at
        ``parent[s] == s``, made of residual arcs, and hanging every reached
        vertex from s.
        """
        flow, res_out = self.flow, self.res_out
        balance: dict[int, int] = {}
        arcs = len(flow)
        for (u, v), f in flow.items():
            if f == 0:
                if v not in res_out[u]:
                    return False
            elif f == 1:
                if u not in res_out[v]:
                    return False
                balance[u] = balance.get(u, 0) - 1
                balance[v] = balance.get(v, 0) + 1
                if flow.get((v, u)) == 0:
                    arcs -= 1  # the empty (v,u) gives v->u as well
            else:
                return False
        if sum(map(len, res_out.values())) != arcs:
            return False
        s, t = self.s, self.t
        if any(b for v, b in balance.items() if v != s and v != t):
            return False
        if -balance.get(s, 0) != self.F or balance.get(t, 0) != self.F or self.F < 0:
            return False
        reach, stack = {s}, [s]
        while stack:
            for x in res_out[stack.pop()]:
                if x not in reach:
                    reach.add(x)
                    stack.append(x)
        parent = self.parent
        if t in reach or parent.get(s) != s or parent.keys() != reach:
            return False
        children: dict[int, list[int]] = {}
        for x, w in parent.items():
            if x == s:
                continue
            if x not in res_out[w]:
                return False
            children.setdefault(w, []).append(x)
        # every tree vertex must hang from s, not from a cycle of parent arcs
        hung, stack = 1, [s]
        while stack:
            kids = children.get(stack.pop(), [])
            hung += len(kids)
            stack.extend(kids)
        return hung == len(parent)

    # -- internals -------------------------------------------------------

    def _drop_arc(self, a: int, b: int) -> None:
        """Remove the residual arc a->b unless an edge still gives it."""
        if self.flow.get((a, b)) != 0 and self.flow.get((b, a)) != 1:
            self.res_out[a].discard(b)

    def _require(self, v: int) -> None:
        if v not in self.res_out:
            raise UnknownVertexError(f"vertex {v} is not live")

    def _label(self, prev: dict[int, int], start: int, stop: int) -> None:
        """BFS from ``start``: label each new x reached by a residual arc w->x with ``prev[x] = w``.

        The search stops after the set that labels ``stop``, and charges the
        meter once for all the sets it scanned.  Finishing that set labels
        only vertices after ``stop``, which a path read back from ``stop``
        never passes, and every caller either reads such a path or regrows
        the tree.
        """
        if stop in prev:
            return
        res_out = self.res_out
        queue = [start]
        touched = 0
        for w in queue:
            targets = res_out[w]
            touched += len(targets)
            for x in targets:
                if x not in prev:
                    prev[x] = w
                    queue.append(x)
            if stop in prev:
                break
        self.meter.touch(touched)

    @staticmethod
    def _path(prev: dict[int, int], src: int, dst: int) -> list[int]:
        """The labelled path from src to dst, read back from dst."""
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def _regrow(self) -> None:
        """Regrow the tree from ``{s: s}``; the flow is maximum, so it never reaches t."""
        self.parent = {self.s: self.s}
        self._label(self.parent, self.s, self.t)

    def _push(self, path: list[int], skip_aux: bool = False) -> None:
        """Push one unit along a residual path.

        Each used arc a->b leaves the residual sets unless the other edge
        between a and b still gives it, and its reverse b->a joins them.
        """
        flow, res_out = self.flow, self.res_out
        for a, b in zip(path, path[1:]):
            if flow.get((a, b)) == 0:
                flow[(a, b)] = 1
            elif flow.get((b, a)) == 1:
                flow[(b, a)] = 0
            else:
                assert skip_aux and a == self.s and b == self.t, "broken residual path"
                continue
            self._drop_arc(a, b)
            res_out[b].add(a)


class IncrementalFlow(FlowNetwork):
    """Insertion-only flow: the same source tree, with deletions rejected."""

    # bound here as well, so each class's own namespace names its public calls
    insert_edge = FlowNetwork.insert_edge
    verify = FlowNetwork.verify

    def delete_edge(self, u: int, v: int) -> FlowDelta:
        raise NotIncrementalError("incremental flow rejects deletions")

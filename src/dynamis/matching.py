"""Maximum cardinality matching under updates, on one alternating forest.

``DynamicMatching`` finds augmenting paths with one search, Edmonds'
alternating forest with blossoms contracted through a disjoint-set union
over their bases (Edmonds 1965, "Paths, trees, and flowers"; Gabow & Tarjan
1985).  Every forest is grown from all the free vertices, so every free
vertex is a root and a vertex outside the forest is matched.  A vertex's
base is ``dsu[x]`` once x is contracted, and the union is searched further
only when that base was contracted in turn.

Each odd vertex points at the even vertex it hangs from.  Contracting a
blossom points each even vertex on its cycle back along the cycle towards
the closing edge, and that edge's endpoints at each other, so from every
even vertex ``x`` the walk ``x, mate[x], parent[mate[x]], ...`` alternates
up to its root.  An edge between even vertices of two trees closes an
augmenting path; the forest flips it along these pointers and runs no
second search.  A contraction finds the closing edge's lowest common base
by walking both sides up in turn, to the first base seen twice.

``_grow`` is the only code that settles an edge.  It scans even vertices
and settles each neighbour: one with the scanned vertex's base or an odd
base is skipped, an unlabelled one is attached with its mate, which is
queued, and an even one contracts a blossom in the same tree or augments
from another.  A contraction may move the scanned vertex's base, so the
base is found again after it.  ``_grow_fresh`` starts every forest, from
all the free vertices, and grows it, unless the forest would be futile.

An augmenting path joins two distinct free vertices, each with an edge
(Berge 1957).  So while fewer than two free vertices have an edge, no forest
can augment, and ``_grow_fresh`` grows none: it counts those vertices in its
root scan, and with fewer than two leaves the forest empty, stale and
futile.  An insertion between two matched vertices gives no free vertex an
edge, so a futile forest answers it with no pairs and no touches.  Every
event that can give a free vertex an edge reaches ``_grow_fresh`` again and
re-counts: an insertion at a free endpoint (unless both are free, which
matches them and frees none), the deletion of a matched edge, and a vertex
event through ``augment_from``.  Every other event keeps the count below
two.

An inserted edge (u, v), oriented so that u's base is even, enters the
standing forest as ``_grow``'s first scan: u with the one neighbour v.
``_absorb_edge`` skips, at one touch, an edge the rule would skip.  Any
other edge either closes an augmenting path, and the matching grows by one,
which is all an insertion can add; or it attaches a matched pair to a tree
or contracts a blossom, and the forest grows from the vertices that turned
even.  Every vertex is scanned at most once per forest, so an insertion
costs O(n + m).  Once the forest is complete, no edge joins even vertices
of two trees, and the matching is maximum.

A deletion of a matched edge, and a vertex update that frees a vertex or
adds one with edges, grows a fresh forest through ``augment_from``: only
paths ending at a freed or new vertex can augment, at most one does, and
the full forest finds it.  If none does, that forest is complete and the
next insertion feeds it, or it is futile.  A grown forest goes stale only
after an augmentation, the deletion of an unmatched edge that is a parent
pointer (``parent[x] == y`` or ``parent[y] == x``), or the deletion of an
unmatched vertex; it is rebuilt at the next insertion that needs it.  Every
unmatched edge that a walk or a blossom cycle relies on is such a pointer;
a blossom's closing edge is recorded on at least one side, since its
endpoints have different bases.  Deleting any other edge leaves a complete
forest complete, its roots still the free vertices, and an isolated new
vertex joins it as a free one-vertex tree.

``apply`` returns a ``MatchDelta``: the change in cardinality and the pairs
the update made.  An update that neither changes the cardinality nor flips
a pair returns the one shared ``QUIET_MATCH``, ``MatchDelta(0, [])``, rather
than a new object; results are read-only.

The forest meters every adjacency scan it makes.  A stage is the span of
updates that ends when the matching grows; ``stage_touches`` records the
metered work of each one, as the difference of the meter's total at its two
ends.

``IncrementalMatching`` is the same structure with deletions rejected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import filterfalse

from .errors import IncompatibleStreamError, NotFreeError
from .graph import DynGraph
from .meter import CostMeter
from .oracles import static_max_matching
from .stream import DeleteEdge, InsertEdge, InsertVertex, QueryInMis, UpdateEvent, require_insertion

EVEN = 0
ODD = 1


@dataclass(slots=True)
class MatchDelta:
    delta: int
    flipped: list[tuple[int, int]] = field(default_factory=list)


# what every update that neither changes the cardinality nor flips a pair
# returns; results are read-only
QUIET_MATCH = MatchDelta(0, [])


class DynamicMatching:
    """Fully dynamic maximum matching on one alternating forest.

    Forest state: ``label`` is EVEN or ODD for vertices in a tree, ``root``
    names their tree, and ``dsu`` maps a contracted vertex towards its
    blossom's base.  ``parent`` links an odd vertex to the even vertex it
    hangs from, and an even vertex on a contracted cycle to its neighbour
    on the cycle towards the edge that closed it (an endpoint of that edge
    to the other).  ``_queue`` holds even vertices not scanned yet.  A
    forest grows from all the free vertices; while ``_stale`` is false it is
    complete and its roots are still exactly the free vertices.  While
    ``_futile`` is true the forest is stale and empty, and at most one free
    vertex has an edge.
    """

    def __init__(self, g: DynGraph):
        self.g = g
        self.mate: dict[int, int] = {}
        self.meter = CostMeter()
        # each pass augments once, until one leaves a complete or futile forest
        while self._grow_fresh():
            pass
        self.stage_touches: list[int] = []
        self._stage_start = self.meter.edges_touched

    @property
    def cardinality(self) -> int:
        return len(self.mate) // 2

    def augment_from(self, v: int) -> list[tuple[int, int]] | None:
        """Grows a fresh forest once the free vertex ``v`` may end an augmenting path.

        Returns the new pairs of the path it flips, or None; then the forest
        is complete, or futile and not grown.
        """
        if v in self.mate:
            raise NotFreeError(f"vertex {v} is matched")
        return self._grow_fresh()

    def verify(self) -> bool:
        mate, adj = self.mate, self.g.adj
        for x, y in mate.items():
            # a dead x has no adjacency set and fails like a non-edge
            if mate.get(y) != x or y not in adj.get(x, ()):
                return False
        return self.cardinality == static_max_matching(adj, mate)

    def apply(self, event: UpdateEvent) -> MatchDelta:
        """Apply one update and return the change in cardinality with the pairs it made.

        The operation is charged the growth of the meter's totals from here
        to its end.  The graph validates the event before anything else
        changes, so a rejected event raises with the matching, the forest and
        the meter as they were.
        """
        if isinstance(event, QueryInMis):
            raise IncompatibleStreamError("queries are not matching updates")
        meter = self.meter
        touched, adjusted = meter.edges_touched, meter.adjustments
        before = self.cardinality
        flipped: list[tuple[int, int]] = []
        if isinstance(event, InsertEdge):
            self.g.insert_edge(event.u, event.v)
            flipped = self._absorb_edge(event.u, event.v)
        elif isinstance(event, InsertVertex):
            v = self.g.insert_vertex(event.neighbors)
            if event.neighbors:
                flipped = self.augment_from(v) or []
            else:  # an isolated vertex has no augmenting path
                self._add_root(v)
        elif isinstance(event, DeleteEdge):
            x, y = event.u, event.v
            self.g.delete_edge(x, y)
            if self.parent.get(x) == y or self.parent.get(y) == x:
                self._stale = True  # a walk or a blossom cycle may have used the edge
            if self.mate.get(x) == y:
                del self.mate[x]
                del self.mate[y]
                # any augmenting path ends at x or y, and the forest holds both
                flipped = self.augment_from(x) or []
        else:
            x = event.v
            self.g.delete_vertex(x)
            y = self.mate.pop(x, None)
            if y is None:
                self._stale = True  # x was a root, and its tree lost it
            else:
                del self.mate[y]
                flipped = self.augment_from(y) or []
        meter.updates += 1
        delta = self.cardinality - before
        if delta > 0:
            self.stage_touches.append(meter.edges_touched - self._stage_start)
            self._stage_start = meter.edges_touched
        meter.end_op(touched, adjusted)
        if delta or flipped:
            return MatchDelta(delta, flipped)
        return QUIET_MATCH

    def _absorb_edge(self, u: int, v: int) -> list[tuple[int, int]]:
        """Restore maximality after inserting edge (u,v); returns the new pairs."""
        mate = self.mate
        if u not in mate and v not in mate:
            mate[u] = v
            mate[v] = u
            self._stale = True
            return [(min(u, v), max(u, v))]
        if self._stale:
            if self._futile and u in mate and v in mate:
                return []  # no free vertex gained an edge
            # the fresh forest scans every even vertex, the new edge included
            return self._grow_fresh() or []
        find, label = self._find, self.label
        bu, bv = find(u), find(v)
        if label.get(bu) != EVEN:
            u, v, bu, bv = v, u, bv, bu
        if bu == bv or label.get(bu) != EVEN or label.get(bv) == ODD:
            self.meter.touch(1)
            return []  # the rule skips the edge
        return self._grow((u, v)) or []

    # -- forest machinery ------------------------------------------------

    def _grow_fresh(self) -> list[tuple[int, int]] | None:
        """Starts a forest whose trees are all the free vertices and grows it.

        An augmenting path joins two free vertices that have edges.  With
        fewer than two the forest is left empty, stale and futile.
        """
        adj = self.g.adj
        roots = list(filterfalse(self.mate.__contains__, adj))
        # reads each root's set size, not its entries
        self._stale = self._futile = sum(map(bool, map(adj.__getitem__, roots))) < 2
        if self._futile:
            roots = []
        self.label: dict[int, int] = dict.fromkeys(roots, EVEN)
        self.root: dict[int, int] = dict(zip(roots, roots))
        self.parent: dict[int, int] = {}
        self.dsu: dict[int, int] = {}
        self._queue: deque[int] = deque(roots)
        return self._grow()

    def _add_root(self, v: int) -> None:
        """Adds the new isolated vertex ``v`` to a complete forest as a one-vertex tree."""
        if not self._stale:
            self.label[v] = EVEN
            self.root[v] = v

    def _grow(self, first: tuple[int, int] | None = None) -> list[tuple[int, int]] | None:
        """Scans even vertices until the forest is complete or augments.

        ``first``, an edge (u, v) with u's base even, is scanned before the
        queue as u with the one neighbour v.  The scans are charged to the
        meter once, on the way out.
        """
        queue = self._queue
        if first is None and not queue:
            return None
        adj, mate, label, root, parent = self.g.adj, self.mate, self.label, self.root, self.parent
        dsu, find = self.dsu, self._find
        touched = 0
        if first is None:
            v = queue.popleft()
            nbrs = adj[v]
        else:
            v, nbrs = first[0], first[1:]
        while True:
            touched += len(nbrs)
            bv = dsu.get(v, v)
            if bv in dsu:
                bv = find(bv)
            for w in nbrs:
                if w in dsu:
                    bw = dsu[w]
                    if bw in dsu:
                        bw = find(bw)
                else:
                    bw = w
                if bw == bv:
                    continue
                lw = label.get(bw)
                if lw == ODD:
                    continue
                if lw is None:
                    # every free vertex is a root, so w is matched
                    mw = mate[w]
                    label[w] = ODD
                    parent[w] = v
                    root[w] = root[mw] = root[v]
                    label[mw] = EVEN
                    queue.append(mw)
                elif root[bw] == root[bv]:
                    self._contract(v, w, bv, bw)
                    bv = find(v)
                else:
                    self.meter.touch(touched)
                    return self._augment(v, w)
            if not queue:
                break
            v = queue.popleft()
            nbrs = adj[v]
        self.meter.touch(touched)
        return None

    def _find(self, v: int) -> int:
        dsu = self.dsu
        r = v
        while r in dsu:
            r = dsu[r]
        while v in dsu and dsu[v] != r:
            dsu[v], v = r, dsu[v]
        return r

    def _augment(self, u: int, v: int) -> list[tuple[int, int]]:
        """Flips the augmenting path through edge (u,v) between even vertices of two trees."""
        mate, parent = self.mate, self.parent
        flipped = [(min(u, v), max(u, v))]
        for x in (u, v):
            # x's side runs x, mate[x], parent[mate[x]], ... up to its root
            y = mate.get(x)
            while y is not None:
                z = parent[y]
                nxt = mate.get(z)
                mate[y] = z
                mate[z] = y
                flipped.append((min(y, z), max(y, z)))
                y = nxt
        mate[u] = v
        mate[v] = u
        self._stale = True
        flipped.sort()
        return flipped

    def _up(self, b: int) -> int | None:
        """Next even base above blossom/vertex base ``b``, None at a root."""
        mb = self.mate.get(b)
        if mb is None:
            return None
        dsu = self.dsu
        p = self.parent[mb]
        b = dsu.get(p, p)
        return self._find(b) if b in dsu else b

    def _contract(self, u: int, v: int, bu: int, bv: int) -> None:
        """Contracts the blossom that edge (u,v), with bases bu and bv, closes in one tree."""
        find, mate, parent, dsu, up = self._find, self.mate, self.parent, self.dsu, self._up
        # walk both sides up in turn; the first base seen twice is the lowest common one
        seen: set[int] = set()
        x, y = bu, bv
        while x not in seen:
            assert x is not None or y is not None, "bases share no root"
            if x is not None:
                seen.add(x)
                x = up(x)
            x, y = y, x
        lca = x
        members: set[int] = set()
        for x, across in ((u, v), (v, u)):
            # each even vertex on this side points back along the cycle, the
            # endpoint across the closing edge
            while True:
                bx = dsu.get(x, x)
                if bx in dsu:
                    bx = find(bx)
                if bx == lca:
                    break
                mx = mate[x]
                members.add(bx)
                bm = dsu.get(mx, mx)
                members.add(find(bm) if bm in dsu else bm)
                parent[x] = across
                across = mx
                x = parent[mx]
        for b in members:
            if self.label[b] == ODD:
                self._queue.append(b)  # an odd vertex inside a blossom is even
            dsu[b] = lca


class IncrementalMatching(DynamicMatching):
    """Insertion-only maximum matching: the same forest, with deletions rejected."""

    # bound here as well, so each class's own namespace names its public calls
    verify = DynamicMatching.verify

    def __init__(self):
        super().__init__(DynGraph())

    def insert_vertex(self) -> int:
        v = self.g.insert_vertex(())
        self._add_root(v)
        return v

    def apply(self, event: UpdateEvent) -> MatchDelta:
        require_insertion(event)
        return DynamicMatching.apply(self, event)

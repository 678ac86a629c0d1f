"""Maximum cardinality matching under updates, on one alternating forest.

``DynamicMatching`` finds augmenting paths with one search, Edmonds'
alternating forest with blossoms contracted through a disjoint-set union
over their bases (Edmonds 1965, "Paths, trees, and flowers"; Gabow & Tarjan
1985).  ``_build_forest(roots)`` grows it from every free vertex when an
insertion needs a fresh forest, and only from the freed vertex in
``augment_from``.

Each odd vertex points at the even vertex it hangs from.  Contracting a
blossom points each even vertex on its cycle back along the cycle towards
the closing edge, and that edge's endpoints at each other, so from every
even vertex ``x`` the walk ``x, mate[x], parent[mate[x]], ...`` alternates
up to its root.  An edge from an even vertex to an even vertex of another
tree, or to a free vertex that is not a root, closes an augmenting path; the
forest flips it along these pointers and runs no second search.

An inserted edge is fed into the standing forest.  It either closes an
augmenting path, and the matching grows by one, which is all an insertion
can add; or it attaches a matched pair to a tree or contracts a blossom, and
the forest grows from the vertices that turned even.  Every vertex is
scanned at most once per forest, so an insertion costs O(n + m).  Once the
forest from every free vertex is complete, no edge joins even vertices of
two trees.

A deletion or a vertex update searches from the endpoints it freed: only
paths ending there can augment, and at most one does.  Augmentations,
vertex updates and these searches leave the forest stale; it is rebuilt at
the next insertion that needs it.  An isolated new vertex is the exception:
it joins a complete forest as a free one-vertex tree, which is all the
forest lacks.  A deletion leaves it stale only if the edge is matched or a
parent pointer (``parent[x] == y`` or ``parent[y] == x``).  Every unmatched
edge that a walk or a blossom cycle relies on is such a pointer; a
blossom's closing edge is recorded on at least one side, since its
endpoints have different bases.  Deleting any other edge leaves a complete
forest complete, its roots still the free vertices.

The forest meters every adjacency scan it makes.  A stage is the span of
updates that ends when the matching grows; ``stage_touches`` records the
metered work of each one, as the difference of the meter's total at its two
ends.

``IncrementalMatching`` is the same structure with deletions rejected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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


class DynamicMatching:
    """Fully dynamic maximum matching on one alternating forest.

    Forest state: ``label`` is EVEN or ODD for vertices in a tree, ``root``
    names their tree, and ``dsu`` maps a contracted vertex towards its
    blossom's base.  ``parent`` links an odd vertex to the even vertex it
    hangs from, and an even vertex on a contracted cycle to its neighbour
    on the cycle towards the edge that closed it (an endpoint of that edge
    to the other).  ``_queue`` holds even vertices not scanned yet.  While
    ``_stale`` is false the forest is complete and its roots are all the
    free vertices; ``augment_from`` grows one from a single root and leaves
    it stale.
    """

    def __init__(self, g: DynGraph):
        self.g = g
        self.mate: dict[int, int] = {}
        self.meter = CostMeter()
        self.label: dict[int, int] = {}
        self.parent: dict[int, int] = {}
        self.root: dict[int, int] = {}
        self.dsu: dict[int, int] = {}
        self._queue: deque[int] = deque()
        self._stale = True
        for v in sorted(g.vertices()):
            if v not in self.mate:
                self._build_forest([v])
                self._grow()
        self.stage_touches: list[int] = []
        self._stage_start = self.meter.edges_touched

    @property
    def cardinality(self) -> int:
        return len(self.mate) // 2

    def augment_from(self, v: int) -> list[tuple[int, int]] | None:
        """Flips an augmenting path from the free vertex ``v``; returns the new pairs, or None."""
        if v in self.mate:
            raise NotFreeError(f"vertex {v} is matched")
        self._stale = True  # a forest from one root misses the other free vertices
        self._build_forest([v])
        return self._grow()

    def verify(self) -> bool:
        for x, y in self.mate.items():
            if self.mate.get(y) != x or not self.g.has_edge(x, y):
                return False
        return self.cardinality == static_max_matching(self.g.adj, self.mate)

    def apply(self, event: UpdateEvent) -> MatchDelta:
        """Apply one update; the operation is metered only once the graph accepts it."""
        if isinstance(event, QueryInMis):
            raise IncompatibleStreamError("queries are not matching updates")
        before = self.cardinality
        flipped: list[tuple[int, int]] = []
        if isinstance(event, InsertEdge):
            self.g.insert_edge(event.u, event.v)
            self.meter.begin_op()
            flipped = self._absorb_edge(event.u, event.v)
        elif isinstance(event, InsertVertex):
            v = self.g.insert_vertex(event.neighbors)
            self.meter.begin_op()
            if event.neighbors:
                flipped = self.augment_from(v) or []
            else:  # an isolated vertex has no augmenting path
                self._add_root(v)
        elif isinstance(event, DeleteEdge):
            x, y = event.u, event.v
            self.g.delete_edge(x, y)
            self.meter.begin_op()
            if self.parent.get(x) == y or self.parent.get(y) == x:
                self._stale = True  # a walk or a blossom cycle may have used the edge
            if self.mate.get(x) == y:
                del self.mate[x]
                del self.mate[y]
                # a path ending at neither x nor y would have augmented before
                flipped = self.augment_from(x) or self.augment_from(y) or []
        else:
            x = event.v
            self.g.delete_vertex(x)
            self.meter.begin_op()
            self._stale = True
            y = self.mate.pop(x, None)
            if y is not None:
                del self.mate[y]
                flipped = self.augment_from(y) or []
        self.meter.updates += 1
        delta = MatchDelta(self.cardinality - before, flipped)
        if delta.delta > 0:
            self.stage_touches.append(self.meter.edges_touched - self._stage_start)
            self._stage_start = self.meter.edges_touched
        self.meter.end_op()
        return delta

    def _absorb_edge(self, u: int, v: int) -> list[tuple[int, int]]:
        """Restore maximality after inserting edge (u,v); returns the new pairs."""
        mate = self.mate
        if u not in mate and v not in mate:
            mate[u] = v
            mate[v] = u
            self._stale = True
            return [(min(u, v), max(u, v))]
        if len(mate) == self.g.n:
            return []  # no free vertex, so no augmenting path
        if self._stale:
            # the fresh forest scans every even vertex, the new edge included
            self._build_forest([w for w in self.g.adj if w not in mate])
            self._stale = False
        else:
            self.meter.touch(1)
            found = self._process_edge(u, v)
            if found is not None:
                return found
        return self._grow() or []

    # -- forest machinery ------------------------------------------------

    def _build_forest(self, roots: list[int]) -> None:
        """Starts a forest whose trees are the free vertices ``roots``."""
        self.label = dict.fromkeys(roots, EVEN)
        self.root = {v: v for v in roots}
        self.parent = {}
        self.dsu = {}
        self._queue = deque(roots)

    def _add_root(self, v: int) -> None:
        """Adds the new isolated vertex ``v`` to a complete forest as a one-vertex tree."""
        if not self._stale:
            self.label[v] = EVEN
            self.root[v] = v

    def _grow(self) -> list[tuple[int, int]] | None:
        """Scan queued even vertices until the forest is complete or augments."""
        adj = self.g.adj
        while self._queue:
            v = self._queue.popleft()
            nbrs = adj[v]
            self.meter.touch(len(nbrs))
            for w in nbrs:
                found = self._process_edge(v, w)
                if found is not None:
                    return found
        return None

    def _find(self, v: int) -> int:
        r = v
        while r in self.dsu:
            r = self.dsu[r]
        while v in self.dsu and self.dsu[v] != r:
            self.dsu[v], v = r, self.dsu[v]
        return r

    def _process_edge(self, u: int, v: int) -> list[tuple[int, int]] | None:
        """Returns the new pairs when the edge closes an augmenting path."""
        bu, bv = self._find(u), self._find(v)
        if bu == bv:
            return None
        lu, lv = self.label.get(bu), self.label.get(bv)
        if lu != EVEN:
            if lv != EVEN:
                return None
            u, v, bu, bv, lv = v, u, bv, bu, lu
        if lv == EVEN:
            if self.root[bu] == self.root[bv]:
                self._contract(u, v)
                return None
            return self._augment(u, v)
        if lv is None:
            if v not in self.mate:
                return self._augment(u, v)
            self._attach(u, v)
        return None

    def _attach(self, even_u: int, v: int) -> None:
        w = self.mate[v]
        self.label[v] = ODD
        self.parent[v] = even_u
        self.root[v] = self.root[even_u]
        self.label[w] = EVEN
        self.root[w] = self.root[v]
        self._queue.append(w)

    def _augment(self, u: int, v: int) -> list[tuple[int, int]]:
        """Flips the augmenting path through edge (u,v): u is even, v even in another tree or free."""
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
        return self._find(self.parent[mb])

    def _contract(self, u: int, v: int) -> None:
        """Contracts the blossom that edge (u,v) closes between two even vertices of one tree."""
        find, mate, parent = self._find, self.mate, self.parent
        ancestors = set()
        x: int | None = find(u)
        while x is not None:
            ancestors.add(x)
            x = self._up(x)
        x = find(v)
        while x not in ancestors:
            x = self._up(x)
            assert x is not None, "bases share no root"
        lca = x
        members: set[int] = set()
        for x, across in ((u, v), (v, u)):
            # each even vertex on this side points back along the cycle, the
            # endpoint across the closing edge
            while find(x) != lca:
                mx = mate[x]
                members.add(find(x))
                members.add(find(mx))
                parent[x] = across
                across = mx
                x = parent[mx]
        for b in members:
            if self.label[b] == ODD:
                self._queue.append(b)  # an odd vertex inside a blossom is even
            self.dsu[b] = lca


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

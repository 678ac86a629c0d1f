"""Maximum cardinality matching under updates, on one alternating forest.

``DynamicMatching`` keeps a maximum matching together with a multi-root
alternating forest over it: Edmonds' search grown from every free vertex at
once, with blossoms contracted through a disjoint-set union over their bases
(Edmonds 1965, "Paths, trees, and flowers"; Gabow & Tarjan 1985).  Once the
forest is complete and the matching is maximum, no edge joins even vertices
of two different trees.

An inserted edge is fed into the forest.  An edge between even vertices of
two trees closes an augmenting path: one single-source search from either
tree's root finds a path and the matching grows by one, which is all an
insertion can add.  Any other edge attaches a matched pair to a tree or
contracts a blossom, and the forest grows from the vertices that turned
even.  Every vertex is scanned at most once per forest, so an insertion
costs at most one pass over the forest, O(n + m).

A deletion or a vertex update repairs the matching by single-source search
from the endpoints it freed: only paths ending there can augment, and at
most one does.  Augmentations, deletions and vertex updates leave the forest
stale; it is rebuilt from the free vertices at the next insertion that needs
it.

The single-source search runs on the live adjacency sets and ``mate`` dict
and meters every adjacency scan it makes.  A stage is the span of updates
that ends when the matching grows; ``stage_touches`` records the metered work
of each one, as the difference of the meter's total at its two ends.

``IncrementalMatching`` is the same structure with deletions rejected.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import IncompatibleStreamError, NotFreeError, NotIncrementalError
from .graph import DynGraph
from .meter import CostMeter
from .oracles import static_max_matching
from .stream import DeleteEdge, InsertEdge, InsertVertex, QueryInMis, UpdateEvent

EVEN = 0
ODD = 1


@dataclass
class MatchDelta:
    delta: int
    flipped: list[tuple[int, int]] = field(default_factory=list)


def _single_source_augment(
    g: DynGraph, mate: dict[int, int], root: int, meter: CostMeter
) -> list[tuple[int, int]] | None:
    """Grow one alternating tree from the free vertex ``root``.

    Contracts blossoms on the way; on success flips ``mate`` along the
    augmenting path and returns the new matched pairs, else returns None.
    """
    if root in mate:
        raise NotFreeError(f"vertex {root} is matched")
    adj = g.adj
    parent: dict[int, int] = {}
    base: dict[int, int] = {}  # disjoint-set parent of a contracted vertex
    used = {root}
    queue = deque([root])

    def find(v: int) -> int:
        r = v
        while r in base:
            r = base[r]
        while v in base and base[v] != r:
            base[v], v = r, base[v]
        return r

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = find(a)
            seen.add(a)
            if a not in mate:
                break
            a = parent[mate[a]]
        while True:
            b = find(b)
            if b in seen:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while find(v) != b:
            mv = mate[v]
            blossom.add(find(v))
            blossom.add(find(mv))
            parent[v] = child
            child = mv
            v = parent[mv]

    while queue:
        v = queue.popleft()
        nbrs = adj[v]
        meter.touch(len(nbrs))
        for to in nbrs:
            if find(v) == find(to) or mate.get(v) == to:
                continue
            if to == root or (to in mate and mate[to] in parent):
                cur = lca(v, to)
                blossom: set[int] = set()
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for b in blossom:
                    if b != cur:
                        base[b] = cur
                    if b not in used:
                        used.add(b)
                        queue.append(b)
            elif to not in parent:
                parent[to] = v
                if to not in mate:
                    flipped = []
                    w: int | None = to
                    while w is not None:
                        pw = parent[w]
                        nxt = mate.get(pw)
                        mate[w] = pw
                        mate[pw] = w
                        flipped.append((min(w, pw), max(w, pw)))
                        w = nxt
                    flipped.sort()
                    return flipped
                used.add(mate[to])
                queue.append(mate[to])
    return None


class DynamicMatching:
    """Fully dynamic maximum matching: forest on insertions, search on deletions.

    Forest state, valid while ``_stale`` is false: ``label`` is EVEN or ODD
    for vertices in a tree, ``root`` names their tree, ``parent`` links an
    ODD vertex to the even vertex it hangs from, and ``dsu`` maps a
    contracted vertex towards its blossom's base.  ``_queue`` holds even
    vertices not scanned yet.
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
                _single_source_augment(g, self.mate, v, self.meter)
        self.stage_touches: list[int] = []
        self._stage_start = self.meter.edges_touched

    @property
    def cardinality(self) -> int:
        return len(self.mate) // 2

    def augment_from(self, v: int) -> list[tuple[int, int]] | None:
        return _single_source_augment(self.g, self.mate, v, self.meter)

    def verify(self) -> bool:
        for x, y in self.mate.items():
            if self.mate.get(y) != x or not self.g.has_edge(x, y):
                return False
        return self.cardinality == static_max_matching(self.g.adj)

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
            self._stale = True
            if event.neighbors:  # an isolated vertex has no augmenting path
                flipped = self.augment_from(v) or []
        elif isinstance(event, DeleteEdge):
            x, y = event.u, event.v
            self.g.delete_edge(x, y)
            self.meter.begin_op()
            self._stale = True
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
            self._build_forest()  # scans every even vertex, the new edge included
        else:
            self.meter.touch(1)
            found = self._process_edge(u, v)
            if found is not None:
                return found
        return self._grow()

    # -- forest machinery ------------------------------------------------

    def _build_forest(self) -> None:
        self.label = {}
        self.parent = {}
        self.root = {}
        self.dsu = {}
        self._queue = deque()
        for v in self.g.adj:
            if v not in self.mate:
                self.label[v] = EVEN
                self.root[v] = v
                self._queue.append(v)
        self._stale = False

    def _grow(self) -> list[tuple[int, int]]:
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
        return []

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
        if lu != EVEN and lv != EVEN:
            return None
        if lu == EVEN and lv == EVEN:
            if self.root[bu] != self.root[bv]:
                flipped = self.augment_from(self.root[bu])
                assert flipped is not None, "bridged trees must admit an augmenting path"
                self._stale = True
                return flipped
            self._contract(bu, bv)
            return None
        if lu != EVEN:
            u, v, lv = v, u, lu
        if lv is None:
            self._attach(u, v)
        return None

    def _attach(self, even_u: int, v: int) -> None:
        w = self.mate[v]
        self.label[v] = ODD
        self.parent[v] = even_u
        self.root[v] = self.root[self._find(even_u)]
        self.label[w] = EVEN
        self.root[w] = self.root[v]
        self._queue.append(w)

    def _up(self, b: int) -> int | None:
        """Next even base above blossom/vertex base ``b``, None at a root."""
        mb = self.mate.get(b)
        if mb is None:
            return None
        return self._find(self.parent[mb])

    def _contract(self, bu: int, bv: int) -> None:
        ancestors = set()
        x: int | None = bu
        while x is not None:
            ancestors.add(x)
            x = self._up(x)
        x = bv
        while x not in ancestors:
            x = self._up(x)
            assert x is not None, "bases share no root"
        lca = x
        members: set[int] = set()
        for y in (bu, bv):
            while y != lca:
                members.add(y)
                my = self.mate.get(y)
                if my is not None and self._find(my) != lca:
                    members.add(self._find(my))
                y = self._up(y)
        for b in members:
            if self.label.get(b) == ODD:
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
        self._stale = True
        return v

    def apply(self, event: UpdateEvent) -> MatchDelta:
        if isinstance(event, InsertVertex) and event.neighbors:
            raise NotIncrementalError("only isolated vertex insertions are accepted")
        if not isinstance(event, (InsertEdge, InsertVertex)):
            raise NotIncrementalError(f"event {event!r} in incremental mode")
        return DynamicMatching.apply(self, event)

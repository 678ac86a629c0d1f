"""Maximum cardinality matching under updates, blossom-aware throughout.

The fully dynamic path repairs the matching by augmenting-path search after
every update.  The search contracts odd cycles (blossoms), so it is complete
on general graphs; a plain layered BFS is not, odd cycles defeat it.
Deletions need at most two searches (from the freed endpoints); an insertion
between two matched vertices may have to probe every free vertex, since the
endpoints of a new augmenting path are not known in advance.

The incremental path keeps a persistent multi-root alternating forest with
disjoint-set blossom contraction.  Inserted edges are fed into the forest;
when an edge bridges two trees at even level an augmenting path exists, the
matching is augmented by a fresh single-source search from one of the two
roots, and the forest is rebuilt over all current edges.  Each stage (the
span between two augmentations) therefore costs linear work in the current
edge count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import NotFreeError, NotIncrementalError
from .graph import DynGraph
from .meter import CostMeter
from .oracles import static_max_matching
from .stream import DeleteEdge, DeleteVertex, InsertEdge, InsertVertex, QueryInMis, UpdateEvent


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
    ids = sorted(g.vertices())
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    nbrs = [sorted(index[w] for w in g.adj[v]) for v in ids]
    match = [-1] * n
    for u, w in mate.items():
        match[index[u]] = index[w]
    r = index[root]
    if match[r] != -1:
        raise NotFreeError(f"vertex {root} is matched")

    used = [False] * n
    p = [-1] * n
    base = list(range(n))
    used[r] = True
    queue = deque([r])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while queue:
        v = queue.popleft()
        meter.touch(len(nbrs[v]))
        for to in nbrs[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == r or (match[to] != -1 and p[match[to]] != -1):
                cur = lca(v, to)
                blossom = [False] * n
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    w = to
                    while w != -1:
                        pw = p[w]
                        nxt = match[pw]
                        match[w] = pw
                        match[pw] = w
                        w = nxt
                    flipped = []
                    for i, j in enumerate(match):
                        if j > i:
                            a, b = ids[i], ids[j]
                            if mate.get(a) != b:
                                flipped.append((a, b))
                    mate.clear()
                    for i, j in enumerate(match):
                        if j != -1:
                            mate[ids[i]] = ids[j]
                    return flipped
                used[match[to]] = True
                queue.append(match[to])
    return None


class DynamicMatching:
    """Folklore fully dynamic maximum matching: repair by augmenting search."""

    def __init__(self, g: DynGraph):
        self.g = g
        self.mate: dict[int, int] = {}
        self.meter = CostMeter()
        for v in sorted(g.vertices()):
            if v not in self.mate:
                _single_source_augment(g, self.mate, v, self.meter)

    @property
    def cardinality(self) -> int:
        return len(self.mate) // 2

    def augment_from(self, v: int) -> list[tuple[int, int]] | None:
        return _single_source_augment(self.g, self.mate, v, self.meter)

    def apply(self, event: UpdateEvent) -> MatchDelta:
        if isinstance(event, QueryInMis):
            raise ValueError("queries are not matching updates")
        self.meter.begin_op()
        before = self.cardinality
        flipped: list[tuple[int, int]] = []
        if isinstance(event, InsertVertex):
            v = self.g.insert_vertex(event.neighbors)
            flipped = self.augment_from(v) or []
        elif isinstance(event, InsertEdge):
            x, y = event.u, event.v
            self.g.insert_edge(x, y)
            if x not in self.mate and y not in self.mate:
                self.mate[x] = y
                self.mate[y] = x
                flipped = [(min(x, y), max(x, y))]
            elif x not in self.mate:
                flipped = self.augment_from(x) or []
            elif y not in self.mate:
                flipped = self.augment_from(y) or []
            else:
                # both endpoints matched: an augmenting path may still run
                # through the new edge, ending at two free vertices we cannot
                # name up front, so probe each free vertex until one augments
                for r in sorted(self.g.vertices()):
                    if r not in self.mate:
                        found = self.augment_from(r)
                        if found:
                            flipped = found
                            break
        elif isinstance(event, DeleteEdge):
            x, y = event.u, event.v
            self.g.delete_edge(x, y)
            if self.mate.get(x) == y:
                del self.mate[x]
                del self.mate[y]
                flipped = self.augment_from(x) or []
                if y not in self.mate:
                    flipped += self.augment_from(y) or []
        else:
            x = event.v
            y = self.mate.pop(x, None)
            self.g.delete_vertex(x)
            if y is not None:
                del self.mate[y]
                flipped = self.augment_from(y) or []
        self.meter.updates += 1
        delta = MatchDelta(self.cardinality - before, flipped)
        self.meter.end_op()
        return delta

    def verify(self) -> bool:
        for u, v in self.mate.items():
            if self.mate.get(v) != u or not self.g.has_edge(u, v):
                return False
        return self.cardinality == static_max_matching(self.g.adj)


class IncrementalMatching:
    """Insertion-only matching with a persistent alternating forest."""

    EVEN = 0
    ODD = 1

    def __init__(self):
        self.g = DynGraph()
        self.mate: dict[int, int] = {}
        self.meter = CostMeter()
        self.stage_touches: list[int] = []
        self._stage_touched = 0
        self._reset_forest()

    @property
    def cardinality(self) -> int:
        return len(self.mate) // 2

    def insert_vertex(self) -> int:
        v = self.g.insert_vertex(())
        self.label[v] = self.EVEN
        self.root[v] = v
        self.scanned.add(v)
        return v

    def apply(self, event: UpdateEvent) -> MatchDelta:
        if isinstance(event, InsertVertex):
            if event.neighbors:
                raise NotIncrementalError("only isolated vertex insertions are accepted")
            self.meter.updates += 1
            self.insert_vertex()
            return MatchDelta(0)
        if not isinstance(event, InsertEdge):
            raise NotIncrementalError(f"event {event!r} in incremental mode")
        return self.feed(event.u, event.v)

    def feed(self, u: int, v: int) -> MatchDelta:
        """Insert edge (u,v) and absorb it into the alternating forest."""
        self.g.insert_edge(u, v)
        self.meter.begin_op()
        self.meter.updates += 1
        before = self.cardinality
        flipped: list[tuple[int, int]] = []
        self._queue.append(("edge", u, v))
        flipped += self._drain()
        self.meter.end_op()
        return MatchDelta(self.cardinality - before, flipped)

    def verify(self) -> bool:
        for x, y in self.mate.items():
            if self.mate.get(y) != x or not self.g.has_edge(x, y):
                return False
        return self.cardinality == static_max_matching(self.g.adj)

    # -- forest machinery ------------------------------------------------

    def _reset_forest(self) -> None:
        self.label: dict[int, int] = {}
        self.parent: dict[int, int] = {}
        self.root: dict[int, int] = {}
        self.dsu: dict[int, int] = {}
        self.scanned: set[int] = set()
        self._queue: deque = deque()
        for v in sorted(self.g.vertices()):
            if v not in self.mate:
                self.label[v] = self.EVEN
                self.root[v] = v

    def _rebuild_forest(self) -> None:
        self._reset_forest()
        for v in sorted(self.label):
            self._enqueue_scan(v)

    def _find(self, v: int) -> int:
        r = v
        while r in self.dsu:
            r = self.dsu[r]
        while v in self.dsu:
            self.dsu[v], v = r, self.dsu[v]
        return r

    def _effective_label(self, v: int) -> int | None:
        return self.label.get(self._find(v))

    def _enqueue_scan(self, v: int) -> None:
        if v not in self.scanned:
            self.scanned.add(v)
            self._queue.append(("scan", v))

    def _drain(self) -> list[tuple[int, int]]:
        flipped: list[tuple[int, int]] = []
        while self._queue:
            item = self._queue.popleft()
            if item[0] == "scan":
                _, v = item
                if not self.g.is_live(v):
                    continue
                self._touch(len(self.g.adj[v]))
                for w in sorted(self.g.adj[v]):
                    result = self._process_edge(v, w)
                    if result is not None:
                        flipped += result
                        break
            else:
                _, u, v = item
                self._touch(1)
                result = self._process_edge(u, v)
                if result is not None:
                    flipped += result
        return flipped

    def _process_edge(self, u: int, v: int) -> list[tuple[int, int]] | None:
        """Returns flipped pairs when the edge triggers an augmentation."""
        bu, bv = self._find(u), self._find(v)
        if bu == bv:
            return None
        lu, lv = self.label.get(bu), self.label.get(bv)
        if lu != self.EVEN and lv != self.EVEN:
            return None
        if lu == self.EVEN and lv == self.EVEN:
            if self.root[bu] != self.root[bv]:
                return self._augment(self.root[bu])
            self._contract(bu, bv)
            return None
        if lu != self.EVEN:
            u, v, bu, bv, lu, lv = v, u, bv, bu, lv, lu
        if lv is None:
            self._attach(u, v)
        return None

    def _attach(self, even_u: int, v: int) -> None:
        w = self.mate[v]
        self.label[v] = self.ODD
        self.parent[v] = even_u
        self.root[v] = self.root[self._find(even_u)]
        self.label[w] = self.EVEN
        self.root[w] = self.root[v]
        self._enqueue_scan(w)

    def _up(self, b: int) -> int | None:
        """Next even base above blossom/vertex base ``b``, None at a root."""
        mb = self.mate.get(b)
        if mb is None:
            return None
        return self._find(self.parent[mb])

    def _contract(self, bu: int, bv: int) -> None:
        ancestors = []
        x: int | None = bu
        while x is not None:
            ancestors.append(x)
            x = self._up(x)
        on_u_path = set(ancestors)
        x = bv
        while x not in on_u_path:
            x = self._up(x)
            assert x is not None, "bases share no root"
        lca = x
        members: list[int] = []
        for start in (bu, bv):
            y: int | None = start
            while y != lca:
                members.append(y)
                my = self.mate.get(y)
                if my is not None and self._find(my) != lca:
                    members.append(self._find(my))
                y = self._up(y)
        for b in set(members):
            if b == lca:
                continue
            if self.label.get(b) == self.ODD:
                self._enqueue_scan(b)
            self.dsu[b] = lca

    def _augment(self, free_root: int) -> list[tuple[int, int]]:
        before = self.meter.edges_touched
        flipped = _single_source_augment(self.g, self.mate, free_root, self.meter)
        assert flipped is not None, "bridged trees must admit an augmenting path"
        self._stage_touched += self.meter.edges_touched - before
        self.stage_touches.append(self._stage_touched)
        self._stage_touched = 0
        self._rebuild_forest()
        return flipped

    def _touch(self, count: int) -> None:
        self.meter.touch(count)
        self._stage_touched += count

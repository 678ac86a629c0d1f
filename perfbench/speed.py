"""Host speed probe: time measured at a reference host speed.

On a virtual machine that shares its cores with busy neighbours, the same
replay runs up to 2x slower at times, and slow and fast periods last from
seconds to tens of minutes, so no statistic over one run's wall times is
steady between runs.  A fixed pure-Python kernel, which never touches
``dynamis``, is timed right before and right after every timed unit of
work.  The unit's wall time is scaled by ``PROBE_REF_S`` over the mean of the
two probe times: the time the unit would have taken on a host where the
probe takes ``PROBE_REF_S``.  A change to the program moves the scaled time
in the same proportion as the wall time; a change in host speed moves the
probe with it.

The kernel does in small what ``dynamis run`` does: it splits and converts
lines of update text, walks a fixed graph of slotted objects (attribute
loads and stores, set iteration, list indexing), and runs breadth-first
searches that fill fresh dicts and lists, as the oracles do.
"""

from __future__ import annotations

from time import perf_counter

# Probe time on an unloaded host of the baseline (Intel Xeon Processor,
# Python 3.11.7).  Any constant would do; this one keeps the scaled times
# close to that host's wall times.
PROBE_REF_S = 0.0012

_N, _M = 500, 3000


class _Node:
    __slots__ = ("nbrs", "mark")

    def __init__(self) -> None:
        self.nbrs: set[int] = set()
        self.mark = 0


def _graph() -> list[_Node]:
    nodes = [_Node() for _ in range(_N)]
    x = 12345
    for _ in range(_M):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % _N
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % _N
        if u != v:
            nodes[u].nbrs.add(v)
            nodes[v].nbrs.add(u)
    return nodes


_NODES = _graph()
_TEXT = "\n".join(f"+e {x % 997} {x * 7 % 1009}" for x in range(0, 60000, 200))


def _kernel(nodes: list[_Node] = _NODES) -> int:
    hits = 0
    for line in _TEXT.splitlines():
        _, u, v = line.split()
        hits += int(u) < int(v)
    for rnd in range(1, 3):
        for node in nodes:
            node.mark = rnd
        for node in nodes:
            for w in node.nbrs:
                other = nodes[w]
                if other.mark == rnd:
                    hits += 1
                    other.mark = 0
    for source in (0, _N // 2):
        parent = {source: source}
        queue = [source]
        for u in queue:
            for w in nodes[u].nbrs:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        hits += len(sorted(parent))
    return hits


def probe() -> float:
    """Seconds the kernel takes now: the fastest of three runs."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def at_reference(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` wall seconds, bracketed by two probes, at reference speed."""
    return elapsed * PROBE_REF_S * 2 / (before + after)

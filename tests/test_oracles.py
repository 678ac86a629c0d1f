import ast
import random
from collections import deque
from pathlib import Path
from typing import Iterable, Mapping

import pytest

import dynamis.oracles
import reference
from dynamis.bench import REGISTRY
from dynamis.generators import GenSpec, gen_random_edges, gen_random_flow
from dynamis.oracles import OracleReport, is_mis, static_max_flow, static_max_matching
from dynamis.stream import DeleteEdge, DeleteVertex, InsertEdge, InsertVertex
from reference import exhaustive_max_matching, min_cut_enumerate


@pytest.mark.parametrize("module", [dynamis.oracles, reference], ids=["oracles", "reference"])
def test_oracles_share_no_code_with_the_package(module):
    """Neither the oracles nor the test references import from ``dynamis``."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            imported.append(node.module)
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "dynamis"], imported


def triangle():
    return {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}


def path3():
    return {0: {1}, 1: {0, 2}, 2: {1}}


def test_is_mis_triangle():
    assert is_mis(triangle(), {0}).ok
    assert not is_mis(triangle(), {0, 1}).ok


def test_is_mis_path():
    assert is_mis(path3(), {1}).ok
    assert not is_mis(path3(), {0}).ok


def test_flow_single_edge():
    assert static_max_flow([0, 1], [(0, 1)], 0, 1) == 1


def test_flow_disjoint_paths():
    k = 3
    vertices = [0, 1] + list(range(2, 2 + k))
    edges = [(0, 2 + i) for i in range(k)] + [(2 + i, 1) for i in range(k)]
    assert static_max_flow(vertices, edges, 0, 1) == k


def test_flow_matches_cut_on_diamond():
    vertices = [0, 1, 2, 3]
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    value = static_max_flow(vertices, edges, 0, 3)
    assert value == min_cut_enumerate(vertices, edges, 0, 3) == 2


def test_flow_matches_cut_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 7)
        arcs = set()
        for _ in range(rng.randint(2, 14)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.add((u, v))
        arcs = sorted(arcs)
        assert static_max_flow(range(n), arcs, 0, n - 1) == min_cut_enumerate(
            range(n), arcs, 0, n - 1
        )


def test_matching_single_edge():
    assert static_max_matching({0: {1}, 1: {0}}) == 1


def test_matching_c5():
    c5 = {i: {(i - 1) % 5, (i + 1) % 5} for i in range(5)}
    assert static_max_matching(c5) == 2
    assert exhaustive_max_matching(c5) == 2


def test_matching_c6():
    c6 = {i: {(i - 1) % 6, (i + 1) % 6} for i in range(6)}
    assert static_max_matching(c6) == 3
    assert exhaustive_max_matching(c6) == 3


def test_matching_matches_exhaustive_sampled():
    rng = random.Random(42)
    for _ in range(10_000):
        n = rng.randint(2, 8)
        adj = {v: set() for v in range(n)}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        assert static_max_matching(adj) == exhaustive_max_matching(adj)


# -- the oracles against their earlier versions ------------------------------
#
# The oracles run after every event under ``--verify``, so they are tuned:
# residual maps in the max flow, and no temporary sets in ``is_mis``.  The
# blossom matching works on the graph's own ids, seeds its searches with a
# greedy maximal matching and skips the trees of failed searches; it also
# takes a starting matching (the module's own under ``--verify``) and searches
# on from it.  The reference copies below are the untuned versions, kept
# verbatim; the tuned ones, and the matching cold and warm-started, must agree
# with them on every state of seeded streams, and ``is_mis`` must give the
# same detail messages.


def _reference_is_mis(adj, mis):
    for v in mis:
        if v not in adj:
            return OracleReport(False, f"{v} is not a live vertex")
        hit = adj[v] & mis
        if hit:
            return OracleReport(False, f"edge inside the set: ({v},{min(hit)})")
    for v in adj:
        if v not in mis and not (adj[v] & mis):
            return OracleReport(False, f"vertex {v} outside the set has no neighbor in it")
    return OracleReport(True)


def _reference_static_max_flow(vertices: Iterable[int], edges: Iterable[tuple[int, int]], s: int, t: int) -> int:
    """Max-flow value by repeated augmenting BFS from scratch (unit capacities)."""
    cap: dict[tuple[int, int], int] = {}
    out: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        cap[(u, v)] = cap.get((u, v), 0) + 1
        cap.setdefault((v, u), 0)
        out[u].add(v)
        out[v].add(u)
    if s == t or s not in out or t not in out:
        return 0
    value = 0
    while True:
        prev: dict[int, int] = {s: s}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for v in out[u]:
                if v not in prev and cap.get((u, v), 0) > 0:
                    prev[v] = u
                    queue.append(v)
        if t not in prev:
            return value
        v = t
        while v != s:
            u = prev[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        value += 1


def _reference_static_max_matching(adj: Mapping[int, set[int]]) -> int:
    """Maximum matching cardinality via a static blossom-contraction search."""
    ids = sorted(adj)
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    nbrs = [sorted(index[w] for w in adj[v]) for v in ids]
    match = [-1] * n

    def lca(base: list[int], p: list[int], a: int, b: int) -> int:
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

    def mark_path(base: list[int], p: list[int], blossom: list[bool], v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in nbrs[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(base, p, v, to)
                    blossom = [False] * n
                    mark_path(base, p, blossom, v, cur, to)
                    mark_path(base, p, blossom, to, cur, v)
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
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    size = 0
    for v in range(n):
        if match[v] == -1 and find_path(v):
            size += 1
    return size


def _flow_states(stream):
    """The arc set after every event of a flow stream."""
    arcs = set()
    for event in stream.events:
        if isinstance(event, InsertEdge):
            arcs.add((event.u, event.v))
        else:
            arcs.discard((event.u, event.v))
        yield arcs


def _graph_states(stream):
    """The adjacency after every event of an undirected stream (queries skipped)."""
    adj = {v: set() for v in range(stream.n)}
    next_id = stream.n
    for event in stream.events:
        if isinstance(event, InsertEdge):
            adj[event.u].add(event.v)
            adj[event.v].add(event.u)
        elif isinstance(event, DeleteEdge):
            adj[event.u].discard(event.v)
            adj[event.v].discard(event.u)
        elif isinstance(event, InsertVertex):
            adj[next_id] = set(event.neighbors)
            for w in event.neighbors:
                adj[w].add(next_id)
            next_id += 1
        elif isinstance(event, DeleteVertex):
            for w in adj.pop(event.v):
                adj[w].discard(event.v)
        else:
            continue
        yield adj


@pytest.mark.parametrize("p_insert", [0.7, 1.0], ids=["fully-dynamic", "insertion-only"])
def test_flow_equals_reference_on_every_stream_state(p_insert):
    events = states = anti_parallel = augmented = 0
    for seed in range(12):
        n = 6 + seed
        stream = gen_random_flow(n, 120, seed, p_insert=p_insert)
        events += len(stream.events)
        s, t = stream.flow
        for arcs in _flow_states(stream):
            want = _reference_static_max_flow(range(n), sorted(arcs), s, t)
            assert static_max_flow(range(n), arcs, s, t) == want
            states += 1
            anti_parallel += any((v, u) in arcs for u, v in arcs)
            augmented += want > 0
    assert states == events
    # the streams reach states with anti-parallel pairs and with flow to carry
    assert anti_parallel > states // 2 and augmented > states // 2


@pytest.mark.parametrize("p_insert", [0.7, 1.0], ids=["fully-dynamic", "insertion-only"])
def test_matching_equals_reference_on_every_stream_state(p_insert):
    states = grown = shrunk = 0
    for seed in range(12):
        stream = gen_random_edges(8 + seed, 150, seed, p_insert=p_insert, vertex_rate=0.08)
        grown += sum(isinstance(e, InsertVertex) for e in stream.events)
        shrunk += sum(isinstance(e, DeleteVertex) for e in stream.events)
        for adj in _graph_states(stream):
            assert static_max_matching(adj) == _reference_static_max_matching(adj)
            states += 1
    assert states == 12 * 150
    assert grown > 0 and shrunk > 0


def test_matching_equals_reference_on_dense_graphs():
    # dense random graphs leave few vertices free after the greedy seed and
    # force blossoms in the searches that remain
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(2, 24)
        p = rng.random()
        adj = {v: set() for v in range(n)}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u].add(v)
                    adj[v].add(u)
        assert static_max_matching(adj) == _reference_static_max_matching(adj)


def test_is_mis_details_equal_reference():
    rng = random.Random(3)
    verdicts = set()
    for _ in range(2000):
        n = rng.randint(1, 9)
        adj = {v: set() for v in range(n)}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        members = {v for v in range(n + 1) if rng.random() < 0.4}
        got, want = is_mis(adj, members), _reference_is_mis(adj, members)
        assert (got.ok, got.detail) == (want.ok, want.detail)
        verdicts.add(next((k for k in ("live", "inside", "outside") if k in got.detail), "ok"))
    # all three failure kinds and the pass were exercised
    assert verdicts == {"ok", "live", "inside", "outside"}


CUT_CASES = {
    # name: (vertices, arcs, s, t, max flow)
    "anti-parallel": ([0, 1, 2, 3], [(0, 1), (1, 0), (1, 3), (3, 1), (0, 2), (2, 3), (3, 2)], 0, 3, 2),
    "anti-parallel only": ([0, 1], [(0, 1), (1, 0)], 0, 1, 1),
    "parallel arcs": ([0, 1, 2], [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2)], 0, 2, 2),
    "backwards only": ([0, 1, 2], [(1, 0), (2, 1)], 0, 2, 0),
    # the only shortest path 0-1-2-7 blocks both longer ones; the second unit
    # must cancel the flow on 1->2 through its reverse arc
    "needs a reverse arc": (
        list(range(8)), [(0, 1), (1, 2), (2, 7), (1, 3), (3, 4), (4, 7), (0, 5), (5, 6), (6, 2)], 0, 7, 2,
    ),
    "isolated vertices": ([0, 1, 2, 3, 4, 5], [(0, 1), (1, 5), (0, 5)], 0, 5, 2),
    "all isolated": ([0, 1, 2, 3], [], 0, 3, 0),
    "s equals t": ([0, 1, 2], [(0, 1), (1, 2), (2, 0)], 1, 1, 0),
    "s missing": ([1, 2, 3], [(1, 2), (2, 3)], 0, 3, 0),
    "t missing": ([0, 1, 2], [(0, 1), (1, 2)], 0, 3, 0),
}


@pytest.mark.parametrize("case", CUT_CASES)
def test_min_cut_enumerate_edge_cases(case):
    vertices, arcs, s, t, value = CUT_CASES[case]
    assert min_cut_enumerate(vertices, arcs, s, t) == value
    assert static_max_flow(vertices, arcs, s, t) == value
    assert _reference_static_max_flow(vertices, arcs, s, t) == value


# -- warm-started matching ----------------------------------------------------
#
# Every start, valid or not, must give the exact optimum: the module's own
# matching, a valid start one pair short of it, and starts that are no
# matching at all, which the oracle must ignore.


def _replayed(algorithm, spec):
    """The structure after every event of the generated stream."""
    stream = spec.generate()
    alg = REGISTRY[algorithm].build(stream)
    for event in stream.events:
        alg.apply(event)
        yield alg


def _matching_starts(adj, mate):
    """(kind, start) pairs: a pair removed, an asymmetric mate, a mate along a non-edge."""
    if mate:
        x = min(mate)
        short = {v: w for v, w in mate.items() if v not in (x, mate[x])}
        yield "short", short
        one_sided = dict(mate)
        del one_sided[mate[x]]
        yield "asymmetric", one_sided
    free = [v for v in adj if v not in mate]
    pair = next(((u, v) for u in free for v in free if u < v and v not in adj[u]), None)
    if pair is not None:
        u, v = pair
        yield "non-edge", {**mate, u: v, v: u}


@pytest.mark.parametrize("algorithm,p_insert", [("match-fd", 0.7), ("match-inc", 1.0)])
def test_warm_matching_equals_cold_and_reference_on_every_stream_state(algorithm, p_insert):
    kinds = {}
    for seed in range(6):
        spec = GenSpec(
            "random-matching", n=14 + 2 * seed, events=120, seed=seed, p_insert=p_insert,
            vertex_rate=0.05 if p_insert < 1 else 0.0,
        )
        for alg in _replayed(algorithm, spec):
            adj = alg.g.adj
            want = _reference_static_max_matching(adj)
            assert static_max_matching(adj) == want
            own = dict(alg.mate)
            assert static_max_matching(adj, alg.mate) == want == alg.cardinality
            assert alg.mate == own  # the oracle searches on a copy
            for kind, start in _matching_starts(adj, own):
                assert static_max_matching(adj, start) == want, kind
                kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) > 100 and len(kinds) == 3


def _st_path(flow, s, t):
    """The edges of one s-t path along saturated edges (one exists while F > 0)."""
    out = {}
    for (u, v), f in flow.items():
        if f:
            out.setdefault(u, []).append(v)
    prev, stack = {s: None}, [s]
    while stack:
        u = stack.pop()
        for v in out.get(u, ()):
            if v not in prev:
                prev[v] = u
                stack.append(v)
    path, v = [], t
    while prev[v] is not None:
        path.append((prev[v], v))
        v = prev[v]
    return path


def test_warm_matching_equals_exhaustive_on_random_graphs():
    rng = random.Random(13)
    for _ in range(6000):
        n = rng.randint(1, 12)
        adj = {v: set() for v in range(n)}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        # a random maximal matching: maximum on some graphs, not on others
        mate = {}
        order = list(adj)
        rng.shuffle(order)
        for v in order:
            free = sorted(w for w in adj[v] if w not in mate)
            if v not in mate and free:
                w = rng.choice(free)
                mate[v], mate[w] = w, v
        want = exhaustive_max_matching(adj)
        assert static_max_matching(adj) == want
        assert static_max_matching(adj, mate) == want
        for kind, start in _matching_starts(adj, mate):
            assert static_max_matching(adj, start) == want, kind


def test_starts_that_are_not_solutions_are_ignored():
    # a path 0-1-2-3: the maximum matching has two pairs
    path = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    assert static_max_matching(path, {1: 2, 2: 1}) == 2  # valid, not maximum
    assert static_max_matching(path, {0: 3, 3: 0}) == 2  # not an edge
    assert static_max_matching(path, {0: 1, 1: 2, 2: 1}) == 2  # not symmetric
    assert static_max_matching(path, {0: 9, 9: 0}) == 2  # not a vertex


# -- --verify still catches a wrong answer ------------------------------------
#
# The matching audits hand the oracle the module's own matching; the flow
# oracle computes the maximum from scratch.  A valid state one unit short of
# the maximum must still fail, so the matching oracle must search on from its
# start instead of trusting it.


@pytest.mark.parametrize("algorithm", ["match-fd", "match-inc"])
def test_verify_rejects_a_matching_one_pair_short(algorithm):
    p_insert = 0.8 if algorithm == "match-fd" else 1.0
    for seed in range(4):
        spec = GenSpec("random-matching", n=30, events=200, seed=seed, p_insert=p_insert)
        # the first state with a matched pair and a free vertex
        alg = next(a for a in _replayed(algorithm, spec) if a.mate and len(a.mate) < len(a.g.adj))
        assert alg.verify()
        x = min(alg.mate)
        del alg.mate[alg.mate.pop(x)]
        assert not alg.verify()


@pytest.mark.parametrize("algorithm", ["flow-fd", "flow-inc"])
def test_flow_oracle_rejects_a_flow_one_unit_short(algorithm):
    p_insert = 0.8 if algorithm == "flow-fd" else 1.0
    for seed in range(4):
        spec = GenSpec("random-flow", n=12, events=200, seed=seed, p_insert=p_insert)
        net = next(net for net in _replayed(algorithm, spec) if net.F >= 2)
        assert REGISTRY[algorithm].oracle(net, net) is None
        for e in _st_path(net.flow, net.s, net.t):
            net.flow[e] = 0
        net.F -= 1
        # the flags are a valid flow of value F, one short of the maximum
        assert static_max_flow(net.vertices(), net.directed_edges(), net.s, net.t) == net.F + 1
        assert REGISTRY["flow-fd"].oracle(net, net) == f"F={net.F}, oracle={net.F + 1}"

"""End-to-end acceptance gate.

Each test prints one `[criterion N] PASS/FAIL` line on the real stdout so the
suite doubles as a checklist.  Criteria 1 and 2 share one set of replays; the
heavy scaling fits (criteria 4 and 5) go through the public bench surface.
"""

import random
import time

import pytest

from dynamis import (
    DeleteEdge,
    DynamicMatching,
    DynGraph,
    FlowNetwork,
    ImplicitMis,
    IncrementalFlow,
    IncrementalMatching,
    IncrementalMis,
    InsertEdge,
    InsertVertex,
    QueryInMis,
    SimpleMis,
    TwoLevelMis,
)
from dynamis.bench import replay, scaling
from dynamis.generators import gen_arbitrary_removal, gen_random_edges, gen_random_flow
from dynamis.mis.base import ceil_root
from dynamis.oracles import is_mis, static_max_flow, static_max_matching
from dynamis.stream import DeleteVertex
from test_mis_twolevel import HeavyRebuildProbe


def _max_degree(g):
    return max(map(len, g.adj.values()), default=0)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _mixed_stream(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 28)
    return n, gen_random_edges(n, 200, seed, p_insert=0.55, vertex_rate=0.15)


def _insertion_stream(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 28)
    return n, gen_random_edges(n, 200, seed, p_insert=1.0)


@pytest.fixture(scope="module")
def random_stream_results():
    """Criteria 1+2 in one pass: 1,000 streams, oracle check after every event."""
    mis_failures = []
    budget_failures = []
    checked = 0
    for seed in range(500):
        n, stream = _mixed_stream(seed)
        for name, factory in (("mis_simple", SimpleMis), ("mis_twolevel", TwoLevelMis)):
            g = DynGraph(n)
            alg = factory(g)
            for i, event in enumerate(stream.events):
                alg.apply(event)
                if not is_mis(g.adj, alg.mis()).ok:
                    mis_failures.append((name, seed, i))
                    break
            checked += 1
            if alg.meter.adjustments > 4 * (len(stream.events) + g.n):
                budget_failures.append((name, seed))
    for seed in range(500, 1000):
        n, stream = _insertion_stream(seed)
        g = DynGraph(n)
        alg = IncrementalMis(g)
        for i, event in enumerate(stream.events):
            alg.apply(event)
            if not is_mis(g.adj, alg.mis()).ok:
                mis_failures.append(("mis_incremental", seed, i))
                break
        checked += 1
        if alg.meter.adjustments > 4 * (len(stream.events) + g.n):
            budget_failures.append(("mis_incremental", seed))
        g = DynGraph(n)
        alg = ImplicitMis(g)
        for i, event in enumerate(stream.events):
            alg.apply(event)
            answered = {v for v in g.adj if alg.in_mis_query(v)}
            if not is_mis(g.adj, answered).ok:
                mis_failures.append(("mis_implicit", seed, i))
                break
        checked += 1
    return {"mis": mis_failures, "budget": budget_failures, "checked": checked}


def test_criterion_01_mis_oracle_equivalence(random_stream_results, capsys):
    failures = random_stream_results["mis"]
    _report(
        capsys, 1, not failures,
        f"is_mis after every event on 1,000 streams "
        f"({random_stream_results['checked']} replays); failures: {failures[:3]}",
    )


def test_criterion_02_adjustment_amortization(random_stream_results, capsys):
    failures = random_stream_results["budget"]
    _report(
        capsys, 2, not failures,
        f"total adjustments <= 4*(events + final n) on every replay; "
        f"failures: {failures[:3]}",
    )


def test_criterion_03_optimal_regimes(capsys):
    failures = []
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(10, 40)
        g = DynGraph(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for u, v in rng.sample(pairs, min(3 * n, len(pairs))):
            g.insert_edge(u, v)
        m_init = g.m
        alg = SimpleMis(g)
        alg.meter.edges_touched = 0
        deletions = sorted((u, v) for u in g.adj for v in g.adj[u] if u < v)
        rng.shuffle(deletions)
        for u, v in deletions:
            alg.apply(DeleteEdge(u, v))
        if alg.meter.edges_touched > 8 * (m_init + n + len(deletions)):
            failures.append(("decremental", seed))
    for seed in range(12):
        rng = random.Random(100 + seed)
        g = DynGraph(0)
        alg = SimpleMis(g)
        events = 0
        for _ in range(60):
            live = sorted(g.adj)
            d = rng.randint(0, min(3, len(live)))
            alg.apply(InsertVertex(tuple(rng.sample(live, d))))
            events += 1
        for v in sorted(g.adj):
            alg.apply(DeleteVertex(v))
            events += 1
        if alg.meter.edges_touched > 8 * (60 + events):
            failures.append(("vertex-only", seed))
    _report(
        capsys, 3, not failures,
        f"decremental and vertex-only work within 8*(m+n+events); failures: {failures}",
    )


SIZES = [4096, 8192, 16384, 32768, 65536]


def test_criterion_04_arbitrary_removal_slope(capsys):
    start = time.perf_counter()
    report = scaling("mis-simple", "arbitrary-removal", SIZES)
    wall = time.perf_counter() - start
    slope = report["slope"]
    ok = 1.4 <= slope <= 1.6 and wall < 60
    _report(capsys, 4, ok, f"first-endpoint worst-case slope {slope} in [1.4, 1.6], {wall:.1f}s")


def test_criterion_05_degree_biased_slope(capsys):
    report = scaling("mis-inc", "degree-biased", SIZES)
    slope = report["slope"]
    over = [
        entry["m"] for entry in report["per_size"]
        if entry["totals"]["edges_touched"] > 30 * entry["m"] ** 1.5
    ]
    ok = 1.4 <= slope <= 1.6 and not over
    _report(
        capsys, 5, ok,
        f"lower-degree worst-case slope {slope} in [1.4, 1.6], totals <= 30*m*sqrt(m)"
        + (f"; over budget at {over}" if over else ""),
    )


def test_criterion_06_twolevel_budget(capsys):
    failures = []
    for seed in (11, 12):
        stream = gen_random_edges(200, 5000, seed, p_insert=0.65)
        g = DynGraph(200)
        alg = HeavyRebuildProbe(g)
        budget = 0.0
        rebuild_ok = True
        for event in stream.events:
            alg.apply(event)
            budget += min(_max_degree(g), max(g.m, 1) ** (2 / 3))
            cap = (2 * max(g.m, 1) / alg.delta_c) ** 2
            if alg.last_heavy_rebuild_touches > max(cap, 1):
                rebuild_ok = False
        if alg.meter.edges_touched > 30 * budget or not rebuild_ok:
            failures.append(seed)
    _report(
        capsys, 6, not failures,
        "two-level total within 30*sum(min(max-degree, m^(2/3))) and heavy rebuilds "
        f"within (2m/threshold)^2; failures: {failures}",
    )


def test_criterion_07_implicit_worst_case(capsys):
    failures = []
    for seed in range(500):
        rng = random.Random(2000 + seed)
        n = rng.randint(5, 28)
        stream = gen_random_edges(n, 200, seed, p_insert=0.55, query_rate=0.25)
        g = DynGraph(n)
        alg = ImplicitMis(g)
        meter = alg.meter
        reason = None
        for event in stream.events:
            d_before = _max_degree(g)
            work0, adj0 = meter.edges_touched, meter.adjustments
            if isinstance(event, QueryInMis):
                alg.in_mis_query(event.v)
            else:
                alg.apply(event)
            dmax = max(d_before, _max_degree(g))
            cap = 30 * min(dmax, 2 * ceil_root(2 * alg.m_c, 1, 2))
            if meter.edges_touched - work0 > max(cap, 30):
                reason = "per-op work"
                break
            if meter.adjustments - adj0 > 1:
                reason = "per-op adjustments"
                break
        if reason is None:
            answered = {v for v in g.adj if alg.in_mis_query(v)}
            if not is_mis(g.adj, answered).ok:
                reason = "post-sweep not an MIS"
        if reason:
            failures.append((seed, reason))
    _report(
        capsys, 7, not failures,
        "implicit per-op work within 30*min(max-degree, 2*ceil(sqrt(2*m_c))), "
        f"<= 1 adjustment per op, sweeps are MISs (500 streams); failures: {failures[:3]}",
    )


def test_criterion_08_flow_optimality(capsys):
    failures = []
    for seed in range(500):
        rng = random.Random(3000 + seed)
        n = rng.randint(5, 40)
        incremental = seed % 2 == 0
        stream = gen_random_flow(n, 60, seed, p_insert=1.0 if incremental else 0.65)
        alg = (IncrementalFlow if incremental else FlowNetwork)(n, 0, n - 1)
        arcs = set()
        reason = None
        for event in stream.events:
            if isinstance(event, InsertEdge):
                alg.insert_edge(event.u, event.v)
                arcs.add((event.u, event.v))
            else:
                alg.delete_edge(event.u, event.v)
                arcs.discard((event.u, event.v))
            if alg.F != static_max_flow(range(n), arcs, 0, n - 1):
                reason = "flow value off oracle"
                break
            if not alg.verify():
                reason = "flow audit failed"
                break
        if reason is None and incremental:
            if any(stage > 8 * max(alg.m, 1) for stage in alg.stage_touches):
                reason = "stage work over 8*m"
        if reason:
            failures.append((seed, reason))
    _report(
        capsys, 8, not failures,
        "flow equals oracle after every event, audits pass, incremental stages "
        f"within 8*m (500 streams); failures: {failures[:3]}",
    )


ODD_CYCLE_FIXTURES = [
    (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    (11, [(i, i + 1) for i in range(10)] + [(0, 2), (4, 6), (8, 10)]),  # C7-style chain
]


def test_criterion_09_matching_optimality(capsys):
    failures = []
    for n, edges in ODD_CYCLE_FIXTURES:
        fd = DynamicMatching(DynGraph(n))
        inc = IncrementalMatching()
        for _ in range(n):
            inc.insert_vertex()
        for u, v in edges:
            fd.apply(InsertEdge(u, v))
            inc.apply(InsertEdge(u, v))
            if not fd.verify() or not inc.verify():
                failures.append(("fixture", n))
                break
    for seed in range(500):
        rng = random.Random(4000 + seed)
        n = rng.randint(5, 40)
        incremental = seed % 2 == 0
        stream = gen_random_edges(n, 60, seed, p_insert=1.0 if incremental else 0.65)
        if incremental:
            alg = IncrementalMatching()
            for _ in range(n):
                alg.insert_vertex()
        else:
            alg = DynamicMatching(DynGraph(n))
        adj = {v: set() for v in range(n)}
        reason = None
        for event in stream.events:
            if isinstance(event, InsertVertex):
                adj[max(adj) + 1] = set()
                if incremental:
                    alg.insert_vertex()
                else:
                    alg.apply(event)
                continue
            if incremental:
                alg.apply(InsertEdge(event.u, event.v))
            else:
                alg.apply(event)
            if isinstance(event, InsertEdge):
                adj[event.u].add(event.v)
                adj[event.v].add(event.u)
            else:
                adj[event.u].discard(event.v)
                adj[event.v].discard(event.u)
            if alg.cardinality != static_max_matching(adj):
                reason = "cardinality off oracle"
                break
        if reason is None and incremental:
            cap = 8 * max(alg.g.m, 1) * (alg.cardinality + 1)
            if alg.meter.edges_touched > cap:
                reason = "incremental work over 8*m*(matched+1)"
        if reason:
            failures.append((seed, reason))
    _report(
        capsys, 9, not failures,
        "matching equals oracle after every event in both modes, odd cycles included "
        f"(500 streams + fixtures); failures: {failures[:3]}",
    )


def test_criterion_10_determinism(capsys):
    mismatches = []
    combos = [
        ("mis-simple", gen_random_edges(12, 200, 1, p_insert=0.55, vertex_rate=0.15)),
        ("mis-2level", gen_random_edges(12, 200, 2, p_insert=0.55, vertex_rate=0.15)),
        ("mis-inc", gen_random_edges(12, 150, 3, p_insert=1.0)),
        ("mis-implicit", gen_random_edges(12, 150, 4, p_insert=1.0, query_rate=0.2)),
        ("flow-fd", gen_random_flow(12, 150, 5, p_insert=0.65)),
        ("flow-inc", gen_random_flow(12, 150, 6, p_insert=1.0)),
        ("match-fd", gen_random_edges(12, 150, 7, p_insert=0.65)),
        ("match-inc", gen_random_edges(12, 150, 8, p_insert=1.0)),
    ]
    for algorithm, stream in combos:
        a = replay(algorithm, stream)
        b = replay(algorithm, stream)
        a["totals"].pop("wall_time_s")
        b["totals"].pop("wall_time_s")
        if a != b:
            mismatches.append(algorithm)
    # per-event deltas, not just totals
    stream = gen_random_edges(10, 120, 9, p_insert=0.55, vertex_rate=0.1)
    runs = []
    for _ in range(2):
        alg = SimpleMis(DynGraph(10))
        runs.append([alg.apply(e) for e in stream.events])
    if runs[0] != runs[1]:
        mismatches.append("mis-simple logs")
    stream = gen_random_flow(10, 100, 10, p_insert=0.65)
    runs = []
    for _ in range(2):
        net = FlowNetwork(10, 0, 9)
        deltas = []
        for e in stream.events:
            if isinstance(e, InsertEdge):
                deltas.append(net.insert_edge(e.u, e.v))
            else:
                deltas.append(net.delete_edge(e.u, e.v))
        runs.append(deltas)
    if runs[0] != runs[1]:
        mismatches.append("flow deltas")
    stream = gen_random_edges(10, 100, 11, p_insert=0.65)
    runs = []
    for _ in range(2):
        alg = DynamicMatching(DynGraph(10))
        runs.append([alg.apply(e) for e in stream.events])
    if runs[0] != runs[1]:
        mismatches.append("match deltas")
    _report(
        capsys, 10, not mismatches,
        f"repeated replays byte-identical modulo wall time; mismatches: {mismatches}",
    )

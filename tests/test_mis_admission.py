"""The filtered admission loops and the O(m) phase rebuild against the plain ones.

Each reference subclass keeps the earlier code verbatim: admission sorts the
whole candidate set and tests every member, and mis-2level's phase rebuild
walks every vertex.  Three things follow the current handlers: liveness is
tested with ``g.is_live``, since the counts are id-indexed lists, an
overridden handler begins the metered operation once the graph accepts the
event, and mis-2level's reference keeps no index of heavy neighbours, so a
heavy vertex insertion charges a single pass over its neighbours.  Every
``apply`` must log the same changes in the same order and charge the same
``edges_touched`` as the real class.
"""

import pytest

from dynamis import DynGraph, IncrementalMis, SimpleMis, TwoLevelMis
from dynamis.generators import gen_arbitrary_removal, gen_degree_biased, gen_random_edges
from dynamis.meter import AdjustmentLog
from dynamis.mis.twolevel import _ceil_pow_two_thirds
from dynamis.stream import QueryInMis


class ReferenceSimpleMis(SimpleMis):
    def _delete_edge(self, u, v, log):
        self.g.delete_edge(u, v)
        self.meter.begin_op()
        if u in self.in_M and v not in self.in_M:
            self.count[v] -= 1
            self._admit_zeros((v,), log)
        elif v in self.in_M and u not in self.in_M:
            self.count[u] -= 1
            self._admit_zeros((u,), log)

    def _admit_zeros(self, candidates, log):
        for w in sorted(candidates):
            if self.g.is_live(w) and w not in self.in_M and self.count[w] == 0:
                self._enter(w, log)


class ReferenceIncrementalMis(IncrementalMis):
    _admit_zeros = ReferenceSimpleMis._admit_zeros


class ReferenceTwoLevelMis(TwoLevelMis):
    def _init_phase(self, active=None):
        g = self.g
        self.m_c = max(g.m, 1)
        self.delta_c = _ceil_pow_two_thirds(self.m_c)
        self.heavy = {v for v in g.vertices() if len(g.adj[v]) >= self.delta_c}
        self.in_M = set()
        self.count = {v: 0 for v in g.vertices()}
        for v in sorted(g.vertices()):
            if v not in self.heavy and self.count[v] == 0:
                self.in_M.add(v)
                for w in g.adj[v]:
                    self.count[w] += 1
                self.meter.touch(len(g.adj[v]))
        self.heavy_mis = set()
        self.meter.touch(sum(len(g.adj[v]) for v in g.vertices()))
        self._rebuild_heavy_mis(AdjustmentLog(), account=False)

    def _phase_rebuild(self, log):
        before = self.mis()
        self._init_phase()
        self.phase_rebuilds += 1
        after = self.mis()
        for v in sorted(before - after):
            log.leave(v)
        for v in sorted(after - before):
            log.enter(v)
        self.meter.adjust(len(before ^ after))

    def _delete_edge(self, u, v, log):
        self.g.delete_edge(u, v)
        self.meter.begin_op()
        if u in self.in_M:
            self.count[v] -= 1
        if v in self.in_M:
            self.count[u] -= 1
        for x in (u, v):
            if x in self.heavy and len(self.g.adj[x]) < self.delta_c:
                self._migrate_to_light(x, log)
        self._admit_zeros((u, v), log)

    def _insert_vertex(self, neighbors, log):
        v = self.g.insert_vertex(neighbors)
        self.meter.begin_op()
        self.count[v] = sum(1 for w in neighbors if w in self.in_M)
        self.meter.touch(len(neighbors))
        if len(neighbors) >= self.delta_c:
            self.heavy.add(v)
        for w in neighbors:
            if w not in self.heavy and len(self.g.adj[w]) >= self.delta_c:
                self._migrate_to_heavy(w, log)
        self._admit_zeros((v,), log)

    def _admit_zeros(self, candidates, log):
        for w in sorted(candidates):
            if (
                self.g.is_live(w)
                and w not in self.heavy
                and w not in self.in_M
                and self.count[w] == 0
            ):
                self._enter(w, log)


PAIRS = {
    "mis-simple": (SimpleMis, ReferenceSimpleMis),
    "mis-inc": (IncrementalMis, ReferenceIncrementalMis),
    "mis-2level": (TwoLevelMis, ReferenceTwoLevelMis),
}


def _assert_same_replay(algorithm, stream):
    cls, ref_cls = PAIRS[algorithm]
    alg, ref = cls(DynGraph(stream.n)), ref_cls(DynGraph(stream.n))
    assert alg.mis() == ref.mis()
    assert alg.meter.totals() == ref.meter.totals()
    for i, event in enumerate(stream.events):
        if isinstance(event, QueryInMis):
            continue
        got, want = alg.apply(event), ref.apply(event)
        assert (got.changes, got.edges_touched) == (want.changes, want.edges_touched), (i, event)
        assert alg.mis() == ref.mis(), (i, event)
    assert alg.meter.totals() == ref.meter.totals()
    assert alg.meter.max_op_edges_touched == ref.meter.max_op_edges_touched
    assert alg.verify()
    if algorithm == "mis-2level":
        assert alg.phase_rebuilds == ref.phase_rebuilds


@pytest.mark.parametrize("algorithm", ["mis-simple", "mis-2level"])
@pytest.mark.parametrize("seed", range(6))
def test_same_logs_on_vertex_churn(algorithm, seed):
    for n, p_insert in ((12, 0.6), (40, 0.7)):
        stream = gen_random_edges(n, 400, seed, p_insert=p_insert, query_rate=0.05, vertex_rate=0.15)
        _assert_same_replay(algorithm, stream)


@pytest.mark.parametrize("seed", range(6))
def test_same_logs_on_growing_streams(seed):
    for n in (12, 40):
        stream = gen_random_edges(n, 300, seed, p_insert=1.0, query_rate=0.05)
        _assert_same_replay("mis-inc", stream)


@pytest.mark.parametrize("algorithm", ["mis-simple", "mis-inc", "mis-2level"])
@pytest.mark.parametrize("m", [64, 256])
def test_same_logs_on_adversarial_families(algorithm, m):
    for stream in (gen_arbitrary_removal(m, int(m ** 0.5)), gen_degree_biased(m)):
        _assert_same_replay(algorithm, stream)

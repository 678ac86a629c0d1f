from dataclasses import fields, replace
from inspect import Parameter, signature

import pytest

from dynamis import DynGraph, GenSpec, IncrementalMis, InsertEdge, SimpleMis, UpdateStream
from dynamis.errors import GeneratorParameterError
from dynamis.generators import (
    FAMILIES,
    gen_arbitrary_removal,
    gen_degree_biased,
    gen_random_edges,
    gen_random_flow,
)
from dynamis.stream import DeleteEdge, DeleteVertex, InsertVertex, QueryInMis, serialize_stream


def test_arbitrary_removal_shape():
    stream = gen_arbitrary_removal(16, 4)
    # k = 4 A-vertices, 4 anchors, 1 terminal; 4 phases of 5 events each
    assert stream.n == 9
    assert len(stream.events) == 20
    assert all(isinstance(e, InsertEdge) for e in stream.events)
    first_phase = stream.events[:5]
    assert [(e.u, e.v) for e in first_phase] == [(0, 4), (1, 4), (2, 4), (3, 4), (4, 8)]


def test_arbitrary_removal_smallest():
    stream = gen_arbitrary_removal(4, 2)
    assert stream.n == 5
    assert len(stream.events) == 6


def test_arbitrary_removal_parameter_checks():
    with pytest.raises(GeneratorParameterError):
        gen_arbitrary_removal(100, 5)  # m > delta^2
    with pytest.raises(GeneratorParameterError):
        gen_arbitrary_removal(16, 1)
    with pytest.raises(GeneratorParameterError):
        gen_arbitrary_removal(3, 4)  # m < delta


def test_arbitrary_removal_degree_audit():
    m, delta = 36, 6
    stream = gen_arbitrary_removal(m, delta)
    k = m // delta
    g = DynGraph(stream.n)
    for e in stream.events:
        g.insert_edge(e.u, e.v)
        for i in range(k):
            assert len(g.adj[i]) <= delta
    for anchor in range(k, k + delta):
        assert len(g.adj[anchor]) <= delta + 1


def test_arbitrary_removal_evicts_block_every_phase():
    m, delta = 25, 5
    stream = gen_arbitrary_removal(m, delta)
    k = m // delta
    alg = SimpleMis(DynGraph(stream.n))
    per_phase = k + 1
    for j in range(delta):
        evicted_a = set()
        for e in stream.events[j * per_phase : (j + 1) * per_phase]:
            log = alg.apply(e)
            evicted_a |= {v for op, v in log.changes if op == "leave" and v < k}
        assert evicted_a == set(range(k))
        assert alg.verify()


def test_degree_biased_shape():
    stream = gen_degree_biased(64)
    # largest t with 3t(t+1) <= 64 is t=4: k=4, s=5
    t, k, s = 4, 4, 5
    assert stream.n == k + 1 + t + t * s
    assert len(stream.events) == t * s + t * s + t * (k + 1)
    assert len(stream.events) <= 64
    assert all(isinstance(e, InsertEdge) for e in stream.events)


def test_degree_biased_uses_most_of_budget():
    for m in (64, 100, 500, 4096):
        stream = gen_degree_biased(m)
        assert len(stream.events) <= m
        # 3t(t+1) <= m < 3(t+1)(t+2) keeps the shortfall below ~2sqrt(3m)
        assert len(stream.events) >= m - 6 * (int(m ** 0.5) + 2)


def test_degree_biased_parameter_checks():
    with pytest.raises(GeneratorParameterError):
        gen_degree_biased(32)


def test_degree_biased_anchor_outranks_block():
    stream = gen_degree_biased(64)
    t = k = 4
    b0 = k
    g = DynGraph(stream.n)
    setup = 2 * t * (t + 1)
    for e in stream.events[:setup]:
        g.insert_edge(e.u, e.v)
    # after setup every anchor and b0 strictly outrank any A-vertex for good
    for e in stream.events[setup:]:
        g.insert_edge(e.u, e.v)
        a_max = max(len(g.adj[i]) for i in range(k))
        for anchor in range(k + 1, k + t + 1):
            assert len(g.adj[anchor]) > a_max
        assert len(g.adj[b0]) > a_max


def test_degree_biased_evicts_block_every_phase():
    stream = gen_degree_biased(100)
    t = 5
    while 3 * t * (t + 1) > 100:
        t -= 1
    k, s = t, t + 1
    alg = IncrementalMis(DynGraph(stream.n))
    setup = 2 * t * s
    for e in stream.events[:setup]:
        alg.apply(e)
    pos = setup
    for _ in range(t):
        evicted_a = set()
        for e in stream.events[pos : pos + k + 1]:
            log = alg.apply(e)
            evicted_a |= {v for op, v in log.changes if op == "leave" and v < k}
        pos += k + 1
        assert evicted_a == set(range(k))
        assert alg.verify()


def test_random_edges_deterministic():
    a = gen_random_edges(12, 150, seed=7, query_rate=0.1, vertex_rate=0.15)
    b = gen_random_edges(12, 150, seed=7, query_rate=0.1, vertex_rate=0.15)
    assert serialize_stream(a) == serialize_stream(b)
    c = gen_random_edges(12, 150, seed=8, query_rate=0.1, vertex_rate=0.15)
    assert serialize_stream(a) != serialize_stream(c)


def test_random_edges_pure_insertion_mode():
    stream = gen_random_edges(10, 40, seed=1, p_insert=1.0)
    assert all(isinstance(e, InsertEdge) for e in stream.events)


def test_random_edges_replayable():
    stream = gen_random_edges(10, 300, seed=3, p_insert=0.6, query_rate=0.1, vertex_rate=0.2)
    assert len(stream.events) == 300
    g = DynGraph(stream.n)
    for e in stream.events:
        if isinstance(e, InsertEdge):
            assert e.v not in g.adj[e.u]
            g.insert_edge(e.u, e.v)
        elif isinstance(e, DeleteEdge):
            assert e.v in g.adj[e.u]
            g.delete_edge(e.u, e.v)
        elif isinstance(e, InsertVertex):
            g.insert_vertex(e.neighbors)
        elif isinstance(e, DeleteVertex):
            assert e.v in g.adj
            g.delete_vertex(e.v)
        else:
            assert isinstance(e, QueryInMis)
            assert e.v in g.adj


def test_random_edges_parameter_checks():
    with pytest.raises(GeneratorParameterError):
        gen_random_edges(1, 10, seed=0)


def test_random_flow_replayable_and_directed():
    stream = gen_random_flow(8, 120, seed=5, p_insert=0.65)
    assert stream.flow == (0, 7)
    arcs = set()
    for e in stream.events:
        if isinstance(e, InsertEdge):
            assert (e.u, e.v) not in arcs
            arcs.add((e.u, e.v))
        else:
            assert isinstance(e, DeleteEdge)
            assert (e.u, e.v) in arcs
            arcs.discard((e.u, e.v))


def test_random_flow_parameter_checks():
    with pytest.raises(GeneratorParameterError):
        gen_random_flow(8, -1, seed=0)


def test_genspec_dispatch():
    assert isinstance(GenSpec("arbitrary-removal", m=16, delta=4).generate(), UpdateStream)
    assert isinstance(GenSpec("degree-biased", m=64).generate(), UpdateStream)
    assert GenSpec("random-flow", n=6, events=20).generate().flow == (0, 5)
    assert GenSpec("random-matching", n=6, events=20).generate().flow is None
    with pytest.raises(GeneratorParameterError):
        GenSpec("no-such-family").generate()


def test_families_constant():
    assert "arbitrary-removal" in FAMILIES and "degree-biased" in FAMILIES
    assert len(FAMILIES) == 5


# The options each family reads, as the README lists them, and a valid
# value for each: the contract the family table must keep.
READS = {
    "arbitrary-removal": ("m", "delta"),
    "degree-biased": ("m",),
    "random-edges": ("n", "events", "seed", "p_insert", "query_rate", "vertex_rate"),
    "random-flow": ("n", "events", "seed", "p_insert"),
    "random-matching": ("n", "events", "seed", "p_insert", "query_rate", "vertex_rate"),
}
VALUES = {
    "m": 64, "delta": 8, "n": 6, "events": 20, "seed": 3,
    "p_insert": 0.5, "query_rate": 0.5, "vertex_rate": 0.5,
}
# a small valid spec of each family, setting only fields it reads
OWN_FIELDS = {
    "arbitrary-removal": {"m": 64, "delta": 8},
    "degree-biased": {"m": 64},
    "random-edges": {"n": 6, "events": 20},
    "random-flow": {"n": 6, "events": 20},
    "random-matching": {"n": 6, "events": 20},
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "field, value",
    [("p_insert", 7.0), ("p_insert", -0.1), ("query_rate", 1.5), ("vertex_rate", -1.0),
     ("vertex_rate", float("nan"))],
)
def test_genspec_rejects_probabilities_outside_unit_interval(family, field, value):
    spec = GenSpec(family, m=64, delta=8, n=6, events=20, **{field: value})
    with pytest.raises(GeneratorParameterError, match=field):
        spec.generate()


@pytest.mark.parametrize("family", ["arbitrary-removal", "degree-biased", "random-flow"])
@pytest.mark.parametrize("field", ["query_rate", "vertex_rate"])
def test_genspec_rejects_rates_the_family_cannot_honour(family, field):
    # these families draw no queries and no vertex events, so a nonzero rate
    # would be silently dropped
    spec = GenSpec(family, **OWN_FIELDS[family], **{field: 0.5})
    with pytest.raises(GeneratorParameterError, match=f"{field} applies to random-edges and random-matching only"):
        spec.generate()


def test_genspec_accepts_unit_interval_ends():
    for p in (0.0, 1.0):
        spec = GenSpec("random-edges", n=6, events=20, p_insert=p, query_rate=p, vertex_rate=p)
        assert len(spec.generate().events) == 20


def test_families_read_the_documented_options():
    assert {family: reads for family, (_, reads) in FAMILIES.items()} == READS
    assert [f.name for f in fields(GenSpec)][1:] == list(VALUES)


@pytest.mark.parametrize(
    "family, field", [(family, field) for family in READS for field in VALUES if field not in READS[family]]
)
def test_genspec_rejects_a_field_the_family_does_not_read(family, field):
    spec = GenSpec(family, **OWN_FIELDS[family], **{field: VALUES[field]})
    with pytest.raises(GeneratorParameterError, match=f"^{field} applies to .* only, not {family}$"):
        spec.generate()


def _defaults(family):
    gen, reads = FAMILIES[family]
    params = signature(gen).parameters
    return [(name, params[name].default) for name in reads if params[name].default is not Parameter.empty]


@pytest.mark.parametrize(
    "family, field, default", [(family, *pair) for family in FAMILIES for pair in _defaults(family)]
)
def test_genspec_field_set_to_its_default_equals_it_unset(family, field, default):
    # the deterministic families have no defaults, so every case here is a
    # random family, which GenSpec(family) alone generates
    unset = GenSpec(family)
    at_default = replace(unset, **{field: default})
    assert serialize_stream(at_default.generate()) == serialize_stream(unset.generate())


@pytest.mark.parametrize("family", FAMILIES)
def test_family_fields_are_parameters_of_its_generator(family):
    gen, reads = FAMILIES[family]
    params = signature(gen).parameters
    assert set(reads) <= set(params)
    # a parameter without a default that the row leaves out could never be given
    assert {name for name, p in params.items() if p.default is Parameter.empty} <= set(reads)


@pytest.mark.parametrize("family, needs", [("arbitrary-removal", "m and delta"), ("degree-biased", "m")])
def test_genspec_without_a_required_field_raises_a_parameter_error(family, needs):
    with pytest.raises(GeneratorParameterError, match=f"^{family} needs {needs}$"):
        GenSpec(family).generate()


def test_genspec_names_only_the_missing_field():
    with pytest.raises(GeneratorParameterError, match="^arbitrary-removal needs delta$"):
        GenSpec("arbitrary-removal", m=64).generate()

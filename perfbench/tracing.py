"""Traced run: wrap each module's public functions and attribute time to layers.

Layers are the package's modules.  Each wrapped name is resolved at run time
where its caller looks it up (``dynamis.cli:parse_stream``, not
``dynamis.stream:parse_stream``), so the wrapper sees exactly the calls the
program makes.  A name that cannot be resolved is skipped, and the metrics
that depend on it are reported as absent.

Spans are kept in memory in flat arrays (name, parent, start, end) and
written out once at the end.  A layer's self time is the duration of its
spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

ALGORITHMS = (
    "mis-simple", "mis-inc", "mis-2level", "mis-implicit",
    "flow-fd", "flow-inc", "match-fd", "match-inc",
)
FAMILIES = ("arbitrary-removal", "degree-biased", "random-edges", "random-flow", "random-matching")

# The public calls `dynamis run` makes into each algorithm, per algorithm.
ALG_TARGETS = {
    "mis-simple": ("dynamis:SimpleMis.apply", "dynamis:SimpleMis.contains"),
    "mis-inc": ("dynamis:IncrementalMis.apply", "dynamis:SimpleMis.contains"),
    "mis-2level": ("dynamis:TwoLevelMis.apply", "dynamis:TwoLevelMis.contains"),
    "mis-implicit": ("dynamis:ImplicitMis.apply", "dynamis:ImplicitMis.in_mis_query"),
    "flow-fd": ("dynamis:FlowNetwork.insert_edge", "dynamis:FlowNetwork.delete_edge"),
    "flow-inc": ("dynamis:IncrementalFlow.insert_edge",),
    "match-fd": ("dynamis:DynamicMatching.apply",),
    "match-inc": ("dynamis:IncrementalMatching.apply",),
}
AUDITED = (
    "SimpleMis", "TwoLevelMis", "ImplicitMis", "FlowNetwork", "IncrementalFlow",
    "DynamicMatching", "IncrementalMatching",
)
# layer -> targets; "a|b" wraps the first of a, b that the owner defines
LAYER_TARGETS = {
    "generators": ("dynamis:GenSpec.generate",),
    "stream.serialize": ("dynamis:serialize_stream",),
    "stream.parse": ("dynamis.cli:parse_stream",),
    "graph": tuple(
        f"dynamis:DynGraph.{m}" for m in ("insert_edge", "delete_edge", "insert_vertex", "delete_vertex")
    ),
    "alg": tuple(dict.fromkeys(t for ts in ALG_TARGETS.values() for t in ts)),
    "flow.residual_out": ("dynamis:FlowNetwork.residual_out",),
    "matching.augment_from": ("dynamis:DynamicMatching.augment_from",),
    "oracles": (
        "dynamis.bench:is_mis", "dynamis.bench:static_max_flow", "dynamis.matching:static_max_matching",
    ),
    "audit": tuple(f"dynamis:{cls}.audit|verify" for cls in AUDITED),
}
ROOT = "run"
QUERY_SPAN = "dynamis:ImplicitMis.in_mis_query"


class SpanOrderError(AssertionError):
    """A child span started before or ended after its parent."""


def _resolve(target: str):
    """(owner, attribute, function) for a target, or None if it is missing."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, last = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    for attr in last.split("|"):
        # wrap a method only on the class that defines it, so restoring it
        # puts back exactly what was there
        fn = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
        if inspect.isfunction(fn):
            return owner, attr, fn
    return None


class Tracer:
    """Spans of one traced run, plus the wrappers that record them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.roots: dict[int, str] = {}  # root span index -> algorithm
        self.hits: Counter[str] = Counter()
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def _intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, algorithm: str):
        """The benchmark's own span around one ``dynamis run`` call."""
        idx = self._open(self._intern(ROOT, "bench"))
        self.roots[idx] = algorithm
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, target: str, layer: str, fn):
        tracer = self
        nid = self._intern(target, layer)
        if layer == "generators":
            @functools.wraps(fn)
            def wrapper(spec, *args, **kwargs):
                idx = tracer._open(tracer._intern(f"generators.{spec.family}", layer))
                try:
                    return fn(spec, *args, **kwargs)
                finally:
                    tracer._close(idx)
        elif layer == "matching.augment_from":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    found = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if found:
                    tracer.hits[layer] += 1
                return found
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        wrapper.perfbench_wrapper = True
        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper that resolves; always restore the originals."""
        try:
            for layer, targets in LAYER_TARGETS.items():
                for target in targets:
                    found = _resolve(target)
                    if found is None:
                        if target not in self.missing:
                            self.missing.append(target)
                        continue
                    owner, attr, fn = found
                    self._installed.append((owner, attr, fn))
                    setattr(owner, attr, self._wrapper(target, layer, fn))
            yield self
        finally:
            while self._installed:
                owner, attr, fn = self._installed.pop()
                setattr(owner, attr, fn)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[int]]:
        """(duration, self time) per span; asserts children nest in parents."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p < 0:
                continue
            if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                raise SpanOrderError(f"span {i} ({self.names[self.name[i]]}) outlasts parent {p}")
            child[p] += dur[i]
        selfs = [dur[i] - child[i] for i in range(count)]
        if any(s < 0 for s in selfs):
            raise SpanOrderError("children of one span overlap")
        return dur, selfs

    def metrics(self, runs: list[dict], attrs: dict[str, int]) -> tuple[dict, list[float]]:
        """Per-layer metrics, and each ``dynamis run`` span's coverage.

        ``runs`` holds, per traced ``dynamis run`` in span order, the
        algorithm, event count and run report; ``attrs`` the values read
        from the algorithms' public attributes after a replay.
        """
        dur, selfs = self.self_times()
        names, layers = self.names, self.layers
        root_of = [0] * len(dur)
        layer_s: defaultdict[str, int] = defaultdict(int)
        layer_calls: Counter[str] = Counter()
        alg_self: defaultdict[str, int] = defaultdict(int)
        alg_inclusive: defaultdict[str, int] = defaultdict(int)
        name_s: defaultdict[str, int] = defaultdict(int)
        coverage = []
        for i in range(len(dur)):
            p = self.parent[i]
            root_of[i] = i if p < 0 else root_of[p]
            nid = self.name[i]
            layer = layers[nid]
            layer_s[layer] += selfs[i]
            layer_calls[layer] += 1
            name_s[names[nid]] += selfs[i]
            if layer == "bench":
                coverage.append(1.0 - selfs[i] / dur[i] if dur[i] else 0.0)
            elif layer == "alg":
                alg = self.roots.get(root_of[i])
                alg_self[alg] += selfs[i]
                if p < 0 or layers[self.name[p]] != "alg":
                    alg_inclusive[alg] += dur[i]
                    if names[nid] == QUERY_SPAN:
                        name_s["mis-implicit.query"] += dur[i]

        events = sum(r["events"] for r in runs)
        absent = {layer for layer, ts in LAYER_TARGETS.items() if any(t in self.missing for t in ts)}
        out: dict[str, float] = {}

        def put(name: str, layer: str, value: float) -> None:
            if layer not in absent:
                out[name] = value

        for family in FAMILIES:
            put(f"generators.{family}.s", "generators", name_s[f"generators.{family}"] / 1e9)
        put("stream.parse_s", "stream.parse", layer_s["stream.parse"] / 1e9)
        put("stream.parse_ns_per_event", "stream.parse", layer_s["stream.parse"] / max(events, 1))
        put("stream.serialize_s", "stream.serialize", layer_s["stream.serialize"] / 1e9)
        out["bench.self_s"] = layer_s["bench"] / 1e9
        out["bench.ns_per_event"] = layer_s["bench"] / max(events, 1)
        put("graph.calls", "graph", layer_calls["graph"])
        put("graph.self_s", "graph", layer_s["graph"] / 1e9)
        for alg in ALGORITHMS:
            if any(t in self.missing for t in ALG_TARGETS[alg]):
                continue
            mine = [r["report"] for r in runs if r["algorithm"] == alg]
            touched = sum(r["totals"]["edges_touched"] for r in mine)
            out[f"{alg}.updates"] = sum(r["totals"]["updates"] for r in mine)
            out[f"{alg}.self_s"] = alg_self[alg] / 1e9
            out[f"{alg}.edges_touched"] = touched
            out[f"{alg}.adjustments"] = sum(r["totals"]["adjustments"] for r in mine)
            out[f"{alg}.max_op_touched"] = max(
                (r["per_update_max"]["edges_touched"] for r in mine), default=0
            )
            out[f"{alg}.ns_per_touch"] = alg_inclusive[alg] / touched if touched else 0.0
        out.update(attrs)
        if "mis-implicit.self_s" in out:
            out["mis-implicit.query_s"] = name_s["mis-implicit.query"] / 1e9
        put("flow.residual_out.calls", "flow.residual_out", layer_calls["flow.residual_out"])
        put("flow.residual_out.s", "flow.residual_out", layer_s["flow.residual_out"] / 1e9)
        calls = layer_calls["matching.augment_from"]
        put("matching.augment_from.calls", "matching.augment_from", calls)
        put("matching.augment_from.s", "matching.augment_from", layer_s["matching.augment_from"] / 1e9)
        put(
            "matching.augment_hit_ratio", "matching.augment_from",
            self.hits["matching.augment_from"] / calls if calls else 0.0,
        )
        put("oracles.calls", "oracles", layer_calls["oracles"])
        put("oracles.s", "oracles", layer_s["oracles"] / 1e9)
        put("audit.s", "audit", layer_s["audit"] / 1e9)
        return out, coverage

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )

"""Replays and their checks.

``dynamis run`` is called in-process through ``dynamis.cli.main`` and timed
as a whole (throughput).  The library pass drives the algorithm classes
directly and times each update from outside with a ``perf_counter_ns`` pair
(latency).  Both end with the same checks: the final structure against
``dynamis.oracles``, and the run report against the library pass.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
import traceback
from array import array
from dataclasses import dataclass, field

import dynamis
import dynamis.cli
import dynamis.oracles

from . import speed
from .workloads import Pair

MIS_CLASSES = {
    "mis-simple": "SimpleMis",
    "mis-inc": "IncrementalMis",
    "mis-2level": "TwoLevelMis",
    "mis-implicit": "ImplicitMis",
}
FLOW_CLASSES = {"flow-fd": "FlowNetwork", "flow-inc": "IncrementalFlow"}


class ReplayFailure(Exception):
    """A replay exited non-zero, or its output failed a check."""


@dataclass
class Ledger:
    """Replays attempted and the reason each failed one failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def attempt(self, pair: Pair, what: str, fn):
        self.attempted += 1
        try:
            return fn()
        except ReplayFailure as exc:
            self.failures.append(f"{what} {pair.algorithm} {pair.label}: {exc}")
        except Exception:  # a crashing replay is a failed replay; keep measuring the rest
            detail = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
            self.failures.append(f"{what} {pair.algorithm} {pair.label}: {detail}")
        return None


def run_cli(pair: Pair, report_path: str, verify: bool, sink) -> tuple[float, dict]:
    """One ``dynamis run`` with stdout sent to ``sink``; returns (seconds, report)."""
    argv = ["run", pair.algorithm, pair.path, "--report", report_path]
    if verify:
        argv.append("--verify")
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        code = dynamis.cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise ReplayFailure(f"dynamis run exited {code}")
    with open(report_path) as fh:
        return elapsed, json.load(fh)


def report_summary(report: dict) -> tuple:
    """The fields a run report and the library pass must agree on."""
    totals = report["totals"]
    return (list(report["result"].values()), totals["updates"], totals["edges_touched"])


# -- library pass ---------------------------------------------------------


def build(algorithm: str, stream: dynamis.UpdateStream):
    """Construct the algorithm over the stream's preallocated vertices."""
    if algorithm in MIS_CLASSES:
        return getattr(dynamis, MIS_CLASSES[algorithm])(dynamis.DynGraph(stream.n))
    if algorithm in FLOW_CLASSES:
        s, t = stream.flow
        return getattr(dynamis, FLOW_CLASSES[algorithm])(max(stream.n, max(s, t) + 1), s, t)
    if algorithm == "match-fd":
        return dynamis.DynamicMatching(dynamis.DynGraph(stream.n))
    alg = dynamis.IncrementalMatching()
    for _ in range(stream.n):
        alg.insert_vertex()
    return alg


def oracle_check(algorithm: str, alg) -> None:
    """The structure against ``dynamis.oracles``; raises ReplayFailure."""
    oracles = dynamis.oracles
    if algorithm in MIS_CLASSES:
        members = alg.independent_set() if algorithm == "mis-implicit" else alg.mis()
        verdict = oracles.is_mis(alg.g.adj, members)
        if not verdict.ok:
            raise ReplayFailure(verdict.detail)
    elif algorithm in FLOW_CLASSES:
        net = getattr(alg, "net", alg)
        want = oracles.static_max_flow(net.vertices(), net.directed_edges(), net.s, net.t)
        if net.F != want:
            raise ReplayFailure(f"F={net.F}, static max flow {want}")
    else:
        want = oracles.static_max_matching(alg.g.adj)
        if alg.cardinality != want:
            raise ReplayFailure(f"cardinality {alg.cardinality}, static max matching {want}")


def verify_checks(algorithm: str, alg):
    """The checks ``dynamis run --verify`` makes after every event.

    The module's own audit, plus the oracle for the MIS classes that keep a
    maximal set and for the flow classes (the matching audits call their
    oracle themselves).
    """
    audit = getattr(alg, "audit", None) or alg.verify
    with_oracle = algorithm in FLOW_CLASSES or algorithm in ("mis-simple", "mis-inc", "mis-2level")

    def check() -> None:
        if not audit():
            raise ReplayFailure("internal audit failed")
        if with_oracle:
            oracle_check(algorithm, alg)

    return check


def library_replay(pair: Pair, verify: bool, samples: array):
    """Replay through the library API, appending one sample (ns) per update.

    Queries are answered but not timed.  With ``verify`` a sample is the
    update plus the checks ``--verify`` runs after it.  The samples are
    taken to reference speed with probes before and after the replay.
    """
    algorithm = pair.algorithm
    alg = build(algorithm, pair.stream)
    check = verify_checks(algorithm, alg) if verify else None
    if check is not None:
        check()
    query = getattr(alg, "in_mis_query", None) or getattr(alg, "contains", None)
    is_flow = algorithm in FLOW_CLASSES
    QueryInMis, InsertEdge, DeleteEdge = dynamis.QueryInMis, dynamis.InsertEdge, dynamis.DeleteEdge
    clock = time.perf_counter_ns
    append = samples.append
    before, first = speed.probe(), len(samples)
    for e in pair.stream.events:
        kind = type(e)
        if kind is QueryInMis:
            query(e.v)
            if check is not None:
                check()
            continue
        if is_flow:
            if kind is InsertEdge:
                op, args = alg.insert_edge, (e.u, e.v)
            elif kind is DeleteEdge:
                op, args = alg.delete_edge, (e.u, e.v)
            else:
                op, args = alg.add_vertex, ()
        else:
            op, args = alg.apply, (e,)
        start = clock()
        op(*args)
        if check is not None:
            check()
        append(clock() - start)
    scale = speed.at_reference(1.0, before, speed.probe())
    for j in range(first, len(samples)):
        samples[j] *= scale
    return alg


def result_value(algorithm: str, alg) -> int:
    if algorithm == "mis-implicit":
        return len(alg.independent_set())
    if algorithm in MIS_CLASSES:
        return len(alg.mis())
    if algorithm in FLOW_CLASSES:
        return alg.F
    return alg.cardinality


def check_final(pair: Pair, alg, report: dict | None) -> None:
    """Agreement with the run report, then the oracle on the final structure."""
    algorithm = pair.algorithm
    mine = ([result_value(algorithm, alg)], alg.meter.updates, alg.meter.edges_touched)
    if report is not None and report_summary(report) != mine:
        raise ReplayFailure(
            f"run report (result, updates, edges_touched) {report_summary(report)} != library {mine}"
        )
    if algorithm == "mis-implicit":
        # the maintained set is only independent; a query sweep makes it maximal
        for v in list(alg.g.vertices()):
            alg.in_mis_query(v)
    oracle_check(algorithm, alg)


def percentile(sorted_samples, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]

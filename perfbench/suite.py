"""One benchmark run of one workload: set-up, timed replays, checks, metrics.

Untraced run: rounds repeat until ``seconds`` have passed.  Each round
replays every (algorithm, stream) pair through ``dynamis run``; in
LATENCY_ROUNDS of the rounds, the first included, every pair is then replayed
through the library API.  Library passes and set-ups are spread evenly over
the run.  Every timed unit (one replay, one pair's library pass, one set-up)
is bracketed by host speed probes and its time taken at reference speed
(``speed.py``): the host is shared, and its speed swings by up to 2x for
seconds to minutes at a time.

  setup_s        median seconds of generate + serialize over the set-ups
  events_per_s   events of one round / the sum over pairs of the pair's
                 median seconds in ``dynamis run``
  update_p50_us, update_p99_us
                 geometric mean over the algorithms of the percentile over
                 the algorithm's updates of each update's median latency
                 over LATENCY_ROUNDS library passes
  peak_rss_mb    peak resident memory of this process
  failed_frac    failed replays / replays attempted

Traced run: one traced set-up, then rounds until ``seconds`` have passed in
which each pair gets an untraced, a traced and another untraced
``dynamis run``.  One untraced library pass after the first round checks the
final structures against the oracles and the run reports.  Per-layer metrics
come from the spans of the first round, ``trace.overhead_frac`` from
comparing every traced call with the untraced calls around it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from array import array

import dynamis

from . import measure, speed
from .tracing import Tracer
from .workloads import WORKLOADS, Pair, generate_texts, timed_setup

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Set-ups per run: about a tenth of the run, spread evenly over it.
SETUP_SHARE = 0.1
SETUP_MIN, SETUP_MAX = 7, 51
# Library passes per run, spread over it like the set-ups; few enough that
# keeping every sample of every pass costs little memory.
LATENCY_ROUNDS = 7


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def write_pairs(sources, texts, work_dir: str) -> list[Pair]:
    """Write and parse each stream text once; pairs share the parsed stream."""
    pairs = []
    parsed: dict[tuple[str, str | None], tuple[str, str, dynamis.UpdateStream]] = {}
    for src in sources:
        for algorithm, transform in src.uses:
            key = (src.label, transform)
            if key not in parsed:
                label = src.label if transform is None else f"{src.label}-{transform}"
                path = os.path.join(work_dir, f"{label}.txt")
                with open(path, "w") as fh:
                    fh.write(texts[key])
                parsed[key] = (label, path, dynamis.parse_stream(texts[key]))
            pairs.append(Pair(algorithm, *parsed[key]))
    return pairs


class Replays:
    """The pairs of one run, their checks and their measurements."""

    def __init__(self, pairs: list[Pair], verify: bool, work_dir: str, sink):
        self.pairs = pairs
        self.verify = verify
        self.work_dir = work_dir
        self.sink = sink
        self.ledger = measure.Ledger()
        self.reports: list[dict | None] = [None] * len(pairs)
        # per pair: seconds at reference speed, and wall seconds
        self.cli_times: list[list[float]] = [[] for _ in pairs]
        self.cli_wall: list[list[float]] = [[] for _ in pairs]
        # one sample per update and pass, in replay order; each pair's slice
        self.latency_rounds: list[array] = []
        self.sample_slices: list[tuple[int, int]] = []
        self.library_rounds = 0
        self.samples = 0
        self.attrs = {"mis-2level.phase_rebuilds": 0, "flow-inc.stages": 0, "match-inc.stages": 0}

    def cli(self, i: int, tracer: Tracer | None = None) -> float | None:
        """One ``dynamis run`` of pair ``i``; its seconds, or None if it failed.

        Every report must agree with the pair's first one.
        """
        pair = self.pairs[i]
        report_path = os.path.join(self.work_dir, f"report-{i}.json")

        def replay():
            if tracer is None:
                elapsed, report = measure.run_cli(pair, report_path, self.verify, self.sink)
            else:
                with tracer.root(pair.algorithm):
                    elapsed, report = measure.run_cli(pair, report_path, self.verify, self.sink)
            first = self.reports[i]
            if first is None:
                self.reports[i] = report
            elif measure.report_summary(first) != measure.report_summary(report):
                raise measure.ReplayFailure("run report differs from the pair's first one")
            return elapsed

        return self.ledger.attempt(pair, "dynamis run", replay)

    def cli_pass(self) -> None:
        before = speed.probe()
        for i in range(len(self.pairs)):
            elapsed = self.cli(i)
            after = speed.probe()
            if elapsed is not None:
                self.cli_wall[i].append(elapsed)
                self.cli_times[i].append(speed.at_reference(elapsed, before, after))
            before = after

    def events_per_s(self) -> float:
        """Events of the pairs that ran over the sum of their median seconds."""
        timed = [(p, t) for p, t in zip(self.pairs, self.cli_times) if t]
        seconds = sum(statistics.median(t) for _, t in timed)
        return sum(len(p.stream.events) for p, _ in timed) / seconds if seconds else 0.0

    def library_pass(self) -> None:
        """Every pair through the library API; one latency sample per update.

        The first pass also checks each final structure against the oracles
        and the pair's run report, and reads the public attributes the traced
        run reports.
        """
        first = self.library_rounds == 0
        samples = array("f")
        slices = []
        for i, pair in enumerate(self.pairs):
            lo = len(samples)

            def replay(i=i, pair=pair):
                alg = measure.library_replay(pair, self.verify, samples)
                if first:
                    if pair.algorithm == "mis-2level":
                        self.attrs["mis-2level.phase_rebuilds"] += alg.phase_rebuilds
                    elif pair.algorithm in ("flow-inc", "match-inc"):
                        self.attrs[f"{pair.algorithm}.stages"] += len(alg.stage_touches)
                    measure.check_final(pair, alg, self.reports[i])

            self.ledger.attempt(pair, "library", replay)
            slices.append((lo, len(samples)))
        if first:
            self.sample_slices = slices
        self.library_rounds += 1
        self.samples = len(samples)
        # a failed replay leaves a pass whose samples do not line up
        if samples and (not self.latency_rounds or len(samples) == len(self.latency_rounds[0])):
            self.latency_rounds.append(samples)

    def latency_by_algorithm(self) -> dict[str, list[float]]:
        """Each algorithm's updates, each as its median latency over the passes.

        The slowest 1% are a few hundred updates on some workloads, so a
        single pass's p99 moves with the host's speed during those updates.
        """
        per_update = [statistics.median(s) for s in zip(*self.latency_rounds)]
        by_algorithm: dict[str, list[float]] = {}
        for pair, (lo, hi) in zip(self.pairs, self.sample_slices):
            by_algorithm.setdefault(pair.algorithm, []).extend(per_update[lo:hi])
        return {alg: sorted(values) for alg, values in by_algorithm.items() if values}


def latency_us(by_algorithm: dict[str, list[float]]) -> dict[str, tuple[float, float]]:
    """p50 and p99 in µs of each algorithm, and under "all" their geometric means.

    Algorithms differ in update cost by up to 100x.  A percentile over all of
    them pooled falls between their clusters and moves with the mix of
    updates, which follows the seed; per algorithm it does not.
    """
    per_alg = {
        alg: (measure.percentile(v, 0.50) / 1e3, measure.percentile(v, 0.99) / 1e3)
        for alg, v in by_algorithm.items()
    }
    if per_alg:
        per_alg["all"] = tuple(statistics.geometric_mean(p[k] for p in per_alg.values()) for k in (0, 1))
    return per_alg


def probed_setup(sources) -> tuple[float, dict]:
    """One set-up; its seconds at reference speed, and the stream texts."""
    before = speed.probe()
    elapsed, texts = timed_setup(sources)
    return speed.at_reference(elapsed, before, speed.probe()), texts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for stale in os.listdir(path):
        os.remove(os.path.join(path, stale))


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: str,
                 scale: float = 1.0) -> dict:
    """Run one workload; returns metrics, failures and run details."""
    make_sources, verify = WORKLOADS[name]
    sources = make_sources(seed, scale)
    _fresh_dir(work_dir)
    tracer = Tracer() if trace else None
    setups: list[float] = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    with open(os.devnull, "w") as sink:
        if tracer is None:
            elapsed, texts = probed_setup(sources)
            setups.append(elapsed)
        else:
            with tracer.installed():
                texts = generate_texts(sources)
        replays = Replays(write_pairs(sources, texts, work_dir), verify, work_dir, sink)
        del texts
        # The benchmark's own long-lived data (the parsed streams) is frozen,
        # so the collector's full passes cost what they cost in a lone
        # `dynamis run`.
        gc.collect()
        gc.freeze()
        try:
            if tracer is None:
                wanted = min(SETUP_MAX, max(SETUP_MIN, int(SETUP_SHARE * seconds / setups[0])))
                while True:
                    round_start = time.perf_counter()
                    rounds += 1
                    replays.cli_pass()
                    elapsed_share = min(1.0, 1 - (deadline - time.perf_counter()) / seconds) if seconds else 1.0
                    if replays.library_rounds < 1 + (LATENCY_ROUNDS - 1) * elapsed_share:
                        replays.library_pass()
                    now = time.perf_counter()
                    # stop when another round would end nearer past the
                    # deadline than this one ends before it
                    if now + (now - round_start) / 2 >= deadline:
                        break
                    while len(setups) < wanted * (1 - (deadline - now) / seconds):
                        elapsed, texts = probed_setup(sources)
                        setups.append(elapsed)
                        del texts
            else:
                around, traced = [], []
                recording = tracer
                while True:
                    round_start = time.perf_counter()
                    rounds += 1
                    for i in range(len(replays.pairs)):
                        before = replays.cli(i)
                        with recording.installed():
                            during = replays.cli(i, recording)
                        after = replays.cli(i)
                        if None not in (before, during, after):
                            around.append((before + after) / 2)
                            traced.append(during)
                    if replays.library_rounds == 0:
                        # every pair has its run report now, so the library
                        # pass checks them
                        replays.library_pass()
                    now = time.perf_counter()
                    if now + (now - round_start) / 2 >= deadline:
                        break
                    # later rounds only add to the overhead estimate; their
                    # spans are dropped
                    recording = Tracer()
        finally:
            gc.unfreeze()

    pairs, ledger = replays.pairs, replays.ledger
    detail: dict = {
        "events_per_round": sum(len(p.stream.events) for p in pairs),
        "rounds": rounds,
        "samples_per_round": replays.samples,
        "pairs": [
            {"algorithm": p.algorithm, "stream": p.label, "events": len(p.stream.events),
             "cli_s": t, "cli_wall_s": w}
            for p, t, w in zip(pairs, replays.cli_times, replays.cli_wall)
        ],
        "latency_rounds": len(replays.latency_rounds),
    }
    if tracer is None:
        latency = latency_us(replays.latency_by_algorithm())
        p50, p99 = latency.get("all", (0.0, 0.0))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "events_per_s": (replays.events_per_s(), "1/s"),
            "update_p50_us": (p50, "us"),
            "update_p99_us": (p99, "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        detail["setup_s_each"] = setups
        detail["latency_p50_p99_us"] = latency
        detail["latency_updates"] = {
            alg: sum(hi - lo for p, (lo, hi) in zip(pairs, replays.sample_slices) if p.algorithm == alg)
            for alg in latency if alg != "all"
        }
    else:
        runs = [
            {"algorithm": p.algorithm, "events": len(p.stream.events), "report": r}
            for p, r in zip(pairs, replays.reports) if r is not None
        ]
        layer, coverage = tracer.metrics(runs, replays.attrs)
        layer["trace.overhead_frac"] = sum(traced) / sum(around) - 1.0 if around else 0.0
        layer["trace.coverage_frac"] = statistics.fmean(coverage) if coverage else 0.0
        units = per_layer_units()
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        detail["coverage_per_run"] = [
            {"algorithm": p.algorithm, "stream": p.label, "coverage": c} for p, c in zip(pairs, coverage)
        ]
        detail["trace_missing"] = list(tracer.missing)
        detail["spans"] = len(tracer.start)
        detail["spans_file"] = os.path.join(work_dir, "spans.tsv")
        tracer.write_spans(detail["spans_file"])
    failed = len(ledger.failures)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failed": failed,
        "failed_frac": failed / ledger.attempted if ledger.attempted else 1.0,
        "failures": ledger.failures,
        "detail": detail,
    }

import json
import os
import subprocess
import sys
from itertools import combinations
from math import isqrt
from pathlib import Path

import pytest

from dynamis import UpdateStream, parse_stream, serialize_stream
from dynamis.bench import ALGORITHMS, REGISTRY, check_compatible, replay, scaling, stream_for_size
from dynamis.cli import _emit, main
from dynamis.errors import GeneratorParameterError, IncompatibleStreamError
from dynamis.generators import (
    FAMILIES,
    GenSpec,
    gen_arbitrary_removal,
    gen_degree_biased,
    gen_random_edges,
    gen_random_flow,
)
from dynamis.mis.base import ceil_root
from dynamis.stream import DeleteEdge, DeleteVertex, InsertEdge, InsertVertex, QueryInMis


TOY = "n 4\n+e 0 1\n+e 1 2\n+e 2 3\n"
TOY_FLOW = "n 4\nflow 0 3\n+e 0 1\n+e 1 3\n+e 0 2\n+e 2 3\n"


def test_check_compatible_flow_header():
    plain = parse_stream(TOY)
    flow = parse_stream(TOY_FLOW)
    check_compatible("flow-fd", flow)
    check_compatible("mis-simple", plain)
    with pytest.raises(IncompatibleStreamError):
        check_compatible("flow-fd", plain)
    with pytest.raises(IncompatibleStreamError):
        check_compatible("mis-simple", flow)
    with pytest.raises(IncompatibleStreamError):
        check_compatible("no-such-alg", plain)


def test_check_compatible_incremental_rejects_deletions():
    stream = UpdateStream(n=3, events=[InsertEdge(0, 1), DeleteEdge(0, 1)])
    for alg in ("mis-inc", "match-inc"):
        with pytest.raises(IncompatibleStreamError):
            check_compatible(alg, stream)
    check_compatible("mis-simple", stream)


def test_check_compatible_query_and_vertex_rules():
    queries = UpdateStream(n=3, events=[QueryInMis(0)])
    check_compatible("mis-implicit", queries)
    with pytest.raises(IncompatibleStreamError):
        check_compatible("match-fd", queries)
    attached = UpdateStream(n=3, events=[InsertVertex((0,))])
    check_compatible("mis-simple", attached)
    for alg in ("mis-inc", "mis-implicit", "match-inc"):
        with pytest.raises(IncompatibleStreamError):
            check_compatible(alg, attached)


def _first_broken_rule(algorithm, stream):
    """Reference: the rules checked one at a time, each by its own pass over the events."""
    row = REGISTRY[algorithm]
    events = stream.events
    rules = [
        (row.flow and stream.flow is None, "needs a `flow s t` header"),
        (not row.flow and stream.flow is not None, "cannot replay a flow stream"),
        (
            row.incremental and any(isinstance(e, (DeleteEdge, DeleteVertex)) for e in events),
            "rejects deletions",
        ),
        (row.query is None and any(isinstance(e, QueryInMis) for e in events), "does not answer In-MIS queries"),
        (
            row.isolated_vertices and any(isinstance(e, InsertVertex) and e.neighbors for e in events),
            "accepts only isolated vertex insertions",
        ),
        (row.flow and any(isinstance(e, DeleteVertex) for e in events), "does not delete vertices"),
    ]
    return next((f"{algorithm} {message}" for broken, message in rules if broken), None)


_RULE_BREAKERS = {
    "edge deletion": DeleteEdge(0, 1),
    "vertex deletion": DeleteVertex(2),
    "query": QueryInMis(0),
    "attached vertex": InsertVertex((0,)),
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_check_compatible_reports_the_first_broken_rule(algorithm):
    for flow in (None, (0, 2)):
        for pair in combinations(_RULE_BREAKERS, 2):
            events = [InsertEdge(0, 1), InsertVertex(())] + [_RULE_BREAKERS[name] for name in pair]
            stream = UpdateStream(n=3, flow=flow, events=events)
            want = _first_broken_rule(algorithm, stream)
            if want is None:
                assert check_compatible(algorithm, stream) is REGISTRY[algorithm], (flow, pair)
                continue
            with pytest.raises(IncompatibleStreamError) as err:
                check_compatible(algorithm, stream)
            assert str(err.value) == want, (flow, pair)


@pytest.mark.parametrize("algorithm", ["mis-simple", "mis-2level", "match-fd"])
def test_replay_toy_stream(algorithm):
    report = replay(algorithm, parse_stream(TOY), verify=True)
    assert report["verified"] is True
    assert report["stream"] == {"events": 3, "final_n": 4, "final_m": 3}
    assert report["totals"]["updates"] == 3


def test_replay_flow_both_modes():
    for algorithm in ("flow-fd", "flow-inc"):
        report = replay(algorithm, parse_stream(TOY_FLOW), verify=True)
        assert report["result"] == {"flow_value": 2}


def test_replay_reports_query_results():
    stream = parse_stream("n 3\n+e 0 1\n? 0\n? 1\n")
    report = replay("mis-implicit", stream, verify=True)
    assert report["query_results"] == [[0, 1], [1, 0]]


def test_replay_random_stream_adjustment_budget():
    stream = gen_random_edges(10, 200, seed=3, p_insert=0.6, vertex_rate=0.15)
    report = replay("mis-2level", stream, verify=True)
    budget = 4 * (len(stream.events) + report["stream"]["final_n"])
    assert report["totals"]["adjustments"] <= budget


def test_replay_deterministic_modulo_wall_time():
    stream = gen_random_edges(10, 150, seed=9, p_insert=0.6)
    a = replay("mis-simple", stream)
    b = replay("mis-simple", stream)
    a["totals"].pop("wall_time_s")
    b["totals"].pop("wall_time_s")
    assert a == b


def test_stream_for_size_families():
    assert len(stream_for_size("arbitrary-removal", 16).events) == 20
    assert stream_for_size("random-flow", 100).flow is not None
    assert not any(isinstance(e, (DeleteEdge, DeleteVertex)) for e in stream_for_size("random-edges", 100).events)
    with pytest.raises(IncompatibleStreamError):
        stream_for_size("no-such-family", 100)


def _reference_stream_for_size(family, m, seed=0):
    # the family dispatch stream_for_size kept before it built a GenSpec
    if family == "arbitrary-removal":
        return gen_arbitrary_removal(m, ceil_root(m, 1, 2))
    if family == "degree-biased":
        return gen_degree_biased(m)
    if family in ("random-edges", "random-matching"):
        n = max(16, 2 * isqrt(m))
        return gen_random_edges(n, m, seed, p_insert=1.0)
    if family == "random-flow":
        n = max(16, 2 * isqrt(m))
        return gen_random_flow(n, m, seed, p_insert=1.0)
    raise IncompatibleStreamError(f"unknown family {family!r}")


DETERMINISTIC = ("arbitrary-removal", "degree-biased")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m", [64, 256, 4096])
@pytest.mark.parametrize("seed", [0, 3])
def test_stream_for_size_matches_reference(family, m, seed):
    want = serialize_stream(_reference_stream_for_size(family, m, seed))
    # the deterministic families draw nothing and take no seed
    got = stream_for_size(family, m) if family in DETERMINISTIC else stream_for_size(family, m, seed)
    assert serialize_stream(got) == want


@pytest.mark.parametrize("family", DETERMINISTIC)
def test_stream_for_size_rejects_a_seed_on_a_deterministic_family(family):
    with pytest.raises(GeneratorParameterError, match=f"^seed applies to .* only, not {family}$"):
        stream_for_size(family, 256, 0)


@pytest.mark.parametrize("family", ["random-edges", "random-flow", "random-matching"])
def test_stream_for_size_without_a_seed_draws_seed_0(family):
    assert serialize_stream(stream_for_size(family, 256)) == serialize_stream(stream_for_size(family, 256, 0))


def test_scaling_report_shape():
    report = scaling("mis-simple", "arbitrary-removal", [256, 1024, 4096])
    assert report["sizes"] == [256, 1024, 4096]
    assert len(report["per_size"]) == 3
    assert 1.0 <= report["slope"] <= 1.7


def test_cli_run_verify_ok(tmp_path, capsys):
    path = tmp_path / "toy.txt"
    path.write_text(TOY)
    assert main(["run", "mis-simple", str(path), "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is True and report["result"]["mis_size"] >= 1


def test_cli_run_incompatible_exits_2(tmp_path, capsys):
    path = tmp_path / "del.txt"
    path.write_text("n 3\n+e 0 1\n-e 0 1\n")
    assert main(["run", "flow-inc", str(path)]) == 2
    assert main(["run", "mis-inc", str(path)]) == 2


def test_cli_run_missing_file_exits_2(tmp_path):
    assert main(["run", "mis-simple", str(tmp_path / "absent.txt")]) == 2


def test_cli_run_parse_error_exits_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n 3\n+e 0\n")
    assert main(["run", "mis-simple", str(path)]) == 2


def test_cli_run_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe+e 0 1\n")
    assert main(["run", "mis-simple", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: stream is not UTF-8") and captured.out == ""


@pytest.mark.parametrize(
    "encoding",
    [{"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C"}],  # the C locale reads text with surrogateescape
    ids=["strict-utf8", "c-locale"],
)
def test_cli_run_non_utf8_stdin_exits_2(tmp_path, encoding):
    # stdin is read as bytes and decoded strictly, whatever its text encoding
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL")}
    env.update(encoding, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "dynamis", "run", "mis-simple", "-"],
        cwd=tmp_path, env=env, input=b"\xff\xfe+e 0 1\n", capture_output=True,
    )
    assert run.returncode == 2 and run.stdout == b""
    assert run.stderr.startswith(b"error: stream is not UTF-8") and b"Traceback" not in run.stderr


def test_cli_run_emits_query_lines_before_report(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_text("n 3\n+e 0 1\n? 0\n? 1\n")
    assert main(["run", "mis-implicit", str(path), "--verify"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0 1" and out[1] == "1 0"
    assert json.loads("\n".join(out[2:]))["query_results"] == [[0, 1], [1, 0]]


@pytest.mark.parametrize("algorithm", ["mis-simple", "mis-inc", "mis-2level", "mis-implicit"])
def test_cli_run_counts_every_query(algorithm, tmp_path, capsys):
    # every In-MIS query is one metered operation, whichever row answers it
    path = tmp_path / "q.txt"
    path.write_text("n 3\n+e 0 1\n? 0\n? 2\n")
    assert main(["run", algorithm, str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    report = json.loads("\n".join(out[2:]))
    assert report["totals"]["queries"] == 2 and report["totals"]["updates"] == 1
    assert [v for v, _ in report["query_results"]] == [0, 2]


@pytest.mark.parametrize("algorithm", [None, "mis-simple", "mis-inc", "mis-2level", "mis-implicit"])
def test_emitted_report_is_json_dumps_at_indent_2(algorithm, tmp_path, capsys):
    # the query pairs are laid out by hand; stdout and --report must not tell
    if algorithm is None:
        report = replay("flow-fd", parse_stream(TOY_FLOW))
    else:
        report = replay(algorithm, gen_random_edges(20, 200, 9, p_insert=1.0, query_rate=0.2))
        assert len(report["query_results"]) > 1
    path = tmp_path / "report.json"
    _emit(report, str(path))
    want = json.dumps(report, indent=2) + "\n"
    assert capsys.readouterr().out == want and path.read_text() == want


def test_cli_run_writes_report_file(tmp_path, capsys):
    stream = tmp_path / "toy.txt"
    stream.write_text(TOY)
    out = tmp_path / "report.json"
    assert main(["run", "mis-simple", str(stream), "--report", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["algorithm"] == "mis-simple"


def test_cli_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    args = ["gen", "--family", "random-edges", "--n", "8", "--events", "50", "--seed", "2",
            "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    stream = parse_stream(out.read_text())
    assert stream.n == 8 and len(stream.events) == 50


def test_cli_gen_arbitrary_removal_stdout(capsys):
    assert main(["gen", "--family", "arbitrary-removal", "--m", "16", "--delta", "4"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("+e")]
    assert len(lines) == 20


@pytest.mark.parametrize("family", ["random-edges", "random-flow", "random-matching"])
def test_cli_gen_takes_its_defaults_from_genspec(family, capsys):
    assert main(["gen", "--family", family]) == 0
    assert capsys.readouterr().out == serialize_stream(GenSpec(family).generate())


def test_cli_gen_bad_parameters_exit_2(capsys):
    assert main(["gen", "--family", "degree-biased", "--m", "32"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_scaling_report(tmp_path, capsys):
    out = tmp_path / "scaling.json"
    args = ["scaling", "mis-simple", "arbitrary-removal", "--sizes", "256,1024,4096",
            "--report", str(out)]
    assert main(args) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["sizes"] == [256, 1024, 4096]
    assert isinstance(report["slope"], float)


@pytest.mark.parametrize(
    "family, seed_args, seed",
    [("random-edges", ["--seed", "4"], 4), ("arbitrary-removal", [], None)],
)
def test_cli_scaling_report_records_the_seed(family, seed_args, seed, capsys):
    assert main(["scaling", "mis-simple", family, "--sizes", "64,256", *seed_args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report)[:3] == ["algorithm", "family", "seed"]
    assert report["seed"] == seed


@pytest.mark.parametrize(
    "sizes", ["4096,abc", "4096", "4096,4096", ",", "0,4096", "-256,4096", "256,1.5"]
)
def test_cli_scaling_bad_sizes_exit_2(sizes, capsys):
    assert main(["scaling", "mis-simple", "arbitrary-removal", f"--sizes={sizes}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --sizes") and "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_gen_probability_out_of_range_exits_2(capsys):
    assert main(["gen", "--family", "random-edges", "--p-insert", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: p_insert") and captured.out == ""


def test_cli_gen_rate_the_family_cannot_honour_exits_2(capsys):
    args = ["gen", "--family", "random-flow", "--n", "6", "--events", "8", "--query-rate", "0.5",
            "--vertex-rate", "0.5"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: query_rate applies to random-edges and random-matching only, not random-flow\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "args, option",
    [
        (["gen", "--family", "degree-biased", "--m", "64", "--p-insert", "0.3", "--seed", "9", "--n", "5"], "n"),
        (["gen", "--family", "degree-biased", "--m", "64", "--p-insert", "0.3"], "p_insert"),
        (["gen", "--family", "random-flow", "--n", "6", "--events", "8", "--m", "1000", "--delta", "3"], "m"),
        (["gen", "--family", "random-edges", "--delta", "3"], "delta"),
        (["scaling", "mis-simple", "arbitrary-removal", "--sizes", "64,256", "--seed", "4"], "seed"),
        (["scaling", "mis-inc", "degree-biased", "--sizes", "64,256", "--seed", "0"], "seed"),
    ],
)
def test_cli_option_the_family_does_not_read_exits_2(args, option, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {option} applies to ") and captured.out == ""


@pytest.mark.parametrize("family, needs", [("arbitrary-removal", "m and delta"), ("degree-biased", "m")])
def test_cli_gen_without_a_required_option_exits_2(family, needs, capsys):
    assert main(["gen", "--family", family]) == 2
    assert capsys.readouterr().err == f"error: {family} needs {needs}\n"


def test_cli_run_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(TOY.encode())))
    assert main(["run", "mis-simple", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["stream"]["events"] == 3


def test_algorithms_constant():
    assert len(ALGORITHMS) == 8


@pytest.mark.parametrize("algorithm", ["mis-simple", "mis-2level", "mis-implicit", "match-fd"])
def test_cli_run_delete_unknown_vertex_exits_2(algorithm, tmp_path, capsys):
    path = tmp_path / "badv.txt"
    path.write_text("n 3\n+e 0 1\n-v 7\n")
    assert main(["run", algorithm, str(path)]) == 2
    assert "vertex 7 is not live" in capsys.readouterr().err


NON_LIVE_QUERIES = [
    pytest.param(alg, "n 2\n? 5\n", 5, id=f"{alg}-never-issued")
    for alg in ("mis-simple", "mis-inc", "mis-2level", "mis-implicit")
] + [
    # mis-inc rejects the deletion itself
    pytest.param(alg, "n 3\n+e 0 1\n-v 1\n? 1\n", 1, id=f"{alg}-deleted")
    for alg in ("mis-simple", "mis-2level", "mis-implicit")
]


@pytest.mark.parametrize("algorithm,text,v", NON_LIVE_QUERIES)
def test_cli_run_query_on_non_live_vertex_exits_2(algorithm, text, v, tmp_path, capsys):
    path = tmp_path / "query.txt"
    path.write_text(text)
    assert main(["run", algorithm, str(path)]) == 2
    assert f"vertex {v} is not live" in capsys.readouterr().err


# one compatible stream per algorithm, with In-MIS queries where it answers them
AGREEMENT_STREAMS = {
    "mis-simple": lambda: gen_random_edges(12, 150, 1, 0.65, query_rate=0.15, vertex_rate=0.1),
    "mis-inc": lambda: gen_random_edges(12, 150, 2, p_insert=1.0, query_rate=0.15),
    "mis-2level": lambda: gen_random_edges(12, 150, 3, 0.65, query_rate=0.15, vertex_rate=0.1),
    "mis-implicit": lambda: gen_random_edges(12, 150, 4, p_insert=0.65, query_rate=0.15),
    "flow-fd": lambda: gen_random_flow(10, 100, 5, p_insert=0.65),
    "flow-inc": lambda: gen_random_flow(10, 100, 6, p_insert=1.0),
    "match-fd": lambda: gen_random_edges(12, 120, 7, p_insert=0.65, vertex_rate=0.1),
    "match-inc": lambda: gen_random_edges(12, 120, 8, p_insert=1.0),
}


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_run_agrees_with_replay(algorithm, verify, tmp_path, capsys):
    stream = AGREEMENT_STREAMS[algorithm]()
    path = tmp_path / "stream.txt"
    path.write_text(serialize_stream(stream))
    assert main(["run", algorithm, str(path)] + (["--verify"] if verify else [])) == 0
    out = capsys.readouterr().out.splitlines()
    split = out.index("{")
    printed, report = out[:split], json.loads("\n".join(out[split:]))
    expected = replay(algorithm, stream, verify=verify)
    for r in (report, expected):
        r["totals"].pop("wall_time_s")
    assert report == expected
    assert printed == [f"{v} {answer}" for v, answer in expected.get("query_results", [])]
    assert ("query_results" in expected) == algorithm.startswith("mis-")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_verify_leaves_the_meter_alone(algorithm):
    # the audits and oracles after every event are checks, not algorithm work
    stream = AGREEMENT_STREAMS[algorithm]()
    plain, verified = replay(algorithm, stream), replay(algorithm, stream, verify=True)
    for r in (plain, verified):
        r["totals"].pop("wall_time_s")
    assert verified.pop("verified") is True and plain.pop("verified") is None
    assert plain == verified


def test_cli_main_repeats_in_one_process(tmp_path, capsys):
    # the parser is built once and shared by every call
    path = tmp_path / "toy.txt"
    path.write_text(TOY)
    gen_args = ["gen", "--family", "random-edges", "--n", "6", "--events", "20", "--seed", "4"]
    runs, gens = [], []
    for _ in range(3):
        assert main(["run", "mis-2level", str(path), "--verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        report["totals"].pop("wall_time_s")
        runs.append(report)
        assert main(gen_args) == 0
        gens.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            main(["run", "no-such-algorithm", str(path)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    assert runs[0]["verified"] is True and runs.count(runs[0]) == 3
    assert gens[0].startswith("n 6\n") and gens.count(gens[0]) == 3
    # options given in one call do not leak into the next
    assert main(["gen", "--family", "random-edges", "--n", "6", "--events", "5"]) == 0
    assert capsys.readouterr().out.count("\n") == 6


def test_python_m_dynamis_runs_from_source(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def dynamis(*args):
        return subprocess.run(
            [sys.executable, "-m", "dynamis", *args], cwd=tmp_path, env=env, capture_output=True, text=True
        )

    gen = dynamis("gen", "--family", "random-edges", "--n", "6", "--events", "20", "--seed", "1")
    assert gen.returncode == 0, gen.stderr
    assert len(parse_stream(gen.stdout).events) == 20
    missing = dynamis("run", "mis-simple", str(tmp_path / "absent.txt"))
    assert missing.returncode == 2
    assert "Traceback" not in missing.stderr

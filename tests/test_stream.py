import pickle

import pytest

from dynamis import (
    DeleteEdge,
    DeleteVertex,
    GenSpec,
    InsertEdge,
    InsertVertex,
    QueryInMis,
    UpdateStream,
    parse_stream,
    serialize_stream,
)
from dynamis.errors import StreamParseError


def test_parse_edge_events():
    s = parse_stream("+e 0 1\n-e 0 1")
    assert s.events == [InsertEdge(0, 1), DeleteEdge(0, 1)]


def test_parse_query():
    s = parse_stream("? 3")
    assert s.events == [QueryInMis(3)]


def test_parse_truncated_line():
    with pytest.raises(StreamParseError) as exc:
        parse_stream("+e 0")
    assert exc.value.line_no == 1


def test_parse_headers_and_comments():
    text = "# a comment\nn 5\nflow 0 4\n+e 0 4  # inline\n"
    s = parse_stream(text)
    assert s.n == 5
    assert s.flow == (0, 4)
    assert s.events == [InsertEdge(0, 4)]


def test_header_after_event_rejected():
    with pytest.raises(StreamParseError):
        parse_stream("+e 0 1\nn 5")


def test_parse_vertex_events():
    s = parse_stream("+v 2 0 1\n-v 3\n+v 0")
    assert s.events == [InsertVertex((0, 1)), DeleteVertex(3), InsertVertex(())]


def test_vertex_count_mismatch():
    with pytest.raises(StreamParseError):
        parse_stream("+v 2 0")


def test_negative_id_rejected():
    with pytest.raises(StreamParseError):
        parse_stream("+e -1 2")


def test_unknown_event_rejected():
    with pytest.raises(StreamParseError) as exc:
        parse_stream("+e 0 1\n*x 1 2")
    assert exc.value.line_no == 2


def test_round_trip_identity():
    s = UpdateStream(
        n=6,
        events=[
            InsertEdge(0, 1),
            InsertVertex((0, 2)),
            QueryInMis(4),
            DeleteEdge(0, 1),
            DeleteVertex(2),
            InsertVertex(()),
        ],
    )
    assert parse_stream(serialize_stream(s)) == s


def test_round_trip_flow_header():
    s = UpdateStream(n=3, flow=(0, 2), events=[InsertEdge(0, 2)])
    assert parse_stream(serialize_stream(s)) == s



# -- one-pass parser against the two-pass parser it replaced -----------------


def _reference_parse_stream(text: str) -> UpdateStream:
    """The earlier parser, verbatim: a second read of the format to check against."""
    stream = UpdateStream()
    seen_event = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "n" and len(tok) == 2:
                if seen_event:
                    raise StreamParseError(line_no, "header after events")
                stream.n = _reference_nonneg(tok[1], line_no)
                continue
            if tok[0] == "flow" and len(tok) == 3:
                if seen_event:
                    raise StreamParseError(line_no, "header after events")
                stream.flow = (_reference_nonneg(tok[1], line_no), _reference_nonneg(tok[2], line_no))
                continue
            seen_event = True
            if tok[0] == "+e" and len(tok) == 3:
                stream.events.append(InsertEdge(_reference_nonneg(tok[1], line_no), _reference_nonneg(tok[2], line_no)))
            elif tok[0] == "-e" and len(tok) == 3:
                stream.events.append(DeleteEdge(_reference_nonneg(tok[1], line_no), _reference_nonneg(tok[2], line_no)))
            elif tok[0] == "+v" and len(tok) >= 2:
                d = _reference_nonneg(tok[1], line_no)
                nbrs = tuple(_reference_nonneg(t, line_no) for t in tok[2:])
                if len(nbrs) != d:
                    raise StreamParseError(line_no, f"expected {d} neighbors, got {len(nbrs)}")
                stream.events.append(InsertVertex(nbrs))
            elif tok[0] == "-v" and len(tok) == 2:
                stream.events.append(DeleteVertex(_reference_nonneg(tok[1], line_no)))
            elif tok[0] == "?" and len(tok) == 2:
                stream.events.append(QueryInMis(_reference_nonneg(tok[1], line_no)))
            else:
                raise StreamParseError(line_no, f"unrecognized event {line!r}")
        except StreamParseError:
            raise
        except IndexError:
            raise StreamParseError(line_no, f"truncated line {line!r}") from None
    return stream


def _reference_nonneg(token: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise StreamParseError(line_no, f"expected integer, got {token!r}") from None
    if value < 0:
        raise StreamParseError(line_no, f"negative id {value}")
    return value


def _outcome(parse, text):
    try:
        s = parse(text)
    except StreamParseError as err:
        return ("error", type(err), str(err), err.line_no)
    return ("ok", s.n, s.flow, [(type(e), tuple(e)) for e in s.events])


_FAMILY_SPECS = [
    GenSpec("arbitrary-removal", m=256, delta=16),
    GenSpec("degree-biased", m=256),
    GenSpec("random-edges", n=30, events=400, seed=3, p_insert=0.6, query_rate=0.15, vertex_rate=0.1),
    GenSpec("random-edges", n=12, events=300, seed=4, p_insert=1.0, query_rate=0.1, vertex_rate=0.05),
    GenSpec("random-flow", n=20, events=300, seed=5),
    GenSpec("random-matching", n=20, events=300, seed=6, p_insert=0.7),
]


@pytest.mark.parametrize("spec", _FAMILY_SPECS, ids=lambda s: f"{s.family}-{s.seed}")
def test_parse_matches_reference_on_generated_streams(spec):
    text = serialize_stream(spec.generate())
    want = _outcome(_reference_parse_stream, text)
    assert want[0] == "ok"
    assert _outcome(parse_stream, text) == want
    kinds = {kind for kind, _ in want[3]}
    if spec.family == "random-edges":
        assert {InsertVertex, DeleteVertex, QueryInMis} <= kinds


_EDGE_CASE_LINES = [
    "+e 1_000 2",
    "+e +3 4",
    "+e 3 -0",
    "+e -1 2",
    "+e 2 -1",
    "+e -1 x",
    "+e x -1",
    "+e 1",
    "+e 1 2 3",
    "-e a b",
    "-e 1 b",
    "+e\t1\t2",
    "+e  1   2",
    "  +e 1 2  ",
    "+e 1 2\r",
    "+e 1 2 # trailing",
    "+e 1 2#tight",
    "# whole line",
    "   # indented comment",
    "#",
    "",
    "   ",
    "+v 2 1",
    "+v 0",
    "+v 1 x",
    "+v x 1",
    "+v -1",
    "+v 1 -2",
    "+v",
    "-v 3",
    "-v",
    "-v 1 2",
    "-v -1",
    "? -1",
    "? 3",
    "?",
    "? 1 2",
    "n 5",
    "n -5",
    "n x",
    "n 5 6",
    "flow 0 3",
    "flow 0",
    "flow -1 2",
    "*x 1 2",
    "+E 1 2",
    "+e # 1 2",
    "e 1 2",
]


@pytest.mark.parametrize("line", _EDGE_CASE_LINES)
def test_parse_matches_reference_on_edge_case_lines(line):
    for text in (line, f"{line}\n", f"n 9\n+e 0 1\n{line}\n-e 0 1", f"# c\r\n{line}\r\n? 0\r\n"):
        assert _outcome(parse_stream, text) == _outcome(_reference_parse_stream, text), text


def test_parse_reports_the_reference_errors():
    cases = {
        "+e 0 1\nn 5": "header after events",
        "+e 0 1\nflow 0 1": "header after events",
        "+e 0 1\n+e 1 x": "expected integer, got 'x'",
        "+e -1 x": "negative id -1",
        "+e 1": "unrecognized event '+e 1'",
        "\n\n  +e 1 2 3  # c": "unrecognized event '+e 1 2 3'",
        "+v 2 1": "expected 2 neighbors, got 1",
    }
    for text, message in cases.items():
        with pytest.raises(StreamParseError) as err:
            parse_stream(text)
        want = _outcome(_reference_parse_stream, text)
        assert (type(err.value), str(err.value), err.value.line_no) == want[1:]
        assert message in str(err.value)


# -- events --------------------------------------------------------------------


_EVENTS = [InsertEdge(1, 2), DeleteEdge(1, 2), InsertVertex((1, 2)), DeleteVertex(1), QueryInMis(1)]


def test_events_equal_only_within_their_kind():
    assert InsertEdge(1, 2) != DeleteEdge(1, 2)
    assert not InsertEdge(1, 2) == DeleteEdge(1, 2)
    assert DeleteVertex(1) != QueryInMis(1)
    assert InsertEdge(1, 2) != (1, 2)
    for a in _EVENTS:
        for b in _EVENTS:
            assert (a == b) is (a is b)
            assert (a != b) is (a is not b)
    assert InsertEdge(1, 2) == InsertEdge(1, 2)
    assert InsertEdge(1, 2) != InsertEdge(2, 1)
    assert len(set(_EVENTS)) == len(_EVENTS)


def test_equal_events_hash_equal():
    for e in _EVENTS:
        twin = type(e)(*e)
        assert twin == e and twin is not e
        assert hash(twin) == hash(e)
    assert {InsertEdge(0, 1): "x"}[InsertEdge(0, 1)] == "x"


def test_events_are_immutable():
    for e in _EVENTS:
        with pytest.raises(AttributeError):
            e.v = 9
    with pytest.raises(AttributeError):
        InsertEdge(1, 2).u = 3


def test_event_repr_unchanged():
    assert repr(InsertEdge(1, 2)) == "InsertEdge(u=1, v=2)"
    assert repr(DeleteEdge(1, 2)) == "DeleteEdge(u=1, v=2)"
    assert repr(InsertVertex((1, 2))) == "InsertVertex(neighbors=(1, 2))"
    assert repr(DeleteVertex(3)) == "DeleteVertex(v=3)"
    assert repr(QueryInMis(4)) == "QueryInMis(v=4)"


def test_events_pickle_round_trip():
    for e in _EVENTS + [InsertVertex()]:
        back = pickle.loads(pickle.dumps(e))
        assert back == e and type(back) is type(e)


def test_insert_vertex_defaults_and_keywords():
    assert InsertVertex() == InsertVertex(()) == InsertVertex(neighbors=())
    assert InsertVertex().neighbors == ()
    assert InsertVertex(neighbors=(1,)).neighbors == (1,)
    assert InsertVertex(neighbors=(1,)) == InsertVertex((1,))

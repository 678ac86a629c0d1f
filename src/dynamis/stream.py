"""Update events and the line-oriented stream text format.

One event per line, ASCII, ``#`` comments.  Optional header directives come
first: ``n <count>`` preallocates vertices, ``flow <s> <t>`` marks a directed
flow stream (``+e u v`` is then read as a directed edge u->v).

    +e u v            insert edge
    -e u v            delete edge
    +v d v1 ... vd    insert vertex with d neighbors
    -v u              delete vertex
    ? v               In-MIS query

Events are named tuples, immutable and hashable, that compare equal only
within their kind: ``InsertEdge(1, 2) != DeleteEdge(1, 2)``.  The parser
reads the text in one pass and builds edge events without calling their
constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import StreamParseError


def _same_event(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _other_event(self, other) -> bool:
    return not _same_event(self, other)


class InsertEdge(NamedTuple):
    u: int
    v: int

    __eq__, __ne__, __hash__ = _same_event, _other_event, tuple.__hash__


class DeleteEdge(NamedTuple):
    u: int
    v: int

    __eq__, __ne__, __hash__ = _same_event, _other_event, tuple.__hash__


class InsertVertex(NamedTuple):
    neighbors: tuple[int, ...] = ()

    __eq__, __ne__, __hash__ = _same_event, _other_event, tuple.__hash__


class DeleteVertex(NamedTuple):
    v: int

    __eq__, __ne__, __hash__ = _same_event, _other_event, tuple.__hash__


class QueryInMis(NamedTuple):
    v: int

    __eq__, __ne__, __hash__ = _same_event, _other_event, tuple.__hash__


UpdateEvent = InsertEdge | DeleteEdge | InsertVertex | DeleteVertex | QueryInMis


@dataclass
class UpdateStream:
    n: int = 0
    flow: tuple[int, int] | None = None
    events: list[UpdateEvent] = field(default_factory=list)


# first token -> (event kind whose fields are single ids, tokens on its line)
_ID_EVENTS = {"+e": (InsertEdge, 3), "-e": (DeleteEdge, 3), "-v": (DeleteVertex, 2), "?": (QueryInMis, 2)}
_NOT_ID_EVENT = (None, 0)


def parse_stream(text: str) -> UpdateStream:
    stream = UpdateStream()
    events = stream.events
    append = events.append
    new = tuple.__new__
    lookup = _ID_EVENTS.get
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tok = raw.split()
        if not tok:
            continue
        kind, size = lookup(tok[0], _NOT_ID_EVENT)
        if size == len(tok):
            if size == 3:
                _, a, b = tok
                try:
                    u, v = int(a), int(b)
                except ValueError:
                    u = v = -1
                if u < 0 or v < 0:
                    u, v = _nonneg(a, line_no), _nonneg(b, line_no)
                append(new(kind, (u, v)))
            else:
                append(new(kind, (_nonneg(tok[1], line_no),)))
            continue
        head = tok[0]
        if head == "+v" and len(tok) >= 2:
            d = _nonneg(tok[1], line_no)
            nbrs = tuple([_nonneg(t, line_no) for t in tok[2:]])
            if len(nbrs) != d:
                raise StreamParseError(line_no, f"expected {d} neighbors, got {len(nbrs)}")
            append(new(InsertVertex, (nbrs,)))
        elif (head == "n" and len(tok) == 2) or (head == "flow" and len(tok) == 3):
            # a line that is neither blank nor a header adds an event or raises
            if events:
                raise StreamParseError(line_no, "header after events")
            if head == "n":
                stream.n = _nonneg(tok[1], line_no)
            else:
                stream.flow = (_nonneg(tok[1], line_no), _nonneg(tok[2], line_no))
        else:
            raise StreamParseError(line_no, f"unrecognized event {raw.strip()!r}")
    return stream


def serialize_stream(stream: UpdateStream) -> str:
    lines: list[str] = []
    if stream.n:
        lines.append(f"n {stream.n}")
    if stream.flow is not None:
        lines.append(f"flow {stream.flow[0]} {stream.flow[1]}")
    for e in stream.events:
        if isinstance(e, InsertEdge):
            lines.append(f"+e {e.u} {e.v}")
        elif isinstance(e, DeleteEdge):
            lines.append(f"-e {e.u} {e.v}")
        elif isinstance(e, InsertVertex):
            lines.append("+v " + " ".join([str(len(e.neighbors))] + [str(w) for w in e.neighbors]))
        elif isinstance(e, DeleteVertex):
            lines.append(f"-v {e.v}")
        else:
            lines.append(f"? {e.v}")
    return "\n".join(lines) + "\n"


def _nonneg(token: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise StreamParseError(line_no, f"expected integer, got {token!r}") from None
    if value < 0:
        raise StreamParseError(line_no, f"negative id {value}")
    return value

"""Insertion-only MIS with degree-biased eviction.

Identical to the simple maintainer except that an edge landing between two
members always evicts the endpoint with the strictly lower post-insertion
degree (ties evict the higher id).  Deletions are rejected.
"""

from __future__ import annotations

from ..errors import NotIncrementalError
from ..graph import DynGraph
from ..meter import AdjustmentLog
from ..stream import InsertEdge, InsertVertex, UpdateEvent
from .simple import RemovalPolicy, SimpleMis


class IncrementalMis(SimpleMis):
    def __init__(self, g: DynGraph):
        super().__init__(g, RemovalPolicy.LOWER_DEGREE)

    def apply(self, event: UpdateEvent) -> AdjustmentLog:
        if isinstance(event, InsertVertex) and event.neighbors:
            raise NotIncrementalError("only isolated vertex insertions are accepted")
        if not isinstance(event, (InsertEdge, InsertVertex)):
            raise NotIncrementalError(f"{event!r} is not an insertion; incremental mode takes insertions only")
        return super().apply(event)

"""Insertion-only MIS with degree-biased eviction.

Identical to the simple maintainer except that an edge landing between two
members always evicts the endpoint with the strictly lower post-insertion
degree (ties evict the higher id).  Deletions are rejected.
"""

from __future__ import annotations

from ..graph import DynGraph
from ..meter import AdjustmentLog
from ..stream import UpdateEvent, require_insertion
from .simple import RemovalPolicy, SimpleMis


class IncrementalMis(SimpleMis):
    def __init__(self, g: DynGraph):
        super().__init__(g, RemovalPolicy.LOWER_DEGREE)

    def apply(self, event: UpdateEvent) -> AdjustmentLog:
        require_insertion(event)
        return super().apply(event)

"""Insertion-only MIS with degree-biased eviction.

Identical to the simple maintainer except that an edge landing between two
members always evicts the endpoint with the strictly lower post-insertion
degree (ties evict the higher id).  Deletions are rejected.
"""

from __future__ import annotations

from ..meter import AdjustmentLog
from ..stream import UpdateEvent, require_insertion
from .simple import SimpleMis


class IncrementalMis(SimpleMis):
    def apply(self, event: UpdateEvent) -> AdjustmentLog:
        require_insertion(event)
        return super().apply(event)

    def _pick_victim(self, u: int, v: int) -> int:
        du, dv = len(self.g.adj[u]), len(self.g.adj[v])
        if du != dv:
            return u if du < dv else v
        return max(u, v)

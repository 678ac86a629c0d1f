"""Count-based maximal independent set maintenance under all update types.

mis-simple is the shared ``CountMaintainer`` with no heavy vertices: its
threshold ``delta_c`` is a degree no vertex reaches, so the whole graph is
the light level and ``in_M`` is the MIS.  Every vertex carries the number of
its neighbours in ``in_M``; a vertex outside with count zero is admitted.
On an edge insertion joining two members the first endpoint is evicted (a
subclass may pick the victim otherwise) and the freed neighbours are
re-admitted in ascending id order.
"""

from __future__ import annotations

import sys

from ..graph import DynGraph
from ..meter import CostMeter
from .base import CountMaintainer, UpdateLoop


class SimpleMis(CountMaintainer):
    def __init__(self, g: DynGraph):
        self.g = g
        self.meter = CostMeter()
        self.heavy: set[int] = set()
        self.heavy_mis: set[int] = set()
        self.delta_c = sys.maxsize  # no degree reaches it: every vertex is light
        self.in_M: set[int] = set()
        self.count: list[int] = [0] * g.id_bound
        self._greedy(sorted(g.vertices()))

    apply = UpdateLoop.apply
    contains = UpdateLoop._query_op

    def verify(self) -> bool:
        """Full-rescan audit: independence, maximality, counts, no heavy level."""
        return not self.heavy and not self.heavy_mis and self._audit_counts()

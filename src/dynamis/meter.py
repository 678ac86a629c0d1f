"""Work and adjustment counters.

``edges_touched`` counts adjacency entries read or written inside algorithm
logic (raw graph mutation is free), so totals line up with edge-touch
accounting rather than wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class CostMeter:
    edges_touched: int = 0
    adjustments: int = 0
    updates: int = 0
    queries: int = 0

    # per-operation figures, reset by begin_op()
    op_edges_touched: int = 0
    op_adjustments: int = 0

    # running maxima across operations
    max_op_edges_touched: int = 0
    max_op_adjustments: int = 0

    def begin_op(self) -> None:
        self.op_edges_touched = 0
        self.op_adjustments = 0

    def end_op(self) -> None:
        if self.op_edges_touched > self.max_op_edges_touched:
            self.max_op_edges_touched = self.op_edges_touched
        if self.op_adjustments > self.max_op_adjustments:
            self.max_op_adjustments = self.op_adjustments

    def touch(self, count: int = 1) -> None:
        self.edges_touched += count
        self.op_edges_touched += count

    def adjust(self, count: int = 1) -> None:
        self.adjustments += count
        self.op_adjustments += count

    def totals(self) -> dict[str, int]:
        return {
            "edges_touched": self.edges_touched,
            "adjustments": self.adjustments,
            "updates": self.updates,
            "queries": self.queries,
        }


@dataclass(slots=True)
class AdjustmentLog:
    """Vertices that left and entered the maintained set, in processing order.

    ``changes`` holds ("leave", v) / ("enter", v) pairs; at most one leave per
    update.  ``edges_touched`` is the meter charge for this one operation.
    """

    changes: list[tuple[str, int]] = field(default_factory=list)
    edges_touched: int = 0

    def leave(self, v: int) -> None:
        self.changes.append(("leave", v))

    def enter(self, v: int) -> None:
        self.changes.append(("enter", v))

    @property
    def removed(self) -> list[int]:
        return [v for op, v in self.changes if op == "leave"]

    @property
    def added(self) -> list[int]:
        return [v for op, v in self.changes if op == "enter"]

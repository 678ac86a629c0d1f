"""Work and adjustment counters.

``edges_touched`` counts adjacency entries read or written inside algorithm
logic (raw graph mutation is free), so totals line up with edge-touch
accounting rather than wall time.

An operation is one call of a public entry point (an update, or a
membership query).  The entry point reads the totals before it dispatches
and hands them to ``end_op`` once the work is done; the operation's figures
are the growth of the totals in between, and ``end_op`` records them and
raises the running maxima.  A rejected event raises before that, so it
leaves the meter as it was, and set-up work in a constructor is never an
operation: it raises the totals only.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class CostMeter:
    edges_touched: int = 0
    adjustments: int = 0
    updates: int = 0
    queries: int = 0

    # the last operation's figures, set by end_op()
    op_edges_touched: int = 0
    op_adjustments: int = 0

    # running maxima across operations
    max_op_edges_touched: int = 0
    max_op_adjustments: int = 0

    def end_op(self, edges_before: int, adjustments_before: int) -> None:
        """Closes an operation that began when the totals read these values."""
        op = self.op_edges_touched = self.edges_touched - edges_before
        if op > self.max_op_edges_touched:
            self.max_op_edges_touched = op
        op = self.op_adjustments = self.adjustments - adjustments_before
        if op > self.max_op_adjustments:
            self.max_op_adjustments = op

    def touch(self, count: int = 1) -> None:
        self.edges_touched += count

    def adjust(self, count: int = 1) -> None:
        self.adjustments += count

    def totals(self) -> dict[str, int]:
        return {
            "edges_touched": self.edges_touched,
            "adjustments": self.adjustments,
            "updates": self.updates,
            "queries": self.queries,
        }


Changes = list[tuple[str, int]]


@dataclass(slots=True)
class AdjustmentLog:
    """Vertices that left and entered the maintained set, in processing order.

    ``changes`` holds ("leave", v) / ("enter", v) pairs.  mis-simple, mis-inc
    and mis-implicit log at most one leave per update; mis-2level can log
    many, since its heavy MIS rebuild and its phase rebuilds move several
    vertices at once.  The log is the update's record of what changed: the
    meter counts one adjustment per entry, and what the update cost is the
    meter's ``op_edges_touched``.

    An update that changes nothing returns the shared ``QUIET_LOG`` instead
    of a new log, so results are read-only: a caller that wants to edit one
    copies it first.
    """

    changes: Changes

    @property
    def removed(self) -> list[int]:
        return [v for op, v in self.changes if op == "leave"]

    @property
    def added(self) -> list[int]:
        return [v for op, v in self.changes if op == "enter"]


QUIET_LOG = AdjustmentLog([])

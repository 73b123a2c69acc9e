"""Exception hierarchy for the gridrestore toolkit.

Every error raised on purpose derives from :class:`GridRestoreError` so
callers (and the CLI) can map failure classes to exit codes.
"""

from __future__ import annotations


class GridRestoreError(Exception):
    """Base class for all toolkit errors."""


# --- network -----------------------------------------------------------


class DanglingEdgeError(GridRestoreError):
    """An edge references a node that is not in the node table."""


class NonPositiveLengthError(GridRestoreError):
    """An edge length is not a number, zero or negative (after millimeter quantization),
    not finite, or so long that the road's lengths add up to more than int64
    millimetres hold."""


class EmptyRoadGraphError(GridRestoreError):
    """Operation requires a road graph with at least one node."""


class UnknownTerminalError(GridRestoreError):
    """A requested terminal is not a node of the road graph."""


# --- scenario ----------------------------------------------------------


class InvalidRangeError(GridRestoreError):
    """Demand sampling bounds are not integers with 0 <= lo <= hi."""


class NoDamagedNodesError(GridRestoreError):
    """Scenario generation produced an empty damaged-node set."""


# --- stage 1 (allocation) ---------------------------------------------


class DimensionMismatchError(GridRestoreError):
    """Allocation and instance shapes disagree (crews, nodes, scenarios)."""


class EmptyScenarioSetError(GridRestoreError):
    """The scenario set holds no scenarios."""


class NumericOverflowError(GridRestoreError):
    """Arithmetic on finite inputs leaves the float64 range. The message names the
    quantity (``what``) and the inputs to scale down (``inputs``)."""

    def __init__(self, what: str, inputs: str):
        super().__init__(f"{what} overflows float64; scale {inputs} down")


class UnboundedObjectiveError(GridRestoreError):
    """Capacity slack pays for itself; the allocation objective is unbounded.

    Carries the first violating crew, its marginal gain, the weighted crew
    cost it fails to exceed, and the smallest admissible scale factor.
    """

    def __init__(self, crew: int, gain: float, weighted_cost: float, min_scale_c: float):
        self.crew = crew
        self.gain = gain
        self.weighted_cost = weighted_cost
        self.min_scale_c = min_scale_c
        super().__init__(
            f"objective unbounded for crew {crew}: scale_c * crew_cost = "
            f"{weighted_cost:g} does not exceed marginal gain {gain:g}; "
            f"choose scale_c > {min_scale_c:g}"
        )


# --- stage 2 (routing) --------------------------------------------------


class UnreachableArcError(GridRestoreError):
    """A route leg crosses an unreachable terminal pair."""


class NodeUnreachableError(GridRestoreError):
    """A node that requires a crew cannot be reached by any feasible route."""

    def __init__(self, node, crew: int, reason: str = ""):
        self.node = node
        self.crew = crew
        detail = f" ({reason})" if reason else ""
        super().__init__(f"node {node!r} unreachable for crew {crew}{detail}")


class TooManyNodesError(GridRestoreError):
    """Required-node count exceeds the exact solver's hard cap."""

    def __init__(self, crew: int, count: int, cap: int):
        self.crew = crew
        self.count = count
        self.cap = cap
        super().__init__(
            f"crew {crew} requires {count} nodes; exact method is capped at {cap}"
        )


# --- schedule ------------------------------------------------------------


class InvalidPlanError(GridRestoreError):
    """Route plan fails structural validation and cannot be scheduled."""


class NonPositiveSpeedError(GridRestoreError):
    """Travel speed must be strictly positive."""


class EmptyChartError(GridRestoreError):
    """Makespan of an empty chart is undefined."""


# --- files ---------------------------------------------------------------


class SchemaError(GridRestoreError):
    """An input file is malformed; message carries path and line number."""

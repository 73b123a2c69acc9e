"""Turn routes plus repair times into per-node, per-crew work intervals.

Crews deploy in their fixed sequence at every node: a crew may start only
after the previous crew type has finished there, with no overlap. All crews
leave their depots at hour zero; travel time converts leg meters through a
configurable average speed. Since crew k only ever waits on crews with a
smaller index, one forward pass in crew order reaches the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyChartError, InvalidPlanError, NonPositiveSpeedError
from .network import CompleteGraph, NodeId, node_key
from .routing import RoutePlan
from .scenario import Scenario

DEFAULT_SPEED_KMH = 40.0


@dataclass(frozen=True)
class GanttEntry:
    """One crew's work interval at one node, hours from event time zero."""

    scenario_id: int
    node_id: NodeId
    crew: int
    start_h: float
    finish_h: float

    def __post_init__(self):
        if self.start_h < 0:
            raise ValueError("start_h must be >= 0")
        if self.finish_h < self.start_h:
            raise ValueError("finish_h must be >= start_h")


@dataclass(frozen=True)
class GanttChart:
    """Sorted schedule entries plus the latest finish time."""

    entries: tuple[GanttEntry, ...]
    makespan_h: float

    @classmethod
    def from_entries(cls, entries: Iterable[GanttEntry]) -> "GanttChart":
        rows = tuple(
            sorted(entries, key=lambda e: (e.scenario_id, node_key(e.node_id), e.crew))
        )
        span = max((e.finish_h for e in rows), default=0.0)
        return cls(rows, span)


def build_schedule(
    plan: RoutePlan,
    scenario: Scenario,
    complete: CompleteGraph,
    speed_kmh: float = DEFAULT_SPEED_KMH,
) -> GanttChart:
    """Simulate every crew along its route and emit the Gantt entries.

    Arrival at the next stop is departure plus leg distance over speed;
    work starts at max(arrival, predecessor crew's finish at that node) and
    runs for exactly the scenario's repair time. Waiting happens in place,
    which also delays the crew's later stops.
    """
    if speed_kmh <= 0:
        raise NonPositiveSpeedError(f"speed_kmh must be > 0, got {speed_kmh}")
    _check_plan(plan, scenario, complete)

    meters_per_hour = speed_kmh * 1000.0
    entries: list[GanttEntry] = []
    prev_finish: dict[NodeId, float] = {}
    for k in sorted(plan.routes):
        route = plan.routes[k]
        clock = 0.0
        here = route.depot_start
        for node in route.visit_order:
            arrival = max(clock + complete.dist_m(here, node) / meters_per_hour, 0.0)
            start = max(arrival, prev_finish.get(node, 0.0))
            finish = start + scenario.repair_time_h[(node, k)]
            entries.append(GanttEntry(plan.scenario_id, node, k, start, finish))
            # finish times are monotone over the crew sequence, so the last
            # writer is the latest predecessor
            prev_finish[node] = finish
            clock = finish
            here = node
    return GanttChart.from_entries(entries)


def _check_plan(plan: RoutePlan, scenario: Scenario, complete: CompleteGraph) -> None:
    terms = set(complete.terminals)
    for k, nodes in scenario.required().items():
        route = plan.routes.get(k)
        if route is None:
            if nodes:
                raise InvalidPlanError(f"crew {k}: no route but {len(nodes)} node(s) need it")
            continue
        if set(route.visit_order) != nodes or len(set(route.visit_order)) != len(route.visit_order):
            raise InvalidPlanError(
                f"crew {k}: visit order does not match the scenario's demand-positive nodes"
            )
        for stop in route.stops():
            if stop not in terms:
                raise InvalidPlanError(f"crew {k}: stop {stop!r} is not a terminal")
        for u, v in route.arcs():
            if not complete.is_reachable(u, v):
                raise InvalidPlanError(f"crew {k}: leg {u!r} -> {v!r} is unreachable")


def makespan(chart: GanttChart) -> float:
    """Latest finish hour; errors on an empty chart."""
    if not chart.entries:
        raise EmptyChartError("chart has no entries")
    return chart.makespan_h


def combine_charts(charts: Sequence[GanttChart]) -> GanttChart:
    """Merge per-scenario charts into one."""
    merged: list[GanttEntry] = []
    for c in charts:
        merged.extend(c.entries)
    return GanttChart.from_entries(merged)

"""Turn routes plus repair times into per-node, per-crew work intervals.

Crews deploy in their fixed sequence at every node: a crew may start only
after the previous crew type has finished there, with no overlap. All crews
leave their depots at hour zero; travel time converts each route's own leg
meters (``Route.leg_m``, the distances stage 2 routed on) through a
configurable average speed, so no shortest paths are recomputed here. Since
crew k only ever waits on crews with a smaller index, one forward pass in
crew order reaches the fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyChartError, InvalidPlanError, NonPositiveSpeedError
from .network import NodeId, is_finite_number, node_key
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
        if not (is_finite_number(self.start_h) and is_finite_number(self.finish_h)):
            raise ValueError(f"start_h and finish_h must be finite, got {self.start_h!r} "
                             f"and {self.finish_h!r}")
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
    depots: Iterable[NodeId],
    speed_kmh: float = DEFAULT_SPEED_KMH,
) -> GanttChart:
    """Simulate every crew along its route and emit the Gantt entries.

    Arrival at the next stop is departure plus the route's leg meters over
    speed; work starts at max(arrival, predecessor crew's finish at that
    node) and runs for exactly the scenario's repair time. Waiting happens
    in place, which also delays the crew's later stops. ``depots`` are the
    network's depots, which every route must start and end at.
    """
    if not is_finite_number(speed_kmh):
        raise NonPositiveSpeedError(f"speed_kmh must be a finite number, got {speed_kmh!r}")
    if speed_kmh <= 0:
        raise NonPositiveSpeedError(f"speed_kmh must be > 0, got {speed_kmh}")
    _check_plan(plan, scenario, frozenset(depots))

    meters_per_hour = speed_kmh * 1000.0
    entries: list[GanttEntry] = []
    prev_finish: dict[NodeId, float] = {}
    for k in sorted(plan.routes):
        route = plan.routes[k]
        clock = 0.0
        # leg i ends at visit_order[i]; the last leg, home to the depot, is not timed
        for node, leg_m in zip(route.visit_order, route.leg_m):
            arrival = clock + leg_m / meters_per_hour
            start = max(arrival, prev_finish.get(node, 0.0))
            finish = start + scenario.repair_time_h[(node, k)]
            if not math.isfinite(finish):  # 0 <= start <= finish, so start is finite too
                raise InvalidPlanError(f"scenario {plan.scenario_id}: crew {k}: work at node "
                                       f"{node!r} does not finish in finite time")
            entries.append(GanttEntry(plan.scenario_id, node, k, start, finish))
            # finish times are monotone over the crew sequence, so the last
            # writer is the latest predecessor
            prev_finish[node] = finish
            clock = finish
    return GanttChart.from_entries(entries)


def _check_plan(plan: RoutePlan, scenario: Scenario, depots: frozenset[NodeId]) -> None:
    if plan.scenario_id != scenario.scenario_id:
        raise InvalidPlanError(f"route plan is for scenario {plan.scenario_id!r}, "
                               f"not scenario {scenario.scenario_id!r}")
    required = scenario.required()
    unknown = sorted(set(plan.routes) - set(required))
    if unknown:
        raise InvalidPlanError(f"crew {unknown[0]}: route present for unknown crew")
    for k, nodes in required.items():
        route = plan.routes.get(k)
        if route is None:
            if nodes:
                raise InvalidPlanError(f"crew {k}: no route but {len(nodes)} node(s) need it")
            continue
        if set(route.visit_order) != nodes or len(set(route.visit_order)) != len(route.visit_order):
            raise InvalidPlanError(
                f"crew {k}: visit order does not match the scenario's demand-positive nodes"
            )
        for depot in (route.depot_start, route.depot_end):
            if depot not in depots:
                raise InvalidPlanError(f"crew {k}: endpoint {depot!r} is not a network depot")
        if len(route.leg_m) != len(route.visit_order) + 1 or not all(
            0.0 <= m < float("inf") for m in route.leg_m
        ):
            raise InvalidPlanError(f"crew {k}: every leg needs one finite distance >= 0")


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

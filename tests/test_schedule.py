"""Gantt construction: precedence, durations, travel, makespan."""

from dataclasses import replace

import pytest

from gridrestore import (
    CompleteGraph,
    GanttChart,
    GanttEntry,
    RoutePlan,
    RoutingInstance,
    Scenario,
    build_schedule,
    combine_charts,
    makespan,
    solve_routing,
)
from gridrestore.errors import (
    EmptyChartError,
    InvalidPlanError,
    NonPositiveSpeedError,
)

import refcase


def _zero_travel_instance(node=37215):
    cg = CompleteGraph.from_distances(["depot", node], [[0.0, 0.0], [0.0, 0.0]])
    required = {k: frozenset([node]) for k in range(4)}
    return RoutingInstance(cg, required, frozenset(["depot"]))


def _single_node_scenario(node=37215, s=0):
    times = {(node, k): refcase.REPAIR_TIME_H[node][k][s] for k in range(4)}
    demands = {(node, k): refcase.REPAIR_DEMAND[node][k][s] for k in range(4)}
    return Scenario(s, times, demands, frozenset())


class TestSingleNodeCheckpoint:
    def test_final_crew_starts_at_11_8(self):
        inst = _zero_travel_instance()
        scenario = _single_node_scenario()
        plan = solve_routing(inst, 0)
        chart = build_schedule(plan, scenario, inst.depots, speed_kmh=40.0)
        crew3 = next(e for e in chart.entries if e.crew == 3)
        # 5.5 + 4.7 + 1.6 with zero travel
        assert crew3.start_h == pytest.approx(11.8, abs=0.05)

    def test_makespan_is_sum_of_stage_times(self):
        inst = _zero_travel_instance()
        scenario = _single_node_scenario()
        chart = build_schedule(solve_routing(inst, 0), scenario, inst.depots)
        assert makespan(chart) == pytest.approx(5.5 + 4.7 + 1.6 + 4.1, abs=1e-9)

    def test_intervals_chain_without_overlap(self):
        inst = _zero_travel_instance()
        chart = build_schedule(solve_routing(inst, 0), _single_node_scenario(), inst.depots)
        by_crew = {e.crew: e for e in chart.entries}
        for k in range(1, 4):
            assert by_crew[k].start_h == pytest.approx(by_crew[k - 1].finish_h)


class TestTravelAndWaiting:
    def test_zero_repair_times_leave_start_at_arrival(self):
        # repair times must be > 0; use tiny ones and a long leg instead
        cg = CompleteGraph.from_distances(
            ["d", "a", "b"],
            [[0.0, 40000.0, 80000.0], [40000.0, 0.0, 40000.0], [80000.0, 40000.0, 0.0]],
        )
        eps = 1e-9
        times = {("a", k): eps for k in range(4)} | {("b", k): eps for k in range(4)}
        demands = {(i, k): (1 if k == 0 else 0) for i in ("a", "b") for k in range(4)}
        scenario = Scenario(0, times, demands, frozenset())
        inst = RoutingInstance(cg, {0: frozenset(["a", "b"])}, frozenset(["d"]))
        plan = solve_routing(inst, 0)
        chart = build_schedule(plan, scenario, inst.depots, speed_kmh=40.0)
        first, second = sorted(
            (e for e in chart.entries), key=lambda e: e.start_h
        )
        assert first.start_h == pytest.approx(1.0, abs=1e-6)   # 40 km at 40 km/h
        assert second.start_h == pytest.approx(2.0, abs=1e-6)  # one more 40 km leg
        assert makespan(chart) == pytest.approx(2.0, abs=1e-6)

    def test_crew_waits_for_predecessor(self):
        # crew 1 reaches node b before crew 0 finishes there: it must wait
        cg = CompleteGraph.from_distances(
            ["d", "a", "b"],
            [[0.0, 40000.0, 40000.0], [40000.0, 0.0, 40000.0], [40000.0, 40000.0, 0.0]],
        )
        times = {("a", 0): 5.0, ("b", 0): 5.0, ("a", 1): 1.0, ("b", 1): 1.0}
        times |= {(i, k): 1.0 for i in ("a", "b") for k in (2, 3)}
        demands = {(i, k): (1 if k <= 1 else 0) for i in ("a", "b") for k in range(4)}
        scenario = Scenario(0, times, demands, frozenset())
        inst = RoutingInstance(cg, {0: frozenset(["a", "b"]), 1: frozenset(["a", "b"])},
                               frozenset(["d"]))
        plan = solve_routing(inst, 0)
        chart = build_schedule(plan, scenario, inst.depots, speed_kmh=40.0)
        entries = {(e.node_id, e.crew): e for e in chart.entries}
        first_node = plan.routes[0].visit_order[0]
        # crew 0 at its first stop: arrives at 1 h, works 5 h
        assert entries[(first_node, 0)].finish_h == pytest.approx(6.0)
        # crew 1 arrives at 1 h but may not start before crew 0 finishes
        assert entries[(first_node, 1)].start_h == pytest.approx(6.0)

    def test_wait_delays_later_stops(self):
        cg = CompleteGraph.from_distances(
            ["d", "a", "b"],
            [[0.0, 40000.0, 40000.0], [40000.0, 0.0, 40000.0], [40000.0, 40000.0, 0.0]],
        )
        times = {("a", 0): 5.0, ("b", 0): 5.0, ("a", 1): 1.0, ("b", 1): 1.0}
        times |= {(i, k): 1.0 for i in ("a", "b") for k in (2, 3)}
        demands = {(i, k): (1 if k <= 1 else 0) for i in ("a", "b") for k in range(4)}
        scenario = Scenario(0, times, demands, frozenset())
        inst = RoutingInstance(cg, {0: frozenset(["a", "b"]), 1: frozenset(["a", "b"])},
                               frozenset(["d"]))
        plan = solve_routing(inst, 0)
        chart = build_schedule(plan, scenario, inst.depots, speed_kmh=40.0)
        entries = {(e.node_id, e.crew): e for e in chart.entries}
        second_node = plan.routes[1].visit_order[1]
        # crew 1: waits till 6 at the first node, works 1 h, travels 1 h to
        # arrive at 8; crew 0 got there at 7 and works until 12
        assert entries[(second_node, 1)].start_h == pytest.approx(12.0)


class TestErrors:
    def test_non_positive_speed(self):
        inst = _zero_travel_instance()
        plan = solve_routing(inst, 0)
        with pytest.raises(NonPositiveSpeedError):
            build_schedule(plan, _single_node_scenario(), inst.depots, speed_kmh=0.0)

    def test_invalid_plan_rejected(self):
        inst = _zero_travel_instance()
        scenario = _single_node_scenario()
        with pytest.raises(InvalidPlanError):
            build_schedule(RoutePlan(0, {}), scenario, inst.depots)

    def test_plan_checked_against_scenario_and_depots(self):
        inst = _zero_travel_instance()
        plan = solve_routing(inst, 0)
        route = plan.routes[0]
        tampered = [
            replace(route, visit_order=()),                  # misses the damaged node
            replace(route, depot_end=37215),                 # ends off a depot
            replace(route, leg_m=route.leg_m[:1]),           # a leg without a distance
            replace(route, leg_m=(float("inf"), 0.0)),       # an unreachable leg
            replace(route, leg_m=(-1.0, 0.0)),               # a negative leg
            replace(route, crew=7),                          # a crew that does not exist
        ]
        for bad in tampered:
            routes = {**plan.routes, 0: bad} if bad.crew == 0 else {**plan.routes, 7: bad}
            with pytest.raises(InvalidPlanError):
                build_schedule(RoutePlan(0, routes), _single_node_scenario(), inst.depots)

    def test_plan_for_another_scenario_rejected(self):
        inst = _zero_travel_instance()
        plan = solve_routing(inst, 1)
        with pytest.raises(InvalidPlanError, match="route plan is for scenario 1, not scenario 0"):
            build_schedule(plan, _single_node_scenario(s=0), inst.depots)

    def test_speed_that_is_not_a_finite_number_rejected(self):
        inst = _zero_travel_instance()
        plan = solve_routing(inst, 0)
        for bad in (float("nan"), float("inf"), -float("inf"), True, "40", 10**400):
            with pytest.raises(NonPositiveSpeedError, match="speed_kmh must be a finite number"):
                build_schedule(plan, _single_node_scenario(), inst.depots, speed_kmh=bad)

    def test_times_past_the_float_range_rejected(self):
        # 1 km legs at 1e-320 km/h take longer than any float; so does a node
        # whose crews each need 1e308 h
        cg = CompleteGraph.from_distances(["depot", 37215], [[0.0, 1000.0], [1000.0, 0.0]])
        inst = RoutingInstance(cg, {k: frozenset([37215]) for k in range(4)},
                               frozenset(["depot"]))
        plan = solve_routing(inst, 0)
        slow = "scenario 0: crew 0: work at node 37215 does not finish in finite time"
        with pytest.raises(InvalidPlanError, match=slow):
            build_schedule(plan, _single_node_scenario(), inst.depots, speed_kmh=1e-320)
        huge = replace(_single_node_scenario(),
                       repair_time_h={(37215, k): 1e308 for k in range(4)})
        long = "scenario 0: crew 1: work at node 37215 does not finish in finite time"
        with pytest.raises(InvalidPlanError, match=long):
            build_schedule(plan, huge, inst.depots)

    def test_makespan_of_empty_chart(self):
        with pytest.raises(EmptyChartError):
            makespan(GanttChart.from_entries([]))

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            GanttEntry(0, "n", 0, -1.0, 2.0)
        with pytest.raises(ValueError):
            GanttEntry(0, "n", 0, 3.0, 2.0)

    def test_entry_times_must_be_finite(self):
        inf, nan = float("inf"), float("nan")
        for start, finish in ((0.0, inf), (inf, inf), (0.0, nan), (nan, 1.0), (0.0, 10**400)):
            with pytest.raises(ValueError, match="start_h and finish_h must be finite"):
                GanttEntry(0, "n", 0, start, finish)


class TestChartInvariants:
    def test_duration_fidelity_and_precedence_random(self, rng):
        from conftest import random_routing_instance

        for _ in range(60):
            inst = random_routing_instance(rng, max_required=4, max_depots=2)
            nodes = sorted(frozenset().union(*inst.required.values()))
            if not nodes:
                continue
            times = {(i, k): float(rng.uniform(0.3, 9.0)) for i in nodes for k in range(4)}
            demands = {
                (i, k): (int(rng.integers(1, 9)) if i in inst.required.get(k, ()) else 0)
                for i in nodes for k in range(4)
            }
            scenario = Scenario(0, times, demands, frozenset())
            plan = solve_routing(inst, 0)
            chart = build_schedule(plan, scenario, inst.depots,
                                   speed_kmh=float(rng.uniform(10, 90)))
            by_node_crew = {(e.node_id, e.crew): e for e in chart.entries}
            for e in chart.entries:
                assert e.finish_h - e.start_h == pytest.approx(
                    times[(e.node_id, e.crew)], abs=1e-12
                )
                if e.crew > 0 and (e.node_id, e.crew - 1) in by_node_crew:
                    assert e.start_h >= by_node_crew[(e.node_id, e.crew - 1)].finish_h - 1e-12
            assert chart.makespan_h == max(e.finish_h for e in chart.entries)

    def test_start_order_matches_visit_order(self, rng):
        from conftest import random_routing_instance

        inst = random_routing_instance(rng, max_required=5, max_depots=2)
        nodes = sorted(frozenset().union(*inst.required.values()))
        times = {(i, k): float(rng.uniform(0.3, 9.0)) for i in nodes for k in range(4)}
        demands = {
            (i, k): (3 if i in inst.required.get(k, ()) else 0)
            for i in nodes for k in range(4)
        }
        scenario = Scenario(0, times, demands, frozenset())
        plan = solve_routing(inst, 0)
        chart = build_schedule(plan, scenario, inst.depots)
        for k, route in plan.routes.items():
            starts = {e.node_id: e.start_h for e in chart.entries if e.crew == k}
            ordered = [starts[i] for i in route.visit_order]
            assert ordered == sorted(ordered)

    def test_makespan_monotone_in_repair_times(self, rng):
        from conftest import random_routing_instance

        for _ in range(20):
            inst = random_routing_instance(rng, max_required=3, max_depots=2)
            nodes = sorted(frozenset().union(*inst.required.values()))
            if not nodes:
                continue
            times = {(i, k): float(rng.uniform(1.0, 9.0)) for i in nodes for k in range(4)}
            demands = {
                (i, k): (2 if i in inst.required.get(k, ()) else 0)
                for i in nodes for k in range(4)
            }
            plan = solve_routing(inst, 0)
            base = build_schedule(plan, Scenario(0, times, demands, frozenset()),
                                  inst.depots)
            shorter = dict(times)
            key = sorted(shorter)[int(rng.integers(0, len(shorter)))]
            shorter[key] = times[key] / 2.0
            after = build_schedule(plan, Scenario(0, shorter, demands, frozenset()),
                                   inst.depots)
            assert after.makespan_h <= base.makespan_h + 1e-12

    def test_combine_charts(self):
        a = GanttChart.from_entries([GanttEntry(0, "n", 0, 0.0, 5.5)])
        b = GanttChart.from_entries([GanttEntry(1, "n", 0, 0.0, 7.0)])
        merged = combine_charts([a, b])
        assert len(merged.entries) == 2
        assert merged.makespan_h == 7.0

    def test_single_entry_makespan(self):
        chart = GanttChart.from_entries([GanttEntry(0, "n", 0, 0.0, 5.5)])
        assert makespan(chart) == 5.5

    def test_makespan_bounds_every_repair_time(self, rng):
        from conftest import random_routing_instance

        inst = random_routing_instance(rng, max_required=4, max_depots=2)
        nodes = sorted(frozenset().union(*inst.required.values()))
        times = {(i, k): float(rng.uniform(0.5, 9.0)) for i in nodes for k in range(4)}
        demands = {
            (i, k): (2 if i in inst.required.get(k, ()) else 0)
            for i in nodes for k in range(4)
        }
        plan = solve_routing(inst, 0)
        chart = build_schedule(plan, Scenario(0, times, demands, frozenset()),
                               inst.depots)
        scheduled = {(e.node_id, e.crew) for e in chart.entries}
        assert makespan(chart) >= max(times[key] for key in scheduled)

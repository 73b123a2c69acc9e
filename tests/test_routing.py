"""Exact routing: DP vs permutation oracle, validation, error paths."""

import numpy as np
import pytest

from gridrestore import (
    CompleteGraph,
    Route,
    RoutePlan,
    RoutingInstance,
    brute_force_routing,
    expected_cost,
    route_cost,
    solve_routing,
    validate_routes,
)
from gridrestore.errors import (
    NodeUnreachableError,
    TooManyNodesError,
    UnreachableArcError,
)
from gridrestore.routing import SOLVE_NODE_CAP, validate_crew_arcs

from conftest import random_metric_complete, random_routing_instance


def _instance(dists, depots, required, rates=None):
    terminals = sorted({t for pair in dists for t in pair})
    n = len(terminals)
    idx = {t: i for i, t in enumerate(terminals)}
    m = np.zeros((n, n))
    for (u, v), d in dists.items():
        m[idx[u], idx[v]] = d
        m[idx[v], idx[u]] = d
    cg = CompleteGraph.from_distances(terminals, m)
    return RoutingInstance(cg, required, frozenset(depots),
                           cost_rate_per_m=rates or {})


class TestRouteCost:
    def test_hand_summed_route(self):
        inst = _instance({("d", "a"): 2.0, ("a", "b"): 3.0, ("b", "d"): 4.0},
                         ["d"], {0: frozenset(["a", "b"])})
        route = Route(0, "d", "d", ("a", "b"), (2.0, 3.0, 4.0), (2.0, 3.0, 4.0), 9.0,
                      {"a": 1, "b": 2})
        assert route_cost(route, inst) == 9.0

    def test_empty_required_set_no_route(self):
        inst = _instance({("d", "a"): 2.0}, ["d"], {0: frozenset()})
        plan = solve_routing(inst, 0)
        assert plan.routes == {}
        assert plan.total_cost == 0.0

    def test_reversed_order_same_cost_with_symmetric_dists(self):
        inst = _instance({("d", "a"): 2.0, ("a", "b"): 3.0, ("b", "d"): 4.0},
                         ["d"], {0: frozenset(["a", "b"])})
        fwd = Route(0, "d", "d", ("a", "b"), (2.0, 3.0, 4.0), (2.0, 3.0, 4.0), 9.0,
                    {"a": 1, "b": 2})
        rev = Route(0, "d", "d", ("b", "a"), (4.0, 3.0, 2.0), (4.0, 3.0, 2.0), 9.0,
                    {"b": 1, "a": 2})
        assert route_cost(fwd, inst) == route_cost(rev, inst)

    def test_unreachable_leg_raises(self):
        m = [[0.0, np.inf, 10.0], [np.inf, 0.0, 5.0], [10.0, 5.0, 0.0]]
        cg = CompleteGraph.from_distances(["a", "b", "d"], m)
        inst = RoutingInstance(cg, {0: frozenset(["a", "b"])}, frozenset(["d"]))
        bad = Route(0, "d", "d", ("b", "a"), (), (), 0.0, {"b": 1, "a": 2})
        with pytest.raises(UnreachableArcError):
            route_cost(bad, inst)


class TestSolveRouting:
    def test_single_node_out_and_back(self):
        inst = _instance({("d", "a"): 123.0}, ["d"], {2: frozenset(["a"])},
                         rates={2: 2.0})
        plan = solve_routing(inst, 0)
        route = plan.routes[2]
        assert route.visit_order == ("a",)
        assert route.depot_start == "d" and route.depot_end == "d"
        assert route.total_cost == pytest.approx(2 * 123.0 * 2.0)

    def test_four_nodes_three_depots_vs_permutation_oracle(self, rng):
        for _ in range(30):
            terms = ["d0", "d1", "d2", "a", "b", "c", "e"]
            n = len(terms)
            m = rng.uniform(5.0, 2000.0, size=(n, n))
            m = (m + m.T) / 2
            np.fill_diagonal(m, 0.0)
            cg = CompleteGraph.from_distances(terms, m)
            inst = RoutingInstance(cg, {0: frozenset(["a", "b", "c", "e"])},
                                   frozenset(["d0", "d1", "d2"]))
            assert solve_routing(inst, 0) == brute_force_routing(inst, 0)

    def test_reference_case_shape_one_route_per_crew(self, rng):
        # 3 depots, 4 damaged nodes, all crews required everywhere
        terms = ["d0", "d1", "d2", 23214, 36856, 37215, 51201]
        n = len(terms)
        m = rng.uniform(100.0, 20000.0, size=(n, n))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        cg = CompleteGraph.from_distances(terms, m)
        required = {k: frozenset([23214, 36856, 37215, 51201]) for k in range(4)}
        inst = RoutingInstance(cg, required, frozenset(["d0", "d1", "d2"]))
        plan = solve_routing(inst, 0)
        assert set(plan.routes) == {0, 1, 2, 3}
        for k, route in plan.routes.items():
            assert sorted(route.visit_order) == [23214, 36856, 37215, 51201]
            assert route.depot_start in inst.depots
            assert route.depot_end in inst.depots
        assert validate_routes(plan, inst).passed

    def test_crews_sharing_a_required_set_scale_by_rate(self, rng):
        nodes = frozenset(f"n{i}" for i in range(6))
        cg = random_metric_complete(rng, ["d0", "d1", *sorted(nodes)])
        inst = RoutingInstance(cg, {0: nodes, 1: nodes}, frozenset(["d0", "d1"]),
                               cost_rate_per_m={0: 1.0, 1: 2.5})
        plan = solve_routing(inst, 0)
        assert plan == brute_force_routing(inst, 0)
        one, other = plan.routes[0], plan.routes[1]
        assert other.stops() == one.stops()
        assert other.leg_costs == tuple(c * 2.5 for c in one.leg_costs)

    def test_rate_zero_crew_routed_apart_from_shared_set(self):
        # at rate 1 the optimum is (b, a, c) or (c, a, b), 13 m each; at
        # rate 0 every order costs 0, so the smallest order (a, b, c) wins
        dists = {("d", "a"): 10.0, ("d", "b"): 1.0, ("d", "c"): 1.0,
                 ("a", "b"): 1.0, ("a", "c"): 10.0, ("b", "c"): 10.0}
        abc = frozenset("abc")
        inst = _instance(dists, ["d"], {0: abc, 1: abc, 2: abc}, {0: 1.0, 1: 0.0, 2: 3.0})
        plan = solve_routing(inst, 0)
        assert plan == brute_force_routing(inst, 0)
        assert [plan.routes[k].visit_order for k in range(3)] == [
            ("b", "a", "c"), ("a", "b", "c"), ("b", "a", "c")]
        assert [plan.routes[k].total_cost for k in range(3)] == [13.0, 0.0, 39.0]

    def test_full_cap_route_is_valid_and_swap_optimal(self, rng):
        nodes = [f"n{i:02d}" for i in range(SOLVE_NODE_CAP)]
        cg = random_metric_complete(rng, ["d0", "d1", *nodes])
        inst = RoutingInstance(cg, {0: frozenset(nodes)}, frozenset(["d0", "d1"]))
        plan = solve_routing(inst, 0)
        assert validate_routes(plan, inst).passed
        route = plan.routes[0]

        def mm(order):
            stops = [cg.index(s) for s in (route.depot_start, *order, route.depot_end)]
            return int(cg.dist_mm[stops[:-1], stops[1:]].sum())

        best = mm(route.visit_order)
        order = list(route.visit_order)
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                swapped = order.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert mm(swapped) >= best, (i, j)

    def test_too_many_nodes_refused(self):
        nodes = [f"n{i}" for i in range(16)]
        dists = {("d", x): 1.0 for x in nodes}
        dists |= {(a, b): 1.0 for i, a in enumerate(nodes) for b in nodes[i + 1:]}
        inst = _instance(dists, ["d"], {0: frozenset(nodes)})
        with pytest.raises(TooManyNodesError):
            solve_routing(inst, 0)
        with pytest.raises(TooManyNodesError):
            brute_force_routing(
                _instance(dists, ["d"], {0: frozenset(nodes[:9])}), 0
            )

    def test_non_finite_or_negative_rate_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf"), -1.0, True, "1.0"):
            with pytest.raises(ValueError, match="cost rates"):
                _instance({("d", "a"): 1.0}, ["d"], {0: frozenset(["a"])}, {0: 1.0, 1: bad})

    def test_unreachable_node_named(self):
        m = [[0.0, np.inf, np.inf], [np.inf, 0.0, 7.0], [np.inf, 7.0, 0.0]]
        cg = CompleteGraph.from_distances(["a", "b", "d"], m)
        inst = RoutingInstance(cg, {1: frozenset(["a", "b"])}, frozenset(["d"]))
        with pytest.raises(NodeUnreachableError) as err:
            solve_routing(inst, 1)
        assert err.value.node == "a"
        assert err.value.crew == 1

    def test_split_required_components_detected(self):
        # both nodes depot-reachable, but not by one route
        m = np.array([
            [0.0, np.inf, 5.0, np.inf],
            [np.inf, 0.0, np.inf, 5.0],
            [5.0, np.inf, 0.0, np.inf],
            [np.inf, 5.0, np.inf, 0.0],
        ])
        cg = CompleteGraph.from_distances(["a", "b", "d0", "d1"], m)
        inst = RoutingInstance(cg, {0: frozenset(["a", "b"])},
                               frozenset(["d0", "d1"]))
        with pytest.raises(NodeUnreachableError):
            solve_routing(inst, 0)

    def test_mtz_labels_are_visit_positions(self, rng):
        inst = random_routing_instance(rng)
        plan = solve_routing(inst, 0)
        for route in plan.routes.values():
            assert [route.mtz_labels[i] for i in route.visit_order] == list(
                range(1, len(route.visit_order) + 1)
            )

    def test_total_is_sum_of_leg_costs(self, rng):
        for _ in range(20):
            inst = random_routing_instance(rng)
            plan = solve_routing(inst, 0)
            for route in plan.routes.values():
                acc = 0.0
                for c in route.leg_costs:
                    acc += c
                assert acc == route.total_cost
                assert route_cost(route, inst) == route.total_cost


class TestOracleEquality:
    def test_campaign_bit_identical(self, rng):
        for _ in range(100):
            inst = random_routing_instance(rng, max_required=6, max_depots=3)
            assert solve_routing(inst, 0) == brute_force_routing(inst, 0)
        # terminals on a line at whole decimeters, so whole-millimeter ties
        # between routes are common
        for _ in range(60):
            base = random_routing_instance(rng, max_required=6, max_depots=3)
            pos = rng.integers(0, 30, size=len(base.complete.terminals)) / 10.0
            line = CompleteGraph.from_distances(base.complete.terminals,
                                                np.abs(pos[:, None] - pos[None, :]))
            inst = RoutingInstance(line, base.required, base.depots, base.cost_rate_per_m)
            assert solve_routing(inst, 0) == brute_force_routing(inst, 0)

    def test_cardinality_small_case(self):
        # 3 nodes, 2 depots: 3! orders x 4 ordered depot pairs = 24 candidates
        dists = {("d0", "d1"): 1.0}
        for x in ("a", "b", "c"):
            dists |= {("d0", x): 2.0, ("d1", x): 3.0}
        dists |= {("a", "b"): 1.0, ("a", "c"): 1.5, ("b", "c"): 1.2}
        inst = _instance(dists, ["d0", "d1"], {0: frozenset(["a", "b", "c"])})
        assert solve_routing(inst, 0) == brute_force_routing(inst, 0)

    def test_tie_breaking_is_lexicographic(self):
        # every case ties (a, b, c) with another order; both solvers must
        # pick the lexicographically smallest visit order and depot pair
        nodes = ["a", "b", "c"]
        equal = {("d0", "d1"): 4.0}
        for x in nodes:
            equal |= {("d0", x): 4.0, ("d1", x): 4.0}
        equal |= {("a", "b"): 4.0, ("a", "c"): 4.0, ("b", "c"): 4.0}
        # rate 0: every route costs 0 although the distances differ
        unequal = {("d0", "d1"): 1.0, ("a", "b"): 7.0, ("a", "c"): 2.5, ("b", "c"): 9.25}
        for x, d in zip(nodes, (6.0, 3.5, 1.0)):
            unequal |= {("d0", x): d, ("d1", x): 2 * d}
        # d, a, b, c at 0, 0.5, 1.1 and 2.2 m on a line: (a, b, c) and
        # (a, c, b) both take 4,400 mm, though their float arc costs
        # (mm / 1000) do not sum to the same exact value
        pos = {"d": 0.0, "a": 0.5, "b": 1.1, "c": 2.2}
        collinear = {(u, v): abs(pos[u] - pos[v]) for u in pos for v in pos if u < v}
        cases = [
            ("equal distances", _instance(equal, ["d0", "d1"], {0: frozenset(nodes)}), "d0"),
            ("rate 0", _instance(unequal, ["d0", "d1"], {0: frozenset(nodes)}, {0: 0.0}), "d0"),
            ("collinear", _instance(collinear, ["d"], {0: frozenset(nodes)}), "d"),
        ]
        for name, inst, depot in cases:
            a = solve_routing(inst, 0)
            b = brute_force_routing(inst, 0)
            assert a == b, name
            assert a.routes[0].visit_order == ("a", "b", "c"), name
            assert (a.routes[0].depot_start, a.routes[0].depot_end) == (depot, depot), name

    def test_deleting_a_node_never_increases_cost_on_metric(self, rng):
        # metric closure over a random road graph keeps the triangle inequality
        from conftest import random_road_graph
        from gridrestore import shortest_path_matrix

        for _ in range(20):
            g = random_road_graph(rng, 12, 10)
            ids = [n for n, _, _ in g.nodes]
            terms = ids[:6]
            cg = shortest_path_matrix(g, terms)
            depots = frozenset(terms[:2])
            nodes = [t for t in terms[2:]]
            full = RoutingInstance(cg, {0: frozenset(nodes)}, depots)
            reduced = RoutingInstance(cg, {0: frozenset(nodes[:-1])}, depots)
            c_full = solve_routing(full, 0).routes[0].total_cost
            r = solve_routing(reduced, 0).routes.get(0)
            c_red = r.total_cost if r else 0.0
            assert c_red <= c_full + 1e-9

    def test_scenario_order_independent(self, rng):
        inst = random_routing_instance(rng)
        plans = [solve_routing(inst, s) for s in (0, 1, 2)]
        again = [solve_routing(inst, s) for s in (2, 0, 1)]
        assert plans[0].routes == again[1].routes
        assert expected_cost(plans) == pytest.approx(
            sum(p.total_cost for p in plans) / 3
        )


class TestValidation:
    def test_solver_output_passes(self, rng):
        for _ in range(20):
            inst = random_routing_instance(rng)
            report = validate_routes(solve_routing(inst, 0), inst)
            assert report.passed, report.summary()

    def test_node_visited_twice_flagged(self):
        inst = _instance({("d", "a"): 1.0, ("d", "b"): 1.0, ("a", "b"): 1.0},
                         ["d"], {0: frozenset(["a", "b"])})
        bad = Route(0, "d", "d", ("a", "b", "a"), (1.0,) * 4, (1.0,) * 4, 4.0,
                    {"a": 1, "b": 2})
        report = validate_routes(RoutePlan(0, {0: bad}), inst)
        assert not report.passed
        assert any("'a'" in v for v in report.violations["visit_once"])

    def test_missing_route_flagged(self):
        inst = _instance({("d", "a"): 1.0}, ["d"], {0: frozenset(["a"])})
        report = validate_routes(RoutePlan(0, {}), inst)
        assert not report.passed
        assert report.violations["visit_once"]

    def test_non_depot_endpoint_flagged(self):
        inst = _instance({("d", "a"): 1.0, ("d", "b"): 1.0, ("a", "b"): 1.0},
                         ["d"], {0: frozenset(["a"])})
        bad = Route(0, "b", "d", ("a",), (1.0, 1.0), (1.0, 1.0), 2.0, {"a": 1})
        report = validate_routes(RoutePlan(0, {0: bad}), inst)
        assert any("not a depot" in v for v in report.violations["depot_endpoints"])

    def test_detached_subtour_fails_mtz(self):
        inst = _instance(
            {("d", "a"): 1.0, ("d", "b"): 1.0, ("d", "c"): 1.0,
             ("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0},
            ["d"], {0: frozenset(["a", "b", "c"])},
        )
        # depot serves only a; b and c form a detached 2-cycle
        arcs = [("d", "a"), ("a", "d"), ("b", "c"), ("c", "b")]
        report = validate_crew_arcs(arcs, 0, inst)
        assert report["mtz"], "cycle among damaged nodes must be an ordering failure"

    def test_decreasing_labels_fail(self):
        inst = _instance({("d", "a"): 1.0, ("d", "b"): 1.0, ("a", "b"): 1.0},
                         ["d"], {0: frozenset(["a", "b"])})
        bad = Route(0, "d", "d", ("a", "b"), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 3.0,
                    {"a": 2, "b": 1})
        report = validate_routes(RoutePlan(0, {0: bad}), inst)
        assert report.violations["mtz"]

    def test_report_never_raises(self):
        inst = _instance({("d", "a"): 1.0}, ["d"], {0: frozenset(["a"])})
        weird = Route(3, "x", "y", ("q",), (), (), 0.0, {})
        report = validate_routes(RoutePlan(0, {3: weird}), inst)
        assert not report.passed

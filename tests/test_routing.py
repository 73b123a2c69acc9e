"""Exact routing: DP vs permutation oracle, validation, error paths."""

import gc
import math
import random
import tracemalloc
import weakref

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
    NumericOverflowError,
    TooManyNodesError,
    UnreachableArcError,
)
from gridrestore import fileio, routing
from gridrestore.network import node_key, shortest_path_matrix
from gridrestore.routing import BRUTE_NODE_CAP, SOLVE_NODE_CAP

from arc_checker import reference_validate_routes

from conftest import random_metric_complete, random_road_graph, random_routing_instance


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
        nodes = [f"n{i}" for i in range(SOLVE_NODE_CAP + 1)]
        dists = {("d", x): 1.0 for x in nodes}
        dists |= {(a, b): 1.0 for i, a in enumerate(nodes) for b in nodes[i + 1:]}
        inst = _instance(dists, ["d"], {0: frozenset(nodes)})
        with pytest.raises(TooManyNodesError):
            solve_routing(inst, 0)
        with pytest.raises(TooManyNodesError):
            brute_force_routing(
                _instance(dists, ["d"], {0: frozenset(nodes[:9])}), 0
            )

    def test_route_cost_past_float64_raises_overflow(self):
        # each leg, 2 m x 1e308, is past float64
        inst = _instance({("d", "a"): 2.0}, ["d"], {0: frozenset(["a"])}, {0: 1e308})
        message = r"^stage 2: crew 0: route cost overflows float64; scale cost_rate_per_m down$"
        for solver in (solve_routing, brute_force_routing):
            with pytest.raises(NumericOverflowError, match=message):
                solver(inst, 0)
        # each leg is finite, their sum is not
        inst = _instance({("d", "a"): 1.0}, ["d"], {0: frozenset(["a"])}, {0: 1e308})
        with pytest.raises(NumericOverflowError, match="^stage 2: crew 0: route cost"):
            solve_routing(inst, 0)

    def test_plan_total_past_float64_raises_overflow(self):
        # each crew's route costs 1e308; the two together do not fit a float64
        inst = _instance({("d", "a"): 1.0}, ["d"], {0: frozenset(["a"]), 2: frozenset(["a"])},
                         {0: 5e307, 2: 5e307})
        with pytest.raises(NumericOverflowError,
                           match="^stage 2: scenario 4: route cost overflows float64"):
            solve_routing(inst, 4)

    def test_expected_cost_past_float64_raises_overflow(self):
        # each plan costs 1e308; their sum does not fit a float64, their mean would
        inst = _instance({("d", "a"): 1.0}, ["d"], {0: frozenset(["a"])}, {0: 5e307})
        plans = [solve_routing(inst, s) for s in (0, 1)]
        assert expected_cost(plans[:1]) == plans[0].total_cost == 1e308
        with pytest.raises(NumericOverflowError, match=r"^stage 2: expected route cost overflows "
                           r"float64; scale cost_rate_per_m down$"):
            expected_cost(plans)

    @pytest.mark.parametrize("field, value, named", [
        ("leg_costs", (math.inf, 1.0), "leg_costs[0] must be a finite number, got inf"),
        ("leg_costs", (1.0, math.nan), "leg_costs[1] must be a finite number, got nan"),
        ("total_cost", math.inf, "total_cost must be a finite number, got inf"),
        ("total_cost", 10**400, "total_cost must be a finite number, got 1000"),
    ])
    def test_route_refuses_a_cost_that_is_not_finite(self, field, value, named):
        fields = dict(crew=0, depot_start="d", depot_end="d", visit_order=("a",),
                      leg_costs=(1.0, 1.0), leg_m=(1.0, 1.0), total_cost=2.0,
                      mtz_labels={"a": 1})
        Route(**fields)
        with pytest.raises(ValueError) as exc:
            Route(**{**fields, field: value})
        assert str(exc.value).startswith(f"crew 0: {named}")

    def test_non_finite_or_negative_rate_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf"), -1.0, True, "1.0", 10**400):
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


def _fresh(cg):
    """A copy of ``cg`` that holds no solved results."""
    return CompleteGraph(cg.terminals, cg.dist_mm)


def _road_closure(rng):
    """A closure over a random road graph: depots n0 and n1, damaged n2-n7."""
    road = random_road_graph(rng, 30, 25)
    return lambda: shortest_path_matrix(road, [f"n{i}" for i in range(8)])


def _written(tmp_path, plan, cg, name):
    path = tmp_path / name
    fileio.write_route_plan_file(plan, path, cg)
    return path.read_bytes()


class TestSolvedMap:
    """The orders and Routes that ``solve_routing`` keeps on the closure they were
    solved over, each keyed by all else it depends on."""

    def test_shared_map_gives_the_plans_of_a_fresh_map(self, rng):
        depots = ["d0", "d1"]
        nodes = [f"n{i}" for i in range(7)]
        cg = random_metric_complete(rng, depots + nodes)
        pool = [frozenset(rng.choice(nodes, size=int(rng.integers(1, 6)), replace=False).tolist())
                for _ in range(5)]
        rates = {0: 1.0, 1: 0.0, 2: 2.5, 3: 0.7}
        keys, problems = set(), 0
        for sid in range(16):
            required = {k: pool[int(rng.integers(0, len(pool)))]
                        for k in range(4) if rng.random() < 0.8}
            inst = RoutingInstance(cg, required, frozenset(depots), cost_rate_per_m=rates)
            plan = solve_routing(inst, sid)
            fresh = RoutingInstance(_fresh(cg), required, frozenset(depots), cost_rate_per_m=rates)
            assert plan == solve_routing(fresh, sid) == brute_force_routing(inst, sid)
            keys |= {(inst.depots, (nodes, rates[k] > 0)) for k, nodes in required.items()}
            problems += len(required)
        # the closure holds each (depots, required set, rate > 0) once, and so spared solves
        assert set(cg._orders) == keys
        assert len(keys) < problems

    def test_map_entries_are_the_held_karp_results(self, rng):
        for _ in range(10):
            inst = random_routing_instance(rng)
            plan = solve_routing(inst, 0)
            for k, route in plan.routes.items():
                problem = (inst.required[k], inst.rate(k) > 0)
                assert inst.complete._orders[inst.depots, problem] == (
                    route.depot_start, route.depot_end, route.visit_order)

    def test_other_depots_over_one_closure_write_what_a_fresh_closure_writes(
            self, rng, tmp_path):
        closure = _road_closure(rng)
        cg = closure()
        required = {k: frozenset(f"n{i}" for i in range(2 + k, 8)) for k in range(4)}
        written = []
        for depots in (["n0"], ["n1"], ["n0", "n1"]):
            def plan(cg, depots=depots):
                return solve_routing(RoutingInstance(cg, required, frozenset(depots)), 0)
            fresh = closure()
            written.append(_written(tmp_path, plan(cg), cg, "shared.json"))
            assert written[-1] == _written(tmp_path, plan(fresh), fresh, "fresh.json")
        assert written[0] != written[1]
        assert len({depots for depots, _ in cg._orders}) == 3

    def test_rates_of_either_zero_write_what_a_fresh_closure_writes(self, rng, tmp_path):
        closure = _road_closure(rng)
        cg = closure()
        required = {k: frozenset(f"n{i}" for i in range(2, 6 + k % 2)) for k in range(4)}
        written = []
        for rate in (0.0, -0.0, 0.0):
            def plan(cg, rate=rate):
                return solve_routing(RoutingInstance(cg, required, frozenset(["n0", "n1"]),
                                                     cost_rate_per_m={1: rate}), 0)
            fresh = closure()
            written.append(_written(tmp_path, plan(cg), cg, "shared.json"))
            assert written[-1] == _written(tmp_path, plan(fresh), fresh, "fresh.json")
        # the two zeros pose the same problem, and their routes equal under ==,
        # but only -0.0 writes -0.0 leg costs
        assert written[0] == written[2] != written[1]
        assert b"-0.0" in written[1] and b"-0.0" not in written[0]
        assert len([key for key in cg._orders if key[1][1] is False]) == 1

    def test_library_loop_over_one_closure_builds_each_table_once(self, rng, monkeypatch):
        # one closure kept across a loop of scenarios, each routed on its own as
        # demos/03_two_stage_planning.py routes them, with no ``ahead``: each
        # (depots, problem) is solved in the first scenario that poses it
        cg = _road_closure(rng)()
        pool = [frozenset(f"n{i}" for i in range(lo, hi)) for lo, hi in
                ((2, 4), (3, 6), (2, 8), (5, 8))]
        rates = {1: 0.0, 2: 2.0}
        solve_problems, solved = routing._solve_problems, []

        def recording(inst, problems):
            solved.extend((inst.depots, p) for p in problems)
            return solve_problems(inst, problems)

        monkeypatch.setattr(routing, "_solve_problems", recording)
        tables = _CountedTables(monkeypatch)
        instances, plans, posed = [], [], []
        for sid in range(24):
            depots = frozenset(["n0", "n1"][:1 + sid % 2])
            required = {k: pool[int(rng.integers(0, len(pool)))] for k in range(4)}
            instances.append(RoutingInstance(cg, required, depots, cost_rate_per_m=rates))
            plans.append(solve_routing(instances[-1], sid))
            posed += [(depots, (nodes, rates.get(k, 1.0) > 0)) for k, nodes in required.items()]
        monkeypatch.undo()
        assert len(solved) == len(set(solved)) < len(posed)
        assert set(solved) == set(posed)
        assert len(tables.built) <= len(solved)
        for sid, (inst, plan) in enumerate(zip(instances, plans)):
            fresh = RoutingInstance(_fresh(cg), inst.required, inst.depots, cost_rate_per_m=rates)
            assert plan == solve_routing(fresh, sid)


def _tie_heavy_complete(rnd, depots, nodes, p_cut):
    """Arcs of 1, 1.5 or 2 m, so optimal routes tie everywhere; each pair is cut
    (unreachable) with probability ``p_cut``, with no regard to transitivity."""
    terms = [*depots, *nodes]
    n = len(terms)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = np.inf if rnd.random() < p_cut else rnd.choice((1.0, 1.5, 2.0))
    return CompleteGraph.from_distances(terms, m)


def _solve_crew_dp(inst, crew):
    """The per-set reference: the optimal (depot_start, depot_end, visit order)
    under the shared tie-break, from a Held-Karp table over the crew's required
    set alone; it raises as ``solve_routing`` refuses a crew."""
    nodes = sorted(inst.required[crew], key=node_key)
    n = len(nodes)
    if n > SOLVE_NODE_CAP:
        raise TooManyNodesError(crew, n, SOLVE_NODE_CAP)
    routing._check_reachability(inst, crew, nodes)
    answer = routing._HeldKarp(inst, inst.rate(crew) > 0, nodes).order(inst.required[crew])
    if answer is None:
        raise NodeUnreachableError(nodes[0], crew, "no feasible depot-to-depot route")
    return answer


def _per_set(solver, cg, depots, nodes, required, rate):
    """(depot_start, depot_end, order) of ``solver`` for one crew needing
    ``required``, or None where it finds no route."""
    inst = RoutingInstance(cg, {0: required}, frozenset(depots), cost_rate_per_m={0: rate},
                           damaged=frozenset(nodes))
    try:
        found = solver(inst, 0)
    except NodeUnreachableError:
        return None
    return found if isinstance(found, tuple) else (
        found.depot_start, found.depot_end, found.visit_order)


class _CountedTables:
    """Records each Held-Karp table built while installed, by a weak reference."""

    def __init__(self, monkeypatch):
        self.built = []
        built, table_class = self.built, routing._HeldKarp

        class Counted(table_class):
            def __init__(self, inst, positive, nodes):
                super().__init__(inst, positive, nodes)
                built.append((frozenset(nodes), positive, weakref.ref(self)))

        monkeypatch.setattr(routing, "_HeldKarp", Counted)

    def domains(self):
        return sorted((sorted(nodes), positive) for nodes, positive, _ in self.built)


def _outcome(solve, inst, crew):
    """(depot_start, depot_end, order) of ``solve``, or the type and text of its refusal."""
    try:
        found = solve(inst, crew)
    except (NodeUnreachableError, TooManyNodesError) as exc:
        return type(exc), str(exc)
    return found


def test_refusals_equal_the_per_set_reference(monkeypatch):
    # nodes no depot reaches, sets split apart, a set no depot-to-depot route
    # covers, and a set over the cap: solve_routing raises what a table over the
    # set alone raises, message for message, and builds no table to raise it
    rnd = random.Random(53)
    cases = []
    for _ in range(200):
        depots = ["d0", "d1"][:rnd.randint(1, 2)]
        nodes = [f"n{i}" for i in range(rnd.randint(1, 7))]
        cg = _tie_heavy_complete(rnd, depots, nodes, rnd.choice((0.2, 0.4, 0.6)))
        cases.append((cg, depots, frozenset(rnd.sample(nodes, rnd.randint(1, len(nodes))))))
    # a is next to every node, but b, c and e only to a and the depot: no path
    # through all four alternates them with a
    star = np.ones((5, 5)) - np.eye(5)
    for i in (2, 3, 4):
        for j in (2, 3, 4):
            if i != j:
                star[i, j] = np.inf
    cases.append((CompleteGraph.from_distances(["d", "a", "b", "c", "e"], star), ["d"],
                  frozenset("abce")))
    nodes = [f"n{i:02d}" for i in range(SOLVE_NODE_CAP + 1)]
    cases.append((CompleteGraph.from_distances(["d", *nodes], 1 - np.eye(len(nodes) + 1)),
                  ["d"], frozenset(nodes)))
    kinds = ("no depot can reach", "disconnected", "no feasible", "capped")
    refusals = set()
    for n, (cg, depots, required) in enumerate(cases):
        inst = RoutingInstance(cg, {2: required}, frozenset(depots),
                               damaged=frozenset(cg.terminals) - frozenset(depots))
        want = _outcome(_solve_crew_dp, inst, 2)
        tables = _CountedTables(monkeypatch)
        got = _outcome(lambda inst, k: solve_routing(inst, 0).routes[k], inst, 2)
        if isinstance(want[0], type):
            assert got == want, n
            refusals.update(kind for kind in kinds if kind in want[1])
            # only the set that passes the reachability check gets its one table
            assert len(tables.built) == ("no feasible" in want[1]), n
        else:
            assert (got.depot_start, got.depot_end, got.visit_order) == want, n
        monkeypatch.undo()
    assert refusals == set(kinds)


class TestHeldKarpTables:
    """One table over the union of several required sets answers each of them."""

    def test_union_table_equals_per_set_held_karp_and_brute_force(self):
        # rate-0 and positive crews, unreachable pairs, tie-heavy 1-2 m arcs,
        # int and str ids, and unions of 1 to 10 nodes
        rnd = random.Random(43)
        compared = brute = 0
        for trial in range(120):
            depots = rnd.sample(["d0", "d1", 7], rnd.randint(1, 2))
            nodes = [f"n{i}" if i % 2 else i * 10 for i in range(rnd.randint(1, 10))]
            cg = _tie_heavy_complete(rnd, depots, nodes, rnd.choice((0.0, 0.05, 0.2)))
            for positive, rate in ((True, rnd.choice((0.5, 1.0, 3.0))), (False, 0.0)):
                inst = RoutingInstance(cg, {0: frozenset(nodes)}, frozenset(depots),
                                       cost_rate_per_m={0: rate})
                table = routing._HeldKarp(inst, positive, nodes)
                for _ in range(4):
                    required = frozenset(rnd.sample(nodes, rnd.randint(1, len(nodes))))
                    want = _per_set(_solve_crew_dp, cg, depots, nodes, required, rate)
                    assert table.order(required) == want, (trial, sorted(map(str, required)))
                    compared += 1
                    big = len(required) > 6  # brute force takes ~0.1 s past 6 nodes
                    if len(required) <= BRUTE_NODE_CAP and (not big or brute < 3):
                        brute += big
                        assert want == _per_set(routing._solve_crew_brute, cg, depots, nodes,
                                                required, rate), trial
        assert compared == 960 and brute == 3

    def test_solve_problems_answers_each_routable_problem(self):
        # both rate flags at once, unions that pass and fail the domain rule, and
        # sets that no single route can visit (left out)
        rnd = random.Random(47)
        for trial in range(60):
            depots = ["d0", "d1"][:rnd.randint(1, 2)]
            nodes = [f"n{i}" for i in range(rnd.randint(1, 9))]
            cg = _tie_heavy_complete(rnd, depots, nodes, rnd.choice((0.0, 0.1)))
            problems = [(frozenset(rnd.sample(nodes, rnd.randint(1, len(nodes)))),
                         rnd.random() < 0.6) for _ in range(rnd.randint(1, 6))]
            inst = RoutingInstance(cg, {}, frozenset(depots), damaged=frozenset(nodes))
            solved = routing._solve_problems(inst, problems)
            want = {}
            for required, positive in problems:
                answer = _per_set(_solve_crew_dp, cg, depots, nodes, required,
                                  1.0 if positive else 0.0)
                if answer is not None:
                    want[required, positive] = answer
            assert solved == want, trial

    def test_disjoint_sets_get_tables_of_their_own(self, monkeypatch, rng):
        # four disjoint 3-node sets over 12 damaged nodes: a union table would
        # hold 2**12 x 12 states, four tables of their own 4 x 2**3 x 3
        nodes = [f"n{i:02d}" for i in range(12)]
        cg = random_metric_complete(rng, ["d0", "d1", *nodes])
        inst = RoutingInstance(cg, {}, frozenset(["d0", "d1"]), damaged=frozenset(nodes))
        sets = [frozenset(nodes[i:i + 3]) for i in range(0, 12, 3)]
        tables = _CountedTables(monkeypatch)
        solved = routing._solve_problems(inst, [(s, True) for s in sets])
        assert tables.domains() == sorted((sorted(s), True) for s in sets)
        assert len(solved) == 4

    def test_overlapping_sets_share_one_table_per_rate_flag(self, monkeypatch, rng):
        nodes = [f"n{i}" for i in range(5)]
        cg = random_metric_complete(rng, ["d0", *nodes])
        inst = RoutingInstance(cg, {}, frozenset(["d0"]), damaged=frozenset(nodes))
        # 2 x 4 x 2**4 + 2 x 3 x 2**3 = 176 states apart, 5 x 2**5 = 160 together
        sets = [frozenset(nodes[:4]), frozenset(nodes[1:]), frozenset(nodes[::2]),
                frozenset(nodes[:3])]
        tables = _CountedTables(monkeypatch)
        solved = routing._solve_problems(inst, [(s, p) for s in sets for p in (True, False)])
        assert tables.domains() == [(nodes, False), (nodes, True)]
        assert len(solved) == 8

    def test_union_past_the_cap_gets_tables_of_their_own(self, monkeypatch, rng):
        # every 4 of 5 nodes: the union's table is the smaller, but exceeds a cap of 4
        nodes = [f"n{i}" for i in range(5)]
        cg = random_metric_complete(rng, ["d0", *nodes])
        inst = RoutingInstance(cg, {}, frozenset(["d0"]), damaged=frozenset(nodes))
        sets = [frozenset(nodes) - {i} for i in nodes]
        tables = _CountedTables(monkeypatch)
        monkeypatch.setattr(routing, "SOLVE_NODE_CAP", 4)
        routing._solve_problems(inst, [(s, True) for s in sets])
        assert tables.domains() == sorted((sorted(s), True) for s in sets)

    def test_skipped_problems_raise_for_their_own_crew(self, monkeypatch, rng):
        # an unreachable set and one over the cap, named ahead by the first call:
        # left out of its tables, they raise in the call that routes them
        nodes = [f"n{i:02d}" for i in range(SOLVE_NODE_CAP + 2)]
        terms = ["d0", *nodes]
        m = np.array(random_metric_complete(rng, terms).dist)
        m[:, 1] = m[1, :] = np.inf  # n00 is cut off
        m[1, 1] = 0.0
        cg = CompleteGraph.from_distances(terms, m)
        cut, wide = frozenset(nodes[:2]), frozenset(nodes[1:])
        first = RoutingInstance(cg, {0: frozenset(nodes[1:4])}, frozenset(["d0"]),
                                damaged=frozenset(nodes))
        tables = _CountedTables(monkeypatch)
        solve_routing(first, 0, ahead=[(cut, True), (wide, True)])
        assert set(cg._orders) == {(first.depots, (frozenset(nodes[1:4]), True))}
        assert all(len(nodes) <= SOLVE_NODE_CAP for nodes, _ in tables.domains())
        assert tables.domains() and all("n00" not in nodes for nodes, _ in tables.domains())
        for crew, required, error in ((3, cut, NodeUnreachableError),
                                      (1, wide, TooManyNodesError)):
            later = RoutingInstance(cg, {crew: required}, frozenset(["d0"]),
                                    damaged=frozenset(nodes))
            with pytest.raises(error) as raised:
                solve_routing(later, 1)
            assert raised.value.crew == crew

    def test_no_table_outlives_its_call(self, monkeypatch, rng):
        nodes = [f"n{i}" for i in range(8)]
        cg = random_metric_complete(rng, ["d0", "d1", *nodes])
        inst = RoutingInstance(cg, {0: frozenset(nodes[:5]), 1: frozenset(nodes[2:])},
                               frozenset(["d0", "d1"]), cost_rate_per_m={1: 0.0})
        tables = _CountedTables(monkeypatch)
        solve_routing(inst, 0, ahead=[(frozenset(nodes[3:6]), True), (frozenset(nodes), False)])
        gc.collect()
        assert len(tables.built) == 3  # crew 0's set and the first ahead: one each
        assert all(ref() is None for _, _, ref in tables.built)
        # the closure keeps only orders and depots
        assert len(cg._orders) == 4
        for d0, d1, order in cg._orders.values():
            assert {d0, d1} <= {"d0", "d1"} and set(order) <= set(nodes)


def _broadcast_table(inst, positive, nodes):
    """The Held-Karp cost-to-go of a backward pass that reduces each layer's
    (masks, last, next) block over its next axis at once, with the next nodes a
    mask already holds set to inf."""
    depots = sorted(inst.depots, key=node_key)
    nodes = sorted(nodes, key=node_key)
    m, n = len(depots), len(nodes)
    mm = routing._arc_mm(inst, positive, depots + nodes)
    arcs = np.where(mm < 0, np.inf, mm)
    step, home = arcs[m:, m:], arcs[m:, :m]
    all_masks = np.arange(1 << n)
    bits = 1 << np.arange(n)
    holds = (all_masks[:, None] & bits) != 0  # (mask, j): mask holds node j
    popcount = holds.sum(axis=1)
    g = np.empty((1 << n, n))
    g[-1] = home.min(axis=1)
    for k in range(n - 1, 0, -1):
        masks = all_masks[popcount == k]
        ahead = g[masks[:, None] | bits, np.arange(n)]
        ahead[holds[masks]] = np.inf
        g[masks] = (step[None, :, :] + ahead[:, None, :]).min(axis=2)
    return g


def _integer_held_karp(cg, depots, required, positive):
    """The optimal (depot_start, depot_end, visit order) through ``required``,
    or None: a forward Held-Karp over dicts in plain Python integers.

    Each (mask, last) state keeps the least (cost, path, depot_start) tuple of
    node and depot ranks, so ties fall to the smaller path, then the smaller
    depot, as the shared tie-break has it. A set the reachability check refuses
    (a node no depot reaches, or one cut from the set's first node) gets None.
    """
    depots = sorted(depots, key=node_key)
    todo = sorted(required, key=node_key)

    def arc(u, v):
        mm = int(cg.dist_mm[cg.index(u), cg.index(v)])
        return None if mm < 0 else mm if positive else 0

    if any(arc(todo[0], i) is None or all(arc(d, i) is None for d in depots)
           for i in todo):
        return None
    n = len(todo)
    states = {}  # mask -> {last: (cost, path, depot_start)}
    for i, node in enumerate(todo):
        for r, d in enumerate(depots):
            c = arc(d, node)
            if c is not None:
                cand = (c, (i,), r)
                held = states.setdefault(1 << i, {})
                if i not in held or cand < held[i]:
                    held[i] = cand
    for mask in range(1, (1 << n) - 1):  # every mask grows into larger ones
        for last, (cost, path, r) in states.get(mask, {}).items():
            for j in range(n):
                c = arc(todo[last], todo[j])
                if not mask >> j & 1 and c is not None:
                    cand = (cost + c, path + (j,), r)
                    held = states.setdefault(mask | 1 << j, {})
                    if j not in held or cand < held[j]:
                        held[j] = cand
    best = None
    for last, (cost, path, r) in states.get((1 << n) - 1, {}).items():
        for s, d in enumerate(depots):
            c = arc(todo[last], d)
            if c is not None and (best is None or (cost + c, path, r, s) < best):
                best = (cost + c, path, r, s)
    if best is None:
        return None
    _, path, r, s = best
    return depots[r], depots[s], tuple(todo[i] for i in path)


class TestHeldKarpKernel:
    """The backward pass keeps a running minimum over the next node."""

    def test_equals_broadcast_reference_entry_for_entry(self):
        # n = 1..10, then 13 and the cap once each; 1-3 depots, cut pairs (inf
        # arcs), tie-heavy arcs and rate 0. Mask 0 is never read, so the
        # comparison starts at mask 1
        rnd = random.Random(53)
        for trial, n in enumerate([*(t % 10 + 1 for t in range(90)), 13, SOLVE_NODE_CAP]):
            depots = ["d0", "d1", "d2"][:rnd.randint(1, 3)]
            nodes = [f"n{i}" for i in range(n)]
            cg = _tie_heavy_complete(rnd, depots, nodes, rnd.choice((0.0, 0.1, 0.3)))
            inst = RoutingInstance(cg, {}, frozenset(depots), damaged=frozenset(nodes))
            for positive in (True, False):
                got = routing._HeldKarp(inst, positive, nodes).g
                want = _broadcast_table(inst, positive, nodes)
                assert np.array_equal(got[1:], want[1:]), (trial, positive)

    def test_orders_equal_the_integer_oracle(self):
        # unions of 1 to 11 nodes, 1-3 depots, cut pairs, tie-heavy arcs and
        # rate 0: the union's table and each set's own answer every set as the
        # integer forward pass does
        rnd = random.Random(59)
        compared = past_brute = 0
        for trial in range(66):
            n = trial % 11 + 1
            depots = rnd.sample(["d0", "d1", 7], rnd.randint(1, 3))
            nodes = [f"n{i}" if i % 2 else i * 10 for i in range(n)]
            cg = _tie_heavy_complete(rnd, depots, nodes, rnd.choice((0.0, 0.0, 0.1)))
            inst = RoutingInstance(cg, {}, frozenset(depots), damaged=frozenset(nodes))
            positive = trial % 4 != 3
            union = routing._HeldKarp(inst, positive, nodes)
            queries = [frozenset(nodes)]
            queries += [frozenset(rnd.sample(nodes, rnd.randint(1, n))) for _ in range(2)]
            for required in queries:
                want = _integer_held_karp(cg, depots, required, positive)
                assert union.order(required) == want, (trial, positive)
                own = routing._HeldKarp(inst, positive, sorted(required, key=node_key))
                assert own.order(required) == want, (trial, positive)
                compared += 1
                past_brute += want is not None and len(required) > BRUTE_NODE_CAP
        assert compared == 198 and past_brute == 16

    def test_peak_memory_at_the_cap_tracks_the_table(self, rng):
        # the table g is 2**n x n float64; a cold pass adds only its largest
        # layer's (last, masks) arrays on top, where a (masks, last, next) block
        # would take ~4.5x g
        n = SOLVE_NODE_CAP
        nodes = [f"n{i:02d}" for i in range(n)]
        cg = random_metric_complete(rng, ["d0", "d1", *nodes])
        inst = RoutingInstance(cg, {}, frozenset(["d0", "d1"]), damaged=frozenset(nodes))
        tracemalloc.start()
        try:
            routing._HeldKarp(inst, True, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (n << n) * 8, peak / ((n << n) * 8)

    def test_a_dropped_table_leaves_no_memory_behind(self, rng):
        # a table over 14 nodes holds 1.8 MB; once it is dropped, nothing the
        # pass built for it may stay with the process
        nodes = [f"n{i:02d}" for i in range(14)]
        cg = random_metric_complete(rng, ["d0", *nodes])
        inst = RoutingInstance(cg, {}, frozenset(["d0"]), damaged=frozenset(nodes))
        routing._HeldKarp(inst, True, nodes[:3])  # first-call state of numpy and routing
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            routing._HeldKarp(inst, True, nodes)  # dropped at once
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert left <= 16 << 10, left


def _tampered_route(rnd, crew, required, depots, damaged):
    """A valid route over ``required`` with up to three random faults: a stop
    dropped, repeated, added or moved, a damaged endpoint, or a label dropped,
    negated or changed."""
    order = rnd.sample(sorted(required, key=node_key), len(required))
    ends = [rnd.choice(depots), rnd.choice(depots)]
    labels = {node: pos for pos, node in enumerate(order, start=1)}
    for _ in range(rnd.choice((0, 0, 0, 0, 0, 1, 2, 3))):
        fault = rnd.randrange(8)
        if fault == 0 and order:
            del order[rnd.randrange(len(order))]
        elif fault == 1 and order:
            order.insert(rnd.randrange(len(order) + 1), rnd.choice(order))
        elif fault == 2:
            order.insert(rnd.randrange(len(order) + 1), rnd.choice(damaged))
        elif fault == 3 and order:
            order.insert(rnd.randrange(len(order) + 1), order.pop(rnd.randrange(len(order))))
        elif fault == 4:
            ends[rnd.randrange(2)] = rnd.choice(damaged)
        elif fault == 5 and labels:
            del labels[rnd.choice(list(labels))]
        elif fault == 6 and labels:
            labels[rnd.choice(list(labels))] = rnd.randint(-3, 8)
        elif fault == 7:
            labels[rnd.choice(damaged)] = rnd.randint(-1, 8)
    legs = (1.0,) * (len(order) + 1)
    return Route(crew, ends[0], ends[1], tuple(order), legs, legs, float(len(legs)), labels)


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
        # the route closes the cycle a -> b -> a among damaged nodes and never reaches c
        bad = Route(0, "d", "d", ("a", "b", "a"), (1.0,) * 4, (1.0,) * 4, 4.0,
                    {"a": 1, "b": 2})
        report = validate_routes(RoutePlan(0, {0: bad}), inst)
        assert report.violations["mtz"], "cycle among damaged nodes must be an ordering failure"

    def test_stray_stop_flagged(self):
        # x is a terminal but neither damaged, required nor a depot
        inst = _instance({("d", "a"): 1.0, ("d", "x"): 1.0, ("a", "x"): 1.0},
                         ["d"], {0: frozenset(["a"])})
        assert "x" not in inst.damaged
        stray = Route(0, "d", "d", ("a", "x"), (1.0,) * 3, (1.0,) * 3, 3.0,
                      {"a": 1, "x": 2})
        report = validate_routes(RoutePlan(0, {0: stray}), inst)
        assert report.violations["visit_once"] == ("crew 0: node 'x' visited but not required",)

    def test_decreasing_labels_fail(self):
        inst = _instance({("d", "a"): 1.0, ("d", "b"): 1.0, ("a", "b"): 1.0},
                         ["d"], {0: frozenset(["a", "b"])})
        bad = Route(0, "d", "d", ("a", "b"), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 3.0,
                    {"a": 2, "b": 1})
        report = validate_routes(RoutePlan(0, {0: bad}), inst)
        assert report.violations["mtz"]

    def test_reports_equal_the_arc_checker(self):
        # random valid and tampered routes whose stops are depots or damaged nodes,
        # int and str ids mixed: the same report, family by family, message by message
        rnd = random.Random(2025)
        routes = passed = 0
        seen = set()
        for _ in range(250):
            pool = rnd.sample([*range(20), *(f"n{i}" for i in range(20))], 9)
            n_depots = rnd.randint(1, 3)
            depots, damaged = pool[:n_depots], pool[n_depots:n_depots + rnd.randint(1, 6)]
            terminals = depots + damaged
            cg = CompleteGraph.from_distances(terminals, 1.0 - np.eye(len(terminals)))
            crews = rnd.sample(range(4), rnd.randint(1, 4))
            required = {k: frozenset(rnd.sample(damaged, rnd.randint(1, len(damaged)))
                                     if rnd.random() < 0.9 else ()) for k in crews}
            inst = RoutingInstance(cg, required, frozenset(depots),
                                   damaged=frozenset(damaged))
            for _ in range(10):
                extra = [rnd.randrange(5)] if rnd.random() < 0.1 else []  # maybe unknown
                plan = RoutePlan(0, {k: _tampered_route(rnd, k, required.get(k, ()),
                                                        depots, damaged)
                                     for k in {*crews, *extra} if rnd.random() < 0.95})
                report = validate_routes(plan, inst)
                assert report == reference_validate_routes(plan, inst), plan
                routes += len(plan.routes)
                passed += report.passed
                seen.update(fam for fam, v in report.violations.items() if v)
        assert routes >= 2000 and 500 <= passed <= 2000, (routes, passed)
        assert seen == set(routing.FAMILIES)

    def test_checked_map_changes_no_report(self, monkeypatch):
        # routes met again under other damaged sets, among them stray stops that are
        # damaged in one instance and not in the next: with one map shared by every
        # call, each report equals the one found without it
        rnd = random.Random(2026)
        checked, calls = {}, []
        findings = routing._route_findings

        def counting(*args):
            calls.append(args[0])
            return findings(*args)

        monkeypatch.setattr(routing, "_route_findings", counting)
        reused = 0
        for _ in range(60):
            pool = rnd.sample([*range(12), *(f"n{i}" for i in range(12))], 10)
            depots, nodes = pool[:2], pool[2:]
            terminals = depots + nodes
            cg = CompleteGraph.from_distances(terminals, 1.0 - np.eye(len(terminals)))
            required = {k: frozenset(rnd.sample(nodes[:4], rnd.randint(0, 3)))
                        for k in range(3)}
            routes = [_tampered_route(rnd, k, required[k], depots, nodes)
                      for k in range(3) for _ in range(3)]
            for _ in range(8):
                damaged = frozenset(nodes[:4]).union(rnd.sample(nodes[4:], rnd.randint(0, 4)))
                inst = RoutingInstance(cg, required, frozenset(depots), damaged=damaged)
                plan = RoutePlan(0, {r.crew: r for r in rnd.sample(routes, 4)})
                calls.clear()
                report = validate_routes(plan, inst, checked=checked)
                reused += len(plan.routes) - len(calls)
                assert report == validate_routes(plan, inst)
        assert reused > 0 and checked

    def test_report_never_raises(self):
        inst = _instance({("d", "a"): 1.0}, ["d"], {0: frozenset(["a"])})
        weird = Route(3, "x", "y", ("q",), (), (), 0.0, {})
        report = validate_routes(RoutePlan(0, {3: weird}), inst)
        assert not report.passed

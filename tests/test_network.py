"""Road graph construction, projection, failures, and metric closure."""

import heapq
import itertools
import logging
import math
import random

import numpy as np
import pytest

from gridrestore import (
    CompleteGraph,
    CoupledNetwork,
    PowerNode,
    RoadGraph,
    apply_road_failures,
    build_coupled_network,
    load_road_network,
    project_power_nodes,
    shortest_path_matrix,
)
from gridrestore.errors import (
    DanglingEdgeError,
    EmptyRoadGraphError,
    NonPositiveLengthError,
    UnknownTerminalError,
)
from gridrestore.geo import haversine_m
from gridrestore.network import edge_key, is_int, is_number, node_key, require_finite

from conftest import floyd_warshall_oracle, random_road_graph

NODES3 = [("a", 32.0, -97.0), ("b", 32.01, -97.0), ("c", 32.02, -97.0)]


def reference_dijkstra_mm(road, source):
    """Id-keyed Dijkstra that settles every reachable node: the reference the
    index-based, early-stopping closure must reproduce exactly."""
    dist = {source: 0}
    pred = {}
    counter = itertools.count()
    heap = [(0, next(counter), source)]
    done = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in road.neighbors(u):
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, next(counter), v))
    return dist, pred


class TestLoadRoadNetwork:
    def test_direct_construction(self):
        g = load_road_network(NODES3, [("a", "b", 100.0), ("b", "c", 200.0)])
        assert g.n_nodes == 3
        assert g.n_edges == 2

    def test_duplicate_edges_collapse_to_minimum(self):
        g = load_road_network(NODES3, [("a", "b", 100.0), ("a", "b", 80.0), ("b", "a", 90.0)])
        assert g.n_edges == 1
        assert g.edge_length_m("a", "b") == 0.080 * 1000

    def test_dangling_edge(self):
        with pytest.raises(DanglingEdgeError, match="z"):
            load_road_network(NODES3, [("a", "z", 50.0)])

    def test_non_positive_length(self):
        with pytest.raises(NonPositiveLengthError):
            load_road_network(NODES3, [("a", "b", 0.0)])
        with pytest.raises(NonPositiveLengthError):
            load_road_network(NODES3, [("a", "b", -5.0)])

    def test_duplicate_node_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            load_road_network(NODES3 + [("a", 33.0, -96.0)], [])

    def test_non_finite_values_named(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="node 'b': lat must be finite"):
                RoadGraph((NODES3[0], ("b", bad, -97.0)), ())
            with pytest.raises(ValueError, match="node 'b': lon must be finite"):
                RoadGraph((NODES3[0], ("b", 32.01, bad)), ())
            with pytest.raises(NonPositiveLengthError, match="length_m must be finite"):
                load_road_network(NODES3, [("a", "b", bad)])

    def test_coordinate_that_is_not_a_number_named(self):
        for bad in (True, "32.0", None):
            with pytest.raises(ValueError, match="node 'b': lat must be a number"):
                RoadGraph((NODES3[0], ("b", bad, -97.0)), ())
            with pytest.raises(ValueError, match="node 'b': lon must be a number"):
                RoadGraph((NODES3[0], ("b", 32.01, bad)), ())
        g = RoadGraph((NODES3[0], ("b", 32, np.float64(-97.0))), ())
        assert g.coord("b") == (32.0, -97.0) and type(g.coord("b")[0]) is float

    def test_lengths_quantized_to_millimeters(self):
        g = load_road_network(NODES3, [("a", "b", 123.4567)])
        assert g.edge_length_m("a", "b") == 123.457

    def test_neighbors_in_node_key_order(self):
        # int and str ids, every pair listed in a random orientation and order
        rnd = random.Random(5)
        ids = list(range(12)) + [f"n{i}" for i in range(12)]
        nodes = [(n, 32.0, -97.0) for n in ids]
        edges = []
        for u, v in itertools.combinations(ids, 2):
            if rnd.random() < 0.4:
                pair = [u, v]
                rnd.shuffle(pair)
                edges.append((*pair, rnd.uniform(1.0, 500.0)))
        rnd.shuffle(edges)
        g = load_road_network(nodes, edges)
        for n in ids:
            nbrs = [v for v, _ in g.neighbors(n)]
            assert nbrs == sorted(nbrs, key=node_key), n
            assert set(nbrs) == {b if a == n else a for a, b, _ in edges if n in (a, b)}, n


class TestProjection:
    def test_identity_snap(self):
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        p = PowerNode("bus1", -97.0, 32.01, 10.0, "transformer")
        mapping = project_power_nodes([p], 0.0, 0.0, road)
        assert mapping == {"bus1": "b"}

    def test_offsets_translate_local_frame(self):
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        p = PowerNode("bus1", 0.5, 0.52, 10.0, "line")
        mapping = project_power_nodes([p], -97.5, 31.5, road)
        assert mapping == {"bus1": "c"}

    def test_tie_breaks_to_smallest_node_id(self):
        # two road nodes at the same coordinates: exact distance tie
        road = load_road_network(
            [("x2", 32.0, -97.0), ("x1", 32.0, -97.0), ("far", 35.0, -90.0)],
            [("x1", "x2", 1.0)],
        )
        p = PowerNode("bus1", -97.001, 32.0, 0.0, "switch")
        assert project_power_nodes([p], 0.0, 0.0, road) == {"bus1": "x1"}

    def test_empty_road_graph(self):
        road = load_road_network([], [])
        with pytest.raises(EmptyRoadGraphError):
            project_power_nodes([PowerNode("b", 0, 0, 0, "line")], 0, 0, road)

    def test_matches_brute_force_nearest_neighbor(self, rng):
        road = random_road_graph(rng, 40, 20)
        power = [
            PowerNode(f"bus{i}", float(rng.uniform(-97.5, -96.5)),
                      float(rng.uniform(31.5, 32.5)), 1.0, "line")
            for i in range(5)
        ]
        mapping = project_power_nodes(power, 0.0, 0.0, road)
        for p in power:
            best = min(
                road.nodes,
                key=lambda row: (haversine_m(p.local_y, p.local_x, row[1], row[2]), str(row[0])),
            )
            assert mapping[p.bus_id] == best[0]

    def test_projection_idempotent(self, rng):
        road = random_road_graph(rng, 30, 10)
        power = [
            PowerNode(f"bus{i}", float(rng.uniform(-97.5, -96.5)),
                      float(rng.uniform(31.5, 32.5)), 1.0, "line")
            for i in range(8)
        ]
        first = project_power_nodes(power, 0.0, 0.0, road)
        snapped = [
            PowerNode(p.bus_id, road.coord(first[p.bus_id])[1],
                      road.coord(first[p.bus_id])[0], 1.0, "line")
            for p in power
        ]
        second = project_power_nodes(snapped, 0.0, 0.0, road)
        assert first == second

    def test_power_node_validation(self):
        with pytest.raises(ValueError):
            PowerNode("b", 0, 0, -1.0, "line")
        with pytest.raises(ValueError):
            PowerNode("b", 0, 0, 1.0, "generator")
        for bad in (math.inf, -math.inf, math.nan):
            for field, args in (("local_x", (bad, 0, 1.0)), ("local_y", (0, bad, 1.0)),
                                ("downstream_load_kw", (0, 0, bad))):
                with pytest.raises(ValueError, match=f"bus 'b': {field} must be finite"):
                    PowerNode("b", *args, "line")


class TestRoadFailures:
    def test_empty_failure_set_is_identity(self):
        g = load_road_network(NODES3, [("a", "b", 100.0), ("b", "c", 200.0)])
        assert apply_road_failures(g, []) == g
        assert apply_road_failures(g, [("c", "a")]) is g  # matches no edge

    def test_failing_only_path_disconnects(self):
        g = load_road_network(NODES3, [("a", "b", 100.0), ("b", "c", 200.0)])
        g2 = apply_road_failures(g, [("b", "a")])
        cg = shortest_path_matrix(g2, ["a", "b"])
        assert not cg.is_reachable("a", "b")
        assert math.isinf(cg.dist_m("a", "b"))

    def test_ring_reroutes_the_long_way(self):
        ids = ["a", "b", "c", "d", "e"]
        nodes = [(i, 32.0, -97.0 + 0.001 * n) for n, i in enumerate(ids)]
        lengths = {("a", "b"): 10.0, ("b", "c"): 20.0, ("c", "d"): 30.0,
                   ("d", "e"): 40.0, ("e", "a"): 50.0}
        g = load_road_network(nodes, [(u, v, m) for (u, v), m in lengths.items()])
        cg = shortest_path_matrix(g, ["a", "c"])
        assert cg.dist_m("a", "c") == 30.0  # a-b-c
        g2 = apply_road_failures(g, [("a", "b"), ("b", "c")])
        cg2 = shortest_path_matrix(g2, ["a", "c"])
        assert cg2.dist_m("a", "c") == 50.0 + 40.0 + 30.0  # a-e-d-c

    def test_unknown_pairs_warn_but_pass(self, caplog):
        g = load_road_network(NODES3, [("a", "b", 100.0)])
        with caplog.at_level(logging.WARNING, logger="gridrestore.network"):
            g2 = apply_road_failures(g, [("a", "c"), ("b", "a")])
        assert g2.n_edges == 0
        assert "1 failure pair(s)" in caplog.text

    def test_input_graph_untouched(self):
        g = load_road_network(NODES3, [("a", "b", 100.0)])
        apply_road_failures(g, [("a", "b")])
        assert g.n_edges == 1

    def test_derived_graph_equals_rebuild(self, caplog):
        # int ids, a string id (node_key orders it last), a self-loop and a
        # parallel edge: the derived graph must match a from-scratch rebuild
        # in every table and in every Dijkstra result, predecessors included
        rnd = random.Random(11)
        n = 4
        nodes = [(r * n + c, 32.0 + 0.001 * r, -97.0 + 0.001 * c)
                 for r in range(n) for c in range(n)] + [("hub", 32.0, -96.99)]
        edges = [(r * n + c, r * n + c + 1, rnd.choice((90.0, 100.0, 110.0)))
                 for r in range(n) for c in range(n - 1)]
        edges += [(r * n + c, (r + 1) * n + c, rnd.choice((90.0, 100.0, 110.0)))
                  for r in range(n - 1) for c in range(n)]
        edges += [("hub", 0, 150.0), (15, "hub", 150.0), (5, 5, 10.0), (6, 5, 80.0)]
        g = load_road_network(nodes, edges)
        before = (g._adj, dict(g._edge_mm), g.edges)
        terminals = [0, 3, 12, 15, "hub"]
        unknown = [(0, 15), ("ghost", 0), (3, 12)]
        for _ in range(60):
            pairs = [(u, v) if rnd.random() < 0.5 else (v, u)
                     for u, v, _ in g.edges if rnd.random() < 0.3]
            pairs += rnd.sample(unknown, rnd.randint(0, len(unknown)))
            failed = {edge_key(u, v) for u, v in pairs}
            with caplog.at_level(logging.WARNING, logger="gridrestore.network"):
                caplog.clear()
                derived = apply_road_failures(g, pairs)
            ignored = len(failed.difference(g._edge_mm))
            assert (f"{ignored} failure pair(s)" in caplog.text) == (ignored > 0)
            rebuilt = RoadGraph(g.nodes, tuple(e for e in g.edges
                                               if edge_key(e[0], e[1]) not in failed))
            assert derived == rebuilt
            assert derived._adj == rebuilt._adj
            assert derived._edge_mm == rebuilt._edge_mm
            assert derived._coords == rebuilt._coords
            a = shortest_path_matrix(derived, terminals)
            b = shortest_path_matrix(rebuilt, terminals)
            assert np.array_equal(a.dist_mm, b.dist_mm)
            assert np.array_equal(a.reachable, b.reachable)
            assert a.preds == b.preds
        assert (g._adj, g._edge_mm, g.edges) == before

    def test_failures_never_shorten_paths(self, rng):
        for _ in range(25):
            g = random_road_graph(rng, 12, 8)
            terms = [n for n, _, _ in g.nodes][:4]
            before = shortest_path_matrix(g, terms)
            kill = [
                (u, v) for u, v, _ in g.edges if rng.random() < 0.3
            ]
            after = shortest_path_matrix(apply_road_failures(g, kill), terms)
            assert np.all(after.dist >= before.dist - 0.0)


class TestShortestPathMatrix:
    def test_line_graph(self):
        g = load_road_network(NODES3, [("a", "b", 100.0), ("b", "c", 200.0)])
        cg = shortest_path_matrix(g, ["a", "c"])
        assert cg.dist_m("a", "c") == 300.0

    def test_self_distance_zero(self):
        g = load_road_network(NODES3, [("a", "b", 100.0)])
        cg = shortest_path_matrix(g, ["a", "b", "c"])
        for t in ("a", "b", "c"):
            assert cg.dist_m(t, t) == 0.0

    def test_unknown_terminal(self):
        g = load_road_network(NODES3, [("a", "b", 100.0)])
        with pytest.raises(UnknownTerminalError):
            shortest_path_matrix(g, ["a", "zz"])

    def test_matches_all_pairs_oracle(self, rng):
        g = random_road_graph(rng, 30, 25)
        ids = [n for n, _, _ in g.nodes]
        terms = [ids[int(i)] for i in rng.choice(len(ids), size=6, replace=False)]
        cg = shortest_path_matrix(g, terms)
        oracle_mm = floyd_warshall_oracle(g, terms)
        got_mm = np.where(cg.reachable, cg.dist_mm.astype(float), np.inf)
        assert np.array_equal(got_mm, oracle_mm)

    def test_metric_closure_triangle_inequality(self, rng):
        for _ in range(10):
            g = random_road_graph(rng, 15, 10)
            ids = [n for n, _, _ in g.nodes]
            cg = shortest_path_matrix(g, ids[:6])
            d = cg.dist_mm
            n = len(cg.terminals)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert d[i, j] <= d[i, k] + d[k, j]

    def test_symmetry_exact(self, rng):
        g = random_road_graph(rng, 25, 20)
        ids = [n for n, _, _ in g.nodes]
        cg = shortest_path_matrix(g, ids[:8])
        assert np.array_equal(cg.dist_mm, cg.dist_mm.T)

    def test_equals_full_settle_reference(self):
        # tie-heavy 1-2 m lengths, int and str ids, self-loops, parallel edges,
        # isolated nodes and graphs derived by failures: every distance,
        # reachability flag and terminal-pair road path equals the reference's
        rnd = random.Random(23)
        for trial in range(40):
            ids = rnd.sample(range(60), rnd.randint(2, 14))
            ids += [f"s{i}" for i in range(rnd.randint(0, 10))]
            nodes = [(n, 32.0, -97.0) for n in ids]
            edges = [(rnd.choice(ids), rnd.choice(ids), rnd.choice((1.0, 1.5, 2.0)))
                     for _ in range(rnd.randint(0, 3 * len(ids)))]
            g = load_road_network(nodes, [e for e in edges if e[0] != e[1] or rnd.random() < 0.5])
            graphs = [g] + [apply_road_failures(g, [e[:2] for e in g.edges if rnd.random() < 0.3])
                            for _ in range(3)]
            terminals = rnd.sample(ids, rnd.randint(1, min(len(ids), 6)))
            for road in graphs:
                cg = shortest_path_matrix(road, terminals)
                for i, t in enumerate(terminals):
                    dist, pred = reference_dijkstra_mm(road, t)
                    for j, u in enumerate(terminals):
                        assert cg.reachable[i, j] == (u in dist), (trial, t, u)
                        assert cg.dist_mm[i, j] == dist.get(u, -1), (trial, t, u)
                        want = None
                        if u in dist:
                            want = [u]
                            while want[-1] != t:
                                want.append(pred[want[-1]])
                            want = tuple(reversed(want))
                        assert cg.path(t, u) == want, (trial, t, u)

    def test_path_reconstruction(self):
        g = load_road_network(NODES3, [("a", "b", 100.0), ("b", "c", 200.0)])
        cg = shortest_path_matrix(g, ["a", "c"])
        assert cg.path("a", "c") == ("a", "b", "c")
        assert cg.path("a", "a") == ("a",)
        # reconstructed path length adds up to the matrix entry
        path = cg.path("a", "c")
        total = sum(g.edge_length_m(u, v) for u, v in zip(path, path[1:]))
        assert total == cg.dist_m("a", "c")


class TestCompleteGraphType:
    def test_from_distances_roundtrip(self):
        m = [[0.0, 12.5], [12.5, 0.0]]
        cg = CompleteGraph.from_distances(["x", "y"], m)
        assert cg.dist_m("x", "y") == 12.5
        assert cg.path("x", "y") is None  # no predecessor data

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CompleteGraph.from_distances(["x", "y"], [[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            CompleteGraph.from_distances(["x", "y"], [[1.0, 1.0], [1.0, 0.0]])

    def test_unreachable_marked(self):
        m = [[0.0, np.inf], [np.inf, 0.0]]
        cg = CompleteGraph.from_distances(["x", "y"], m)
        assert not cg.is_reachable("x", "y")
        assert math.isinf(cg.dist_m("x", "y"))


class TestCoupledNetwork:
    def test_depot_damaged_overlap_rejected(self):
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        with pytest.raises(ValueError, match="overlap"):
            CoupledNetwork(road, {}, frozenset(["a"]), frozenset(["a"]))

    def test_unknown_depot_named(self):
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        with pytest.raises(ValueError, match="'zz'"):
            CoupledNetwork(road, {}, frozenset(["zz"]), frozenset())

    def test_build_aggregates_loads_per_road_node(self):
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        power = [
            PowerNode("b1", -97.0, 32.0, 10.0, "line"),
            PowerNode("b2", -97.0, 32.0, 5.0, "switch"),
            PowerNode("b3", -97.0, 32.02, 2.0, "transformer"),
        ]
        net = build_coupled_network(road, power, 0.0, 0.0, ["b"])
        assert net.loads_kw == {"a": 15.0, "c": 2.0}
        assert net.power_to_road == {"b1": "a", "b2": "a", "b3": "c"}

    def test_terminals_sorted(self):
        road = load_road_network(NODES3, [("a", "b", 100.0), ("b", "c", 200.0)])
        net = CoupledNetwork(road, {}, frozenset(["c"]), frozenset(["a"]))
        assert net.terminals() == ("a", "c")


class TestNumberRule:
    """A number is an int or a float, never a bool; an integer is an int, never a bool."""

    def test_predicates(self):
        ints = (0, -3, 2**80)
        numbers = (1.5, -0.0, math.inf, math.nan, np.float64(2.5), np.int64(3), 2**80)
        neither = (True, False, np.bool_(True), "1", "1.5", None, [], {}, 1j)
        assert all(is_int(v) for v in ints)
        assert not any(is_int(v) for v in (1.0, np.int64(3), *neither))
        assert all(is_number(v) for v in ints + numbers)
        assert not any(is_number(v) for v in neither)

    def test_require_finite(self):
        assert require_finite(3, "x") == 3.0 and type(require_finite(3, "x")) is float
        for bad in (True, "1.5", None, [1.0]):
            with pytest.raises(ValueError, match=r"^x must be a number, got "):
                require_finite(bad, "x")
        for bad in (math.inf, math.nan, "inf", "nan"):
            with pytest.raises(ValueError, match=r"^x must be finite, got "):
                require_finite(bad, "x")

"""Road graph construction, projection, failures, and metric closure."""

import gc
import heapq
import itertools
import logging
import math
import random
import re
import sys
import weakref

import numpy as np
import pytest

from gridrestore import (
    CompleteGraph,
    CoupledNetwork,
    PowerNode,
    RoadGraph,
    Route,
    Scenario,
    ScenarioSet,
    apply_road_failures,
    build_coupled_network,
    load_road_network,
    project_power_nodes,
    shortest_path_matrix,
)
from gridrestore import network
from gridrestore.errors import (
    DanglingEdgeError,
    EmptyRoadGraphError,
    NonPositiveLengthError,
    UnknownTerminalError,
)
from gridrestore.geo import haversine_m
from gridrestore.network import (
    _bound_lists,
    _search,
    edge_key,
    is_finite_number,
    is_int,
    is_node_id,
    is_number,
    node_key,
    require_finite,
)

from conftest import floyd_warshall_oracle, random_road_graph

NODES3 = [("a", 32.0, -97.0), ("b", 32.01, -97.0), ("c", 32.02, -97.0)]


def reference_distances_mm(road, source):
    """Id-keyed Dijkstra that settles every reachable node: the distances the
    goal-directed closure must reproduce exactly."""
    dist = {source: 0}
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
                heapq.heappush(heap, (nd, next(counter), v))
    return dist


def reference_distances_list(road, source):
    """``reference_distances_mm`` by position, -1 where unreached: a bound list."""
    dist = reference_distances_mm(road, road.nodes[source][0])
    return [dist.get(n, -1) for n, _, _ in road.nodes]


def first_listed_path(road, refs, terminals, t, u):
    """The rule ``CompleteGraph.path`` follows, over the reference distances of
    whichever of t and u is listed first: walk back from the other one, stepping
    at each node to the tied neighbour nearest the first-listed terminal and,
    among equally near ones, to the smallest node_key; read from t to u."""
    first, later = (t, u) if terminals.index(t) <= terminals.index(u) else (u, t)
    dist = refs[first]
    if later not in dist:
        return None
    seq = [later]
    while seq[-1] != first:
        x = seq[-1]
        tied = [w for w, mm in road.neighbors(x) if w in dist and dist[w] + mm == dist[x]]
        seq.append(min(tied, key=lambda w: (dist[w], node_key(w))))
    return tuple(seq) if first == u else tuple(reversed(seq))


def tie_heavy_graphs(seed, trials):
    """(graphs, ids, rnd) per trial: 1-2 m lengths, int and str ids, self-loops,
    parallel edges, isolated nodes, and three graphs derived by failures;
    ``rnd`` is the generator the caller draws its terminals from."""
    rnd = random.Random(seed)
    for _ in range(trials):
        ids = rnd.sample(range(60), rnd.randint(2, 14))
        ids += [f"s{i}" for i in range(rnd.randint(0, 10))]
        nodes = [(n, 32.0, -97.0) for n in ids]
        edges = [(rnd.choice(ids), rnd.choice(ids), rnd.choice((1.0, 1.5, 2.0)))
                 for _ in range(rnd.randint(0, 3 * len(ids)))]
        g = load_road_network(nodes, [e for e in edges if e[0] != e[1] or rnd.random() < 0.5])
        graphs = [g] + [apply_road_failures(g, [e[:2] for e in g.edges if rnd.random() < 0.3])
                        for _ in range(3)]
        yield graphs, ids, rnd


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

    def test_latitude_outside_the_poles_named(self):
        for bad in (90.000001, -90.5, 120, 1e300):
            with pytest.raises(ValueError) as raised:
                RoadGraph((NODES3[0], ("b", bad, -97.0)), ())
            assert str(raised.value) == f"node 'b': lat must be in [-90, 90], got {bad!r}"
        # the poles themselves, and any finite longitude, are accepted
        road = RoadGraph((("n", 90.0, 540.0), ("s", -90, -1e6)), ())
        assert road.coord("n") == (90.0, 540.0) and road.coord("s") == (-90, -1e6)

    def test_coordinate_that_is_not_a_number_named(self):
        for bad in (True, "32.0", None):
            with pytest.raises(ValueError, match="node 'b': lat must be a number"):
                RoadGraph((NODES3[0], ("b", bad, -97.0)), ())
            with pytest.raises(ValueError, match="node 'b': lon must be a number"):
                RoadGraph((NODES3[0], ("b", 32.01, bad)), ())
        g = RoadGraph((NODES3[0], ("b", 32, np.float64(-97.0))), ())
        assert g.coord("b") == (32.0, -97.0) and type(g.coord("b")[0]) is float

    def test_length_that_is_not_a_number_named(self):
        # the coordinates' rule: float() would read True as 1 m and " 1_0 " as 10 m
        for bad in (True, " 1_0 ", "10", None):
            with pytest.raises(NonPositiveLengthError,
                               match=r"edge \('a', 'b'\): length_m must be a number, got "):
                RoadGraph(NODES3, (("a", "b", bad),))
        with pytest.raises(NonPositiveLengthError, match="length_m must be finite"):
            RoadGraph(NODES3, (("a", "b", 10**400),))
        for length in (10, np.float64(10.0), np.int64(10)):
            assert RoadGraph(NODES3, (("a", "b", length),)).edge_length_m("a", "b") == 10.0

    def test_lengths_past_int64_millimeters_refused(self):
        # one edge past the cap (1e308 m overflows even as a float in mm), or
        # edges that each fit but add up past it: every path must fit int64 mm
        for length in (1e16, 1e308):
            with pytest.raises(NonPositiveLengthError, match="length_m must be at most"):
                load_road_network(NODES3, [("a", "b", length)])
        with pytest.raises(NonPositiveLengthError, match="add up to more than"):
            load_road_network(NODES3, [("a", "b", 5e15), ("b", "c", 5e15)])
        with pytest.raises(NonPositiveLengthError, match="non-positive length"):
            load_road_network(NODES3, [("a", "b", -1e308)])
        g = load_road_network(NODES3, [("a", "b", 4e15), ("b", "c", 4e15)])
        assert shortest_path_matrix(g, ["a", "c"]).dist_mm[0, 1] == 8 * 10**18

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

    @pytest.mark.parametrize("local_y, offset_y", [(135.0, 0.0), (-60.0, -30.5),
                                                   (1.5e308, 1e308)],
                             ids=["past-north-pole", "past-south-pole", "sum-not-finite"])
    def test_latitude_past_a_pole_names_the_bus(self, local_y, offset_y):
        # bus0 lies at latitude 32 - offset_y + offset_y, inside the range
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        power = [PowerNode("bus0", -97.0, 32.0 - offset_y, 5.0, "line"),
                 PowerNode("bus1", -97.0, local_y, 5.0, "line")]
        with pytest.raises(ValueError, match=r"^bus 'bus1': local_y \+ offset_y must be "):
            project_power_nodes(power, 0.0, offset_y, road)
        with pytest.raises(ValueError, match=r"^bus 'bus1': local_y \+ offset_y must be "):
            build_coupled_network(road, power, 0.0, offset_y, ["a"])

    def test_latitude_at_the_poles_snaps(self):
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        power = [PowerNode("n", -97.0, 90.0, 5.0, "line"),
                 PowerNode("s", -97.0, -90.0, 5.0, "line")]
        assert project_power_nodes(power, 0.0, 0.0, road) == {"n": "c", "s": "a"}

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
        # in every table and in every closure result, road paths included
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
        before = (g._adj, g.edges)
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
            ignored = len(failed.difference(e[:2] for e in g.edges))
            assert (f"{ignored} failure pair(s)" in caplog.text) == (ignored > 0)
            rebuilt = RoadGraph(g.nodes, tuple(e for e in g.edges
                                               if edge_key(e[0], e[1]) not in failed))
            assert derived == rebuilt
            assert derived._adj == rebuilt._adj
            a = shortest_path_matrix(derived, terminals)
            b = shortest_path_matrix(rebuilt, terminals)
            assert np.array_equal(a.dist_mm, b.dist_mm)
            assert np.array_equal(a.reachable, b.reachable)
            for u, v in itertools.product(terminals, repeat=2):
                assert a.path(u, v) == b.path(u, v)
        assert (g._adj, g.edges) == before

    @pytest.mark.parametrize("ids", [
        [f"n{i}" for i in range(30)],
        list(range(-5, 25)),
        [i if i % 3 else f"n{i}" for i in range(30)] + ["5", "10"],
    ], ids=["str", "int", "mixed"])
    def test_derived_str_graph_equals_rebuild(self, ids):
        # one build path for every id type: self-loops, the first and last rows
        # of the table and runs of neighbouring rows fail, named either way round
        rnd = random.Random(13)
        g = load_road_network([(n, 32.0, -97.0) for n in ids],
                              [(rnd.choice(ids), rnd.choice(ids), rnd.uniform(1.0, 9.0))
                               for _ in range(90)])
        assert any(u == v for u, v, _ in g.edges)
        for _ in range(40):
            failed = [e[:2] for e in g.edges if rnd.random() < rnd.choice((0.05, 0.3, 0.9))]
            failed = set(failed + [g.edges[0][:2], g.edges[-1][:2]][:rnd.randint(0, 2)])
            derived = apply_road_failures(g, [(v, u) if rnd.random() < 0.5 else (u, v)
                                              for u, v in failed])
            rebuilt = RoadGraph(g.nodes, tuple(e for e in g.edges if e[:2] not in failed))
            assert derived == rebuilt and derived.edges == rebuilt.edges

    def test_derived_graph_with_int_and_str_ids_equals_rebuild(self, caplog):
        # ids that look alike (1 and "1") are distinct; a pair naming a node by an
        # equal value of another type (True for 1, 2.0 for 2) matches no edge
        nodes = [("1", 32.0, -97.0), (1, 32.1, -97.0), ("a", 32.2, -97.0),
                 (2, 32.3, -97.0), ("U", 32.4, -97.0), ("2", 32.5, -97.0)]
        edges = [(1, "a", 5.0), ("a", "1", 6.0), ("1", 1, 7.0),
                 (2, 1, 8.0), (2, "U", 9.0), ("2", 2, 4.0)]
        g = load_road_network(nodes, edges)
        for pairs, removed in (([("1", "a")], 1), ([("a", 1)], 1), ([(2, True)], 0),
                               ([(True, 2), ("U", 2)], 1), ([(True, "a"), (1, "a")], 1),
                               ([("1", "a"), (1, 2), ("1", 1), (2.0, "2"), ("2", 2)], 4)):
            failed = {edge_key(u, v) for u, v in pairs if type(u) in (int, str)
                      and type(v) in (int, str)}
            with caplog.at_level(logging.WARNING, logger="gridrestore.network"):
                caplog.clear()
                derived = apply_road_failures(g, pairs)
            assert ("match no edge" in caplog.text) == (removed < len(pairs))
            rebuilt = RoadGraph(g.nodes, tuple(e for e in g.edges if e[:2] not in failed))
            assert derived == rebuilt and derived.edges == rebuilt.edges
            assert derived.n_edges == g.n_edges - removed
            assert derived._adj == rebuilt._adj

    def test_either_pair_order_equals_rebuild_on_mixed_ids(self):
        # edge_key ignores the order of its arguments on every graph of int and
        # str ids, so a failure pair removes its edge named either way round
        rnd = random.Random(17)
        ids = [0, 1, 2, 10, -3, "0", "1", "2", "10", "-3", "a", "n2", "n10"]
        for _ in range(40):
            chosen = rnd.sample(ids, rnd.randint(2, len(ids)))
            g = load_road_network(
                [(n, 32.0 + rnd.random(), -97.0 + rnd.random()) for n in chosen],
                [(rnd.choice(chosen), rnd.choice(chosen), rnd.uniform(1.0, 9.0))
                 for _ in range(2 * len(chosen))])
            for u, v, _ in g.edges:
                assert edge_key(u, v) == edge_key(v, u) == (u, v)
                rebuilt = RoadGraph(g.nodes, tuple(e for e in g.edges if e[:2] != (u, v)))
                for pair in ((u, v), (v, u)):
                    derived = apply_road_failures(g, [pair])
                    assert derived == rebuilt and derived.edges == rebuilt.edges
                    assert derived._adj == rebuilt._adj

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
        # isolated nodes and graphs derived by failures: every distance and
        # reachability flag equals the reference's, and every terminal-pair road
        # path is the stated walk over the distances of the terminal listed
        # first, though the last-listed terminal keeps no distances of its own
        for graphs, ids, rnd in tie_heavy_graphs(23, 40):
            terminals = rnd.sample(ids, rnd.randint(1, min(len(ids), 6)))
            for road in graphs:
                cg = shortest_path_matrix(road, terminals)
                assert len(cg._dists) == len(terminals) - 1
                refs = {t: reference_distances_mm(road, t) for t in terminals}
                for (i, t), (j, u) in itertools.product(enumerate(terminals), repeat=2):
                    dist = refs[t]
                    assert cg.reachable[i, j] == (u in dist), (t, u)
                    assert cg.dist_mm[i, j] == dist.get(u, -1), (t, u)
                    assert cg.path(t, u) == first_listed_path(road, refs, terminals, t, u), (t, u)

    def test_terminal_order_changes_no_distance(self):
        # sorted, reversed and shuffled terminals: the same distances for every
        # pair, and under each order the paths of the first-listed rule, each a
        # shortest path and each the reverse of the path the other way
        for graphs, ids, rnd in tie_heavy_graphs(29, 30):
            terminals = sorted(rnd.sample(ids, rnd.randint(1, min(len(ids), 7))), key=node_key)
            shuffled = rnd.sample(terminals, len(terminals))
            for road in graphs:
                refs = {t: reference_distances_mm(road, t) for t in terminals}
                orders = (terminals, terminals[::-1], shuffled)
                cgs = [shortest_path_matrix(road, order) for order in orders]
                for t, u in itertools.product(terminals, repeat=2):
                    assert len({cg.dist_m(t, u) for cg in cgs}) == 1, (t, u)
                    for order, cg in zip(orders, cgs):
                        path = cg.path(t, u)
                        assert path == first_listed_path(road, refs, order, t, u), (t, u)
                        if path is not None:
                            assert path == cg.path(u, t)[::-1]
                            meters = sum(road.edge_length_m(a, b) for a, b in zip(path, path[1:]))
                            assert round(meters * 1000) == refs[t][u], (t, u)

    def test_paths_on_demand_equal_full_settle_reference(self):
        # legs asked in shuffled order, each several times: every path is the
        # stated walk over the first-listed terminal's reference distances,
        # however often it was asked
        for graphs, ids, rnd in tie_heavy_graphs(31, 30):
            terminals = rnd.sample(ids, rnd.randint(1, min(len(ids), 6)))
            for road in graphs:
                cg = shortest_path_matrix(road, terminals)
                refs = {t: reference_distances_mm(road, t) for t in terminals}
                pairs = list(itertools.product(terminals, repeat=2)) * 2
                rnd.shuffle(pairs)
                for t, u in pairs:
                    assert cg.path(t, u) == first_listed_path(road, refs, terminals, t, u), (t, u)

    def test_base_bounds_equal_own_bounds(self):
        # a closure of a derived graph is bounded by its base's distances, and a
        # rebuild of the same graph bounds itself: on random failure sets, some
        # of which cut every edge of a terminal, both equal the full-settle
        # reference in every distance, reachability flag and path
        cut = 0
        for graphs, ids, rnd in tie_heavy_graphs(37, 30):
            base = graphs[0]
            terminals = rnd.sample(ids, rnd.randint(2, min(len(ids), 7)))
            alone = [e[:2] for e in base.edges if terminals[-1] in e[:2]]
            for failed in ([e[:2] for e in base.edges if rnd.random() < 0.4], alone,
                           alone + [e[:2] for e in base.edges if rnd.random() < 0.2]):
                derived = apply_road_failures(base, failed)
                rebuilt = RoadGraph(derived.nodes, derived.edges)
                assert rebuilt._base is None and derived._base in (None, base)
                refs = {t: reference_distances_mm(derived, t) for t in terminals}
                a = shortest_path_matrix(derived, terminals)
                b = shortest_path_matrix(rebuilt, terminals)
                cut += not a.reachable.all()
                for cg in (a, b):
                    for (i, t), (j, u) in itertools.product(enumerate(terminals), repeat=2):
                        assert cg.dist_mm[i, j] == refs[t].get(u, -1), (t, u)
                        assert cg.reachable[i, j] == (u in refs[t]), (t, u)
                        assert cg.path(t, u) == first_listed_path(derived, refs, terminals,
                                                                  t, u), (t, u)
        assert cut > 30  # many of the sets disconnect a terminal pair

    def test_bounds_come_from_the_base_and_are_dropped_with_it(self, monkeypatch):
        # the bound memo lives on the graph that apply_road_failures derived the
        # closure graph from, keyed by the position of each terminal but the
        # first; a built graph bounds itself. A closure computes the positions
        # not yet memoised, and only those, in one batched call. Once the base
        # and its derived graph are gone, the memo is gone, while a kept closure
        # still walks its paths.
        calls = []
        bound_lists = network._bound_lists

        def spy(adj, sources):
            calls.append(list(sources))
            return bound_lists(adj, sources)

        monkeypatch.setattr(network, "_bound_lists", spy)
        ids = list(range(16))
        base = load_road_network([(n, 32.0, -97.0) for n in ids],
                                 [(n, n + 1, 10.0) for n in ids[:-1]] + [(0, 15, 200.0)])
        derived = apply_road_failures(base, [(7, 8)])
        assert derived._base is base
        cg = shortest_path_matrix(derived, [3, 12, 9])
        assert calls == [[12, 9]]
        assert set(base._bound_memo) == {12, 9} and derived._bound_memo == {}
        assert base._bound_memo[12] == [reference_distances_mm(base, 12)[n] for n in ids]
        shortest_path_matrix(base, [3, 12, 9])
        assert set(base._bound_memo) == {12, 9}  # memoised: no new entry
        assert calls == [[12, 9]]
        shortest_path_matrix(derived, [12, 5, 9, 0, 3])
        assert calls == [[12, 9], [5, 0, 3]]  # partly memoised: the rest at once
        assert all(base._bound_memo[p] == reference_distances_list(base, p) for p in ids
                   if p in base._bound_memo)
        ref = weakref.ref(base)
        del base, derived
        gc.collect()
        assert ref() is None
        assert cg.path(3, 12) == (3, 2, 1, 0, 15, 14, 13, 12)
        assert cg.dist_m(12, 9) == 30.0

    def test_search_settles_a_small_share_of_a_grid(self):
        # goal-directed: on a 40 x 40 grid with a failed block in the middle,
        # the searches of 6 scattered terminals reach only a small share of
        # the nodes, where searches that settle every node by distance until
        # the later terminals are settled reach most of them
        n = 40
        rnd = random.Random(41)
        nodes = [(r * n + c, 32.0, -97.0) for r in range(n) for c in range(n)]
        edges = [(r * n + c, r * n + c + 1, rnd.choice((90.0, 100.0, 110.0)))
                 for r in range(n) for c in range(n - 1)]
        edges += [(r * n + c, (r + 1) * n + c, rnd.choice((90.0, 100.0, 110.0)))
                  for r in range(n - 1) for c in range(n)]
        base = load_road_network(nodes, edges)
        failed = [(u, v) for u, v, _ in base.edges
                  if all(15 <= x // n < 25 and 15 <= x % n < 25 for x in (u, v))]
        road = apply_road_failures(base, failed)
        terminals = [2 * n + 3, 37 * n + 36, 5 * n + 30, 33 * n + 4, 20 * n + 2, 20 * n + 38]
        cg = shortest_path_matrix(road, terminals)
        reached = sum(d >= 0 for dist in cg._dists for d in dist)
        assert reached <= 0.35 * len(cg._dists) * n * n
        ref = {t: reference_distances_mm(road, t) for t in terminals}
        assert all(cg.dist_mm[i, j] == ref[t][u] for (i, t), (j, u)
                   in itertools.product(enumerate(terminals), repeat=2))

    def test_tied_lattice_takes_the_first_listed_tree_path(self):
        # one block of a lattice, with sides of 100, 100, 150 and 50 m: both ways
        # round it from r0c0 to r1c1 are 200 m. Walking back from the corner
        # listed later, each leg steps to the tied neighbour nearest the corner
        # listed first, so the order of the corners picks the side, in either
        # direction.
        nodes = [(f"r{r}c{c}", 32.0 + r * 0.001, -97.0 + c * 0.001)
                 for r in range(2) for c in range(2)]
        edges = [("r0c0", "r0c1", 100.0), ("r0c1", "r1c1", 100.0),
                 ("r0c0", "r1c0", 150.0), ("r1c0", "r1c1", 50.0)]
        g = load_road_network(nodes, edges)
        first = shortest_path_matrix(g, ["r0c0", "r1c1"])
        assert first.path("r0c0", "r1c1") == ("r0c0", "r0c1", "r1c1")
        assert first.path("r1c1", "r0c0") == ("r1c1", "r0c1", "r0c0")
        last = shortest_path_matrix(g, ["r1c1", "r0c0"])
        assert last.path("r0c0", "r1c1") == ("r0c0", "r1c0", "r1c1")
        assert last.path("r1c1", "r0c0") == ("r1c1", "r1c0", "r0c0")
        assert first.dist_m("r0c0", "r1c1") == last.dist_m("r1c1", "r0c0") == 200.0

    def test_double_tie_steps_to_the_smallest_position(self):
        # a 3 x 3 lattice of 100 m sides, ids listed in no particular order: at
        # every step back two tied neighbours are equally near the first-listed
        # corner, and the walk takes the one with the smaller position (node_key)
        # whatever the terminal order or the order the search settled them in
        ids = {(r, c): 10 * (2 - c) + r for r in range(3) for c in range(3)}
        nodes = [(nid, 32.0, -97.0) for nid in sorted(ids.values(), key=lambda x: -x)]
        edges = [(ids[r, c], ids[r, c + 1], 100.0) for r in range(3) for c in range(2)]
        edges += [(ids[r, c], ids[r + 1, c], 100.0) for r in range(2) for c in range(3)]
        g = load_road_network(nodes, edges)
        a, b = ids[0, 0], ids[2, 2]  # 20 and 2
        for order in ([a, b], [b, a], [ids[1, 1], b, a]):
            cg = shortest_path_matrix(g, order)
            assert cg.dist_m(a, b) == 400.0
            refs = {t: reference_distances_mm(g, t) for t in order}
            assert cg.path(a, b) == first_listed_path(g, refs, order, a, b)
            assert cg.path(b, a) == cg.path(a, b)[::-1]
        # from 20 (listed first), walking back from 2: the tied neighbours of
        # 2 are 1 and 12, both 300 m from 20, so 1; then 0 and 11, so 0; then 10
        assert shortest_path_matrix(g, [a, b]).path(a, b) == (20, 10, 0, 1, 2)
        # from 2 (listed first), walking back from 20: 10 and 21, so 10; then 0
        # and 11, so 0; then 1
        assert shortest_path_matrix(g, [b, a]).path(a, b) == (20, 10, 0, 1, 2)

    def test_unreachable_pair_after_heap_exhausted(self):
        # c is cut off from a only on the derived graph: a's search toward c runs
        # until its heap is empty and marks c unreached. On the built graph, d and
        # e are in another component than a, so their bounds are -1 at a and the
        # search toward them settles nothing more.
        g = load_road_network(NODES3 + [("d", 32.03, -97.0), ("e", 32.04, -97.0)],
                              [("a", "b", 100.0), ("b", "c", 60.0), ("d", "e", 50.0)])
        cut = apply_road_failures(g, [("b", "c")])
        cg = shortest_path_matrix(cut, ["a", "c", "d", "e"])
        assert cg.path("a", "c") is None and cg.path("c", "a") is None
        assert cg.path("e", "d") == ("e", "d") and not cg.is_reachable("a", "d")
        a, c, d = (g._index[t] for t in "acd")
        dist, row = _search(cut._adj, a, [c], [reference_distances_list(g, c)])
        assert row == [-1] and dist[c] == -1 and dist[g._index["b"]] == 100_000
        dist, row = _search(cut._adj, a, [d, c], [reference_distances_list(g, x) for x in (d, c)])
        assert row == [-1, -1] and dist == [0, 100_000, -1, -1, -1]

    def test_path_reconstruction(self):
        g = load_road_network(NODES3, [("a", "b", 100.0), ("b", "c", 200.0)])
        cg = shortest_path_matrix(g, ["a", "c"])
        assert cg.path("a", "c") == ("a", "b", "c")
        assert cg.path("a", "a") == ("a",)
        # reconstructed path length adds up to the matrix entry
        path = cg.path("a", "c")
        total = sum(g.edge_length_m(u, v) for u, v in zip(path, path[1:]))
        assert total == cg.dist_m("a", "c")


class TestBoundLists:
    """``_bound_lists``: every list equals ``reference_distances_list`` entry for
    entry, the -1 of an unreached node included."""

    @staticmethod
    def assert_exact(road, sources):
        lists = _bound_lists(road._adj, sources)
        assert lists == [reference_distances_list(road, s) for s in sources]
        assert all(type(d) is int for dist in lists for d in dist)
        return lists

    def test_random_graphs(self, rng):
        for connected in (True, False):
            for n in (2, 9, 30, 60):
                road = random_road_graph(rng, n, n // 2, connected=connected)
                sources = [int(i) for i in rng.choice(n, size=min(n, 7), replace=False)]
                self.assert_exact(road, sources)

    def test_parts_parallel_edges_self_loops_and_an_isolated_source(self):
        # two parts, a parallel pair (the shorter kept), a self-loop and node 9
        # with no edge at all, taken as a source among the others
        nodes = [(n, 32.0, -97.0) for n in range(10)]
        edges = [(0, 1, 5.0), (1, 0, 3.0), (1, 2, 4.0), (2, 2, 1.0), (0, 2, 9.0),
                 (5, 6, 2.0), (6, 7, 2.0), (5, 7, 5.0), (7, 7, 0.5)]
        road = load_road_network(nodes, edges)
        lists = self.assert_exact(road, [9, 0, 6, 3])
        assert lists[0] == [-1] * 9 + [0]
        assert lists[1][:3] == [0, 3000, 7000] and lists[1][5] == -1
        for graphs, ids, rnd in tie_heavy_graphs(43, 30):
            for road in graphs:
                self.assert_exact(road, rnd.sample(range(road.n_nodes),
                                                   rnd.randint(1, road.n_nodes)))

    def test_int_and_str_ids(self):
        nodes = [(n, 32.0, -97.0) for n in (3, "b", 1, "a", 2)]
        edges = [(3, "a", 2.0), ("a", 1, 1.0), (1, "b", 4.0), ("b", 3, 1.5), (2, "a", 7.0)]
        road = load_road_network(nodes, edges)
        self.assert_exact(road, [road._index[t] for t in ("b", 3, 2)])

    def test_no_position_and_one_position(self):
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        assert _bound_lists(road._adj, []) == []
        assert self.assert_exact(road, [2]) == [[-1, -1, 0]]
        assert self.assert_exact(road, [0]) == [[0, 100_000, -1]]

    def test_a_chain_takes_a_round_per_edge(self):
        # from one end of an n-node chain the labels fall one node a round:
        # n - 1 rounds lower a label and the n-th lowers none, each a single
        # np.minimum.at; a source in the middle halves them
        n = 50
        road = load_road_network([(i, 32.0, -97.0) for i in range(n)],
                                 [(i, i + 1, 1.0 + i % 3) for i in range(n - 1)])
        for sources, rounds in (([0], n), ([n - 1, 0], n), ([n // 2], n // 2 + 1)):
            calls = []
            sys.setprofile(lambda frame, event, arg: event == "c_call"
                           and arg is not None and getattr(arg, "__name__", "") == "at"
                           and calls.append(arg))
            try:
                self.assert_exact(road, sources)
            finally:
                sys.setprofile(None)
            assert len(calls) == rounds, sources

    def test_lengths_past_float64_precision(self):
        # two ways from a to d, of b + 2 and b + 1 mm with b near 3 * 2**60:
        # both are past 2**53 and round to the same float64, so any float step
        # in the search would tie them or move a distance
        big = 3 * 2**60 / 1000
        nodes = [(n, 32.0, -97.0) for n in "abcde"]
        edges = [("a", "b", big), ("b", "c", 0.001), ("c", "d", 0.001),
                 ("a", "e", 0.001), ("e", "d", big)]
        road = load_road_network(nodes, edges)
        b = dict(road.neighbors("a"))["b"]
        assert b > 2**61 and dict(road.neighbors("d"))["e"] == b
        lists = self.assert_exact(road, [0, 3, 4])
        assert lists[0][3] == lists[1][0] == b + 1 and lists[0][2] == b + 1
        assert float(b + 1) == float(b + 2)


class TestCompleteGraphType:
    def test_from_distances_roundtrip(self):
        m = [[0.0, 12.5], [12.5, 0.0]]
        cg = CompleteGraph.from_distances(["x", "y"], m)
        assert cg.dist_m("x", "y") == 12.5
        assert cg.path("x", "y") is None  # no road data

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
        for bad in (math.inf, math.nan, "inf", "nan", 10**400, -(10**400)):
            with pytest.raises(ValueError, match=r"^x must be finite, got "):
                require_finite(bad, "x")

    def test_is_finite_number(self):
        finite = (0, -3, 2**80, 1.5, -0.0, np.float64(2.5), np.int64(3), 1e308)
        not_finite = (math.inf, -math.inf, math.nan, np.float64("nan"), 10**400, -(10**400))
        assert all(is_finite_number(v) for v in finite)
        assert not any(is_finite_number(v) for v in not_finite)
        assert not any(is_finite_number(v) for v in (True, "1", "inf", None, 1j))


# values that are not node ids; True and 1.0 equal the int id 1
NON_IDS = (True, 1.0, 1.5, None, 1e308, np.int64(1), (1,))
NON_ID_NAMES = ("bool", "whole-float", "fraction", "null", "huge-float", "numpy-int", "tuple")


class TestNodeIdRule:
    """A node id is a str or an int, never a bool; every constructor refuses anything else."""

    def test_predicate(self):
        assert all(is_node_id(v) for v in ("", "1", "é", 0, -3, 2**80))
        assert not any(is_node_id(v) for v in NON_IDS + (False, b"a", [], frozenset()))

    def test_has_node_is_false_for_an_equal_non_id(self):
        road = load_road_network([(1, 32.0, -97.0), ("a", 32.1, -97.0)], [(1, "a", 5.0)])
        assert road.has_node(1) and road.has_node("a")
        assert not any(road.has_node(v) for v in (True, 1.0, "1"))
        with pytest.raises(UnknownTerminalError, match="True"):
            shortest_path_matrix(road, [1, True])

    @pytest.mark.parametrize("bad", NON_IDS, ids=NON_ID_NAMES)
    def test_constructors_name_the_non_id(self, bad):
        road = load_road_network([(1, 32.0, -97.0), ("a", 32.1, -97.0)], [(1, "a", 5.0)])
        text = re.escape(repr(bad))
        with pytest.raises(ValueError, match=f"^bus_id must be .*, got {text}$"):
            PowerNode(bad, 0.0, 0.0, 1.0, "line")
        for mapping, loads in (({bad: 1}, {}), ({}, {bad: 1.0})):
            with pytest.raises(ValueError, match=f"must be an integer or a string, got {text}$"):
                CoupledNetwork(road, mapping, frozenset(), frozenset(), loads)
        for field in ("power_to_road", "depots", "damaged"):
            args = {"power_to_road": {}, "depots": frozenset(), "damaged": frozenset()}
            args[field] = {"b": bad} if field == "power_to_road" else frozenset([bad])
            if type(bad) is not tuple:  # a tuple is no node of the road either
                with pytest.raises(ValueError, match=text):
                    CoupledNetwork(road, **args)

        times = {(1, k): 1.0 for k in range(4)}
        demands = {(1, k): 1 for k in range(4)}
        # the non-id comes first, so a dict keeps it even where it equals 1
        for t, d, failed in (({(bad, 0): 1.0, **times}, demands, ()),
                             (times, {(bad, 0): 1, **demands}, ()),
                             (times, demands, [(bad, "a"), (1, "a")])):
            with pytest.raises(ValueError, match=f"^scenario 0: .* node must be .*, got {text}$"):
                Scenario(0, t, d, failed)
        sc = Scenario(0, times, demands, ())
        with pytest.raises(ValueError, match=f"^damaged node must be .*, got {text}$"):
            ScenarioSet((), seed=None, damaged=frozenset([bad]))
        with pytest.raises(ValueError, match=f"^loads_kw node must be .*, got {text}$"):
            ScenarioSet((sc,), seed=None, damaged=frozenset([1]), loads_kw={bad: 2.0})

        route = {"crew": 0, "depot_start": "d", "depot_end": "d", "visit_order": (1,),
                 "leg_costs": (1.0, 1.0), "leg_m": (1.0, 1.0), "total_cost": 2.0,
                 "mtz_labels": {1: 1}}
        for field, value in (("depot_start", bad), ("depot_end", bad),
                             ("visit_order", (1, bad)), ("mtz_labels", {bad: 1})):
            with pytest.raises(ValueError, match=f"^crew 0: .* must be .*, got {text}$"):
                Route(**{**route, field: value})

    def test_failure_pair_with_a_non_id_matches_no_edge(self, caplog):
        road = load_road_network([(1, 32.0, -97.0), ("a", 32.1, -97.0)], [(1, "a", 5.0)])
        with caplog.at_level(logging.WARNING, logger="gridrestore.network"):
            assert apply_road_failures(road, [(True, "a"), ("a", 1.5)]) is road
        assert "2 failure pair(s) match no edge" in caplog.text

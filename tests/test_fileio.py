"""Artifact round-trips, fixed-point distances, and schema errors."""

import collections
import csv
import io
import json
import math
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridrestore import (
    CompleteGraph,
    CoupledNetwork,
    PowerNode,
    RoutingInstance,
    build_coupled_network,
    load_road_network,
    solve_routing,
    shortest_path_matrix,
    solve_stage1,
    Stage1Instance,
    GanttChart,
    GanttEntry,
    Route,
    RoutePlan,
    Scenario,
    ScenarioSet,
)
from gridrestore import fileio
from gridrestore.network import node_key
from gridrestore.allocation import marginal_gain
from gridrestore.errors import SchemaError

import refcase

NODES3 = [("a", 32.0, -97.0), ("b", 32.01, -97.0), ("c", 32.02, -97.0)]


def _network():
    road = load_road_network(NODES3, [("a", "b", 1234.5678), ("b", "c", 200.0)])
    power = [PowerNode("bus1", -97.0, 32.0, 12.5, "line"),
             PowerNode("bus2", -97.0, 32.02, 3.25, "switch")]
    return build_coupled_network(road, power, 0.0, 0.0, ["b"], ["a", "c"])


class TestMetersFixedPoint:
    def test_three_decimals(self):
        assert fileio.meters_str(1234.5678) == "1234.568"
        assert fileio.meters_str(0.08) == "0.080"
        assert fileio.meters_str(100.0) == "100.000"

    def test_roundtrip_through_parse(self):
        for value in (0.001, 12.5, 1234.568, 99999.999):
            text = fileio.meters_str(value)
            assert fileio._parse_number(text, "distance", "") == pytest.approx(value)


class TestNetworkFile:
    def test_roundtrip(self, tmp_path):
        net = _network()
        path = tmp_path / "network.json"
        fileio.write_network_file(net, path)
        loaded = fileio.read_network_file(path)
        assert loaded.road == net.road
        assert loaded.power_to_road == net.power_to_road
        assert loaded.depots == net.depots
        assert loaded.damaged == net.damaged
        assert loaded.loads_kw == net.loads_kw

    def test_distances_serialized_fixed_point(self, tmp_path):
        path = tmp_path / "network.json"
        fileio.write_network_file(_network(), path)
        obj = json.loads(path.read_text())
        lengths = {tuple(e[:2]): e[2] for e in obj["road"]["edges"]}
        assert lengths[("a", "b")] == "1234.568"
        assert lengths[("b", "c")] == "200.000"

    def test_write_is_deterministic(self, tmp_path):
        net = _network()
        p1, p2 = tmp_path / "n1.json", tmp_path / "n2.json"
        fileio.write_network_file(net, p1)
        fileio.write_network_file(net, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bool_load_rejected(self, tmp_path):
        path = tmp_path / "network.json"
        fileio.write_network_file(_network(), path)
        obj = json.loads(path.read_text())
        obj["loads_kw"][0][1] = True
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="node 'a': bad loads_kw True"):
            fileio.read_network_file(path)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": "something_else/9"}')
        with pytest.raises(SchemaError, match="coupled_network/1"):
            fileio.read_network_file(path)


class TestScenarioFile:
    def test_roundtrip_hand_authored(self, tmp_path):
        sset = refcase.scenario_set()
        path = tmp_path / "scenarios.json"
        fileio.write_scenario_file(sset, path)
        loaded = fileio.read_scenario_file(path)
        assert loaded == sset  # ids keep their types through the pair encoding

    def test_roundtrip_preserves_failed_edges(self, tmp_path):
        sset = refcase.scenario_set(
            failed_edges=[frozenset([(37215, 23214)]), frozenset(), frozenset()]
        )
        path = tmp_path / "scenarios.json"
        fileio.write_scenario_file(sset, path)
        assert fileio.read_scenario_file(path) == sset

    def test_reference_values_survive(self, tmp_path):
        path = tmp_path / "scenarios.json"
        fileio.write_scenario_file(refcase.scenario_set(), path)
        loaded = fileio.read_scenario_file(path)
        assert loaded.scenarios[0].repair_time_h[(37215, 0)] == 5.5
        assert loaded.scenarios[2].repair_demand[(51201, 3)] == 8
        assert loaded.loads_kw[36856] == 287.6

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "scenario_set/1", "seed": 0}))
        with pytest.raises(SchemaError):
            fileio.read_scenario_file(path)


class TestAllocationFile:
    def test_roundtrip(self, tmp_path):
        inst = Stage1Instance.from_scenarios(refcase.scenario_set())
        alloc = solve_stage1(inst)
        path = tmp_path / "allocation.json"
        fileio.write_allocation_file(alloc, path, inst.scale_c,
                                     marginal_gain(inst), inst.crew_costs)
        loaded = fileio.read_allocation_file(path)
        assert loaded.capacity == alloc.capacity
        assert loaded.objective_value == alloc.objective_value
        nonzero = {k: v for k, v in alloc.assignment.items() if v}
        assert loaded.assignment == nonzero

    @pytest.mark.parametrize("where, bad, named", [
        (("capacity", 0), True, "capacity must be a list of 4 integers >= 0"),
        (("capacity", 0), 2.7, "capacity must be a list of 4 integers >= 0"),
        (("capacity", 0), -1, "capacity must be a list of 4 integers >= 0"),
        (("capacity",), {}, "capacity must be a list of 4 integers >= 0"),
        (("assignment", 0, 0), 0.0, "assignment scenario must be an integer, got 0.0"),
        (("assignment", 0, 1, 0, 1, 0), "5", "bad assignment '5'"),
        (("assignment", 0, 1, 0, 1, 0), True, "bad assignment True"),
        (("objective_value",), "nan", "bad objective_value 'nan'"),
    ], ids=["capacity-bool", "capacity-fraction", "capacity-negative", "capacity-object",
            "scenario-float", "value-string", "value-bool", "objective-string"])
    def test_value_of_the_wrong_kind_rejected(self, tmp_path, where, bad, named):
        inst = Stage1Instance.from_scenarios(refcase.scenario_set())
        path = tmp_path / "allocation.json"
        fileio.write_allocation_file(solve_stage1(inst), path, inst.scale_c,
                                     marginal_gain(inst), inst.crew_costs)
        obj = json.loads(path.read_text())
        parent = obj
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = bad
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match=re.escape(named)):
            fileio.read_allocation_file(path)

    @pytest.mark.parametrize("table", ["scenario", "node"])
    def test_key_named_twice_rejected(self, tmp_path, table):
        inst = Stage1Instance.from_scenarios(refcase.scenario_set())
        path = tmp_path / "allocation.json"
        fileio.write_allocation_file(solve_stage1(inst), path, inst.scale_c,
                                     marginal_gain(inst), inst.crew_costs)
        obj = json.loads(path.read_text())
        s, rows = obj["assignment"][0]
        if table == "scenario":
            obj["assignment"].append([s, []])
            named = f"{path}: assignment: {s!r} is named twice"
        else:
            rows.append([rows[0][0], [0.0] * 4])
            named = f"{path}: assignment scenario {s}: {rows[0][0]!r} is named twice"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match=f"^{re.escape(named)}$"):
            fileio.read_allocation_file(path)

    def test_missing_key_rejected(self, tmp_path):
        inst = Stage1Instance.from_scenarios(refcase.scenario_set())
        path = tmp_path / "allocation.json"
        fileio.write_allocation_file(solve_stage1(inst), path, inst.scale_c,
                                     marginal_gain(inst), inst.crew_costs)
        obj = json.loads(path.read_text())
        del obj["capacity"]
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match="malformed allocation .missing key 'capacity'."):
            fileio.read_allocation_file(path)

    def test_boundedness_report_embedded(self, tmp_path):
        inst = Stage1Instance.from_scenarios(refcase.scenario_set())
        alloc = solve_stage1(inst)
        path = tmp_path / "allocation.json"
        fileio.write_allocation_file(alloc, path, inst.scale_c,
                                     marginal_gain(inst), inst.crew_costs)
        obj = json.loads(path.read_text())
        assert obj["boundedness"]["scale_c"] == 10.0
        per_crew = obj["boundedness"]["per_crew"]
        assert len(per_crew) == 4
        for entry in per_crew:
            assert entry["weighted_cost"] > entry["marginal_gain"]


class TestRoutePlanFile:
    def test_roundtrip_with_road_paths(self, tmp_path):
        road = load_road_network(NODES3, [("a", "b", 100.0), ("b", "c", 200.0)])
        complete = shortest_path_matrix(road, ["a", "b", "c"])
        inst = RoutingInstance(complete, {0: frozenset(["a", "c"])}, frozenset(["b"]))
        plan = solve_routing(inst, 0)
        path = tmp_path / "routes_s0.json"
        fileio.write_route_plan_file(plan, path, complete)
        loaded = fileio.read_route_plan_file(path)
        assert loaded == plan
        obj = json.loads(path.read_text())
        legs = obj["routes"][0]["legs"]
        assert all("distance_m" in leg and "road_path" in leg for leg in legs)
        # road-level reconstruction goes through the intermediate node
        full = [leg["road_path"] for leg in legs]
        assert full[0][0] == "b"

    def test_roundtrip_without_predecessors(self, tmp_path):
        from gridrestore import CompleteGraph

        cg = CompleteGraph.from_distances(["d", "x"], [[0.0, 5.0], [5.0, 0.0]])
        inst = RoutingInstance(cg, {1: frozenset(["x"])}, frozenset(["d"]))
        plan = solve_routing(inst, 1)
        path = tmp_path / "routes.json"
        fileio.write_route_plan_file(plan, path, cg)
        assert fileio.read_route_plan_file(path) == plan


def _route_plan_object(plan, complete) -> dict:
    """The route_plan/1 document as an object of plain lists and dicts, for
    ``json.dumps``."""
    routes = []
    for k in sorted(plan.routes):
        r = plan.routes[k]
        legs = []
        for (u, v), cost, meters in zip(r.arcs(), r.leg_costs, r.leg_m):
            road_path = complete.path(u, v)
            legs.append({"from": u, "to": v, "cost": cost,
                         "distance_m": fileio.meters_str(meters),
                         "road_path": list(road_path) if road_path is not None else None})
        routes.append({
            "crew": k,
            "depot_start": r.depot_start,
            "depot_end": r.depot_end,
            "visit_order": list(r.visit_order),
            "leg_costs": list(r.leg_costs),
            "total_cost": r.total_cost,
            "mtz_labels": [[i, r.mtz_labels[i]] for i in sorted(r.mtz_labels, key=node_key)],
            "legs": legs,
        })
    return {"schema": "route_plan/1", "scenario_id": plan.scenario_id, "routes": routes,
            "total_cost": plan.total_cost}


# ids that json escapes: a quote, a backslash, non-ASCII (one outside the BMP, written
# as a surrogate pair), control characters, and an int written as text
ODD_IDS = ['q"uote', "back\\slash", "caf\u00e9", "snow\u2603man", "emoji\U0001f600",
           "ctl\x00\x1f\n\t\r\x7f", "1", "", " space "]
ID_KINDS = {
    "int": [-3, 0, 1, 7, 12, 40, 2**70, 99],
    "str": ["a", "b", "c", "d", "e", *ODD_IDS],
    "mixed": [0, 5, 2**40, "a", "5", *ODD_IDS[:5]],
}
# rates whose products with meters give large, subnormal and inexact floats
RATES = (0.0, 1.0, 1e16, 5e-324, 123456.789, 0.1, 3.0)


def _random_plans(seed: int, ids: list, with_road: bool):
    """Route plans of 1 to 4 crews over ``ids``, solved on a random road graph (road
    paths) or on a distance matrix (``road_path`` null)."""
    rnd = random.Random(seed)
    ids = rnd.sample(ids, len(ids))
    depots, nodes = ids[:2], ids[2:]
    if with_road:
        coords = [(i, 32.0 + rnd.random(), -97.0 + rnd.random()) for i in ids]
        edges = [(ids[j - 1], ids[j], rnd.uniform(1.0, 900.0)) for j in range(1, len(ids))]
        edges += [(rnd.choice(ids), rnd.choice(ids), rnd.uniform(1.0, 900.0)) for _ in ids]
        edges = [(u, v, m) for u, v, m in edges if u != v]
        complete = shortest_path_matrix(load_road_network(coords, edges), ids)
    else:
        m = [[0.0 if a == b else float(rnd.randint(1, 10**6)) / 7 for b in ids] for a in ids]
        m = [[min(m[a][b], m[b][a]) for b in range(len(ids))] for a in range(len(ids))]
        complete = CompleteGraph.from_distances(ids, m)
    for sid in range(6):
        crews = rnd.sample(range(4), rnd.randint(1, 4))
        required = {k: frozenset(rnd.sample(nodes, rnd.randint(1, 4))) for k in crews}
        rates = {k: rnd.choice(RATES) for k in range(4)}
        inst = RoutingInstance(complete, required, frozenset(depots), cost_rate_per_m=rates)
        yield solve_routing(inst, rnd.choice([sid, 10**6 + sid])), complete


class TestRoutePlanText:
    """``write_route_plan_file`` writes the bytes of ``json.dumps(sort_keys=True, indent=2)``."""

    @staticmethod
    def _written(plan, complete, path):
        fileio.write_route_plan_file(plan, path, complete)
        return path.read_bytes().decode("utf-8")

    @pytest.mark.parametrize("with_road", [True, False], ids=["road-paths", "null-paths"])
    @pytest.mark.parametrize("kind", sorted(ID_KINDS))
    def test_equals_json_dumps(self, kind, with_road, tmp_path):
        plans = 0
        for seed in range(8):
            for plan, complete in _random_plans(seed, ID_KINDS[kind], with_road):
                expected = json.dumps(_route_plan_object(plan, complete), sort_keys=True,
                                      indent=2) + "\n"
                assert self._written(plan, complete, tmp_path / f"p{plans}.json") == expected
                plans += 1
        assert plans == 48

    def test_hand_made_values_equal_json_dumps(self, tmp_path):
        """Empty arrays, int costs, an empty plan (its total is the int 0) and the
        floats json writes in exponent form."""
        cg = CompleteGraph.from_distances(["d", "x"], [[0.0, 5.0], [5.0, 0.0]])
        plans = [
            RoutePlan(3, {}),
            RoutePlan(0, {0: Route(0, "d", "d", (), (0,), (0.0,), 0, {})}),
            RoutePlan(-1, {2: Route(2, "d", "d", ("x",), (1e16, 5e-324), (5.0, 5.0),
                                    123456.789, {"x": 1}),
                           0: Route(0, "d", "x", ("x",), (), (), 1.5e-7, {"x": 1})}),
        ]
        for n, plan in enumerate(plans):
            assert self._written(plan, cg, tmp_path / f"p{n}.json") == json.dumps(
                _route_plan_object(plan, cg), sort_keys=True, indent=2) + "\n"


# JSON documents as the artifact writers build them: str-keyed dicts, lists and
# tuples over every kind of leaf json writes, subclasses of str, int and float too
JSON_LEAVES = st.one_of(
    st.text(), st.sampled_from(ODD_IDS),
    st.integers(), st.sampled_from([2**64, -2**64 - 1, 2**70 + 3, -10**30]),
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1.5e-7, math.nan, math.inf, -math.inf]),
    st.booleans(), st.none(),
    st.sampled_from([type("Name", (str,), {})("n\u00e9"), type("Count", (int,), {})(7),
                     type("Real", (float,), {})(0.1)]),
)
JSON_DOCS = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(), st.sampled_from(ODD_IDS)), inner, max_size=4),
), max_leaves=24)


class TestJsonText:
    """``_json_text``, the one encoder of every JSON artifact, writes the bytes of
    ``json.dumps(sort_keys=True, indent=2)``."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(doc=JSON_DOCS)
    def test_equals_json_dumps(self, doc):
        assert fileio._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_tuples_are_laid_out_as_arrays(self, tmp_path):
        """The scenario writer passes ``zip`` tuples: they are indented like lists, not
        written on one line as a leaf."""
        doc = {"rows": list(zip(["a", "b"], [[1.5, 2], [3, 4.0]])), "empty": ((), [()])}
        text = fileio._json_text(doc)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert '[\n      "a",\n      [\n        1.5,' in text
        sset = ScenarioSet(
            (Scenario(0, {("a", k): 1.0 + k for k in range(4)},
                      {("a", k): k for k in range(4)}, [("a", "b")]),),
            seed=1, damaged=frozenset("a"), config={"n_scenarios": 1})
        path = tmp_path / "scenarios.json"
        fileio.write_scenario_file(sset, path)
        assert path.read_text() == json.dumps(json.loads(path.read_text()), sort_keys=True,
                                              indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {1: "a"}, {"a": [{"b": 0, 2: 0}]}, {None: 1},
        collections.OrderedDict(a=1), [collections.namedtuple("Pair", "u v")(1, 2)],
        {"a": type("Rows", (list,), {})([1])},
    ], ids=["int-key", "nested-mixed-keys", "null-key", "dict-subclass", "tuple-subclass",
            "list-subclass"])
    def test_a_non_str_key_or_container_subclass_is_a_type_error(self, doc):
        with pytest.raises(TypeError):
            fileio._json_text(doc)


def _road_tables(road) -> dict:
    """A road's ``nodes`` and ``edges`` tables as plain lists, for ``json.dumps``."""
    return {"nodes": [[n, lat, lon] for n, lat, lon in road.nodes],
            "edges": [[u, v, fileio.meters_str(m)] for u, v, m in road.edges]}


def _text_roads():
    """(label, road): roads of every id kind, an empty edge table, and coordinates that
    print with an exponent or as -0.0."""
    rnd = random.Random(21)
    for kind in sorted(ID_KINDS):
        ids = ID_KINDS[kind]
        nodes = [(n, rnd.uniform(-90.0, 90.0), rnd.uniform(-540.0, 540.0)) for n in ids]
        edges = [(rnd.choice(ids), rnd.choice(ids), rnd.choice((1.0, 0.0015, 1e9 / 7)))
                 for _ in range(2 * len(ids))]
        yield kind, load_road_network(nodes, edges)
    yield "no-edges", load_road_network([("caf\u00e9", 1.0, 2.0), (3, 4.0, 5.0)], [])
    yield "exponents", load_road_network(
        [("a", 1e-05, -0.0), ("b", -2.5e-07, 1e-300), (7, 0.0, 123456789.25)],
        [("a", "b", 1e-3), ("b", 7, 4.2e12), ("a", 7, 0.0125)])


class TestRoadTablesText:
    """The road tables, which ``_road_json`` writes as text, give the bytes of
    ``json.dumps(sort_keys=True, indent=2)`` in both files that hold them."""

    @pytest.mark.parametrize("label, road", list(_text_roads()),
                             ids=[label for label, _ in _text_roads()])
    def test_equals_json_dumps(self, label, road, tmp_path):
        first, last = road.nodes[0][0], road.nodes[-1][0]
        net = CoupledNetwork(road=road, power_to_road={"bus\u2603": first, 5: last},
                             depots=[first], damaged=[last], loads_kw={last: 2.5})
        fileio.write_network_file(net, tmp_path / "network.json")
        expected = {"schema": fileio.SCHEMA_NETWORK, "road": _road_tables(road),
                    "power_to_road": [[5, last], ["bus\u2603", first]], "depots": [first],
                    "damaged": [last], "loads_kw": [[last, 2.5]]}
        assert (tmp_path / "network.json").read_text() == json.dumps(
            expected, sort_keys=True, indent=2) + "\n"
        assert fileio.read_network_file(tmp_path / "network.json").road == road

        fileio.write_road_graph_json(road, tmp_path / "road.json")
        expected = {"schema": fileio.SCHEMA_ROAD, **_road_tables(road)}
        assert (tmp_path / "road.json").read_text() == json.dumps(
            expected, sort_keys=True, indent=2) + "\n"
        assert fileio.read_road_graph_json(tmp_path / "road.json") == road


class TestGanttFiles:
    def _chart(self):
        return GanttChart.from_entries([
            GanttEntry(0, "n1", 0, 0.0, 5.5),
            GanttEntry(0, "n1", 1, 5.5, 10.2),
            GanttEntry(1, "n1", 0, 0.0, 8.1),
        ])

    def test_csv_header_and_rows(self, tmp_path):
        path = tmp_path / "gantt.csv"
        fileio.write_gantt_csv(self._chart(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,node,crew,start_h,finish_h"
        assert lines[1] == "0,n1,0,0.0000,5.5000"

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "gantt.csv"
        chart = self._chart()
        fileio.write_gantt_csv(chart, path)
        loaded = fileio.read_gantt_csv(path)
        assert len(loaded.entries) == 3
        assert loaded.makespan_h == pytest.approx(chart.makespan_h)

    def test_csv_quotes_as_the_csv_module_does(self, tmp_path):
        ids = ["n1", "", "x,y", '"q"', 'a"b', "a\nb", "a<&b", "é", " s "]
        chart = GanttChart.from_entries([GanttEntry(0, n, 0, 0.0, 1.0) for n in ids])
        path = tmp_path / "gantt.csv"
        fileio.write_gantt_csv(chart, path)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fileio.GANTT_HEADER)
        writer.writerows((e.scenario_id, e.node_id, e.crew, "0.0000", "1.0000")
                         for e in chart.entries)
        assert path.read_bytes() == buf.getvalue().encode("utf-8")

    def test_csv_roundtrip_of_ids_that_need_quotes(self, tmp_path):
        # a carriage return is quoted too, which the csv module does not do with
        # "\n" line ends; the reader strips the spaces around a cell
        ids = ["", "x,y", '"q"', 'a"b', "a\nb", "r\rs", "a\r\nb", "é", " s "]
        chart = GanttChart.from_entries([GanttEntry(0, n, 0, 0.0, 1.0) for n in ids])
        path = tmp_path / "gantt.csv"
        fileio.write_gantt_csv(chart, path)
        got = [e.node_id for e in fileio.read_gantt_csv(path).entries]
        assert sorted(got) == sorted(n.strip() for n in ids)

    @pytest.mark.parametrize("row, problem", [
        ("0,n1,0,-1,2", "start_h must be >= 0"),
        ("0,n1,0,3,2", "finish_h must be >= start_h"),
    ])
    def test_csv_interval_out_of_order_named(self, tmp_path, row, problem):
        path = tmp_path / "gantt.csv"
        path.write_text(f"scenario,node,crew,start_h,finish_h\n0,n1,0,0,1\n{row}\n")
        with pytest.raises(SchemaError) as raised:
            fileio.read_gantt_csv(path)
        assert str(raised.value) == f"{path}:3: {problem}"

    def test_svg_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        fileio.write_gantt_svg(self._chart(), p1)
        fileio.write_gantt_svg(self._chart(), p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.startswith("<svg")
        assert "scenario 1" in text

    def test_empty_chart_svg(self, tmp_path):
        fileio.write_gantt_svg(GanttChart.from_entries([]), tmp_path / "empty.svg")
        assert (tmp_path / "empty.svg").read_text().startswith("<svg")


class TestCsvIngestion:
    def test_road_csv_line_numbers_in_errors(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("node_id,lat,lon\na,32.0,-97.0\nb,oops,-97.0\n")
        with pytest.raises(SchemaError, match=r"nodes\.csv:3"):
            fileio.read_road_nodes_csv(path)

    @pytest.mark.parametrize("name, row", [("road_nodes", '"a\nb",35.0,-97.0'),
                                           ("gantt", '0,"a\nb",1,0.0000,2.5000')])
    def test_line_numbers_count_quoted_line_breaks(self, tmp_path, name, row):
        # the quoted id spans lines 2-3, so the bad row after it is on line 4
        read, header, good, numeric = CSV_READERS[name]
        cells = good.split(",")
        cells[header.split(",").index(numeric[-1])] = "oops"
        path = tmp_path / f"{name}.csv"
        assert _csv_error(read, path, f"{header}\n{row}\n{','.join(cells)}\n") == (
            f"{path}:4: bad {numeric[-1]} 'oops'")
        assert _csv_error(read, path, f"{header}\n{row}\n\n{good},x\n") == (
            f"{path}:5: expected {len(cells)} fields, got {len(cells) + 1}")

    def test_road_csv_latitude_outside_the_poles_named(self, tmp_path):
        path = tmp_path / "nodes.csv"
        for bad in ("90.01", "-91", "1e5"):
            assert _csv_error(fileio.read_road_nodes_csv, path,
                              f"node_id,lat,lon\na,32.0,-97.0\nb,{bad},-97.0\n") == (
                f"{path}:3: lat must be in [-90, 90], got {float(bad)!r}")
        path.write_text("node_id,lat,lon\nn, 90 ,720\ns,-90,-97.0\n")
        assert fileio.read_road_nodes_csv(path) == [("n", 90.0, 720.0), ("s", -90.0, -97.0)]

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("id,lat,lon\na,32.0,-97.0\n")
        with pytest.raises(SchemaError, match=":1"):
            fileio.read_road_nodes_csv(path)

    def test_power_csv_kind_validated_with_line(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_text("bus_id,x,y,downstream_load_kw,kind\nb1,0,0,5,line\nb2,0,0,5,pole\n")
        with pytest.raises(SchemaError, match=r"power\.csv:3"):
            fileio.read_power_nodes_csv(path)

    def test_events_csv(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "ef,start_lat,start_lon,end_lat,end_lon,width_m\n"
            "2,32.0,-97.0,32.1,-96.9,800\n"
        )
        events = fileio.read_events_csv(path)
        assert len(events) == 1
        assert events[0].ef_rating == 2
        assert events[0].corridor_width_m == 800.0

    def test_events_csv_default_width(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "ef,start_lat,start_lon,end_lat,end_lon,width_m\n"
            "1,32.0,-97.0,32.1,-96.9,\n"
        )
        events = fileio.read_events_csv(path, default_width_m=500.0)
        assert events[0].corridor_width_m == 500.0

    def test_road_graph_json_roundtrip(self, tmp_path):
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        path = tmp_path / "road.json"
        fileio.write_road_graph_json(road, path)
        assert fileio.read_road_graph_json(path) == road

    def test_road_graph_json_non_finite_coordinate_named(self, tmp_path):
        road = load_road_network(NODES3, [("a", "b", 100.0)])
        path = tmp_path / "road.json"
        fileio.write_road_graph_json(road, path)
        pristine = path.read_text()
        for field, name, bad in ((1, "lat", float("nan")), (2, "lon", float("inf"))):
            obj = json.loads(pristine)
            obj["nodes"][1][field] = bad
            path.write_text(json.dumps(obj))  # NaN / Infinity tokens
            with pytest.raises(SchemaError, match=rf"road\.json: node 'b': {name} must be finite"):
                fileio.read_road_graph_json(path)


# Every CSV reader: its header, a good row, and its numeric columns in order.
CSV_READERS = {
    "road_nodes": (fileio.read_road_nodes_csv, "node_id,lat,lon", "a,32.0,-97.0",
                   ("lat", "lon")),
    "road_edges": (fileio.read_road_edges_csv, "u,v,length_m", "a,b,1200.5", ("length_m",)),
    "power": (fileio.read_power_nodes_csv, "bus_id,x,y,downstream_load_kw,kind",
              "bus1,-97.0,32.0,12.5,line", ("x", "y", "downstream_load_kw")),
    "power_edges": (fileio.read_power_edges_csv, "bus_u,bus_v", "bus1,bus2", ()),
    "events": (fileio.read_events_csv, "ef,start_lat,start_lon,end_lat,end_lon,width_m",
               "2,32.0,-97.0,32.1,-96.9,800",
               ("ef", "start_lat", "start_lon", "end_lat", "end_lon", "width_m")),
    "gantt": (fileio.read_gantt_csv, "scenario,node,crew,start_h,finish_h",
              "0,a,1,0.0000,2.5000", ("scenario", "crew", "start_h", "finish_h")),
}
INT_COLUMNS = {"ef", "scenario", "crew"}


def _csv_error(read, path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as raised:
        read(path)
    return str(raised.value)


@pytest.mark.parametrize("name", sorted(CSV_READERS))
class TestCsvErrors:
    """The exact text of every CSV reader's errors, and the rows it skips."""

    def test_header_mismatch(self, tmp_path, name):
        read, header, good, _ = CSV_READERS[name]
        path = tmp_path / f"{name}.csv"
        wrong = "x" + header[header.index(","):]
        assert _csv_error(read, path, f"{wrong}\n{good}\n") == (
            f"{path}:1: expected header {header!r}, got {wrong!r}")
        short = header[:header.rindex(",")]
        assert _csv_error(read, path, f"{short}\n{good}\n") == (
            f"{path}:1: expected header {header!r}, got {short!r}")
        assert _csv_error(read, path, "") == f"{path}:1: empty file, expected header {header}"

    def test_header_cells_are_stripped(self, tmp_path, name):
        read, header, good, _ = CSV_READERS[name]
        path = tmp_path / f"{name}.csv"
        path.write_text(f"{header}\n{good}\n")
        expected = read(path)
        path.write_text(" " + header.replace(",", " ,\t") + " \n" + good + "\n")
        assert read(path) == expected

    def test_wrong_field_count(self, tmp_path, name):
        read, header, good, _ = CSV_READERS[name]
        path = tmp_path / f"{name}.csv"
        n = header.count(",") + 1
        fewer = good[:good.rindex(",")]
        assert _csv_error(read, path, f"{header}\n{good}\n{fewer}\n") == (
            f"{path}:3: expected {n} fields, got {n - 1}")
        assert _csv_error(read, path, f"{header}\n{good}\n{good},x\n") == (
            f"{path}:3: expected {n} fields, got {n + 1}")
        # an empty last cell still counts
        assert _csv_error(read, path, f"{header}\n{good},\n") == (
            f"{path}:2: expected {n} fields, got {n + 1}")

    def test_blank_and_whitespace_rows_skipped(self, tmp_path, name):
        read, header, good, _ = CSV_READERS[name]
        path = tmp_path / f"{name}.csv"
        n = header.count(",") + 1
        path.write_text(f"{header}\n{good}\n")
        expected = read(path)
        blanks = ["", "   ", "\t", ",".join([" "] * n), ",".join([""] * n), ", ,"]
        path.write_text(f"{header}\n" + "\n".join(blanks) + f"\n{good}\n" +
                        "\r\n".join(blanks) + "\n")
        assert read(path) == expected
        # a row after the skipped ones is named by its own line
        fewer = good[:good.rindex(",")]
        assert _csv_error(read, path, f"{header}\n\n  \n{fewer}\n") == (
            f"{path}:4: expected {n} fields, got {n - 1}")

    def test_cells_are_stripped(self, tmp_path, name):
        read, header, good, _ = CSV_READERS[name]
        path = tmp_path / f"{name}.csv"
        path.write_text(f"{header}\n{good}\n")
        expected = read(path)
        path.write_text(f"{header}\n" + ",".join(f" {cell}\t" for cell in good.split(","))
                        + "\n")
        assert read(path) == expected

    def test_bad_number_names_file_line_and_column(self, tmp_path, name):
        read, header, good, numeric = CSV_READERS[name]
        path = tmp_path / f"{name}.csv"
        cells = good.split(",")
        for column in numeric:
            index, integer = header.split(",").index(column), column in INT_COLUMNS
            bad_values = ["oops", "", "2.5", "1e3"] if integer else ["oops", "", "nan", "inf",
                                                                     "-inf", "1e999"]
            for bad in bad_values:
                row = ",".join(cells[:index] + [bad] + cells[index + 1:])
                got = _csv_error(read, path, f"{header}\n{good}\n{row}\n")
                if integer:
                    assert got == f"{path}:3: bad {column} value {bad!r}"
                elif bad in ("oops", ""):
                    assert got == f"{path}:3: bad {column} {bad!r}"
                else:
                    assert got == f"{path}:3: {column} must be finite, got {bad!r}"

    def test_leading_byte_order_mark_accepted(self, tmp_path, name):
        # "CSV UTF-8" as spreadsheets save it: a BOM, then the header
        read, header, good, _ = CSV_READERS[name]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        text = f"{header}\n{good}\n{good}\n"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read(marked) == read(plain)
        # a mark anywhere but the file's start is still a character of its cell
        inner = tmp_path / "inner.csv"
        assert _csv_error(read, inner, "\ufeff\ufeff" + text) == (
            f"{inner}:1: expected header {header!r}, got {chr(0xFEFF) + header!r}")


@pytest.mark.parametrize("name", sorted(n for n, r in CSV_READERS.items() if len(r[3]) > 1))
def test_csv_first_bad_column_is_named(tmp_path, name):
    # with two bad cells in a row, the leftmost numeric one is reported
    read, header, good, numeric = CSV_READERS[name]
    path = tmp_path / f"{name}.csv"
    cells = good.split(",")
    first, second = numeric[:2]
    cells[header.split(",").index(first)] = "inf"
    cells[header.split(",").index(second)] = "oops"
    got = _csv_error(read, path, f"{header}\n{','.join(cells)}\n")
    assert got == (f"{path}:2: bad {first} value 'inf'" if first in INT_COLUMNS
                   else f"{path}:2: {first} must be finite, got 'inf'")


class TestCsvValueErrors:
    """A row whose numbers parse but whose values a record refuses names its line."""

    @pytest.mark.parametrize("name, row, problem", [
        ("power", "bus1,0,0,5,pole", "bus 'bus1': component_kind 'pole' not in "
                                     "('line', 'switch', 'transformer', 'substation')"),
        ("power", "bus1,0,0,-5,line", "bus 'bus1': downstream_load_kw must be >= 0"),
        ("events", "7,32,-97,32,-96,100", "ef_rating must be in 0..5, got 7"),
        ("events", "2,32,-97,32,-96,-1", "corridor_width_m must be > 0"),
        ("events", "2,-95,-97,32,-96,100", "path_start latitude must be in [-90, 90], got -95.0"),
        ("gantt", "0,a,1,3.0,2.0", "finish_h must be >= start_h"),
    ])
    def test_value_error_named(self, tmp_path, name, row, problem):
        read, header, good, _ = CSV_READERS[name]
        path = tmp_path / f"{name}.csv"
        assert _csv_error(read, path, f"{header}\n{good}\n{row}\n") == f"{path}:3: {problem}"

    def test_events_empty_width_takes_the_default(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("ef,start_lat,start_lon,end_lat,end_lon,width_m\n"
                        "2,32,-97,32,-96,  \n")
        assert fileio.read_events_csv(path, 250)[0].corridor_width_m == 250.0
        assert _csv_error(fileio.read_events_csv, path, path.read_text()) == (
            f"{path}:2: bad width_m ''")


class TestJsonNumbers:
    """A number in a JSON artifact is a JSON number; only distance_m may also be text."""

    def test_string_where_a_number_belongs_rejected(self, tmp_path):
        net_path, sc_path = tmp_path / "network.json", tmp_path / "scenarios.json"
        fileio.write_network_file(_network(), net_path)
        fileio.write_scenario_file(refcase.scenario_set(), sc_path)
        cases = [
            (net_path, ("loads_kw", 0, 1), "123.4", "node 'a': bad loads_kw '123.4'"),
            (net_path, ("road", "nodes", 1, 1), "32.0", "node 'b': bad lat '32.0'"),
            (net_path, ("road", "nodes", 1, 2), "-97.0", "node 'b': bad lon '-97.0'"),
            (sc_path, ("loads_kw", 0, 1), "123.4", "node 23214: bad loads_kw '123.4'"),
        ]
        for path, where, bad, named in cases:
            obj = json.loads(path.read_text())
            parent = obj
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = bad
            bad_path = tmp_path / f"bad_{path.name}"
            bad_path.write_text(json.dumps(obj))
            read = (fileio.read_network_file if path is net_path
                    else fileio.read_scenario_file)
            with pytest.raises(SchemaError, match=re.escape(f"{bad_path}: {named}")):
                read(bad_path)

    def test_negative_load_rejected(self, tmp_path):
        # the rule a bus's downstream_load_kw follows: a finite number >= 0
        net_path, sc_path = tmp_path / "network.json", tmp_path / "scenarios.json"
        fileio.write_network_file(_network(), net_path)
        fileio.write_scenario_file(refcase.scenario_set(), sc_path)
        for path, read, node in ((net_path, fileio.read_network_file, "'a'"),
                                 (sc_path, fileio.read_scenario_file, "23214")):
            obj = json.loads(path.read_text())
            obj["loads_kw"][0][1] = -500.0
            path.write_text(json.dumps(obj))
            with pytest.raises(SchemaError, match=re.escape(
                    f"{path}: node {node}: loads_kw must be >= 0, got -500.0")):
                read(path)
            obj["loads_kw"][0][1] = -0.0
            path.write_text(json.dumps(obj))
            read(path)


class TestWriteText:
    """The one writer behind every artifact: skip identical bytes, overwrite in place."""

    OLD_NS = 1_000_000_000_000_000_000  # 2001-09-09, far from any clock reading

    def test_new_file_gets_exactly_the_bytes(self, tmp_path):
        path = tmp_path / "a.json"
        fileio._write_text(path, "{\n  \"\u00e9\": 1\n}\n")
        assert path.read_bytes() == "{\n  \"\u00e9\": 1\n}\n".encode("utf-8")

    def test_same_bytes_leave_the_file_untouched(self, tmp_path):
        path = tmp_path / "a.json"
        fileio._write_text(path, "same\n")
        os.utime(path, ns=(self.OLD_NS, self.OLD_NS))
        before = os.stat(path)
        fileio._write_text(path, "same\n")
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, self.OLD_NS)
        assert path.read_bytes() == b"same\n"

    def test_same_size_other_bytes_are_written(self, tmp_path):
        path = tmp_path / "a.json"
        fileio._write_text(path, "aaaa\n")
        fileio._write_text(path, "abba\n")
        assert path.read_bytes() == b"abba\n"

    def test_longer_file_overwritten_with_shorter_has_no_stale_tail(self, tmp_path):
        path = tmp_path / "a.json"
        fileio._write_text(path, "x" * 10_000 + "\n")
        fileio._write_text(path, "short\n")
        assert path.read_bytes() == b"short\n"

    def test_shorter_file_overwritten_with_longer(self, tmp_path):
        path = tmp_path / "a.json"
        fileio._write_text(path, "short\n")
        fileio._write_text(path, "y" * 10_000 + "\n")
        assert path.read_bytes() == b"y" * 10_000 + b"\n"

    @pytest.mark.skipif(not Path("/proc/self/io").exists(), reason="needs /proc/self/io")
    def test_file_of_another_size_is_not_read_back(self, tmp_path):
        def bytes_read():
            for line in Path("/proc/self/io").read_text().splitlines():
                if line.startswith("rchar:"):
                    return int(line.split()[1])

        path = tmp_path / "a.json"
        fileio._write_text(path, "z" * 4_000_000)
        before = bytes_read()
        fileio._write_text(path, "small\n")
        assert bytes_read() - before < 1_000_000
        assert path.read_bytes() == b"small\n"


class TestWriteTextShortIO:
    """``_write_text`` on a descriptor whose reads and writes move fewer bytes than
    asked, as a signal can make them: the file still ends up holding exactly the
    text, and identical bytes still leave it untouched."""

    OLD_NS = TestWriteText.OLD_NS

    @pytest.fixture
    def short_io(self, monkeypatch):
        """Each pwrite takes at most 7 bytes, and each read returns at most 5."""
        calls = collections.Counter()
        pwrite, read = os.pwrite, os.read

        def short_pwrite(fd, data, offset):
            calls["pwrite"] += 1
            return pwrite(fd, bytes(data[:7]), offset)

        def short_read(fd, n):
            calls["read"] += 1
            return read(fd, min(n, 5))

        monkeypatch.setattr(os, "pwrite", short_pwrite)
        monkeypatch.setattr(os, "read", short_read)
        return calls

    @pytest.mark.parametrize("before", [None, "", "x" * 100, "y" * 23, "short"],
                             ids=["new", "empty", "longer", "same-size", "shorter"])
    def test_file_holds_exactly_the_bytes(self, tmp_path, short_io, before):
        path = tmp_path / "a.json"
        if before is not None:
            path.write_text(before)
        text = "{\n  \"é\": [10, 2, 3]\n}\n"  # 23 bytes as UTF-8
        fileio._write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        assert short_io["pwrite"] == 4  # 7 + 7 + 7 + 2 bytes

    def test_same_bytes_leave_the_file_untouched(self, tmp_path, short_io):
        path = tmp_path / "a.json"
        path.write_bytes(b"same bytes, read back five at a time\n")
        os.utime(path, ns=(self.OLD_NS, self.OLD_NS))
        before = os.stat(path)
        fileio._write_text(path, "same bytes, read back five at a time\n")
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, self.OLD_NS)
        assert short_io == {"read": 8}  # 37 bytes, five at a time
        assert path.read_bytes() == b"same bytes, read back five at a time\n"

    def test_same_size_differing_in_the_last_read_is_written(self, tmp_path, short_io):
        path = tmp_path / "a.json"
        path.write_bytes(b"0123456789abcdeX")
        fileio._write_text(path, "0123456789abcdef")
        assert path.read_bytes() == b"0123456789abcdef"

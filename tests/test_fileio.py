"""Artifact round-trips, fixed-point distances, and schema errors."""

import json
import os
import re
from pathlib import Path

import pytest

from gridrestore import (
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
)
from gridrestore import fileio
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

"""End-to-end pipeline: artifacts, summaries, exit codes, reproducibility."""

import gc
import json
import logging
import math
import os
import pathlib
import random
import weakref

import pytest

from gridrestore import cli, default_crews, fileio, load_road_network
from gridrestore.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_INVALID_PLAN,
    EXIT_NO_DAMAGE,
    EXIT_OK,
    EXIT_UNBOUNDED,
    EXIT_UNREACHABLE,
    main,
)

import refcase


def write_grid_fixture(root, n=5, spacing_deg=0.005, n_buses=12, seed=3):
    """5x5 road grid near (32.9, -97.0) plus buses in a local feeder frame."""
    rnd = random.Random(seed)
    nodes = ["node_id,lat,lon"]
    edges = ["u,v,length_m"]

    def nid(r, c):
        return f"r{r}c{c}"

    for r in range(n):
        for c in range(n):
            nodes.append(f"{nid(r, c)},{32.9 + r * spacing_deg},{-97.0 + c * spacing_deg}")
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append(f"{nid(r, c)},{nid(r, c + 1)},556.0")
            if r + 1 < n:
                edges.append(f"{nid(r, c)},{nid(r + 1, c)},556.0")
    (root / "road_nodes.csv").write_text("\n".join(nodes) + "\n")
    (root / "road_edges.csv").write_text("\n".join(edges) + "\n")

    power = ["bus_id,x,y,downstream_load_kw,kind"]
    span = (n - 1) * spacing_deg
    for b in range(n_buses):
        x = rnd.uniform(0, span)
        y = rnd.uniform(0, span)
        kind = rnd.choice(["line", "switch", "transformer", "substation"])
        power.append(f"bus{b},{x},{y},{rnd.uniform(5, 300):.1f},{kind}")
    (root / "power.csv").write_text("\n".join(power) + "\n")

    (root / "events.csv").write_text(
        "ef,start_lat,start_lon,end_lat,end_lon,width_m\n"
        "2,32.905,-97.001,32.915,-96.981,900\n"
    )


def run_pipeline(fixture_dir, out_dir, seed=42):
    common = ["--out-dir", str(out_dir), "--seed", str(seed)]
    steps = [
        common + [
            "build-network",
            "--road-nodes", str(fixture_dir / "road_nodes.csv"),
            "--road-edges", str(fixture_dir / "road_edges.csv"),
            "--power", str(fixture_dir / "power.csv"),
            "--offset-x", "-97.0", "--offset-y", "32.9",
            "--depots", "r0c0,r4c4",
        ],
        common + [
            "gen-scenarios",
            "--network", str(out_dir / "network.json"),
            "--events", str(fixture_dir / "events.csv"),
        ],
        common + [
            "solve",
            "--network", str(out_dir / "network.json"),
            "--scenarios", str(out_dir / "scenarios.json"),
        ],
        common + [
            "schedule",
            "--network", str(out_dir / "network.json"),
            "--scenarios", str(out_dir / "scenarios.json"),
        ],
    ]
    for argv in steps:
        code = main(argv)
        assert code == EXIT_OK, f"step failed: {argv}"


@pytest.fixture
def fixture_dir(tmp_path):
    root = tmp_path / "fixtures"
    root.mkdir()
    write_grid_fixture(root)
    return root


class TestBuildNetwork:
    def test_summary_counts(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "--out-dir", str(out), "build-network",
            "--road-nodes", str(fixture_dir / "road_nodes.csv"),
            "--road-edges", str(fixture_dir / "road_edges.csv"),
            "--power", str(fixture_dir / "power.csv"),
            "--offset-x", "-97.0", "--offset-y", "32.9",
            "--depots", "r0c0,r4c4",
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "25 road nodes / 40 road edges" in captured
        assert "12 power nodes" in captured
        assert (out / "network.json").exists()

    def test_tiny_three_node_fixture(self, tmp_path, capsys):
        (tmp_path / "rn.csv").write_text(
            "node_id,lat,lon\na,32.0,-97.0\nb,32.01,-97.0\nc,32.02,-97.0\n"
        )
        (tmp_path / "re.csv").write_text("u,v,length_m\na,b,100\nb,c,200\n")
        (tmp_path / "p.csv").write_text(
            "bus_id,x,y,downstream_load_kw,kind\nb1,-97.0,32.0,5,line\n"
        )
        code = main([
            "--out-dir", str(tmp_path / "out"), "build-network",
            "--road-nodes", str(tmp_path / "rn.csv"),
            "--road-edges", str(tmp_path / "re.csv"),
            "--power", str(tmp_path / "p.csv"),
            "--depots", "b",
        ])
        assert code == EXIT_OK
        assert "3 road nodes / 2 road edges" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, bad", [("--offset-x", "nan"), ("--offset-x", "inf"),
                                           ("--offset-y", "-inf")])
    def test_offset_that_is_not_finite_exits_input(self, fixture_dir, tmp_path, capsys,
                                                   flag, bad):
        argv = ["--out-dir", str(tmp_path / "out"), "build-network",
                "--road-nodes", str(fixture_dir / "road_nodes.csv"),
                "--road-edges", str(fixture_dir / "road_edges.csv"),
                "--power", str(fixture_dir / "power.csv"),
                "--offset-x", "-97.0", "--offset-y", "32.9", "--depots", "r0c0", f"{flag}={bad}"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {flag} must be a finite number, got {float(bad)!r}\n")
        assert not (tmp_path / "out" / "network.json").exists()

    def test_missing_depot_id_names_it(self, fixture_dir, tmp_path, capsys):
        code = main([
            "--out-dir", str(tmp_path / "out"), "build-network",
            "--road-nodes", str(fixture_dir / "road_nodes.csv"),
            "--road-edges", str(fixture_dir / "road_edges.csv"),
            "--power", str(fixture_dir / "power.csv"),
            "--depots", "nope",
        ])
        assert code == EXIT_INPUT
        assert "nope" in capsys.readouterr().err

    def test_parse_error_reports_line(self, fixture_dir, tmp_path, capsys):
        bad = tmp_path / "bad_nodes.csv"
        bad.write_text("node_id,lat,lon\na,32.0,-97.0\nb,not_a_number,-97.0\n")
        code = main([
            "--out-dir", str(tmp_path / "out"), "build-network",
            "--road-nodes", str(bad),
            "--road-edges", str(fixture_dir / "road_edges.csv"),
            "--power", str(fixture_dir / "power.csv"),
            "--depots", "a",
        ])
        assert code == EXIT_INPUT
        assert ":3" in capsys.readouterr().err

    def test_non_finite_csv_values_rejected(self, tmp_path, capsys):
        (tmp_path / "rn.csv").write_text("node_id,lat,lon\na,32.0,-97.0\nb,32.01,-97.0\n")
        files = {"nodes": tmp_path / "rn.csv", "edges": tmp_path / "re.csv",
                 "power": tmp_path / "p.csv"}
        # (edges CSV length, power CSV load, what the error must name)
        cases = [
            ("inf", "5", "re.csv:2: length_m must be finite"),
            ("100", "inf", "p.csv:2: downstream_load_kw must be finite"),
            ("100", "nan", "p.csv:2: downstream_load_kw must be finite"),
        ]
        for length, load, named in cases:
            files["edges"].write_text(f"u,v,length_m\na,b,{length}\n")
            files["power"].write_text(
                f"bus_id,x,y,downstream_load_kw,kind\nb1,-97.0,32.0,{load},line\n"
            )
            code = main([
                "--out-dir", str(tmp_path / "out"), "build-network",
                "--road-nodes", str(files["nodes"]),
                "--road-edges", str(files["edges"]),
                "--power", str(files["power"]),
                "--depots", "a",
            ])
            assert code == EXIT_INPUT, (length, load)
            assert named in capsys.readouterr().err, (length, load)


def _row(rows, n):
    rows[0] = rows[0][:n]


@pytest.mark.parametrize("kind, tamper, named", [
    ("network", lambda o: o.pop("road"), "missing key 'road'"),
    ("network", lambda o: _row(o["road"]["nodes"], 2), "not enough values"),
    ("network", lambda o: o.update(depots=5), "not iterable"),
    ("network", lambda o: _row(o["power_to_road"], 1), "not enough values"),
    ("network", lambda o: _row(o["loads_kw"], 1), "not enough values"),
    ("network", lambda o: o.update(damaged=["nowhere"]), "'nowhere' is not a road node"),
    ("road", lambda o: _row(o["nodes"], 2), "not enough values"),
], ids=["no-road", "node-row", "depots-int", "power-pair", "load-pair", "damaged-off-road",
        "road-graph-node-row"])
def test_malformed_network_files_exit_input(fixture_dir, tmp_path, capsys, kind, tamper, named):
    """A malformed coupled_network/1 or road_graph/1 exits 3 naming the file."""
    out = tmp_path / "out"
    road = load_road_network(fileio.read_road_nodes_csv(fixture_dir / "road_nodes.csv"),
                             fileio.read_road_edges_csv(fixture_dir / "road_edges.csv"))
    fileio.write_road_graph_json(road, tmp_path / "road.json")
    build = ["--out-dir", str(out), "build-network", "--power", str(fixture_dir / "power.csv"),
             "--offset-x", "-97.0", "--offset-y", "32.9", "--depots", "r0c0"]
    assert main([*build, "--road", str(tmp_path / "road.json")]) == EXIT_OK
    path = tmp_path / f"{kind}.json" if kind == "road" else out / "network.json"
    obj = json.loads(path.read_text())
    tamper(obj)
    bad = tmp_path / f"bad_{kind}.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    if kind == "road":
        code = main([*build, "--road", str(bad)])
    else:
        code = main(["--out-dir", str(out), "gen-scenarios", "--network", str(bad),
                     "--events", str(fixture_dir / "events.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT, err
    assert f"{bad}: malformed" in err and named in err, err


class TestGenScenarios:
    def test_roundtrip_and_digest(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_steps = [
            ["--out-dir", str(out), "--seed", "7", "build-network",
             "--road-nodes", str(fixture_dir / "road_nodes.csv"),
             "--road-edges", str(fixture_dir / "road_edges.csv"),
             "--power", str(fixture_dir / "power.csv"),
             "--offset-x", "-97.0", "--offset-y", "32.9",
             "--depots", "r0c0,r4c4"],
            ["--out-dir", str(out), "--seed", "7", "gen-scenarios",
             "--network", str(out / "network.json"),
             "--events", str(fixture_dir / "events.csv")],
        ]
        for argv in run_steps:
            assert main(argv) == EXIT_OK
        loaded = fileio.read_scenario_file(out / "scenarios.json")
        assert loaded.n_scenarios == 3
        assert loaded.seed == 7
        digest_a = capsys.readouterr().out
        assert main(run_steps[1]) == EXIT_OK
        digest_b = capsys.readouterr().out
        assert digest_a.splitlines()[-4:] == digest_b.splitlines()[-4:]

    def test_thirty_scenarios(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert main([
            "--out-dir", str(out), "build-network",
            "--road-nodes", str(fixture_dir / "road_nodes.csv"),
            "--road-edges", str(fixture_dir / "road_edges.csv"),
            "--power", str(fixture_dir / "power.csv"),
            "--offset-x", "-97.0", "--offset-y", "32.9",
            "--depots", "r0c0,r4c4",
        ]) == EXIT_OK
        assert main([
            "--out-dir", str(out), "--seed", "9", "gen-scenarios",
            "--network", str(out / "network.json"),
            "--events", str(fixture_dir / "events.csv"),
            "--n-scenarios", "30",
        ]) == EXIT_OK
        sset = fileio.read_scenario_file(out / "scenarios.json")
        assert sset.n_scenarios == 30
        assert [sc.scenario_id for sc in sset.scenarios] == list(range(30))

    def test_n_scenarios_below_one_exits_input(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        for bad in ("0", "-1"):
            code = main([
                "--out-dir", str(tmp_path / "again"), "gen-scenarios",
                "--network", str(out / "network.json"),
                "--events", str(fixture_dir / "events.csv"),
                "--n-scenarios", bad,
            ])
            assert code == EXIT_INPUT, bad
            assert capsys.readouterr().err == (
                f"error: --n-scenarios must be an integer >= 1, got {bad}\n")

    def test_negative_seed_exits_input(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        capsys.readouterr()
        code = main([
            "--out-dir", str(tmp_path / "again"), "--seed", "-1", "gen-scenarios",
            "--network", str(out / "network.json"),
            "--events", str(fixture_dir / "events.csv"),
        ])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "again").exists()

    def test_corridor_missing_everything(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        assert main([
            "--out-dir", str(out), "build-network",
            "--road-nodes", str(fixture_dir / "road_nodes.csv"),
            "--road-edges", str(fixture_dir / "road_edges.csv"),
            "--power", str(fixture_dir / "power.csv"),
            "--offset-x", "-97.0", "--offset-y", "32.9",
            "--depots", "r0c0",
        ]) == EXIT_OK
        (tmp_path / "far_events.csv").write_text(
            "ef,start_lat,start_lon,end_lat,end_lon,width_m\n"
            "1,45.0,-100.0,45.1,-100.0,200\n"
        )
        code = main([
            "--out-dir", str(out), "gen-scenarios",
            "--network", str(out / "network.json"),
            "--events", str(tmp_path / "far_events.csv"),
        ])
        assert code == EXIT_NO_DAMAGE


class TestSolveAndSchedule:
    def test_full_pipeline_artifacts(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        for name in ("network.json", "scenarios.json", "allocation.json",
                     "validation.json", "gantt.csv", "gantt.svg", "run_manifest.json"):
            assert (out / name).exists(), name
        validation = json.loads((out / "validation.json").read_text())
        assert validation["all_passed"] is True
        sset = fileio.read_scenario_file(out / "scenarios.json")
        for s in range(sset.n_scenarios):
            assert (out / f"routes_s{s}.json").exists()
            assert (out / f"gantt_s{s}.svg").exists()

    def test_reference_fixture_capacity_through_cli(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        # hand-authored scenario file over a 4-node line road with 3 depots
        node_ids = list(refcase.NODES)
        lat = 32.9
        rows = ["node_id,lat,lon"]
        all_ids = ["dep0", "dep1", "dep2"] + [str(n) for n in node_ids]
        for i, nid in enumerate(all_ids):
            rows.append(f"{nid},{lat},{-97.0 + 0.01 * i}")
        edges = ["u,v,length_m"]
        for a, b in zip(all_ids, all_ids[1:]):
            edges.append(f"{a},{b},1000.0")
        (tmp_path / "rn.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "re.csv").write_text("\n".join(edges) + "\n")
        (tmp_path / "p.csv").write_text(
            "bus_id,x,y,downstream_load_kw,kind\n"
            + "\n".join(
                f"bus{i},{-97.0 + 0.01 * (3 + i)},{lat},{refcase.LOADS_KW[n]},line"
                for i, n in enumerate(node_ids)
            )
            + "\n"
        )
        assert main([
            "--out-dir", str(out), "build-network",
            "--road-nodes", str(tmp_path / "rn.csv"),
            "--road-edges", str(tmp_path / "re.csv"),
            "--power", str(tmp_path / "p.csv"),
            "--depots", "dep0,dep1,dep2",
            "--damaged", ",".join(str(n) for n in node_ids),
        ]) == EXIT_OK

        # scenario ids in the network file are strings; rekey the fixture
        sset = refcase.scenario_set()
        from gridrestore import Scenario, ScenarioSet
        rekeyed = ScenarioSet(
            tuple(
                Scenario(
                    sc.scenario_id,
                    {(str(i), k): v for (i, k), v in sc.repair_time_h.items()},
                    {(str(i), k): v for (i, k), v in sc.repair_demand.items()},
                    frozenset(),
                )
                for sc in sset.scenarios
            ),
            seed=None,
            damaged=frozenset(str(n) for n in sset.damaged),
            loads_kw={str(n): kw for n, kw in sset.loads_kw.items()},
        )
        fileio.write_scenario_file(rekeyed, out / "scenarios.json")
        assert main([
            "--out-dir", str(out), "solve",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"),
        ]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "capacity 50" in captured
        alloc = fileio.read_allocation_file(out / "allocation.json")
        assert alloc.capacity == (50, 44, 48, 44)

    def test_unbounded_exit_code_suggests_scale(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        config = {"schema": "config/1", "scale_c": 1e-9}
        (tmp_path / "config.json").write_text(json.dumps(config))
        code = main([
            "--out-dir", str(out), "--config", str(tmp_path / "config.json"),
            "solve",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"),
        ])
        assert code == EXIT_UNBOUNDED
        assert "choose scale_c >" in capsys.readouterr().err

    def test_empty_damaged_set_solves_to_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "rn.csv").write_text("node_id,lat,lon\na,32.0,-97.0\nb,32.01,-97.0\n")
        (tmp_path / "re.csv").write_text("u,v,length_m\na,b,100\n")
        (tmp_path / "p.csv").write_text(
            "bus_id,x,y,downstream_load_kw,kind\nb1,-97.0,32.0,5,line\n"
        )
        assert main([
            "--out-dir", str(out), "build-network",
            "--road-nodes", str(tmp_path / "rn.csv"),
            "--road-edges", str(tmp_path / "re.csv"),
            "--power", str(tmp_path / "p.csv"),
            "--depots", "a",
        ]) == EXIT_OK
        from gridrestore import Scenario, ScenarioSet
        empty = ScenarioSet((Scenario(0, {}, {}, frozenset()),), seed=None,
                            damaged=frozenset())
        fileio.write_scenario_file(empty, out / "scenarios.json")
        assert main([
            "--out-dir", str(out), "solve",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"),
        ]) == EXIT_OK
        alloc = fileio.read_allocation_file(out / "allocation.json")
        assert alloc.capacity == (0, 0, 0, 0)

    def test_damaged_node_without_load_named(self, fixture_dir, tmp_path, capsys):
        # no bus of the fixture snaps to r3c3, so it has no loads_kw entry
        out = tmp_path / "out"
        network = ["--network", str(out / "network.json")]
        steps = [
            ["build-network",
             "--road-nodes", str(fixture_dir / "road_nodes.csv"),
             "--road-edges", str(fixture_dir / "road_edges.csv"),
             "--power", str(fixture_dir / "power.csv"),
             "--offset-x", "-97.0", "--offset-y", "32.9",
             "--depots", "r0c0,r4c4", "--damaged", "r2c2,r3c3"],
            ["gen-scenarios", *network, "--events", str(fixture_dir / "events.csv")],
        ]
        for argv in steps:
            assert main(["--out-dir", str(out), *argv]) == EXIT_OK, argv
        code = main(["--out-dir", str(out), "solve", *network,
                     "--scenarios", str(out / "scenarios.json")])
        assert code == EXIT_INPUT
        assert "loads_kw missing damaged node(s): ['r3c3']" in capsys.readouterr().err

    def test_non_finite_inputs_rejected(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        # (artifact, path to one number inside it, name the error must give)
        spots = [
            ("scenarios.json", ("scenarios", 0, "repair_time_h", 0, 1, 2), "repair_time_h"),
            ("scenarios.json", ("loads_kw", 0, 1), "loads_kw"),
            ("network.json", ("loads_kw", 0, 1), "loads_kw"),
            ("network.json", ("road", "edges", 0, 2), "distance must be finite"),
        ]
        for bad in (float("inf"), float("nan")):
            for name, where, named in spots:
                obj = json.loads((out / name).read_text())
                parent = obj
                for key in where[:-1]:
                    parent = parent[key]
                parent[where[-1]] = bad
                (tmp_path / name).write_text(json.dumps(obj))  # Infinity / NaN tokens
                files = {n: out / n for n in ("network.json", "scenarios.json")}
                files[name] = tmp_path / name
                code = main(["--out-dir", str(out), "solve",
                             "--network", str(files["network.json"]),
                             "--scenarios", str(files["scenarios.json"])])
                assert code == EXIT_INPUT, (name, where, bad)
                assert named in capsys.readouterr().err, (name, where, bad)

    @pytest.mark.parametrize("where, bad, named", [
        (("crews", 1, "hourly_cost_per_person"), "inf", "hourly_cost_per_person must be finite"),
        (("crews", 1, "hourly_cost_per_person"), "nan", "hourly_cost_per_person must be finite"),
        (("scenarios", 0, "repair_demand", 0, 1, 2), 2.5, "repair_demand"),
        (("scenarios", 0, "repair_demand", 0, 1, 2), True, "repair_demand"),
        (("scenarios", 0, "repair_time_h", 0, 1, 2), True, "repair_time_h"),
        (("loads_kw", 0, 1), 1e308, "stage 1: marginal gain overflows float64"),
        (("crews", 1, "hourly_cost_per_person"), True, "hourly_cost_per_person must be a number"),
        (("crews", 1, "hourly_cost_per_person"), "12", "hourly_cost_per_person must be a number"),
        (("scenarios", 1, "id"), True, "scenario_id must be an integer"),
        (("scenarios", 1, "id"), 1.5, "scenario_id must be an integer"),
        (("loads_kw", 0, 1), True, "bad loads_kw True"),
    ], ids=["cost-inf", "cost-nan", "demand-fraction", "demand-bool", "time-bool",
            "load-overflow", "cost-bool", "cost-string", "id-bool", "id-fraction",
            "load-bool"])
    def test_bad_scenario_values_exit_input(self, fixture_dir, tmp_path, capsys, where, bad,
                                            named):
        """Each exits 3 naming the field, or stage 1 when finite inputs overflow."""
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        obj = json.loads((out / "scenarios.json").read_text())
        parent = obj
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = bad
        (tmp_path / "scenarios.json").write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["--out-dir", str(out), "solve", "--network", str(out / "network.json"),
                     "--scenarios", str(tmp_path / "scenarios.json")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT, err
        assert named in err and ("scenarios.json" in err or "stage 1" in named), err

    def test_load_of_a_node_that_is_not_damaged_named(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        obj = json.loads((out / "scenarios.json").read_text())
        obj["loads_kw"].append(["r0c0", 5.0])  # a depot
        (tmp_path / "scenarios.json").write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["--out-dir", str(out), "solve", "--network", str(out / "network.json"),
                     "--scenarios", str(tmp_path / "scenarios.json")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT, err
        assert "loads_kw node 'r0c0' is not a damaged node" in err, err

    def test_non_finite_node_coordinate_rejected(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        obj = json.loads((out / "network.json").read_text())
        node = obj["road"]["nodes"][3]
        node[1] = float("nan")
        (tmp_path / "network.json").write_text(json.dumps(obj))
        code = main(["--out-dir", str(out), "gen-scenarios",
                     "--network", str(tmp_path / "network.json"),
                     "--events", str(fixture_dir / "events.csv")])
        assert code == EXIT_INPUT
        assert f"network.json: node {node[0]!r}: lat must be finite" in capsys.readouterr().err

    def test_unreachable_scenario_stops_solve(self, tmp_path, capsys):
        # scenario 1 cuts the only road to the damaged node c
        out = tmp_path / "out"
        (tmp_path / "rn.csv").write_text(
            "node_id,lat,lon\na,32.0,-97.0\nb,32.01,-97.0\nc,32.02,-97.0\n"
        )
        (tmp_path / "re.csv").write_text("u,v,length_m\na,b,100\nb,c,200\n")
        (tmp_path / "p.csv").write_text(
            "bus_id,x,y,downstream_load_kw,kind\nb1,-97.0,32.02,50,line\n"
        )
        assert main([
            "--out-dir", str(out), "build-network",
            "--road-nodes", str(tmp_path / "rn.csv"),
            "--road-edges", str(tmp_path / "re.csv"),
            "--power", str(tmp_path / "p.csv"),
            "--depots", "a", "--damaged", "c",
        ]) == EXIT_OK
        from gridrestore import Scenario, ScenarioSet
        times = {("c", k): 1.0 for k in range(4)}
        demands = {("c", k): 2 for k in range(4)}
        sset = ScenarioSet(
            (Scenario(0, times, demands, frozenset()),
             Scenario(1, times, demands, frozenset([("b", "c")]))),
            seed=None, damaged=frozenset(["c"]),
        )
        fileio.write_scenario_file(sset, out / "scenarios.json")
        capsys.readouterr()
        code = main([
            "--out-dir", str(out), "solve",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"),
        ])
        assert code == EXIT_UNREACHABLE
        assert capsys.readouterr().err == (
            "error: node 'c' unreachable for crew 0 (no depot can reach it)\n"
        )
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "solve" not in manifest["commands"]
        # scenarios are written as they are solved, so scenario 0's routes stay
        assert (out / "routes_s0.json").exists()
        assert not (out / "routes_s1.json").exists()
        assert not (out / "validation.json").exists()

    def test_one_closure_per_distinct_failure_set(self, fixture_dir, tmp_path,
                                                  monkeypatch, capsys, caplog):
        # a hand-authored scenario_set/1 whose failure sets repeat: A B A {} B A {}
        out = tmp_path / "out"
        assert main([
            "--out-dir", str(out), "build-network",
            "--road-nodes", str(fixture_dir / "road_nodes.csv"),
            "--road-edges", str(fixture_dir / "road_edges.csv"),
            "--power", str(fixture_dir / "power.csv"),
            "--offset-x", "-97.0", "--offset-y", "32.9",
            "--depots", "r0c0,r4c4", "--damaged", "r2c2,r1c3",
        ]) == EXIT_OK
        sets = {
            "A": [["r2c2", "r2c3"], ["r1c2", "r2c2"], ["r0c0", "r4c4"]],  # last is no edge
            "B": [["r1c3", "r1c2"]],  # reversed pair
            "-": [],
        }
        rnd = random.Random(5)

        def scenario(sid, key):
            return {
                "id": sid,
                "repair_time_h": [[i, [round(rnd.uniform(0.5, 9.0), 3) for _ in range(4)]]
                                  for i in ("r1c3", "r2c2")],
                "repair_demand": [[i, [rnd.randint(0, 3) for _ in range(4)]]
                                  for i in ("r1c3", "r2c2")],
                "failed_edges": sets[key],
            }

        def scenario_file(path, scenarios):
            path.write_text(json.dumps({
                "schema": "scenario_set/1", "seed": None, "config": None,
                "damaged": ["r1c3", "r2c2"],
                "crews": [{"index": c.index, "name": c.name,
                           "hourly_cost_per_person": c.hourly_cost_per_person}
                          for c in default_crews()],
                "loads_kw": [["r1c3", 120.0], ["r2c2", 80.0]],
                "scenarios": scenarios,
            }))

        order = "ABA-BA-"
        scenarios = [scenario(s, key) for s, key in enumerate(order)]
        scenario_file(tmp_path / "scenarios.json", scenarios)

        calls, built, alive = [], [], []
        original, write_plan = cli.shortest_path_matrix, fileio.write_route_plan_file

        def counting(road, terminals):
            calls.append(road.n_edges)
            complete = original(road, terminals)
            built.append(weakref.ref(complete))
            return complete

        def watching(plan, path, complete):
            gc.collect()
            alive.append(sum(ref() is not None for ref in built))
            write_plan(plan, path, complete)

        monkeypatch.setattr(cli, "shortest_path_matrix", counting)
        monkeypatch.setattr(fileio, "write_route_plan_file", watching)
        capsys.readouterr()
        with caplog.at_level(logging.WARNING, logger="gridrestore.network"):
            assert main(["--out-dir", str(out), "solve", "--network", str(out / "network.json"),
                         "--scenarios", str(tmp_path / "scenarios.json")]) == EXIT_OK
        assert calls == [38, 39, 40]  # first use of A, B, then the empty set
        # a closure lives from its first scenario to its last, and no longer
        assert alive == [1, 2, 2, 3, 3, 2, 1]
        monkeypatch.setattr(fileio, "write_route_plan_file", write_plan)
        # the ignored pair of A is reported once, when A's closure is built
        assert caplog.text.count("1 failure pair(s) match no edge") == 1
        lines = [ln for ln in capsys.readouterr().out.splitlines() if "  scenario " in ln]

        for s, rec in enumerate(scenarios):
            single = tmp_path / f"single{s}"
            scenario_file(tmp_path / f"one{s}.json", [{**rec, "id": 0}])
            assert main(["--out-dir", str(single), "solve",
                         "--network", str(out / "network.json"),
                         "--scenarios", str(tmp_path / f"one{s}.json")]) == EXIT_OK
            alone = (single / "routes_s0.json").read_bytes()
            assert alone.count(b'"scenario_id": 0,') == 1
            assert (out / f"routes_s{s}.json").read_bytes() == alone.replace(
                b'"scenario_id": 0,', f'"scenario_id": {s},'.encode())
            single_line = [ln for ln in capsys.readouterr().out.splitlines()
                           if "  scenario 0:" in ln]
            assert [lines[s].replace(f"scenario {s}:", "scenario 0:")] == single_line
        assert len(calls) == 3 + len(order)

    def test_schedule_contains_checkpoint_hours(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        text = (out / "gantt.csv").read_text()
        assert text.splitlines()[0] == "scenario,node,crew,start_h,finish_h"

    def test_single_node_fixture_shows_11_8_in_csv(self, tmp_path):
        # one depot one millimeter away from the single damaged node, so the
        # additive repair chain dominates: crew 3 starts at hour 11.8
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "rn.csv").write_text(
            "node_id,lat,lon\ndep,32.0,-97.0\n37215,32.0,-97.0\n"
        )
        (tmp_path / "re.csv").write_text("u,v,length_m\ndep,37215,0.001\n")
        (tmp_path / "p.csv").write_text(
            "bus_id,x,y,downstream_load_kw,kind\nb1,-97.0,32.0,213.6,line\n"
        )
        assert main([
            "--out-dir", str(out), "build-network",
            "--road-nodes", str(tmp_path / "rn.csv"),
            "--road-edges", str(tmp_path / "re.csv"),
            "--power", str(tmp_path / "p.csv"),
            "--depots", "dep", "--damaged", "37215",
        ]) == EXIT_OK
        from gridrestore import Scenario, ScenarioSet
        node = "37215"
        times = {(node, k): refcase.REPAIR_TIME_H[37215][k][0] for k in range(4)}
        demands = {(node, k): refcase.REPAIR_DEMAND[37215][k][0] for k in range(4)}
        sset = ScenarioSet(
            (Scenario(0, times, demands, frozenset()),), seed=None,
            damaged=frozenset([node]), loads_kw={node: 213.6},
        )
        fileio.write_scenario_file(sset, out / "scenarios.json")
        assert main([
            "--out-dir", str(out), "solve",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"),
        ]) == EXIT_OK
        assert main([
            "--out-dir", str(out), "schedule",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"),
        ]) == EXIT_OK
        rows = (out / "gantt.csv").read_text().splitlines()
        crew3 = next(r for r in rows if r.startswith("0,37215,3,"))
        assert crew3 == "0,37215,3,11.8000,15.9000"

    def test_zero_speed_rejected(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        code = main([
            "--out-dir", str(out), "schedule",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"),
            "--speed-kmh", "0",
        ])
        assert code == 8

    def test_speed_that_is_not_finite_writes_nothing(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        capsys.readouterr()
        code = main([
            "--out-dir", str(tmp_path / "sched"), "schedule",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"),
            "--routes-dir", str(out), "--speed-kmh", "nan",
        ])
        assert code == 8
        assert capsys.readouterr().err == (
            "error: speed_kmh must be a finite number, got nan\n")
        assert list((tmp_path / "sched").iterdir()) == []

    def test_time_past_the_float_range_writes_nothing(self, fixture_dir, tmp_path, capsys,
                                                      monkeypatch):
        """A speed in range whose travel times are not: exit 8 before any chart is drawn."""
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        draw = fileio.write_gantt_svg

        def finite_only(chart, *args, **kwargs):
            # ticks are drawn up to the makespan: an infinite one would never end
            assert math.isfinite(chart.makespan_h), "an infinite chart reached the SVG writer"
            draw(chart, *args, **kwargs)

        monkeypatch.setattr(fileio, "write_gantt_svg", finite_only)
        config = tmp_path / "slow.json"
        config.write_text(json.dumps({"schema": "config/1", "speed_kmh": 1e-320}))
        capsys.readouterr()
        code = main([
            "--out-dir", str(tmp_path / "sched"), "--config", str(config), "schedule",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"), "--routes-dir", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 8, err
        assert err.startswith("error: scenario 0: crew ") and "finite time" in err, err
        assert list((tmp_path / "sched").iterdir()) == []

    @pytest.mark.parametrize("name, where, bad, named", [
        ("network.json", ("loads_kw", 0, 1), "123.4", "bad loads_kw '123.4'"),
        ("network.json", ("road", "nodes", 3, 1), "32.9", "bad lat '32.9'"),
        ("scenarios.json", ("loads_kw", 0, 1), "123.4", "bad loads_kw '123.4'"),
    ], ids=["network-load", "network-lat", "scenario-load"])
    def test_string_number_exits_input(self, fixture_dir, tmp_path, capsys, name, where, bad,
                                       named):
        """``solve`` and ``schedule`` refuse a number written as a string, naming it."""
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        obj = json.loads((out / name).read_text())
        parent = obj
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = bad
        (tmp_path / name).write_text(json.dumps(obj))
        files = {n: out / n for n in ("network.json", "scenarios.json")}
        files[name] = tmp_path / name
        for stage in ("solve", "schedule"):
            capsys.readouterr()
            code = main(["--out-dir", str(tmp_path / stage), stage,
                         "--network", str(files["network.json"]),
                         "--scenarios", str(files["scenarios.json"]),
                         *(["--routes-dir", str(out)] if stage == "schedule" else [])])
            err = capsys.readouterr().err
            assert code == EXIT_INPUT, (stage, err)
            assert f"{tmp_path / name}: node " in err and named in err, (stage, err)

    def test_schedule_builds_no_closure(self, fixture_dir, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        charts = {p.name: p.read_bytes() for p in out.glob("gantt*")}
        for p in out.glob("gantt*"):
            p.unlink()

        def forbidden(*args, **kwargs):
            raise AssertionError("schedule must travel the plans' distance_m")

        # a call would exit 9 (internal error)
        monkeypatch.setattr(cli, "apply_road_failures", forbidden)
        monkeypatch.setattr(cli, "shortest_path_matrix", forbidden)
        assert main([
            "--out-dir", str(out), "schedule",
            "--network", str(out / "network.json"),
            "--scenarios", str(out / "scenarios.json"),
        ]) == EXIT_OK
        assert {p.name: p.read_bytes() for p in out.glob("gantt*")} == charts

    def test_tampered_plan_rejected(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        plan_path = out / "routes_s0.json"
        pristine = plan_path.read_text()

        def reroute(route, start, order, end):
            stops = [start, *order, end]
            route.update(depot_start=start, visit_order=order, depot_end=end, legs=[
                {"from": u, "to": v, "distance_m": "1.000"} for u, v in zip(stops, stops[1:])
            ])

        # (tampering of the first route, exit code, what the error must say)
        cases = [
            (lambda r: reroute(r, r["depot_start"], r["visit_order"][:-1], r["depot_end"]),
             EXIT_INVALID_PLAN, "demand-positive nodes"),
            (lambda r: reroute(r, "r0c1", r["visit_order"], r["depot_end"]),
             EXIT_INVALID_PLAN, "'r0c1' is not a network depot"),
            (lambda r: r["legs"][0].update({"from": r["legs"][0]["to"], "to": r["depot_start"]}),
             EXIT_INPUT, "legs do not chain"),
            (lambda r: r["legs"].pop(), EXIT_INPUT, "legs do not chain"),
            (lambda r: r.pop("legs"), EXIT_INPUT, "malformed route plan"),
            (lambda r: r["legs"][0].update(distance_m="Infinity"),
             EXIT_INPUT, "distance must be finite"),
        ]
        for tamper, code, named in cases:
            obj = json.loads(pristine)
            tamper(obj["routes"][0])
            plan_path.write_text(json.dumps(obj))
            assert main([
                "--out-dir", str(out), "schedule",
                "--network", str(out / "network.json"),
                "--scenarios", str(out / "scenarios.json"),
            ]) == code, named
            assert named in capsys.readouterr().err, named

    def test_plan_for_another_scenario_rejected(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        plan_path = out / "routes_s0.json"
        relabelled = json.loads(plan_path.read_text())
        relabelled["scenario_id"] = 3
        # (what replaces routes_s0.json, the plan's scenario id)
        cases = [((out / "routes_s1.json").read_text(), 1), (json.dumps(relabelled), 3)]
        for text, plan_id in cases:
            plan_path.write_text(text)
            assert main([
                "--out-dir", str(out), "schedule",
                "--network", str(out / "network.json"),
                "--scenarios", str(out / "scenarios.json"),
            ]) == EXIT_INVALID_PLAN
            err = capsys.readouterr().err
            assert f"route plan is for scenario {plan_id}, not scenario 0" in err, err

    @pytest.mark.parametrize("where, bad, named", [
        (("routes", 0, "crew"), "0", "crew must be an integer, got '0'"),
        (("routes", 0, "crew"), 0.0, "crew must be an integer, got 0.0"),
        (("routes", 0, "crew"), True, "crew must be an integer, got True"),
        (("scenario_id",), "0", "scenario_id must be an integer, got '0'"),
        (("scenario_id",), 0.0, "scenario_id must be an integer, got 0.0"),
        (("routes", 0, "leg_costs", 0), True, "leg_costs[0] must be a number, got True"),
        (("routes", 0, "leg_costs", 0), "1.5", "leg_costs[0] must be a number, got '1.5'"),
        (("routes", 0, "total_cost"), "9", "total_cost must be a number, got '9'"),
        (("routes", 0, "mtz_labels", 0, 1), "1", "must be an integer, got '1'"),
        (("routes", 0, "mtz_labels", 0, 1), 1.0, "must be an integer, got 1.0"),
    ], ids=["crew-string", "crew-float", "crew-bool", "id-string", "id-float", "leg-bool",
            "leg-string", "total-string", "label-string", "label-float"])
    def test_bad_route_plan_values_exit_input(self, fixture_dir, tmp_path, capsys, where, bad,
                                              named):
        """The route plan reader coerces nothing: each exits 3 naming the file and the field."""
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        plan_path = out / "routes_s0.json"
        obj = json.loads(plan_path.read_text())
        parent = obj
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = bad
        plan_path.write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["--out-dir", str(out), "schedule", "--network", str(out / "network.json"),
                     "--scenarios", str(out / "scenarios.json")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT, err
        assert "routes_s0.json: malformed route plan" in err and named in err, err

    def test_render_rebuilds_svg(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        for name in ("gantt2.svg", "gantt3.svg"):
            assert main([
                "--out-dir", str(out), "render",
                "--gantt", str(out / "gantt.csv"),
                "-o", name,
            ]) == EXIT_OK
        # rendering the same CSV twice is byte-identical
        assert (out / "gantt2.svg").read_bytes() == (out / "gantt3.svg").read_bytes()
        assert (out / "gantt2.svg").read_text().startswith("<svg")


class TestReproducibility:
    def test_two_runs_byte_identical(self, fixture_dir, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        run_pipeline(fixture_dir, out1, seed=11)
        run_pipeline(fixture_dir, out2, seed=11)
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_intermediate_regeneration(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out, seed=5)
        blob = (out / "scenarios.json").read_bytes()
        (out / "scenarios.json").unlink()
        assert main([
            "--out-dir", str(out), "--seed", "5", "gen-scenarios",
            "--network", str(out / "network.json"),
            "--events", str(fixture_dir / "events.csv"),
        ]) == EXIT_OK
        assert (out / "scenarios.json").read_bytes() == blob

    def test_rerun_in_place_keeps_files_untouched(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out, seed=5)
        old_ns = 1_000_000_000_000_000_000  # a coarse clock cannot hide a rewrite
        before = {}
        for p in out.iterdir():
            os.utime(p, ns=(old_ns, old_ns))
            before[p.name] = p.read_bytes()
        common = ["--out-dir", str(out), "--seed", "5"]
        inputs = ["--network", str(out / "network.json"),
                  "--scenarios", str(out / "scenarios.json")]
        assert main(common + ["solve", *inputs]) == EXIT_OK
        assert main(common + ["schedule", *inputs]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        for p in out.iterdir():
            assert p.read_bytes() == before[p.name], p.name
            assert p.stat().st_mtime_ns == old_ns, p.name

    def test_no_artifact_writer_bypasses_the_in_place_writer(self, fixture_dir, tmp_path,
                                                               monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"Path.write_text({self})")

        monkeypatch.setattr(pathlib.Path, "write_text", forbidden)
        run_pipeline(fixture_dir, tmp_path / "out")


class TestConfigFile:
    def test_unknown_key_rejected(self, fixture_dir, tmp_path, capsys):
        # also every value of the wrong type (a bool is no number) or out of
        # range, e.g. a cost_rate_per_m that is not N_CREWS finite numbers >= 0
        for bad, named in [
            ({"no_such_knob": 1}, "no_such_knob"),
            ({"cost_rate_per_m": [float("nan"), 1, 1, 1]}, "cost_rate_per_m"),
            ({"cost_rate_per_m": [float("inf"), 1, 1, 1]}, "cost_rate_per_m"),
            ({"cost_rate_per_m": [1, 1]}, "cost_rate_per_m"),
            ({"cost_rate_per_m": [1, 1, 1, -1]}, "cost_rate_per_m"),
            ({"n_scenarios": "3"}, "n_scenarios must be"),
            ({"n_scenarios": True}, "n_scenarios must be"),
            ({"n_scenarios": 2.0}, "n_scenarios must be"),
            ({"n_scenarios": 0}, "n_scenarios must be"),
            ({"demand_lo": -1}, "demand_lo must be"),
            ({"repair_time_sigma": float("nan")}, "repair_time_sigma must be"),
            ({"edge_fail_prob": 1.5}, "edge_fail_prob must be"),
            ({"corridor_width_m": 0}, "corridor_width_m must be"),
            ({"power_weight": "x"}, "power_weight must be"),
            ({"time_weight": float("inf")}, "time_weight must be"),
            ({"scale_c": False}, "scale_c must be"),
            ({"crew_costs": [200, 65, 75]}, "crew_costs must be"),
            ({"crew_costs": [200, 65, 75, 0]}, "crew_costs must be"),
            ({"speed_kmh": "fast"}, "speed_kmh must be"),
            ({"speed_kmh": 0}, "speed_kmh must be"),
            ({"speed_kmh": 10**400}, "speed_kmh must be"),  # an int past the float range
            # relations between fields, checked after the per-field table
            ({"demand_lo": 7, "demand_hi": 6}, "demand_lo must be <= demand_hi, got 7 > 6"),
            ({"demand_hi": 3}, "demand_lo must be <= demand_hi, got 5 > 3"),  # default lo
            ({"repair_time_min_h": 6.0, "repair_time_max_h": 2.0},
             "repair_time_min_h must be <= repair_time_max_h, got 6.0 > 2.0"),
            ({"demand_lo": 4, "demand_hi": 4, "repair_time_min_h": 2,
              "repair_time_max_h": 2}, None),
            # null where the default is null, and an integer for a float, pass
            ({"scale_c": None, "crew_costs": None, "speed_kmh": 40}, None),
        ]:
            (tmp_path / "config.json").write_text(json.dumps({"schema": "config/1", **bad}))
            code = main([
                "--out-dir", str(tmp_path / "out"),
                "--config", str(tmp_path / "config.json"),
                "build-network",
                "--road-nodes", str(fixture_dir / "road_nodes.csv"),
                "--road-edges", str(fixture_dir / "road_edges.csv"),
                "--power", str(fixture_dir / "power.csv"),
                "--depots", "r0c0",
            ])
            err = capsys.readouterr().err
            if named is None:
                assert code == EXIT_OK, (bad, err)
                continue
            assert code == EXIT_INPUT, bad
            assert named in err, bad

    def test_every_field_has_a_rule(self):
        assert set(cli._CONFIG_FIELDS) == set(cli.PipelineConfig.__dataclass_fields__)

    def test_unexpected_exception_exits_internal(self, tmp_path, monkeypatch, capsys):
        def boom(args, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_render", boom)
        code = main(["--out-dir", str(tmp_path), "render", "--gantt", "gantt.csv"])
        assert code == EXIT_INTERNAL
        assert capsys.readouterr().err == "error: internal: RuntimeError: boom\n"

    def test_sampling_knobs_flow_through(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        (tmp_path / "config.json").write_text(json.dumps({
            "schema": "config/1",
            "n_scenarios": 2,
            "demand_lo": 3, "demand_hi": 4,
            "repair_time_min_h": 2.0, "repair_time_max_h": 3.0,
        }))
        common = ["--out-dir", str(out), "--config", str(tmp_path / "config.json")]
        assert main(common + [
            "build-network",
            "--road-nodes", str(fixture_dir / "road_nodes.csv"),
            "--road-edges", str(fixture_dir / "road_edges.csv"),
            "--power", str(fixture_dir / "power.csv"),
            "--offset-x", "-97.0", "--offset-y", "32.9",
            "--depots", "r0c0,r4c4",
        ]) == EXIT_OK
        assert main(common + [
            "gen-scenarios",
            "--network", str(out / "network.json"),
            "--events", str(fixture_dir / "events.csv"),
        ]) == EXIT_OK
        sset = fileio.read_scenario_file(out / "scenarios.json")
        assert sset.n_scenarios == 2
        for sc in sset.scenarios:
            assert all(3 <= d <= 4 for d in sc.repair_demand.values())
            assert all(2.0 <= t <= 3.0 for t in sc.repair_time_h.values())


class TestManifest:
    def test_manifest_records_all_commands(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        run_pipeline(fixture_dir, out)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["schema"] == "run_manifest/1"
        assert set(manifest["commands"]) == {
            "build-network", "gen-scenarios", "solve", "schedule"
        }
        for command in manifest["commands"].values():
            for digest in command["inputs"].values():
                assert digest.startswith("sha256:")

    @pytest.mark.parametrize("commands, message", [
        ([], "commands must be an object, got []"),
        (None, "missing key 'commands'"),
    ], ids=["not-an-object", "missing"])
    def test_malformed_commands_named(self, fixture_dir, tmp_path, capsys, commands, message):
        out = tmp_path / "out"
        argv = ["--out-dir", str(out), "build-network",
                "--road-nodes", str(fixture_dir / "road_nodes.csv"),
                "--road-edges", str(fixture_dir / "road_edges.csv"),
                "--power", str(fixture_dir / "power.csv"), "--depots", "r0c0"]
        assert main(argv) == EXIT_OK
        path = out / "run_manifest.json"
        manifest = json.loads(path.read_text())
        if commands is None:
            del manifest["commands"]
        else:
            manifest["commands"] = commands
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "run_manifest.json" in err and message in err, err

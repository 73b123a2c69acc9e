"""``solve`` checks and encodes each distinct crew route once, and writes the bytes
that routing and writing every scenario from scratch would write.

The fixture is a 4x4 grid with 500 m blocks, so most terminal pairs have tied
shortest road paths. Its failure sets cut one corner edge each way (a leg's
road path moves, its length does not) or an edge between two damaged nodes (a
leg gets longer). Demands of 0-3 over four damaged nodes make small required
sets that recur within a failure set, and the same crew visits the same stops
under failure sets with other leg lengths or road paths.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gridrestore import default_crews, fileio, routing
from gridrestore.cli import EXIT_OK, main
from gridrestore.network import apply_road_failures, node_key, shortest_path_matrix
from gridrestore.routing import RoutingInstance, crew_problems, solve_routing, validate_routes

SRC = Path(__file__).resolve().parents[1] / "src"
N = 4
DEPOTS = ("r0c0", "r3c3")
DAMAGED = ("r1c1", "r1c2", "r2c1", "r2c2")
FAILURES = {
    "-": [],
    "west": [["r0c0", "r1c0"]],  # the corner's two ways to r1c1 tie
    "north": [["r0c0", "r0c1"]],
    "long": [["r1c1", "r1c2"]],  # the damaged neighbours' 500 m leg becomes 1500 m
}
RATES = [1.0, 0.0, 2.5, 1.0]  # crews 0 and 3 pose the same problems


def _fixture(root: Path, n_scenarios: int = 40, seed: int = 11) -> Path:
    """A built ``network.json`` and a ``scenarios.json`` in ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    nodes = ["node_id,lat,lon"]
    edges = ["u,v,length_m"]
    for r in range(N):
        for c in range(N):
            nodes.append(f"r{r}c{c},{32.9 + r * 0.0045},{-97.0 + c * 0.0053}")
            if c + 1 < N:
                edges.append(f"r{r}c{c},r{r}c{c + 1},500.0")
            if r + 1 < N:
                edges.append(f"r{r}c{c},r{r + 1}c{c},500.0")
    (root / "road_nodes.csv").write_text("\n".join(nodes) + "\n")
    (root / "road_edges.csv").write_text("\n".join(edges) + "\n")
    (root / "power.csv").write_text("bus_id,x,y,downstream_load_kw,kind\n"
                                    "b0,0.005,0.005,120.0,line\n"
                                    "b1,0.010,0.009,80.0,transformer\n")
    assert main(["--out-dir", str(root), "build-network",
                 "--road-nodes", str(root / "road_nodes.csv"),
                 "--road-edges", str(root / "road_edges.csv"),
                 "--power", str(root / "power.csv"),
                 "--offset-x", "-97.0", "--offset-y", "32.9",
                 "--depots", ",".join(DEPOTS), "--damaged", ",".join(DAMAGED)]) == EXIT_OK
    rnd = random.Random(seed)
    scenarios = [{
        "id": s,
        "repair_time_h": [[i, [round(rnd.uniform(0.5, 9.0), 3) for _ in range(4)]]
                          for i in DAMAGED],
        "repair_demand": [[i, [rnd.randint(0, 3) for _ in range(4)]] for i in DAMAGED],
        "failed_edges": FAILURES[rnd.choice(sorted(FAILURES))],
    } for s in range(n_scenarios)]
    (root / "scenarios.json").write_text(json.dumps({
        "schema": "scenario_set/1", "seed": None, "config": None,
        "damaged": list(DAMAGED),
        "crews": [{"index": c.index, "name": c.name,
                   "hourly_cost_per_person": c.hourly_cost_per_person}
                  for c in default_crews()],
        "loads_kw": [[i, 100.0 + 10 * n] for n, i in enumerate(DAMAGED)],
        "scenarios": scenarios,
    }))
    return root


def _config(path: Path, rates) -> Path:
    path.write_text(json.dumps({"schema": "config/1", "cost_rate_per_m": rates}))
    return path


def _solve(root: Path, out: Path, config: Path) -> list[str]:
    return ["--out-dir", str(out), "--config", str(config), "solve",
            "--network", str(root / "network.json"),
            "--scenarios", str(root / "scenarios.json")]


def _reference(root: Path, out: Path, rates) -> None:
    """Each scenario routed, checked and written from scratch into ``out``, with no
    map shared between scenarios; ``validation.json`` as ``solve`` writes it."""
    out.mkdir(parents=True)
    net = fileio.read_network_file(root / "network.json")
    sset = fileio.read_scenario_file(root / "scenarios.json")
    rates = dict(enumerate(rates))
    terminals = (sorted(net.depots, key=node_key)
                 + sorted((net.damaged | sset.damaged) - net.depots, key=node_key))
    validation, all_passed = [], True
    for scenario in sset.scenarios:
        complete = shortest_path_matrix(apply_road_failures(net.road, scenario.failed_edges),
                                        terminals)
        inst = RoutingInstance.from_scenario(complete, scenario, net.depots, rates)
        plan = solve_routing(inst, scenario.scenario_id)
        report = validate_routes(plan, inst)
        fileio.write_route_plan_file(plan, out / f"routes_s{scenario.scenario_id}.json",
                                     complete)
        validation.append({"scenario_id": scenario.scenario_id, "passed": report.passed,
                           "violations": {f: list(v) for f, v in report.violations.items()}})
        all_passed &= report.passed
    fileio.write_json_artifact(out / "validation.json", {
        "schema": "route_validation/1", "all_passed": all_passed, "scenarios": validation})


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name.startswith("routes_s") or p.name == "validation.json"}


@pytest.fixture
def root(tmp_path):
    return _fixture(tmp_path / "in")


def _posed(root: Path) -> list:
    """(failure set, crew, problem) of every crew with demand, scenario by scenario."""
    sset = fileio.read_scenario_file(root / "scenarios.json")
    return [(sc.failed_edges, k, problem) for sc in sset.scenarios
            for k, problem in crew_problems(sc.required(), dict(enumerate(RATES))).items()]


def _routes(out: Path) -> list[dict]:
    return [rec for name, text in _artifacts(out).items() if name.startswith("routes_s")
            for rec in json.loads(text)["routes"]]


def test_fixture_exercises_every_reuse(root, tmp_path):
    _reference(root, tmp_path / "ref", RATES)
    posed = _posed(root)
    assert len(set(posed)) < len(posed)  # a crew's problem recurs within a failure set
    written = {}  # a crew and its stops -> each (distance, road path) per leg written
    for rec in _routes(tmp_path / "ref"):
        stops = (rec["crew"], rec["depot_start"], *rec["visit_order"], rec["depot_end"])
        written.setdefault(stops, set()).add(
            tuple((leg["distance_m"], tuple(leg["road_path"])) for leg in rec["legs"]))
    variants = [v for v in written.values() if len(v) > 1]
    lengths = [{tuple(d for d, _ in legs) for legs in v} for v in variants]
    # the same crew and stops with other leg lengths, and with the same lengths
    # but other road paths
    assert any(len(n) > 1 for n in lengths)
    assert any(len(n) < len(v) for n, v in zip(lengths, variants))


def test_artifacts_equal_a_scenario_by_scenario_reference(root, tmp_path):
    out = tmp_path / "out"
    assert main(_solve(root, out, _config(tmp_path / "config.json", RATES))) == EXIT_OK
    _reference(root, tmp_path / "ref", RATES)
    got, want = _artifacts(out), _artifacts(tmp_path / "ref")
    assert len(want) == 41
    assert got == want


def test_each_distinct_route_is_encoded_once(root, tmp_path, monkeypatch):
    built, encoded = [], []
    build, fragment = routing._route_from_order, fileio._Encoded

    def counting_build(inst, crew, *answer):
        built.append(crew)
        return build(inst, crew, *answer)

    class CountingFragment(fragment):
        __slots__ = ()

        def __init__(self, value, pad):
            encoded.append(pad)
            super().__init__(value, pad)

    monkeypatch.setattr(routing, "_route_from_order", counting_build)
    monkeypatch.setattr(fileio, "_Encoded", CountingFragment)
    out = tmp_path / "out"
    assert main(_solve(root, out, _config(tmp_path / "config.json", RATES))) == EXIT_OK
    monkeypatch.undo()

    posed = _posed(root)
    routes = [json.dumps(rec, sort_keys=True) for rec in _routes(out)]
    legs = {json.dumps(leg, sort_keys=True) for rec in _routes(out) for leg in rec["legs"]}
    # a Route is built for every crew route; only its check and its text are shared
    assert built == [k for _, k, _ in posed] and len(built) == len(routes)
    assert encoded.count(fileio._ROUTE_PAD) == len(set(routes)) < len(set(posed))
    assert encoded.count(fileio._LEG_PAD) == len(legs)
    assert len(encoded) == len(set(routes)) + len(legs)


def test_back_to_back_calls_each_write_what_a_fresh_process_writes(root, tmp_path):
    # the rates differ but keep their signs, so both calls pose the same problems
    # and find the same orders: only the costs tell the two calls apart
    configs = [_config(tmp_path / "a.json", RATES),
               _config(tmp_path / "b.json", [2.0, 0.0, 0.5, 3.0])]
    for n, config in enumerate(configs):
        assert main(_solve(root, tmp_path / f"inproc{n}", config)) == EXIT_OK
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for n, config in enumerate(configs):
        subprocess.run([sys.executable, "-m", "gridrestore",
                        *_solve(root, tmp_path / f"fresh{n}", config)],
                       env=env, capture_output=True, check=True)
    for n in range(2):
        fresh, inproc = tmp_path / f"fresh{n}", tmp_path / f"inproc{n}"
        assert sorted(p.name for p in inproc.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for p in fresh.iterdir():
            assert (inproc / p.name).read_bytes() == p.read_bytes(), (n, p.name)
    assert _artifacts(tmp_path / "inproc0") != _artifacts(tmp_path / "inproc1")

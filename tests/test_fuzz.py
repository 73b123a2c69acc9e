"""Fuzzing the artifact, config and input readers through the stages that read them: a
bad value is an exit code, never a crash. ``allocation.json``, which no stage reads, is
fuzzed through its reader: a bad value is a SchemaError."""

import contextlib
import csv
import io
import itertools
import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from gridrestore import (
    CoupledNetwork,
    CrewAllocation,
    Scenario,
    ScenarioSet,
    fileio,
    load_road_network,
)
from gridrestore.cli import EXIT_DOC, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, PipelineConfig, main
from gridrestore.errors import SchemaError

# what one leaf of an artifact is replaced with
BAD_VALUES = (None, True, -1, 2.5, "x", [], {}, 1e308, "nan", "inf")
# what one cell of a CSV artifact is replaced with
BAD_CELLS = ("", " ", "x", "-1", "0", "2.5", "1e308", "-1e308", "1e400", "nan", "inf",
             "-inf", "true", "null", "a,b", '"', "line\nbreak", "<&>", "9" * 40)
DOCUMENTED = {int(line.split()[0]) for line in EXIT_DOC.splitlines()[1:] if line.strip()}
# a fresh file per example: creating one is cheaper than truncating one on some filesystems
_FILE_NO = itertools.count()


def _leaves(obj, path=()):
    """Paths to every scalar or empty container in a parsed JSON document."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return [path]
    found = [leaf for key, child in children for leaf in _leaves(child, path + (key,))]
    return found or [path]


def _roles(doc):
    """Leaf paths of ``doc`` grouped by role (list indices blanked), so a rare role is
    drawn as often as a role with many cells."""
    roles = {}
    for path in _leaves(doc):
        roles.setdefault(tuple("*" if isinstance(k, int) else k for k in path), []).append(path)
    return list(roles.values())


def _bad_file(inputs, data, name):
    """A fresh file holding the artifact (or config) ``name`` with one leaf (a role, then
    a leaf of that role) replaced by one of BAD_VALUES."""
    doc, roles = inputs[1][name]
    where = data.draw(st.sampled_from(data.draw(st.sampled_from(roles))), label="leaf")
    value = data.draw(st.sampled_from(BAD_VALUES), label="value")
    return _with_leaf(inputs[0], doc, where, value)


def _bad_csv(path, data):
    """A fresh file beside ``path`` holding its CSV with one cell (a column, then a row,
    the header too) replaced by one of BAD_CELLS."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
    rows[data.draw(st.integers(0, len(rows) - 1), label="row")][column] = data.draw(
        st.sampled_from(BAD_CELLS), label="value")
    bad = path.parent / f"bad_{next(_FILE_NO)}.csv"
    with open(bad, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return bad


def _with_leaf(root, doc, where, value):
    """A fresh file in ``root`` holding ``doc`` with the leaf at ``where`` set to ``value``."""
    obj = json.loads(json.dumps(doc))
    parent = obj
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    bad = root / f"bad_{next(_FILE_NO)}.json"
    bad.write_text(json.dumps(obj))
    return bad


# the input CSVs of the triangle road in ``inputs``, and the flag each is passed with
INPUT_CSVS = {
    "road_nodes.csv": ("road_nodes", [["node_id", "lat", "lon"], ["a", "32.0", "-97.0"],
                                      ["b", "32.01", "-97.0"], ["c", "32.0", "-97.01"]]),
    "road_edges.csv": ("road_edges", [["u", "v", "length_m"], ["a", "b", "1200.0"],
                                      ["b", "c", "1500.0"], ["a", "c", "900.0"]]),
    "power.csv": ("power", [["bus_id", "x", "y", "downstream_load_kw", "kind"],
                            ["bus1", "-97.0", "32.0", "40.0", "line"],
                            ["bus2", "-97.01", "32.0", "25.0", "transformer"]]),
    "power_edges.csv": ("power_edges", [["bus_u", "bus_v"], ["bus1", "bus2"]]),
    "events.csv": ("events", [["ef", "start_lat", "start_lon", "end_lat", "end_lon", "width_m"],
                              ["2", "32.0", "-97.02", "32.0", "-96.99", "500.0"]]),
}
BUILD_INPUTS = {flag: name for name, (flag, _) in INPUT_CSVS.items() if flag != "events"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A triangle road with one depot and two damaged nodes that gen-scenarios samples
    from, and two scenarios that solve and schedule; the routes and the allocation stay
    in ``routes/``. Each artifact's parsed document and leaf roles come along, and so
    do a config that names every key and the CSVs (and ``road.json``) build-network
    reads the road from."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, (_, rows) in INPUT_CSVS.items():
        with open(root / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    assert _stage(root, "built", "build-network", **BUILD_INPUTS)[0] == EXIT_OK
    config = {**PipelineConfig().echo(), "corridor_width_m": 400.0, "scale_c": 1000.0,
              "crew_costs": [1.0, 2.0, 3.0, 4.0]}
    (root / "config.json").write_text(json.dumps(config))
    road = load_road_network([("a", 32.0, -97.0), ("b", 32.01, -97.0), ("c", 32.0, -97.01)],
                             [("a", "b", 1200.0), ("b", "c", 1500.0), ("a", "c", 900.0)])
    net = CoupledNetwork(road, {"bus1": "a", "bus2": "c"}, frozenset(["b"]),
                         frozenset(["a", "c"]), {"a": 40.0, "c": 25.0})
    fileio.write_network_file(net, root / "network.json")
    fileio.write_road_graph_json(road, root / "road.json")
    scenarios = tuple(
        Scenario(s, {(i, k): 1.5 + s + k for i in "ac" for k in range(4)},
                 {(i, k): (s + k) % 3 for i in "ac" for k in range(4)}, failed)
        for s, failed in enumerate((frozenset(), frozenset([("a", "b")])))
    )
    sset = ScenarioSet(scenarios, seed=0, damaged=frozenset("ac"), config={"n_scenarios": 2},
                       loads_kw={"a": 40.0, "c": 25.0})
    fileio.write_scenario_file(sset, root / "scenarios.json")
    assert _stage(root, "gen", "gen-scenarios", events="events.csv")[0] == EXIT_OK
    assert _stage(root, "routes", "solve", config="config.json")[0] == EXIT_OK
    assert _stage(root, "routes", "solve")[0] == EXIT_OK
    assert _stage(root, "routes", "schedule")[0] == EXIT_OK
    assert _stage(root, "render", "render", gantt="routes/gantt.csv")[0] == EXIT_OK
    docs = {path.name: json.loads(path.read_text())
            for path in (root / "network.json", root / "scenarios.json", root / "config.json",
                         root / "routes" / "routes_s0.json", root / "routes" / "allocation.json")}
    return root, {name: (doc, _roles(doc)) for name, doc in docs.items()}


def _stage(root, out, stage, network="network.json", scenarios="scenarios.json",
           routes="routes", gantt=None, config=None, **files):
    """Run one stage on the files in ``root``; its exit code and stderr. ``files`` maps
    a file flag (``road_nodes`` for ``--road-nodes``) to a file name."""
    argv = ["--out-dir", str(root / out)]
    if config is not None:
        argv += ["--config", str(root / config)]
    argv.append(stage)
    if stage == "render":
        argv += ["--gantt", str(root / gantt)]
    elif stage == "build-network":
        argv += ["--depots", "b"]
    else:
        argv += ["--network", str(root / network)]
    if stage in ("solve", "schedule"):
        argv += ["--scenarios", str(root / scenarios)]
    if stage == "schedule":
        argv += ["--routes-dir", str(root / routes)]
    for flag, name in files.items():
        argv += ["--" + flag.replace("_", "-"), str(root / name)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_documented(outcome):
    code, err = outcome
    assert code in DOCUMENTED - {EXIT_INTERNAL}, err
    assert "Traceback" not in err, err


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_leaf_never_exits_internal(inputs, data):
    bad = _bad_file(inputs, data, "scenarios.json")
    _assert_documented(_stage(inputs[0], "out", "solve", scenarios=bad.name))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_network_leaf_never_exits_internal(inputs, data):
    """``network.json`` with one bad leaf, through every stage that reads it."""
    bad = _bad_file(inputs, data, "network.json")
    for stage in ("gen-scenarios", "solve", "schedule"):
        _assert_documented(_stage(inputs[0], "out", stage, network=bad.name))


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_route_leaf_never_exits_internal(inputs, data):
    """``routes_s0.json`` with one bad leaf, through ``schedule``, in a routes dir of its own."""
    root = inputs[0]
    bad = _bad_file(inputs, data, "routes_s0.json")
    routes = bad.with_suffix("")
    routes.mkdir()
    shutil.copy(root / "routes" / "routes_s1.json", routes)
    bad.rename(routes / "routes_s0.json")
    _assert_documented(_stage(root, "out", "schedule", routes=routes.name))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_gantt_cell_never_exits_internal(inputs, data):
    """``gantt.csv`` with one cell (a column, then a row, the header too) replaced by
    one of BAD_CELLS, through ``render``."""
    root = inputs[0]
    bad = _bad_csv(root / "routes" / "gantt.csv", data)
    _assert_documented(_stage(root, "out", "render", gantt=f"routes/{bad.name}"))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_config_leaf_never_exits_internal(inputs, data):
    """The ``--config`` file with one bad leaf, through ``solve``."""
    bad = _bad_file(inputs, data, "config.json")
    _assert_documented(_stage(inputs[0], "out", "solve", config=bad.name))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_input_cell_never_exits_internal(inputs, data):
    """One input CSV (drawn first) with one bad cell, through the stage that reads it:
    ``events.csv`` through ``gen-scenarios``, the others through ``build-network``."""
    root = inputs[0]
    name = data.draw(st.sampled_from(sorted(INPUT_CSVS)), label="file")
    flag = INPUT_CSVS[name][0]
    bad = _bad_csv(root / name, data)
    if flag == "events":
        _assert_documented(_stage(root, "out", "gen-scenarios", events=bad.name))
    else:
        _assert_documented(_stage(root, "out", "build-network",
                                  **{**BUILD_INPUTS, flag: bad.name}))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_allocation_leaf_is_a_value_or_schema_error(inputs, data):
    bad = _bad_file(inputs, data, "allocation.json")
    try:
        alloc = fileio.read_allocation_file(bad)
    except SchemaError:
        return
    assert isinstance(alloc, CrewAllocation)


# Every place an artifact holds a node id that a stage reads ("*" is any list index),
# and values that are no node id: a fraction, a bool, null, a list and a float that is
# a whole number.
ID_PLACES = {
    "network.json": [("road", "nodes", "*", 0), ("road", "edges", "*", 0),
                     ("road", "edges", "*", 1), ("power_to_road", "*", 0),
                     ("power_to_road", "*", 1), ("depots", "*"), ("damaged", "*"),
                     ("loads_kw", "*", 0)],
    "scenarios.json": [("damaged", "*"), ("loads_kw", "*", 0),
                       ("scenarios", "*", "repair_time_h", "*", 0),
                       ("scenarios", "*", "repair_demand", "*", 0),
                       ("scenarios", "*", "failed_edges", "*", 0),
                       ("scenarios", "*", "failed_edges", "*", 1)],
    "routes_s0.json": [("routes", "*", "depot_start"), ("routes", "*", "depot_end"),
                       ("routes", "*", "visit_order", "*"), ("routes", "*", "mtz_labels", "*", 0),
                       ("routes", "*", "legs", "*", "from"), ("routes", "*", "legs", "*", "to"),
                       ("routes", "*", "legs", "*", "road_path", "*")],
}
NON_IDS = (1.5, True, None, [], 1e308)


def _at(path, place):
    """Whether a leaf path is at ``place``."""
    return len(path) == len(place) and all(
        p == k if p != "*" else isinstance(k, int) for k, p in zip(path, place))


@pytest.mark.parametrize("name", sorted(ID_PLACES))
def test_every_id_position_refuses_a_non_id(inputs, name):
    """Each node-id leaf set to each of NON_IDS exits 3, with no traceback."""
    root = inputs[0]
    doc = inputs[1][name][0]
    positions = {place: [path for path in _leaves(doc) if _at(path, place)]
                 for place in ID_PLACES[name]}
    assert all(positions.values()), positions
    for where, value in itertools.product(itertools.chain(*positions.values()), NON_IDS):
        bad = _with_leaf(root, doc, where, value)
        if name == "routes_s0.json":
            routes = bad.with_suffix("")
            routes.mkdir()
            shutil.copy(root / "routes" / "routes_s1.json", routes)
            bad = bad.rename(routes / name)
            code, err = _stage(root, "out", "schedule", routes=routes.name)
        elif name == "network.json":
            code, err = _stage(root, "out", "solve", network=bad.name)
        else:
            code, err = _stage(root, "out", "solve", scenarios=bad.name)
        assert code == EXIT_INPUT, (where, value, err)
        assert "Traceback" not in err, err


# Every file a stage reads, by the dir of ``inputs`` it stands in, and the runs that
# read it: (out dir, stage, file flags). None stands for the spoiled file, or, for a
# file a stage finds in a dir (a route plan, the manifest), for the dir holding it.
WHOLE_FILES = {
    **{name: ("", [("out", "build-network", {**BUILD_INPUTS, flag: None})])
       for name, (flag, _) in INPUT_CSVS.items() if flag != "events"},
    "road.json": ("", [("out", "build-network", {"road": None, "power": "power.csv"})]),
    "events.csv": ("", [("out", "gen-scenarios", {"events": None})]),
    "network.json": ("", [("out", stage, {"network": None})
                          for stage in ("gen-scenarios", "solve", "schedule")]),
    "scenarios.json": ("", [("out", stage, {"scenarios": None})
                            for stage in ("solve", "schedule")]),
    "config.json": ("", [("out", "solve", {"config": None})]),
    "routes_s0.json": ("routes", [("out", "schedule", {"routes": None})]),
    "gantt.csv": ("routes", [("out", "render", {"gantt": None})]),
    "run_manifest.json": ("routes", [(None, "solve", {})]),
}


@pytest.mark.parametrize("spoil", ("non-object", "0xff byte", "directory"))
@pytest.mark.parametrize("name", sorted(WHOLE_FILES))
def test_an_unreadable_file_exits_input_naming_it(inputs, name, spoil):
    """Each file a stage reads, replaced whole by a top-level JSON array, by its own
    bytes with a 0xff byte in the middle, or by a directory: exit 3, naming the path."""
    root = inputs[0]
    where, runs = WHOLE_FILES[name]
    data = (root / where / name).read_bytes()
    run = root / f"whole_{next(_FILE_NO)}"
    run.mkdir()
    if name == "routes_s0.json":
        shutil.copy(root / "routes" / "routes_s1.json", run)
    bad = run / name
    if spoil == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"[1, 2]" if spoil == "non-object"
                        else data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
    given = str((run if name in ("routes_s0.json", "run_manifest.json") else bad).relative_to(root))
    for out, stage, files in runs:
        code, err = _stage(root, out or given, stage,
                           **{flag: value or given for flag, value in files.items()})
        assert code == EXIT_INPUT, (stage, err)
        assert str(bad) in err, (stage, err)
        assert "Traceback" not in err, err

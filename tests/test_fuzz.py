"""Fuzzing the artifact readers through the stages that read them: a bad value is an
exit code, never a crash. ``allocation.json``, which no stage reads, is fuzzed through
its reader: a bad value is a SchemaError."""

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
from gridrestore.cli import EXIT_DOC, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
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
    """A fresh file holding the artifact ``name`` with one leaf (a role, then a leaf
    of that role) replaced by one of BAD_VALUES."""
    doc, roles = inputs[1][name]
    where = data.draw(st.sampled_from(data.draw(st.sampled_from(roles))), label="leaf")
    value = data.draw(st.sampled_from(BAD_VALUES), label="value")
    return _with_leaf(inputs[0], doc, where, value)


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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A triangle road with one depot and two damaged nodes that gen-scenarios samples
    from, and two scenarios that solve and schedule; the routes and the allocation stay
    in ``routes/``. Each artifact's parsed document and leaf roles come along."""
    root = tmp_path_factory.mktemp("fuzz")
    road = load_road_network([("a", 32.0, -97.0), ("b", 32.01, -97.0), ("c", 32.0, -97.01)],
                             [("a", "b", 1200.0), ("b", "c", 1500.0), ("a", "c", 900.0)])
    net = CoupledNetwork(road, {"bus1": "a", "bus2": "c"}, frozenset(["b"]),
                         frozenset(["a", "c"]), {"a": 40.0, "c": 25.0})
    fileio.write_network_file(net, root / "network.json")
    scenarios = tuple(
        Scenario(s, {(i, k): 1.5 + s + k for i in "ac" for k in range(4)},
                 {(i, k): (s + k) % 3 for i in "ac" for k in range(4)}, failed)
        for s, failed in enumerate((frozenset(), frozenset([("a", "b")])))
    )
    sset = ScenarioSet(scenarios, seed=0, damaged=frozenset("ac"), config={"n_scenarios": 2},
                       loads_kw={"a": 40.0, "c": 25.0})
    fileio.write_scenario_file(sset, root / "scenarios.json")
    assert _stage(root, "gen", "gen-scenarios")[0] == EXIT_OK
    assert _stage(root, "routes", "solve")[0] == EXIT_OK
    assert _stage(root, "routes", "schedule")[0] == EXIT_OK
    assert _stage(root, "render", "render", gantt="routes/gantt.csv")[0] == EXIT_OK
    docs = {path.name: json.loads(path.read_text())
            for path in (root / "network.json", root / "scenarios.json",
                         root / "routes" / "routes_s0.json", root / "routes" / "allocation.json")}
    return root, {name: (doc, _roles(doc)) for name, doc in docs.items()}


def _stage(root, out, stage, network="network.json", scenarios="scenarios.json",
           routes="routes", gantt=None):
    """Run one stage on the files in ``root``; its exit code and stderr."""
    argv = ["--out-dir", str(root / out), stage]
    if stage == "render":
        argv += ["--gantt", str(root / gantt)]
    else:
        argv += ["--network", str(root / network)]
    if stage in ("solve", "schedule"):
        argv += ["--scenarios", str(root / scenarios)]
    if stage == "schedule":
        argv += ["--routes-dir", str(root / routes)]
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
    with open(root / "routes" / "gantt.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
    rows[data.draw(st.integers(0, len(rows) - 1), label="row")][column] = data.draw(
        st.sampled_from(BAD_CELLS), label="value")
    bad = root / f"bad_{next(_FILE_NO)}.csv"
    with open(bad, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    _assert_documented(_stage(root, "out", "render", gantt=bad.name))


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

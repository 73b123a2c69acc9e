"""The road-graph read path against a copy of its previous, per-edge implementation.

``RoadGraph.__post_init__`` keys and sorts the edges by node position, and
``fileio._road_from_json`` builds error text only for a bad value. Both must
give exactly what the per-edge ``node_key`` / ``_finite`` versions below give:
the same normalized tables, node positions and adjacency, and the same
exception type and message for every bad input. The exceptions are a
string coordinate, which the reference parsed and the reader now refuses
(``EXPECTED``); a length whose millimetres overflow, which the reference let
through to an OverflowError and the reader now names; and a latitude outside
[-90, 90], which the reference accepted and ``RoadGraph`` now refuses (both
``EXPECTED_GRAPH``). ``read_network_file`` pauses the cyclic garbage collector
and must leave its state as it found it.

Tables that are already canonical skip the general build
(``network._canonical_index``); on every table, canonical or not, ``RoadGraph``
must give what the general build gives.
"""

import collections
import gc
import json
import math
import random
import re
from unittest import mock

import pytest

from gridrestore import CoupledNetwork, RoadGraph, fileio, load_road_network, network
from gridrestore.errors import DanglingEdgeError, NonPositiveLengthError, SchemaError
from gridrestore.network import (
    MAX_ROAD_MM,
    edge_key,
    mm_to_m,
    node_key,
    quantize_m,
    require_finite,
)


def reference_finite(value, where, what):
    """The value check the road reader used, which also parsed a string."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: bad {what} {value!r}") from None
    if not math.isfinite(number):
        raise SchemaError(f"{where}: {what} must be finite, got {value!r}")
    return number


class ReferenceRoadGraph(RoadGraph):
    """``RoadGraph`` with the construction it had before the read path was sped up."""

    def __post_init__(self):
        coords = {}
        for nid, lat, lon in self.nodes:
            if nid in coords:
                raise ValueError(f"duplicate node_id {nid!r}")
            lat, lon = float(lat), float(lon)
            if not math.isfinite(lat + lon):  # either is inf or nan; name which
                for name, x in (("lat", lat), ("lon", lon)):
                    require_finite(x, f"node {nid!r}: {name}")
            coords[nid] = (lat, lon)

        edge_mm = {}
        for u, v, length_m in self.edges:
            if u not in coords:
                raise DanglingEdgeError(f"edge ({u!r}, {v!r}) references unknown node {u!r}")
            if v not in coords:
                raise DanglingEdgeError(f"edge ({u!r}, {v!r}) references unknown node {v!r}")
            if not math.isfinite(float(length_m)):
                raise NonPositiveLengthError(
                    f"edge ({u!r}, {v!r}): length_m must be finite, got {length_m!r}"
                )
            mm = quantize_m(length_m)
            if mm <= 0:
                raise NonPositiveLengthError(
                    f"edge ({u!r}, {v!r}) has non-positive length {length_m!r} m"
                )
            key = edge_key(u, v)
            prev = edge_mm.get(key)
            if prev is None or mm < prev:
                edge_mm[key] = mm

        norm_nodes = tuple(sorted(((n, coords[n][0], coords[n][1]) for n in coords),
                                  key=lambda row: node_key(row[0])))
        pairs = sorted(edge_mm, key=lambda e: (node_key(e[0]), node_key(e[1])))
        norm_edges = tuple((u, v, mm_to_m(edge_mm[(u, v)])) for u, v in pairs)
        object.__setattr__(self, "nodes", norm_nodes)
        object.__setattr__(self, "edges", norm_edges)

        index = {row[0]: i for i, row in enumerate(norm_nodes)}
        adj = [[] for _ in norm_nodes]
        for u, v in pairs:
            if u == v:
                continue
            mm = edge_mm[(u, v)]
            iu, iv = index[u], index[v]
            adj[iu].append((iv, mm))
            adj[iv].append((iu, mm))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adj", tuple(tuple(nbrs) for nbrs in adj))


def reference_road_from_json(obj, path):
    """``fileio._road_from_json`` as it was, building a ``ReferenceRoadGraph``."""
    nodes = []
    for n, lat, lon in obj["nodes"]:
        where = f"{path}: node {n!r}"
        nodes.append((n, reference_finite(lat, where, "lat"), reference_finite(lon, where, "lon")))
    edges = tuple((u, v, reference_finite(m, str(path), "distance")) for u, v, m in obj["edges"])
    return ReferenceRoadGraph(tuple(nodes), edges)


def reference_read_network_file(path):
    """``fileio.read_network_file`` as it was: no collector pause, the reference road."""
    obj = fileio.read_json_artifact(path, fileio.SCHEMA_NETWORK)
    with fileio._malformed(path, "network"):
        return CoupledNetwork(
            road=reference_road_from_json(obj["road"], path),
            power_to_road={bus: node for bus, node in obj["power_to_road"]},
            depots=frozenset(obj["depots"]),
            damaged=frozenset(obj["damaged"]),
            loads_kw=fileio._loads_kw(obj["loads_kw"], path),
        )


def typed(value):
    """``value`` with every id's type visible, so that an id stored under another type fails."""
    return repr(value)


def assert_same_graph(got, want):
    assert typed(got.nodes) == typed(want.nodes)
    assert typed(got.edges) == typed(want.edges)
    assert typed(list(got._index.items())) == typed(list(want._index.items()))
    assert got._adj == want._adj


def outcome(build, *args):
    """What ``build(*args)`` returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


# Int and str ids that look alike (1 and "1") but are distinct, and ids whose
# node_key order differs from their own (ints before strs; "n10" before "n2").
MIXED_IDS = [0, 1, 2, 3, 10, -4, "a", "b", "n2", "n10", "1", "2", "0", "-4", "10", "1.5"]


def random_tables(rnd, ids):
    """Node and edge tables with parallel pairs, both orientations and self-loops."""
    chosen = rnd.sample(ids, rnd.randint(2, len(ids)))
    nodes = [(n, 32.0 + rnd.random(), -97.0 + rnd.random()) for n in chosen]
    edges = []
    for _ in range(rnd.randint(0, 3 * len(chosen))):
        length = round(rnd.uniform(0.5, 50.0), rnd.choice((0, 3, 4)))
        edges.append((rnd.choice(chosen), rnd.choice(chosen), length))
    for u, v, m in rnd.sample(edges, min(3, len(edges))):
        edges.append((v, u, m + rnd.choice((-0.25, 0.0, 0.25))))  # reversed, maybe shorter
    rnd.shuffle(edges)
    return nodes, edges


class TestConstructionExactness:
    def test_random_mixed_id_graphs(self):
        rnd = random.Random(13)
        for _ in range(300):
            nodes, edges = random_tables(rnd, MIXED_IDS)
            assert_same_graph(RoadGraph(tuple(nodes), tuple(edges)),
                              ReferenceRoadGraph(tuple(nodes), tuple(edges)))

    def test_random_str_id_graphs(self):
        rnd = random.Random(14)
        ids = [f"n{i}" for i in range(40)] + ["", "N1", "n01", "r0c10", "r0c9", "é", "z"]
        for _ in range(200):
            nodes, edges = random_tables(rnd, ids)
            assert_same_graph(RoadGraph(tuple(nodes), tuple(edges)),
                              ReferenceRoadGraph(tuple(nodes), tuple(edges)))

    def test_look_alike_int_and_str_ids_keep_their_order(self):
        nodes = (("1", 32.0, -97.0), (1, 32.1, -97.0), ("a", 32.2, -97.0), (0, 32.3, -97.0))
        edges = ((1, "a", 5.0), ("a", "1", 6.0), ("1", 1, 7.0), (0, "1", 8.0), ("a", 1, 4.0))
        assert_same_graph(RoadGraph(nodes, edges), ReferenceRoadGraph(nodes, edges))

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, None, (1,), b"a"],
                             ids=["fraction", "whole-float", "bool", "null", "tuple", "bytes"])
    def test_non_id_nodes_are_refused(self, bad):
        nodes = (("1.5", 32.0, -97.0), (bad, 32.1, -97.0), ("a", 32.2, -97.0))
        with pytest.raises(ValueError, match=rf"^node id must be an integer or a string, "
                                             rf"got {re.escape(repr(bad))}$"):
            RoadGraph(nodes, (("1.5", "a", 5.0),))

    @pytest.mark.parametrize("edge, named", [
        ((True, "a", 5.0), True), (("a", True, 5.0), True), ((2, 1.0, 5.0), 1.0),
        ((False, 2, 8.0), False), ((0, 2, 1.0), 0),
    ], ids=["true-for-1-as-u", "true-for-1-as-v", "float-for-1", "false", "unknown-int"])
    def test_endpoint_of_another_type_is_dangling(self, edge, named):
        # True and 1.0 equal node 1, and False equals nothing here, yet none is a node id
        nodes = ((1, 32.0, -97.0), ("a", 32.1, -97.0), (2, 32.2, -97.0))
        with pytest.raises(DanglingEdgeError, match=rf"references unknown node {named!r}$"):
            load_road_network(nodes, [(1, 2, 3.0), edge])


NODES = [["a", 32.0, -97.0], ["b", 32.01, -97.0], ["c", 32.0, -97.01]]
EDGES = [["a", "b", "1200.000"], ["b", "c", "1500.500"], ["c", "a", "900.250"]]


def with_node(i, row):
    nodes = [list(n) for n in NODES]
    nodes[i] = row
    return {"nodes": nodes, "edges": EDGES}


def with_edge(i, row):
    edges = [list(e) for e in EDGES]
    edges[i] = row
    return {"nodes": NODES, "edges": edges}


# every class of bad (or unusual) value the reader meets, as a road document
DOCUMENTS = {
    "well-formed": {"nodes": NODES, "edges": EDGES},
    "dangling-u": with_edge(1, ["x", "c", "10.000"]),
    "dangling-v": with_edge(1, ["b", "x", "10.000"]),
    "length-inf": with_edge(0, ["a", "b", "inf"]),
    "length-nan": with_edge(0, ["a", "b", "NaN"]),
    "length-infinity-number": with_edge(0, ["a", "b", math.inf]),
    "length-zero": with_edge(0, ["a", "b", "0.000"]),
    "length-below-half-mm": with_edge(0, ["a", "b", "0.0004"]),
    "length-negative": with_edge(0, ["a", "b", "-3.000"]),
    "length-overflows-mm": with_edge(0, ["a", "b", "1e306"]),
    "distance-abc": with_edge(0, ["a", "b", "abc"]),
    "distance-empty": with_edge(0, ["a", "b", ""]),
    "distance-spaced": with_edge(0, ["a", "b", " 12.5 "]),
    "distance-exponent": with_edge(0, ["a", "b", "1e3"]),
    "distance-int": with_edge(0, ["a", "b", 1200]),
    "distance-float": with_edge(0, ["a", "b", 1200.25]),
    "distance-bool": with_edge(0, ["a", "b", True]),
    "distance-null": with_edge(0, ["a", "b", None]),
    "distance-list": with_edge(0, ["a", "b", []]),
    "distance-str-infinity": with_edge(0, ["a", "b", "Infinity"]),
    "distance-str-minus-nan": with_edge(0, ["a", "b", "-nan"]),
    "distance-str-past-float": with_edge(0, ["a", "b", "1e400"]),
    "distance-str-underscore": with_edge(0, ["a", "b", "1_200.5"]),
    "distance-nan-number": with_edge(0, ["a", "b", math.nan]),
    "distance-last-edge-bad": with_edge(len(EDGES) - 1, [*EDGES[-1][:2], "1.0x"]),
    "edge-short-row": with_edge(0, ["a", "b"]),
    "edge-unhashable-id": with_edge(0, [["a"], "b", "1.000"]),
    "duplicate-node": with_node(2, ["a", 32.0, -97.01]),
    "lat-inf": with_node(1, ["b", math.inf, -97.0]),
    "lat-nan": with_node(1, ["b", math.nan, -97.0]),
    "lon-inf": with_node(1, ["b", 32.0, -math.inf]),
    "lon-nan": with_node(1, ["b", 32.0, math.nan]),
    "lat-bool": with_node(1, ["b", True, -97.0]),
    "lat-int": with_node(1, ["b", 32, -97.0]),
    "lat-string": with_node(1, ["b", "32.0", -97.0]),
    "lat-string-nan": with_node(1, ["b", "nan", -97.0]),
    "lat-null": with_node(1, ["b", None, -97.0]),
    "lat-huge-sum": with_node(1, ["b", 1e308, 1e308]),
    "lat-past-pole": with_node(1, ["b", -90.5, -97.0]),
    "node-short-row": with_node(1, ["b", 32.0]),
}

# A coordinate is a JSON number: the reference parsed these strings, the reader refuses them.
EXPECTED = {
    "lat-string": "{}: node 'b': bad lat '32.0'",
    "lat-string-nan": "{}: node 'b': bad lat 'nan'",
}


# what RoadGraph refuses and the reference let through, each of which
# read_network_file reports as a malformed network: a length past what int64
# millimetres hold, and a latitude outside [-90, 90]
EXPECTED_GRAPH = {
    "length-overflows-mm": (NonPositiveLengthError,
                            "edge ('a', 'b'): length_m must be at most 9.22337e+15, got 1e+306"),
    "lat-huge-sum": (ValueError, "node 'b': lat must be in [-90, 90], got 1e+308"),
    "lat-past-pole": (ValueError, "node 'b': lat must be in [-90, 90], got -90.5"),
}


def expected_outcome(name, reference, *args):
    """The reference's outcome, or the error that ``EXPECTED`` or ``EXPECTED_GRAPH``
    names for ``name``."""
    if name in EXPECTED:
        return SchemaError, EXPECTED[name].format(args[-1])
    if name in EXPECTED_GRAPH:
        error, message = EXPECTED_GRAPH[name]
        if reference is reference_read_network_file:
            return SchemaError, f"{args[-1]}: malformed network ({message})"
        return error, message
    return outcome(reference, *args)


class TestReaderExactness:
    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_same_graph_or_same_error(self, name):
        doc = json.loads(json.dumps(DOCUMENTS[name]))  # what a file would decode to
        got = outcome(fileio._road_from_json, doc, "net.json")
        want = expected_outcome(name, reference_road_from_json, doc, "net.json")
        if isinstance(want, ReferenceRoadGraph):
            assert_same_graph(got, want)
        else:
            assert got == want

    def test_network_file_same_outcome(self, tmp_path):
        path = tmp_path / "network.json"
        for name, road in DOCUMENTS.items():
            path.write_text(json.dumps({"schema": fileio.SCHEMA_NETWORK, "road": road,
                                        "power_to_road": [], "depots": [], "damaged": [],
                                        "loads_kw": []}))
            got = outcome(fileio.read_network_file, path)
            want = expected_outcome(name, reference_read_network_file, path)
            if isinstance(want, CoupledNetwork):
                assert_same_graph(got.road, want.road)
            else:
                assert got == want, name


class TestCollectorPausedDuringRead:
    @pytest.fixture
    def network_file(self, tmp_path):
        path = tmp_path / "network.json"
        path.write_text(json.dumps({"schema": fileio.SCHEMA_NETWORK,
                                    "road": {"nodes": NODES, "edges": EDGES},
                                    "power_to_road": [["bus1", "a"]], "depots": ["b"],
                                    "damaged": ["a"], "loads_kw": [["a", 10.0]]}))
        return path

    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": fileio.SCHEMA_NETWORK,
                                    "road": DOCUMENTS["distance-abc"]}))
        return path

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_after_success_and_failure(self, network_file, bad_file, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            fileio.read_network_file(network_file)
            assert gc.isenabled() is enabled
            with pytest.raises(SchemaError):
                fileio.read_network_file(bad_file)
            assert gc.isenabled() is enabled
            with pytest.raises(SchemaError):
                fileio.read_network_file(bad_file.with_name("missing.json"))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_collector_is_off_while_the_graph_is_built(self, network_file, monkeypatch):
        seen = []
        build = fileio._road_from_json

        def watching(obj, path):
            seen.append(gc.isenabled())
            return build(obj, path)

        monkeypatch.setattr(fileio, "_road_from_json", watching)
        assert gc.isenabled()
        fileio.read_network_file(network_file)
        assert seen == [False] and gc.isenabled()


def general_outcome(nodes, edges):
    """What ``RoadGraph(nodes, edges)`` gives on its general path, with the canonical
    check (``network._canonical_index``) turned off."""
    with mock.patch.object(network, "_canonical_index", lambda nodes, edges: None):
        return outcome(RoadGraph, nodes, edges)


def assert_same_outcome(got, want):
    if isinstance(want, RoadGraph):
        assert_same_graph(got, want)
    else:
        assert got == want


# ids by kind; bool ids are never node ids, and True equals the int id 1
CANONICAL_IDS = {
    "int": [-7, 0, 1, 2, 3, 10, 2**70, 99],
    "str": ["a", "b", "n2", "n10", "", "café", "Z", "r0c9"],
    "mixed": MIXED_IDS,
}


def canonical_tables(rnd, ids):
    """A built graph's own tables, which are canonical, built from rows with a self-loop
    and lengths that are not whole millimetres."""
    nodes, edges = random_tables(rnd, ids)
    edges += [(rnd.choice(nodes)[0],) * 2 + (rnd.uniform(0.5, 9.0),)]
    edges += [(u, v, m + rnd.choice((0.0004, 0.0006, 1e-7))) for u, v, m in edges[:2]]
    road = RoadGraph(tuple(nodes), tuple(edges))
    return road.nodes, road.edges


def variants(rnd, nodes, edges):
    """(label, nodes, edges): the canonical tables, and tables that break one rule each."""
    yield "canonical", nodes, edges
    i = rnd.randrange(len(nodes))
    shuffled = list(nodes)
    rnd.shuffle(shuffled)
    yield "shuffled-nodes", tuple(shuffled), edges
    yield "nodes-reversed", nodes[::-1], edges
    yield "node-rows-as-lists", tuple(map(list, nodes)), edges
    yield "nodes-as-a-list", list(nodes), edges
    yield "duplicate-node", nodes + (nodes[i],), edges
    yield "bool-node", nodes[:i] + ((True, *nodes[i][1:]),) + nodes[i + 1:], edges
    yield "int-latitude", nodes[:i] + ((nodes[i][0], 32, nodes[i][2]),) + nodes[i + 1:], edges
    yield "latitude-past-pole", nodes[:i] + ((nodes[i][0], 90.5, -97.0),) + nodes[i + 1:], edges
    yield "nan-longitude", nodes[:i] + ((nodes[i][0], 32.0, math.nan),) + nodes[i + 1:], edges
    if not edges:
        return
    j = rnd.randrange(len(edges))
    u, v, m = edges[j]

    def with_edge(*rows):
        return nodes, edges[:j] + rows + edges[j + 1:]

    yield "reversed-endpoints", *with_edge((v, u, m))
    yield "parallel-edge", *with_edge((u, v, m), (u, v, m + 1.0))
    yield "self-loop", *with_edge((u, u, m), (u, v, m))
    yield "edges-reversed", nodes, edges[::-1]
    yield "edge-row-as-list", *with_edge([u, v, m])
    yield "edge-row-too-long", *with_edge((u, v, m, m))
    yield "bool-endpoint", *with_edge((True, v, m))
    yield "float-endpoint", *with_edge((1.0, v, m))
    yield "unknown-endpoint", *with_edge((u, "no such node", m))
    yield "unhashable-endpoint", *with_edge((u, [v], m))
    yield "int-length", *with_edge((u, v, 12))
    yield "length-not-whole-mm", *with_edge((u, v, 1.0004))
    yield "length-below-half-mm", *with_edge((u, v, 0.0004))
    yield "length-zero", *with_edge((u, v, 0.0))
    yield "length-negative", *with_edge((u, v, -m))
    yield "length-nan", *with_edge((u, v, math.nan))
    yield "length-1e306", *with_edge((u, v, 1e306))
    yield "length-1e16", *with_edge((u, v, 1e16))
    yield "length-at-max", *with_edge((u, v, MAX_ROAD_MM // 1000 / 1.0))
    yield "length-past-max", *with_edge((u, v, MAX_ROAD_MM / 1000))
    if len(edges) >= 3:
        yield "lengths-add-past-max", nodes, tuple((a, b, 4e15) for a, b, _ in edges)


# variants that break a rule of the canonical form whatever the tables they start from
NEVER_CANONICAL = (
    "nodes-reversed", "node-rows-as-lists", "nodes-as-a-list", "duplicate-node", "bool-node",
    "int-latitude", "latitude-past-pole", "nan-longitude", "parallel-edge", "edge-row-as-list",
    "edge-row-too-long", "bool-endpoint", "float-endpoint", "unknown-endpoint",
    "unhashable-endpoint", "int-length", "length-not-whole-mm", "length-below-half-mm",
    "length-zero", "length-negative", "length-nan", "length-1e306", "length-1e16",
    "length-past-max", "lengths-add-past-max",
)


class TestCanonicalPath:
    """``RoadGraph`` keeps tables that are already canonical as given, and gives on
    every table exactly what its general path gives: the same tables, node
    positions and adjacency, or the same error type and message. A graph it
    builds also equals ``ReferenceRoadGraph``'s, whose adjacency holds the exact
    millimetres of every input length."""

    @pytest.mark.parametrize("kind", sorted(CANONICAL_IDS))
    def test_same_outcome_as_the_general_path(self, kind):
        rnd = random.Random(f"canonical-{kind}")
        seen = collections.Counter()
        for _ in range(60):
            nodes, edges = canonical_tables(rnd, CANONICAL_IDS[kind])
            for label, n, e in variants(rnd, nodes, edges):
                got = outcome(RoadGraph, n, e)
                assert_same_outcome(got, general_outcome(n, e))
                fast = network._canonical_index(n, e) is not None
                seen[label, fast] += 1
                if fast:
                    assert got.nodes is n and got.edges is e
                if isinstance(got, RoadGraph) and not label.startswith("length"):
                    assert_same_graph(got, ReferenceRoadGraph(n, e))
        assert seen["canonical", True] == 60  # every built graph's tables are canonical
        for label in NEVER_CANONICAL:
            assert seen[label, False] > 0 and seen[label, True] == 0, label

    def test_long_edges_keep_exact_millimetres(self):
        # past 2**50 mm the stored length (mm / 1000.0) is not proven to give mm back;
        # the adjacency holds the exact quantized length on either path
        rnd = random.Random(5)
        rows = (("a", 32.0, -97.0), ("b", 32.1, -97.0))
        for _ in range(500):
            m = rnd.uniform(2**49, 2**62) / 1000
            mm = quantize_m(m)
            for edges in ((("a", "b", m),), (("b", "a", m),)):
                road = RoadGraph(rows, edges)
                assert road._adj == (((1, mm),), ((0, mm),))
                again = RoadGraph(road.nodes, road.edges)  # canonical: the stored length
                assert network._canonical_index(again.nodes, again.edges) is not None
                assert again._adj == road._adj

    def test_adjacency_built_on_first_use_only(self):
        road = RoadGraph((("a", 32.0, -97.0), ("b", 32.1, -97.0)), (("a", "b", 5.0),))
        assert "_adj" not in road.__dict__
        assert road.neighbors("a") == (("b", 5000),)
        assert road.__dict__["_adj"] is road._adj

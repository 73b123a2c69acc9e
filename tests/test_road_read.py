"""The road-graph read path against a copy of its previous, per-edge implementation.

``RoadGraph.__post_init__`` orients and sorts the edges of an all-str graph by
the ids themselves, and ``fileio._road_from_json`` builds error text only for a
bad value. Both must give exactly what the per-edge ``node_key`` / ``_finite``
versions below give: the same normalized tables, node positions and
adjacency, and the same exception type and message for every bad input. The
one exception is a string coordinate, which the reference parsed and the
reader now refuses (``EXPECTED``).
``read_network_file`` pauses the cyclic garbage collector and must leave its
state as it found it.
"""

import gc
import json
import math
import random

import pytest

from gridrestore import CoupledNetwork, RoadGraph, fileio
from gridrestore.errors import DanglingEdgeError, NonPositiveLengthError, SchemaError
from gridrestore.network import edge_key, mm_to_m, node_key, quantize_m, require_finite


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
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_edge_mm", edge_mm)

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
    """``value`` with every id's type visible: True, 1 and 1.0 compare equal but differ here."""
    return repr(value)


def assert_same_graph(got, want):
    assert typed(got.nodes) == typed(want.nodes)
    assert typed(got.edges) == typed(want.edges)
    assert typed(list(got._index.items())) == typed(list(want._index.items()))
    assert got._adj == want._adj
    assert typed(list(got._coords.items())) == typed(list(want._coords.items()))
    assert typed(list(got._edge_mm.items())) == typed(list(want._edge_mm.items()))


def outcome(build, *args):
    """What ``build(*args)`` returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


# Ids whose node_key collides across types ("1.5" and 1.5) or orders differently
# from the ids themselves (ints before strs; "n10" before "n2").
MIXED_IDS = [0, 1, 2, 3, 10, -4, "a", "b", "n2", "n10", "1.5", 1.5, "2", "0", 2.5, "2.5"]
# An edge may name an int node by an equal value of another type, whose key differs.
ALIASES = {0: [0.0, False], 1: [1.0, True], 2: [2.0], 3: [3.0]}


def random_tables(rnd, ids):
    """Node and edge tables with parallel pairs, both orientations and self-loops."""
    chosen = rnd.sample(ids, rnd.randint(2, len(ids)))
    nodes = [(n, 32.0 + rnd.random(), -97.0 + rnd.random()) for n in chosen]

    def endpoint():
        n = rnd.choice(chosen)
        if type(n) is int and n in ALIASES and rnd.random() < 0.3:
            return rnd.choice(ALIASES[n])
        return n

    edges = []
    for _ in range(rnd.randint(0, 3 * len(chosen))):
        length = round(rnd.uniform(0.5, 50.0), rnd.choice((0, 3, 4)))
        edges.append((endpoint(), endpoint(), length))
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

    def test_int_nodes_named_by_another_type(self):
        # 1.0 and True find node 1, but node_key gives each its own order
        nodes = ((1, 32.0, -97.0), (2, 32.1, -97.0), (0, 32.2, -97.0))
        edges = ((2, 1.0, 5.0), (True, 2, 6.0), (0, True, 7.0), (False, 2, 8.0))
        assert_same_graph(RoadGraph(nodes, edges), ReferenceRoadGraph(nodes, edges))

    def test_colliding_keys_keep_their_order(self):
        nodes = (("1.5", 32.0, -97.0), (1.5, 32.1, -97.0), ("a", 32.2, -97.0))
        edges = ((1.5, "a", 5.0), ("a", "1.5", 6.0), ("1.5", 1.5, 7.0))
        assert_same_graph(RoadGraph(nodes, edges), ReferenceRoadGraph(nodes, edges))


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
    "node-short-row": with_node(1, ["b", 32.0]),
}

# A coordinate is a JSON number: the reference parsed these strings, the reader refuses them.
EXPECTED = {
    "lat-string": "{}: node 'b': bad lat '32.0'",
    "lat-string-nan": "{}: node 'b': bad lat 'nan'",
}


def expected_outcome(name, reference, *args):
    """The reference's outcome, or the SchemaError that ``EXPECTED`` names for ``name``."""
    if name in EXPECTED:
        return SchemaError, EXPECTED[name].format(args[-1])
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

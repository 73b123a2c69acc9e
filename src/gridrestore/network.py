"""Coupled road / power-feeder network model and metric-closure reduction.

Road edge lengths are quantized to integer millimeters on construction and
all shortest-path arithmetic runs on those integers, so distance matrices
are exact: symmetric, order-independent, and directly comparable against
independent all-pairs oracles with zero tolerance. Serialized values are
fixed-point meters with 3 decimals, which round-trips the quantization.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DanglingEdgeError,
    EmptyRoadGraphError,
    NonPositiveLengthError,
    NumericOverflowError,
    UnknownTerminalError,
)
from .geo import haversine_m_array

logger = logging.getLogger(__name__)

# A node id is a str or an int (never a bool): ``is_node_id``. Two ids that compare
# equal are then the same id, and node_key orders distinct ids distinctly.
NodeId = int | str

POWER_COMPONENT_KINDS = ("line", "switch", "transformer", "substation")

# The most millimetres a road's edges may add up to: every path length then fits
# the closure's int64 matrix.
MAX_ROAD_MM = 2**63 - 1


def node_key(node: NodeId):
    """Deterministic sort key for node ids; ints order before strings."""
    if isinstance(node, bool) or not isinstance(node, int):
        return (1, str(node))
    return (0, node)


def sorts_like_node_key(ids: Iterable) -> bool:
    """Whether ``ids`` are all ints or all strs (exact types, so no bool): such ids sort
    by themselves exactly as they sort by ``node_key``."""
    return {type(node) for node in ids} in ({int}, {str})


def edge_key(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
    """Canonical (undirected) form of an edge pair."""
    return (u, v) if node_key(u) <= node_key(v) else (v, u)


def quantize_m(length_m: float) -> int:
    """Meters to integer millimeters."""
    return int(round(float(length_m) * 1000.0))


def mm_to_m(mm: int) -> float:
    return mm / 1000.0


def is_int(value) -> bool:
    """An int that is not a bool."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def is_node_id(value) -> bool:
    """A node id: a str, or an int that is not a bool (``is_int``)."""
    return isinstance(value, str) or is_int(value)


def require_node_ids(ids: Iterable, what: str, *args) -> None:
    """ValueError naming ``what.format(*args)`` and the first of ``ids`` that is not a
    node id; a plain str is let through first, and the text is built only on failure."""
    for node in ids:
        if type(node) is not str and not is_node_id(node):
            raise ValueError(f"{what.format(*args)} must be an integer or a string, "
                             f"got {node!r}")


def is_number(value) -> bool:
    """A real number that is not a bool; a plain float is let through first."""
    return type(value) is float or (isinstance(value, Real) and not isinstance(value, bool))


def is_finite_number(value) -> bool:
    """A number (``is_number``) that is finite; an int past the float range is not."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # math.isfinite of an int past the float range
        return False


def require_finite(value: float, what: str) -> float:
    """``value`` as a float; ValueError naming ``what`` unless it is a finite number.

    A value that reads as inf or nan, a string such as ``"inf"`` too, is named as
    not finite.
    """
    if is_finite_number(value):
        return float(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = 0.0  # no number at all: named below
    except OverflowError:
        number = math.inf  # an int past the float range
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    raise ValueError(f"{what} must be a number, got {value!r}")


def require_latitude(value: float, what: str) -> float:
    """``value`` as a float; ValueError naming ``what`` unless it is a finite number in
    [-90, 90]. A longitude has no range: every formula is periodic in it."""
    lat = require_finite(value, what)
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"{what} must be in [-90, 90], got {value!r}")
    return lat


# the exact types of a node id that RoadGraph keeps as it is given (_canonical_index)
_ID_TYPES = (int, str)

# Up to this many millimetres, (mm / 1000.0) * 1000.0 rounds back to mm: the two
# roundings err by at most about mm * 2**-52, under 1/4. Past it, that is not proven,
# so RoadGraph keeps the exact millimetres of a longer edge in its adjacency.
_ROUND_TRIP_MM = 2**50


@dataclass(frozen=True)
class RoadGraph:
    """Undirected road network: nodes carry (lat, lon), edges carry meters. A latitude
    lies in [-90, 90] (``require_latitude``), and a longitude is any finite number.

    Every node id is an int or a str (``is_node_id``), and an edge names its
    endpoints by those ids: an equal value of another type (``True`` or
    ``1.0`` for node ``1``) is an unknown node (DanglingEdgeError).
    Construction normalizes both tables the same way for every id type. The
    nodes are sorted by ``node_key``, and a node's position in that table is
    its index (``_index``). Each edge is keyed by its endpoints' positions,
    smaller first: lengths are quantized to millimeters, parallel edges
    collapse to the minimum length, and the rows are sorted by position
    pair. Two graphs built from the same data therefore compare equal.

    Tables that are already in that form (``_canonical_index``), as every
    ``network.json`` holds them, are kept as given: one pass checks them, and
    the collapse and the sorts are skipped. Any other table takes the general
    path, which gives the same result.

    Each road fact is stored once: a coordinate in ``nodes``, a length in
    ``edges``. ``_adj`` holds, per position, the (neighbour position, mm)
    pairs in node_key order, so by ascending position, that the searches
    read; it is built from ``edges`` the first time a search asks for it.

    A graph derived by ``apply_road_failures`` keeps the graph it was derived
    from as ``_base``; a built graph has none. ``_bound_memo`` holds, by
    terminal position, the distance lists that bound the closures of this
    graph and of the graphs derived from it (``_bounds``), each a list of
    every node's distance from that terminal, and goes with the graph.
    """

    nodes: tuple[tuple[NodeId, float, float], ...]
    edges: tuple[tuple[NodeId, NodeId, float], ...]

    _index: dict = field(init=False, repr=False, compare=False)
    _base: "RoadGraph | None" = field(init=False, repr=False, compare=False)
    _bound_memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_base", None)
        object.__setattr__(self, "_bound_memo", {})
        index = _canonical_index(self.nodes, self.edges)
        if index is not None:
            object.__setattr__(self, "_index", index)
            return
        rows: dict[NodeId, tuple[NodeId, float, float]] = {}
        for nid, lat, lon in self.nodes:
            if nid in rows:
                raise ValueError(f"duplicate node_id {nid!r}")
            if not (type(lat) is float and type(lon) is float and -90.0 <= lat <= 90.0
                    and math.isfinite(lon)):
                lat = require_latitude(lat, f"node {nid!r}: lat")
                lon = require_finite(lon, f"node {nid!r}: lon")
            rows[nid] = (nid, lat, lon)
        require_node_ids(rows, "node id")
        # node_key order without a key per node: the ints ascending, then the strs
        order = sorted(n for n in rows if not isinstance(n, str))
        order += sorted(n for n in rows if isinstance(n, str))
        norm_nodes = tuple(rows[n] for n in order)
        index = {n: i for i, n in enumerate(order)}

        edge_mm: dict[tuple[int, int], int] = {}
        position = index.get
        for u, v, length_m in self.edges:
            iu, iv = position(u), position(v)
            if (iu is None or iv is None or (type(u) is not str and not is_node_id(u))
                    or (type(v) is not str and not is_node_id(v))):
                raise _dangling(u, v, index)
            if type(length_m) is not float and not is_number(length_m):
                raise NonPositiveLengthError(
                    f"edge ({u!r}, {v!r}): length_m must be a number, got {length_m!r}"
                )
            try:
                m = float(length_m)
            except OverflowError:  # an int past the float range
                m = math.inf
            if not math.isfinite(m):
                raise NonPositiveLengthError(
                    f"edge ({u!r}, {v!r}): length_m must be finite, got {length_m!r}"
                )
            try:
                mm = int(round(m * 1000.0))  # quantize_m
            except OverflowError:  # m * 1000 is past the float range
                mm = MAX_ROAD_MM + 1 if m > 0 else 0
            if mm > MAX_ROAD_MM:
                raise NonPositiveLengthError(
                    f"edge ({u!r}, {v!r}): length_m must be at most "
                    f"{MAX_ROAD_MM / 1000:.6g}, got {length_m!r}"
                )
            if mm <= 0:
                raise NonPositiveLengthError(
                    f"edge ({u!r}, {v!r}) has non-positive length {length_m!r} m"
                )
            pair = (iu, iv) if iu <= iv else (iv, iu)
            prev = edge_mm.get(pair)
            if prev is None or mm < prev:
                edge_mm[pair] = mm

        if sum(edge_mm.values()) > MAX_ROAD_MM:
            raise NonPositiveLengthError(
                f"road edge lengths add up to more than {MAX_ROAD_MM / 1000:.6g} m, "
                "past what exact millimetre distances hold"
            )

        pairs = sorted(edge_mm.items())
        object.__setattr__(self, "nodes", norm_nodes)
        object.__setattr__(self, "edges", tuple([(order[iu], order[iv], mm / 1000.0)  # mm_to_m
                                                 for (iu, iv), mm in pairs]))
        object.__setattr__(self, "_index", index)
        if edge_mm and max(edge_mm.values()) > _ROUND_TRIP_MM:
            # a stored length might not give its millimetres back: use the exact ones
            object.__setattr__(self, "_adj", _adjacency(
                len(order), [(iu, iv, mm) for (iu, iv), mm in pairs]))

    @cached_property
    def _adj(self) -> tuple:
        """Per position, the (neighbour position, mm) pairs of its edges, built on first use."""
        index = self._index
        return _adjacency(len(self.nodes), [(index[u], index[v], round(m * 1000.0))  # quantize_m
                                            for u, v, m in self.edges])

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` is a node id of this graph; an equal value of another type is not."""
        return node in self._index and is_node_id(node)

    def coord(self, node: NodeId) -> tuple[float, float]:
        return self.nodes[self._index[node]][1:]

    def neighbors(self, node: NodeId) -> tuple[tuple[NodeId, int], ...]:
        """Adjacent (node, length_mm) pairs."""
        nodes = self.nodes
        return tuple((nodes[j][0], mm) for j, mm in self._adj[self._index[node]])

    def edge_length_m(self, u: NodeId, v: NodeId) -> float:
        row = self._row(u, v)
        if row is None:
            raise KeyError(edge_key(u, v))
        return self.edges[row][2]

    def _row(self, u: NodeId, v: NodeId) -> int | None:
        """The position in ``edges`` of the edge between node ids u and v, or None.

        The rows are sorted by their endpoints' position pairs, which are
        distinct, so the row is found by bisection.
        """
        index = self._index
        iu, iv = index.get(u), index.get(v)
        if iu is None or iv is None or not (is_node_id(u) and is_node_id(v)):
            return None
        pair = (iu, iv) if iu <= iv else (iv, iu)
        edges = self.edges
        i = bisect_left(edges, pair, key=lambda row: (index[row[0]], index[row[1]]))
        if i < len(edges) and (index[edges[i][0]], index[edges[i][1]]) == pair:
            return i
        return None

    def _without(self, rows: Collection[int]) -> "RoadGraph":
        """This graph minus the edges at ``rows``, distinct positions in ``edges``.

        Derived without re-validation: the nodes and index are shared, and
        only the endpoints of removed edges get a new adjacency tuple.
        Filtering keeps every tuple in node_key order, so the result equals
        ``RoadGraph(self.nodes, kept_edges)`` and a search runs on it exactly
        as on that rebuild. The kept rows are copied in slices. The result
        keeps this graph as its ``_base``.
        """
        index, edges = self._index, self.edges
        cut: dict[int, set[int]] = {}
        for r in rows:
            iu, iv = index[edges[r][0]], index[edges[r][1]]
            cut.setdefault(iu, set()).add(iv)
            cut.setdefault(iv, set()).add(iu)
        adj = list(self._adj)
        for iu, gone in cut.items():
            adj[iu] = tuple(nbr for nbr in adj[iu] if nbr[0] not in gone)
        kept: list[tuple[NodeId, NodeId, float]] = []
        start = 0
        for r in sorted(rows):
            kept += edges[start:r]
            start = r + 1
        kept += edges[start:]
        g = object.__new__(RoadGraph)
        object.__setattr__(g, "nodes", self.nodes)
        object.__setattr__(g, "edges", tuple(kept))
        object.__setattr__(g, "_index", index)
        object.__setattr__(g, "_adj", tuple(adj))
        object.__setattr__(g, "_base", self)
        object.__setattr__(g, "_bound_memo", {})
        return g


def _canonical_index(nodes, edges) -> dict | None:
    """The node index of tables that ``RoadGraph`` would keep exactly as they are, or
    None for any other tables, which then take the general path.

    Such tables are tuples of 3-tuples. The node ids are ints and strs (of those very
    types), strictly ascending in ``node_key`` order, and each node has a float
    latitude in [-90, 90] and a finite float longitude. The edges are strictly
    ascending by their endpoints' position pair, the smaller position first; each
    endpoint is a node id of those types, each length is a float equal to its
    millimetres over 1000, and the millimetres add up to at most ``MAX_ROAD_MM``. A
    length of 1e16 m or more is left to the general path, as ``m * 1000`` could
    overflow there. One pass checks all this, and anything it cannot decide (an
    unhashable id, a row of another length) is left to the general path as well.
    """
    if type(nodes) is not tuple or type(edges) is not tuple:
        return None
    try:
        strs = False
        prev = None
        for row in nodes:
            if type(row) is not tuple:
                return None
            n, lat, lon = row
            kind = type(n)
            if kind is str:
                if strs and n <= prev:
                    return None
                strs = True
            elif kind is not int or strs or (prev is not None and n <= prev):
                return None
            if not (type(lat) is float and type(lon) is float and -90.0 <= lat <= 90.0
                    and math.isfinite(lon)):
                return None
            prev = n
        index = {row[0]: i for i, row in enumerate(nodes)}
        position = index.get
        size = len(nodes)
        last = -1
        total = 0
        for row in edges:
            if type(row) is not tuple:
                return None
            u, v, m = row
            iu, iv = position(u), position(v)
            if (iu is None or iv is None or iu > iv or type(u) not in _ID_TYPES
                    or type(v) not in _ID_TYPES or type(m) is not float
                    or not 0.0 < m < 1e16):
                return None
            key = iu * size + iv
            mm = round(m * 1000.0)  # quantize_m
            if key <= last or mm / 1000.0 != m:
                return None
            last = key
            total += mm
    except (TypeError, ValueError):
        return None
    return index if total <= MAX_ROAD_MM else None


def _adjacency(size: int, rows: Sequence[tuple[int, int, int]]) -> tuple:
    """Per position of ``size``, the (neighbour position, mm) pairs of ``rows``, each an
    edge (iu, iv, mm) with iu <= iv, sorted by (iu, iv).

    Walking the sorted pairs gives each node its smaller neighbours first, then its
    larger ones, both ascending: node_key order. Self-loops never shorten a path and
    are left out.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for iu, iv, mm in rows:
        if iu != iv:
            adj[iu].append((iv, mm))
            adj[iv].append((iu, mm))
    return tuple(map(tuple, adj))


def _dangling(u, v, index: dict) -> DanglingEdgeError:
    """The error for edge (u, v), naming its first endpoint that is not a node id in ``index``."""
    bad = u if u not in index or not is_node_id(u) else v
    return DanglingEdgeError(f"edge ({u!r}, {v!r}) references unknown node {bad!r}")


@dataclass(frozen=True)
class PowerNode:
    """One feeder bus in its local coordinate frame."""

    bus_id: NodeId
    local_x: float
    local_y: float
    downstream_load_kw: float
    component_kind: str

    def __post_init__(self):
        require_node_ids((self.bus_id,), "bus_id")
        for name in ("local_x", "local_y", "downstream_load_kw"):
            require_finite(getattr(self, name), f"bus {self.bus_id!r}: {name}")
        if self.downstream_load_kw < 0:
            raise ValueError(f"bus {self.bus_id!r}: downstream_load_kw must be >= 0")
        if self.component_kind not in POWER_COMPONENT_KINDS:
            raise ValueError(
                f"bus {self.bus_id!r}: component_kind {self.component_kind!r} "
                f"not in {POWER_COMPONENT_KINDS}"
            )


@dataclass(frozen=True)
class CoupledNetwork:
    """Road graph plus projected feeder buses, depots, and damage markers.

    ``loads_kw`` aggregates downstream load per road node (summed over the
    buses snapped there); the allocation stage reads restoration value from
    it for damaged nodes.
    """

    road: RoadGraph
    power_to_road: Mapping[NodeId, NodeId]
    depots: frozenset[NodeId]
    damaged: frozenset[NodeId]
    loads_kw: Mapping[NodeId, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "depots", frozenset(self.depots))
        object.__setattr__(self, "damaged", frozenset(self.damaged))
        object.__setattr__(self, "power_to_road", dict(self.power_to_road))
        object.__setattr__(self, "loads_kw", dict(self.loads_kw))
        overlap = self.depots & self.damaged
        if overlap:
            raise ValueError(f"depots and damaged sets overlap: {sorted(overlap, key=node_key)}")
        require_node_ids(self.power_to_road, "bus id")
        require_node_ids(self.loads_kw, "loads_kw node")
        for bus, rn in self.power_to_road.items():
            if not self.road.has_node(rn):
                raise ValueError(f"bus {bus!r} maps to unknown road node {rn!r}")
        for d in sorted(self.depots, key=node_key):
            if not self.road.has_node(d):
                raise ValueError(f"depot {d!r} is not a road node")
        for d in sorted(self.damaged, key=node_key):
            if not self.road.has_node(d):
                raise ValueError(f"damaged node {d!r} is not a road node")

    def terminals(self) -> tuple[NodeId, ...]:
        """Depots plus damaged nodes in deterministic order."""
        return tuple(sorted(self.depots | self.damaged, key=node_key))


@dataclass(frozen=True, eq=False)
class CompleteGraph:
    """Metric reduction over terminals: exact pairwise shortest-path lengths.

    ``dist_mm`` is the integer-millimeter matrix (-1 where unreachable), and
    ``reachable`` is derived from it as ``dist_mm >= 0``; ``dist`` is the
    float view in meters with inf where unreachable. When built from a road
    graph (``shortest_path_matrix``), it keeps ``_dists[i]``, the distance
    list of terminal i's search, for every terminal but the last, and the
    road graph's adjacency as ``_adj``; ``positions[i]`` is terminal i's
    position in ``road_nodes``. These four are keyword-only.

    ``path(u, v)`` walks back from whichever of u and v is listed later in
    ``terminals`` to the one listed first, over the first one's distances. At
    each node it steps to the tied neighbour (one that a shortest path from
    the first terminal passes through on its way) nearest the first terminal,
    and among equally near ones to the smallest position. The path therefore
    depends on the graph and on which terminal is listed first, not on the
    order in which a search settled the nodes. Each pair's path is kept once
    built, as ``_orders`` keeps what ``routing.solve_routing`` solved over this
    graph.
    """

    terminals: tuple[NodeId, ...]
    dist_mm: np.ndarray
    road_nodes: tuple[tuple[NodeId, float, float], ...] = field(default=(), kw_only=True)
    positions: tuple[int, ...] = field(default=(), kw_only=True)
    _dists: tuple = field(default=(), repr=False, kw_only=True)
    _adj: tuple = field(default=(), repr=False, kw_only=True)

    reachable: np.ndarray = field(init=False)
    _index: dict = field(init=False, repr=False)
    _dist_m: np.ndarray = field(init=False, repr=False)
    _paths: dict = field(init=False, repr=False, default_factory=dict)
    _orders: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        n = len(self.terminals)
        if len(set(self.terminals)) != n:
            raise ValueError("terminals must be distinct")
        dist_mm = np.asarray(self.dist_mm, dtype=np.int64)
        if dist_mm.shape != (n, n):
            raise ValueError("matrix shape must be (n_terminals, n_terminals)")
        if not np.array_equal(dist_mm, dist_mm.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diagonal(dist_mm) != 0):
            raise ValueError("diagonal must be zero")
        reachable = dist_mm >= 0
        dist_mm.setflags(write=False)
        reachable.setflags(write=False)
        dist_m = np.where(reachable, dist_mm / 1000.0, np.inf)
        dist_m.setflags(write=False)
        object.__setattr__(self, "dist_mm", dist_mm)
        object.__setattr__(self, "reachable", reachable)
        object.__setattr__(self, "_dist_m", dist_m)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.terminals)})

    @classmethod
    def from_distances(cls, terminals: Sequence[NodeId], dist_m) -> "CompleteGraph":
        """Build directly from a symmetric matrix of meters (inf = unreachable)."""
        arr = np.asarray(dist_m, dtype=float)
        finite = np.isfinite(arr)
        mm = np.rint(np.where(finite, arr, 0.0) * 1000.0).astype(np.int64)
        mm[~finite] = -1
        return cls(tuple(terminals), mm)

    @property
    def dist(self) -> np.ndarray:
        """Float meters; inf where unreachable."""
        return self._dist_m

    def index(self, terminal: NodeId) -> int:
        try:
            return self._index[terminal]
        except KeyError:
            raise UnknownTerminalError(f"{terminal!r} is not a terminal") from None

    def dist_m(self, u: NodeId, v: NodeId) -> float:
        return self._dist_m.item(self.index(u), self.index(v))

    def is_reachable(self, u: NodeId, v: NodeId) -> bool:
        return bool(self.reachable[self.index(u), self.index(v)])

    def path(self, u: NodeId, v: NodeId) -> tuple[NodeId, ...] | None:
        """One shortest road path from u to v, or None without a road graph."""
        if not self.positions:
            return None
        found = self._paths.get((u, v))
        if found is not None:
            return found
        iu, iv = self.index(u), self.index(v)
        if not self.reachable[iu, iv]:
            return None
        # walk from the terminal listed later back to the one listed first; the
        # last-listed terminal is never listed first, so it has no distances
        root, leaf = (iu, iv) if iu < iv else (iv, iu)
        x = self.positions[leaf]
        seq = [x]
        if leaf != root:
            dist, adj = self._dists[root], self._adj
            while dist[x]:
                dx = near = dist[x]
                for w, mm in adj[x]:  # ascending position: the first of equals wins
                    dw = dist[w]
                    if 0 <= dw < near and dw + mm == dx:
                        step, near = w, dw
                seq.append(step)
                x = step
        if iu < iv:
            seq.reverse()
        nodes = self.road_nodes
        found = self._paths[u, v] = tuple(nodes[p][0] for p in seq)
        return found


def load_road_network(
    node_records: Iterable[tuple[NodeId, float, float]],
    edge_records: Iterable[tuple[NodeId, NodeId, float]],
) -> RoadGraph:
    """Build a road graph from coordinate rows and adjacency rows.

    Parallel edges collapse to their minimum length. Raises
    DanglingEdgeError / NonPositiveLengthError on malformed rows.
    """
    return RoadGraph(tuple(node_records), tuple(edge_records))


def project_power_nodes(
    power: Sequence[PowerNode],
    offset_x: float,
    offset_y: float,
    road: RoadGraph,
) -> dict[NodeId, NodeId]:
    """Snap each feeder bus to the nearest road node.

    Local coordinates translate into geodesic ones as lon = x + offset_x,
    lat = y + offset_y; nearest is great-circle distance, ties break toward
    the smallest node id: the first minimum, since ``road.nodes`` is in
    ``node_key`` order. ValueError naming the bus whose latitude falls outside
    [-90, 90] (``require_latitude``).
    """
    if road.n_nodes == 0:
        raise EmptyRoadGraphError("cannot project onto an empty road graph")
    ids = [n for n, _, _ in road.nodes]
    lats = np.array([lat for _, lat, _ in road.nodes], dtype=float)
    lons = np.array([lon for _, _, lon in road.nodes], dtype=float)

    mapping: dict[NodeId, NodeId] = {}
    for p in power:
        lon = p.local_x + offset_x
        lat = require_latitude(p.local_y + offset_y, f"bus {p.bus_id!r}: local_y + offset_y")
        mapping[p.bus_id] = ids[int(haversine_m_array(lat, lon, lats, lons).argmin())]
    return mapping


def build_coupled_network(
    road: RoadGraph,
    power: Sequence[PowerNode],
    offset_x: float,
    offset_y: float,
    depots: Iterable[NodeId],
    damaged: Iterable[NodeId] = (),
) -> CoupledNetwork:
    """Project the feeder onto the road graph and assemble the coupled network.

    A road node's load is the sum of its buses' loads; NumericOverflowError when
    that sum leaves the float64 range.
    """
    mapping = project_power_nodes(power, offset_x, offset_y, road)
    loads: dict[NodeId, float] = {}
    for p in power:
        rn = mapping[p.bus_id]
        loads[rn] = loads.get(rn, 0.0) + float(p.downstream_load_kw)
        if math.isinf(loads[rn]):
            raise NumericOverflowError(f"load at road node {rn!r}", "downstream_load_kw")
    return CoupledNetwork(
        road=road,
        power_to_road=mapping,
        depots=frozenset(depots),
        damaged=frozenset(damaged),
        loads_kw=loads,
    )


def apply_road_failures(
    road: RoadGraph, failed_edges: Iterable[tuple[NodeId, NodeId]]
) -> RoadGraph:
    """The graph without the failed edges; ``road`` itself when none of them is in it.

    Pairs that match no edge are counted and reported via a warning, not an
    error: a scenario may name edges that an earlier failure already removed.
    A pair with an endpoint that is not a node id (``True`` for node ``1``)
    matches no edge. Each pair's row is found by bisection (``RoadGraph._row``),
    and the result is derived from ``road`` without a rebuild (``RoadGraph._without``).
    """
    rows, ignored = set(), set()
    for u, v in failed_edges:  # a lookup per pair, not a pass over every edge
        row = road._row(u, v)
        if row is None:
            ignored.add(edge_key(u, v))
        else:
            rows.add(row)
    if ignored:
        logger.warning("apply_road_failures: %d failure pair(s) match no edge; ignored",
                       len(ignored))
    return road._without(rows) if rows else road


def _bound_lists(adj: tuple, sources: Sequence[int]) -> list[list[int]]:
    """Every node's distance from each of ``sources`` on the graph of ``adj``; -1
    where unreached.

    One label-correcting search (Bellman 1958) serves every source at once, in
    numpy over the adjacency in CSR form: the labels are a (source, node) array,
    and each round relaxes the edges out of every label that fell in the round
    before, keeping the least candidate per label (``np.minimum.at``, which no
    write order sways). A label is then the shortest walk of at most as many
    edges as rounds run, so the search ends, exact, after one round more than
    the most edges on a shortest path. The labels are uint64 with its max as
    "unreached": a real distance is at most ``MAX_ROAD_MM`` and an edge no
    longer, so no candidate reaches the sentinel, and uint64 is never mixed
    with int64, which numpy would promote to float64.
    """
    n = len(adj)
    pairs = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(adj)),
                        dtype=np.int64)
    head, mm = pairs[0::2], pairs[1::2].astype(np.uint64)
    degree = np.fromiter(map(len, adj), dtype=np.int64, count=n)
    first = np.cumsum(degree) - degree  # each node's first CSR position
    unreached = np.iinfo(np.uint64).max
    dist = np.full(len(sources) * n, unreached, dtype=np.uint64)
    # labels by flat index s * n + node; those that fell last round
    fell = np.arange(len(sources), dtype=np.int64) * n + np.asarray(sources, dtype=np.int64)
    dist[fell] = 0
    slot = np.zeros(len(dist), dtype=np.int64)
    while len(fell):
        node = fell % n
        out = degree[node]
        # the CSR positions of the edges out of each fallen label, in turn
        ends = np.cumsum(out)
        edge = np.arange(ends[-1], dtype=np.int64) + np.repeat(first[node] - ends + out, out)
        target = np.repeat(fell - node, out) + head[edge]
        cand = np.repeat(dist[fell], out) + mm[edge]
        lower = cand < dist[target]
        target, cand = target[lower], cand[lower]
        np.minimum.at(dist, target, cand)
        # each label that fell, once: whichever of its writes to ``slot`` lands,
        # exactly one of its places in ``target`` reads itself back
        place = np.arange(len(target), dtype=np.int64)
        slot[target] = place
        fell = target[slot[target] == place]
    return dist.view(np.int64).reshape(len(sources), n).tolist()  # the sentinel views as -1


def _bounds(road: RoadGraph, positions: Sequence[int]) -> list[list[int]]:
    """The distance lists that bound a closure's searches toward ``positions``.

    They are exact distances on the graph ``road`` was derived from
    (``RoadGraph._base``), or on ``road`` itself when it was not derived, and
    are memoised there by position: the positions not yet memoised are
    computed together, by one batched search (``_bound_lists``). Removing
    edges never shortens a path, so a node's distance to a terminal on that
    graph is at most its distance on ``road``, and -1 there means unreachable
    on ``road`` too. Each list is also consistent: it drops by at most an
    edge's length along any edge.
    """
    base = road if road._base is None else road._base
    memo = base._bound_memo
    missing = [p for p in positions if p not in memo]
    if missing:
        memo.update(zip(missing, _bound_lists(base._adj, missing)))
    return [memo[p] for p in positions]


def _search(adj: tuple, source: int, goals: Sequence[int],
            bounds: Sequence[list[int]]) -> tuple[list[int], list[int]]:
    """One source's distance list and its distances to ``goals`` (-1 where unreachable).

    The goals are taken in turn, and the search keeps its settled nodes and
    distances from one goal to the next. For goal j it is A* with the
    potential ``bounds[j]`` (exact and consistent, ``_bounds``): the open
    nodes are keyed by distance plus bound, a node whose bound is -1 cannot
    reach j and is left open for later goals, and the phase ends once no open
    node has a key <= d(source, j). Every node on a shortest path to j has
    such a key, so each is settled then, with its exact distance, and
    ``CompleteGraph.path`` finds every tied step among them. A node that is
    reached but not settled holds a distance no shorter than its true one.
    """
    n = len(adj)
    dist = [-1] * n
    dist[source] = 0
    done = bytearray(n)
    frontier = [source]  # every reached node that is not settled, and some that are
    row = []
    heappop, heappush = heapq.heappop, heapq.heappush
    for goal, bound in zip(goals, bounds):
        if bound[source] < 0:  # j is not reachable even without the failures
            row.append(-1)
            continue
        frontier = [v for v in frontier if not done[v]]
        # keys (d + bound) * n + position; once d(source, j) is known, a key
        # from stop on cannot be settled in this phase
        stop = (dist[goal] + 1) * n if done[goal] else math.inf
        heap = [k for v in frontier if bound[v] >= 0
                and (k := (dist[v] + bound[v]) * n + v) < stop]
        heapq.heapify(heap)
        while heap and heap[0] < stop:
            u = heappop(heap) % n
            if done[u]:
                continue  # a stale key: u was settled with a smaller one
            done[u] = 1
            d = dist[u]
            for v, w in adj[u]:
                nd = d + w
                dv = dist[v]
                if dv < 0:
                    frontier.append(v)
                elif nd >= dv:
                    continue
                dist[v] = nd
                bv = bound[v]
                if bv >= 0:
                    heappush(heap, (nd + bv) * n + v)
            if u == goal:
                stop = (d + 1) * n
        row.append(dist[goal] if done[goal] else -1)
    return dist, row


def shortest_path_matrix(road: RoadGraph, terminals: Sequence[NodeId]) -> CompleteGraph:
    """Reduce the road graph to a complete metric graph over the terminals.

    Exact integer arithmetic; unreachable pairs are marked rather than
    raised so downstream solvers can still work the reachable subproblem.

    Each pair is settled once: terminal i's search (``_search``) takes the
    terminals after i as goals in turn, and ``dist_mm[j, i]`` is
    ``dist_mm[i, j]`` (the graph is undirected and the lengths are
    integers). The last terminal has no later one, so it runs no search.
    Each search is A* toward its goal, with the goal's distances on the
    graph ``road`` was derived from as the exact potential (``_bounds``):
    the terminal positions that graph has not yet bounded get their distance
    lists from one batched search there, and every closure derived from it
    shares them. Only each search's distance list is kept, and
    ``CompleteGraph.path`` walks a leg's road path over the list of the
    terminal listed first. Every order of ``terminals`` gives the
    same distances; the order decides which terminal of a pair is the
    source, and so which path a leg takes where shortest paths tie.
    """
    terminals = tuple(terminals)
    missing = [t for t in terminals if not road.has_node(t)]
    if missing:
        raise UnknownTerminalError(f"unknown terminal(s): {missing!r}")
    if len(set(terminals)) != len(terminals):
        raise ValueError("terminals must be distinct")

    n = len(terminals)
    positions = tuple(road._index[t] for t in terminals)
    bounds = _bounds(road, positions[1:])
    dist_mm = np.zeros((n, n), dtype=np.int64)
    dists = []
    for i, p in enumerate(positions[:-1]):
        dist, row = _search(road._adj, p, positions[i + 1:], bounds[i:])
        dist_mm[i, i + 1:] = row
        dist_mm[i + 1:, i] = row
        dists.append(dist)
    return CompleteGraph(terminals, dist_mm, road_nodes=road.nodes, positions=positions,
                         _dists=tuple(dists), _adj=road._adj)

"""Coupled road / power-feeder network model and metric-closure reduction.

Road edge lengths are quantized to integer millimeters on construction and
all shortest-path arithmetic runs on those integers, so distance matrices
are exact: symmetric, order-independent, and directly comparable against
independent all-pairs oracles with zero tolerance. Serialized values are
fixed-point meters with 3 decimals, which round-trips the quantization.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DanglingEdgeError,
    EmptyRoadGraphError,
    NonPositiveLengthError,
    UnknownTerminalError,
)
from .geo import haversine_m_array

logger = logging.getLogger(__name__)

NodeId = int | str

POWER_COMPONENT_KINDS = ("line", "switch", "transformer", "substation")


def node_key(node: NodeId):
    """Deterministic sort key for node ids; ints order before strings."""
    if isinstance(node, bool) or not isinstance(node, int):
        return (1, str(node))
    return (0, node)


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


def is_number(value) -> bool:
    """A real number that is not a bool; a plain float is let through first."""
    return type(value) is float or (isinstance(value, Real) and not isinstance(value, bool))


def require_finite(value: float, what: str) -> float:
    """``value`` as a float; ValueError naming ``what`` unless it is a finite number.

    A value that reads as inf or nan, a string such as ``"inf"`` too, is named as
    not finite.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = 0.0  # no number at all: named below
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    if not is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return number


@dataclass(frozen=True)
class RoadGraph:
    """Undirected road network: nodes carry (lat, lon), edges carry meters.

    Construction normalizes the edge table: pairs are put in canonical
    order, lengths are quantized to millimeters, parallel edges collapse to
    the minimum length, and the table is sorted. Two graphs built from the
    same data therefore compare equal.
    """

    nodes: tuple[tuple[NodeId, float, float], ...]
    edges: tuple[tuple[NodeId, NodeId, float], ...]

    _coords: dict = field(init=False, repr=False, compare=False)
    _edge_mm: dict = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coords: dict[NodeId, tuple[float, float]] = {}
        for nid, lat, lon in self.nodes:
            if nid in coords:
                raise ValueError(f"duplicate node_id {nid!r}")
            if not (type(lat) is float and type(lon) is float and math.isfinite(lat + lon)):
                lat = require_finite(lat, f"node {nid!r}: lat")
                lon = require_finite(lon, f"node {nid!r}: lon")
            coords[nid] = (lat, lon)

        # node_key orders str ids as the strs themselves order, so when every id
        # is a str the ids serve as their own keys and no key is computed. Other
        # graphs key each endpoint with node_key: an int id can equal a node of
        # another type (1.0, True) whose key differs.
        plain = all(type(n) is str for n in coords)

        edge_mm: dict[tuple[NodeId, NodeId], int] = {}
        for u, v, length_m in self.edges:
            if u not in coords:
                raise DanglingEdgeError(f"edge ({u!r}, {v!r}) references unknown node {u!r}")
            if v not in coords:
                raise DanglingEdgeError(f"edge ({u!r}, {v!r}) references unknown node {v!r}")
            m = float(length_m)
            if not math.isfinite(m):
                raise NonPositiveLengthError(
                    f"edge ({u!r}, {v!r}): length_m must be finite, got {length_m!r}"
                )
            mm = int(round(m * 1000.0))  # quantize_m
            if mm <= 0:
                raise NonPositiveLengthError(
                    f"edge ({u!r}, {v!r}) has non-positive length {length_m!r} m"
                )
            if plain:
                key = (u, v) if u <= v else (v, u)
            else:
                key = edge_key(u, v)
            prev = edge_mm.get(key)
            if prev is None or mm < prev:
                edge_mm[key] = mm

        # A node's index is its position in the node_key-sorted ``nodes``.
        # Walking the sorted canonical pairs gives each node its smaller
        # neighbours first, then its larger ones, both ascending: node_key order.
        order = sorted(coords, key=None if plain else node_key)
        norm_nodes = tuple((n, *coords[n]) for n in order)
        index = {row[0]: i for i, row in enumerate(norm_nodes)}
        pair_key = None if plain else lambda item: (node_key(item[0][0]), node_key(item[0][1]))
        norm_edges: list[tuple[NodeId, NodeId, float]] = []
        adj: list[list[tuple[int, int]]] = [[] for _ in norm_nodes]
        for (u, v), mm in sorted(edge_mm.items(), key=pair_key):
            norm_edges.append((u, v, mm / 1000.0))  # mm_to_m
            if u != v:  # self-loops never shorten a path
                iu, iv = index[u], index[v]
                adj[iu].append((iv, mm))
                adj[iv].append((iu, mm))
        object.__setattr__(self, "nodes", norm_nodes)
        object.__setattr__(self, "edges", tuple(norm_edges))
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_edge_mm", edge_mm)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_node(self, node: NodeId) -> bool:
        return node in self._coords

    def coord(self, node: NodeId) -> tuple[float, float]:
        return self._coords[node]

    def neighbors(self, node: NodeId) -> tuple[tuple[NodeId, int], ...]:
        """Adjacent (node, length_mm) pairs."""
        nodes = self.nodes
        return tuple((nodes[j][0], mm) for j, mm in self._adj[self._index[node]])

    def edge_length_m(self, u: NodeId, v: NodeId) -> float:
        return mm_to_m(self._edge_mm[edge_key(u, v)])

    def _without(self, failed: set[tuple[NodeId, NodeId]]) -> "RoadGraph":
        """This graph minus ``failed``, a set of its own canonical edge keys.

        Derived without re-validation: the nodes, coordinates and index are
        shared, and only the endpoints of failed edges get a new adjacency
        tuple. Filtering keeps every tuple in node_key order, so the result
        equals ``RoadGraph(self.nodes, kept_edges)`` and Dijkstra runs on it
        exactly as on that rebuild.
        """
        edge_mm = dict(self._edge_mm)
        index = self._index
        cut: dict[int, set[int]] = {}
        for u, v in failed:
            del edge_mm[(u, v)]
            iu, iv = index[u], index[v]
            cut.setdefault(iu, set()).add(iv)
            cut.setdefault(iv, set()).add(iu)
        adj = list(self._adj)
        for iu, gone in cut.items():
            adj[iu] = tuple(nbr for nbr in adj[iu] if nbr[0] not in gone)
        g = object.__new__(RoadGraph)
        # self.edges is canonical, so each (u, v) prefix is its edge key
        object.__setattr__(g, "nodes", self.nodes)
        object.__setattr__(g, "edges", tuple(e for e in self.edges if e[:2] not in failed))
        object.__setattr__(g, "_coords", self._coords)
        object.__setattr__(g, "_edge_mm", edge_mm)
        object.__setattr__(g, "_index", index)
        object.__setattr__(g, "_adj", tuple(adj))
        return g


@dataclass(frozen=True)
class PowerNode:
    """One feeder bus in its local coordinate frame."""

    bus_id: NodeId
    local_x: float
    local_y: float
    downstream_load_kw: float
    component_kind: str

    def __post_init__(self):
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

    ``dist_mm`` is the integer-millimeter matrix (-1 where unreachable);
    ``dist`` is the float view in meters with inf where unreachable. When
    built from a road graph, ``preds[i]`` lists each road node's predecessor
    on a shortest path from terminal i, both as positions in ``road_nodes``;
    ``positions`` holds each terminal's own position there. Together they
    allow road-level path reconstruction.
    """

    terminals: tuple[NodeId, ...]
    dist_mm: np.ndarray
    reachable: np.ndarray
    preds: tuple[Sequence[int], ...] | None = None
    road_nodes: tuple[tuple[NodeId, float, float], ...] = ()
    positions: tuple[int, ...] = ()

    _index: dict = field(init=False, repr=False)
    _dist_m: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.terminals)
        if len(set(self.terminals)) != n:
            raise ValueError("terminals must be distinct")
        dist_mm = np.asarray(self.dist_mm, dtype=np.int64)
        reachable = np.asarray(self.reachable, dtype=bool)
        if dist_mm.shape != (n, n) or reachable.shape != (n, n):
            raise ValueError("matrix shape must be (n_terminals, n_terminals)")
        if not np.array_equal(dist_mm, dist_mm.T) or not np.array_equal(reachable, reachable.T):
            raise ValueError("distance and reachability matrices must be symmetric")
        if np.any(np.diagonal(dist_mm) != 0) or not np.all(np.diagonal(reachable)):
            raise ValueError("diagonal must be zero and self-reachable")
        if np.any((dist_mm >= 0) != reachable):
            raise ValueError("dist_mm must be >= 0 exactly on reachable pairs (-1 elsewhere)")
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
        return cls(tuple(terminals), mm, finite)

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
        return float(self._dist_m[self.index(u), self.index(v)])

    def is_reachable(self, u: NodeId, v: NodeId) -> bool:
        return bool(self.reachable[self.index(u), self.index(v)])

    def path(self, u: NodeId, v: NodeId) -> tuple[NodeId, ...] | None:
        """One shortest road path from u to v, or None without predecessor data."""
        if self.preds is None:
            return None
        iu, iv = self.index(u), self.index(v)
        if not self.reachable[iu, iv]:
            return None
        if u == v:
            return (u,)
        pred = self.preds[iu]
        start = self.positions[iu]
        seq = [self.positions[iv]]
        while seq[-1] != start:
            seq.append(pred[seq[-1]])
        nodes = self.road_nodes
        return tuple(nodes[p][0] for p in reversed(seq))


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
    the smallest node id.
    """
    if road.n_nodes == 0:
        raise EmptyRoadGraphError("cannot project onto an empty road graph")
    ids = [n for n, _, _ in road.nodes]
    lats = np.array([lat for _, lat, _ in road.nodes], dtype=float)
    lons = np.array([lon for _, _, lon in road.nodes], dtype=float)

    mapping: dict[NodeId, NodeId] = {}
    for p in power:
        lon = p.local_x + offset_x
        lat = p.local_y + offset_y
        d = haversine_m_array(lat, lon, lats, lons)
        best = d.min()
        candidates = [ids[i] for i in np.flatnonzero(d == best)]
        mapping[p.bus_id] = min(candidates, key=node_key)
    return mapping


def build_coupled_network(
    road: RoadGraph,
    power: Sequence[PowerNode],
    offset_x: float,
    offset_y: float,
    depots: Iterable[NodeId],
    damaged: Iterable[NodeId] = (),
) -> CoupledNetwork:
    """Project the feeder onto the road graph and assemble the coupled network."""
    mapping = project_power_nodes(power, offset_x, offset_y, road)
    loads: dict[NodeId, float] = {}
    for p in power:
        rn = mapping[p.bus_id]
        loads[rn] = loads.get(rn, 0.0) + float(p.downstream_load_kw)
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
    The result is derived from ``road`` without a rebuild (``RoadGraph._without``).
    """
    failed = {edge_key(u, v) for u, v in failed_edges}
    present = failed.intersection(road._edge_mm)
    ignored = len(failed) - len(present)
    if ignored:
        logger.warning("apply_road_failures: %d failure pair(s) match no edge; ignored", ignored)
    return road._without(present) if present else road


def _dijkstra_mm(
    road: RoadGraph, source: int, terminals: frozenset[int]
) -> tuple[list[int], list[int]]:
    """Single-source exact shortest paths over millimeter weights, on positions.

    Returns the ``dist`` (-1 where unreached) and ``pred`` lists, indexed by
    position in ``road.nodes``. The search stops once every position in
    ``terminals`` is settled: a settled node's distance and predecessor chain
    are final, so every terminal entry is the same as after a full settle.
    """
    adj = road._adj
    dist = [-1] * len(adj)
    pred = [-1] * len(adj)
    done = bytearray(len(adj))
    dist[source] = 0
    left = len(terminals)
    pushed = 0  # heap tie-break: equal distances pop in push order
    heap: list[tuple[int, int, int]] = [(0, pushed, source)]
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        d, _, u = heappop(heap)
        if done[u]:
            continue
        done[u] = 1
        if u in terminals:
            left -= 1
            if not left:
                break
        for v, w in adj[u]:
            nd = d + w
            dv = dist[v]
            if dv < 0 or nd < dv:
                dist[v] = nd
                pred[v] = u
                pushed += 1
                heappush(heap, (nd, pushed, v))
    return dist, pred


def shortest_path_matrix(road: RoadGraph, terminals: Sequence[NodeId]) -> CompleteGraph:
    """Reduce the road graph to a complete metric graph over the terminals.

    Exact integer arithmetic; unreachable pairs are marked rather than
    raised so downstream solvers can still work the reachable subproblem.
    """
    terminals = tuple(terminals)
    missing = [t for t in terminals if not road.has_node(t)]
    if missing:
        raise UnknownTerminalError(f"unknown terminal(s): {missing!r}")
    if len(set(terminals)) != len(terminals):
        raise ValueError("terminals must be distinct")

    n = len(terminals)
    positions = tuple(road._index[t] for t in terminals)
    targets = frozenset(positions)
    dist_mm = np.full((n, n), -1, dtype=np.int64)
    preds: list[list[int]] = []
    for i, p in enumerate(positions):
        dist, pred = _dijkstra_mm(road, p, targets)
        preds.append(pred)
        dist_mm[i] = [dist[q] for q in positions]
    reachable = dist_mm >= 0
    return CompleteGraph(terminals, dist_mm, reachable, preds=tuple(preds),
                         road_nodes=road.nodes, positions=positions)

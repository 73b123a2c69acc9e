"""Versioned on-disk artifacts and CSV ingestion.

Every JSON artifact is written by one encoder, ``_json_text``, whose bytes equal
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline. Artifacts hold no
timestamps, so identical inputs produce byte-identical files. Maps keyed by node
ids are stored as sorted [id, value] pair lists, which keeps JSON round-trips
type-faithful (integer ids stay integers). Distances are serialized as
fixed-point meter strings with 3 decimals, matching the millimeter quantization
used for all shortest-path arithmetic.

Every artifact is written through ``_write_text``, which leaves a file that
already holds the same bytes untouched and otherwise overwrites it in place,
so re-running a stage frees no disk blocks.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

from .errors import DanglingEdgeError, NonPositiveLengthError, SchemaError
from .network import (
    CompleteGraph,
    CoupledNetwork,
    NodeId,
    PowerNode,
    RoadGraph,
    is_int,
    is_number,
    node_key,
    require_latitude,
    require_node_ids,
)
from .routing import Route, RoutePlan
from .scenario import (
    N_CREWS,
    CrewType,
    Scenario,
    ScenarioSet,
    TornadoEvent,
)
from .schedule import GanttChart, GanttEntry

SCHEMA_NETWORK = "coupled_network/1"
SCHEMA_SCENARIOS = "scenario_set/1"
SCHEMA_ALLOCATION = "crew_allocation/1"
SCHEMA_ROUTES = "route_plan/1"
SCHEMA_ROAD = "road_graph/1"
SCHEMA_CONFIG = "config/1"
SCHEMA_MANIFEST = "run_manifest/1"

GANTT_HEADER = ("scenario", "node", "crew", "start_h", "finish_h")


# --- primitives -----------------------------------------------------------


def meters_str(length_m: float) -> str:
    """Fixed-point meters with 3 decimals, computed from exact millimeters."""
    mm = int(round(float(length_m) * 1000.0))
    sign = "-" if mm < 0 else ""
    mm = abs(mm)
    return f"{sign}{mm // 1000}.{mm % 1000:03d}"


# A parsed JSON value that must be a number goes through _number, and a text
# value (a CSV cell, or a distance_m) through _parse_number. Both name the
# value's place as ``where.format(*args)``, text that is built only for a value
# that fails.


def _number(value, what: str, where: str, *args) -> float:
    """A parsed JSON number as a float; a SchemaError unless it is finite (a bool or a
    string is no number)."""
    if is_number(value):
        number = float(value)
        if math.isfinite(number):
            return number
    _reject(value, what, where, args, number=is_number(value))


def _parse_number(value, what: str, where: str, *args) -> float:
    """A text value as a finite float: a string that ``float`` parses, or a number, as
    ``_number`` takes it; a SchemaError otherwise."""
    if type(value) is not str:
        return _number(value, what, where, *args)
    try:
        number = float(value)
    except ValueError:
        _reject(value, what, where, args, number=False)
    if not math.isfinite(number):
        _reject(value, what, where, args, number=True)
    return number


def _reject(value, what: str, where: str, args: tuple, number: bool) -> NoReturn:
    """The SchemaError for ``value``: a ``number`` that is not finite, or no number."""
    where = where.format(*args)
    if number:
        raise SchemaError(f"{where}: {what} must be finite, got {value!r}")
    raise SchemaError(f"{where}: bad {what} {value!r}")


def _write_text(path: str | Path, text: str) -> None:
    """Make ``path`` hold exactly ``text`` as UTF-8, without opening it with O_TRUNC.

    A file that already holds those bytes is left untouched (its mtime too).
    Otherwise the bytes are written from offset 0 and the file is cut at their
    length, so no block is freed unless the file shrinks. Truncating on open
    frees every block of the old file, which is slow on filesystems mounted
    with ``discard``. The size is compared before any read, so a new file or
    one of another size is never read back.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b") as fh:
        if os.fstat(fh.fileno()).st_size == len(data) and fh.read() == data:
            return
        fh.seek(0)
        fh.write(data)
        fh.truncate()


def write_json_artifact(path: str | Path, obj) -> None:
    _write_text(path, _json_text(obj))


def _json_text(obj) -> str:
    """``obj`` as the bytes of ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``.

    Dicts with str keys, lists and tuples are laid out here, and strs, ints and
    finite floats are written as ``json`` writes them; any other value goes to
    ``json.dumps``. A dict, list or tuple subclass, or a key that is no str, is a
    TypeError: no writer passes one, and ``json.dumps`` would not lay it out so.
    """
    return _encode(obj, "\n") + "\n"


def _encode(value, pad: str) -> str:
    """``value`` as ``_json_text`` writes it, where ``pad`` is a newline and the
    indentation of the enclosing line. Types are compared exactly: most values of
    an artifact are strs (node ids), which are encoded in place."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        # encode_basestring_ascii refuses a key that is no str
        return "{" + inner + ("," + inner).join([
            f"{encode_basestring_ascii(k)}: "
            f"{encode_basestring_ascii(v) if type(v) is str else _encode(v, inner)}"
            for k, v in sorted(value.items())]) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([
            encode_basestring_ascii(v) if type(v) is str else _encode(v, inner)
            for v in value]) + pad + "]"
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or kind is float and math.isfinite(value):
        return kind.__repr__(value)
    if kind is _Encoded:
        if value.pad != pad:
            raise ValueError("a fragment is placed only at the pad it was encoded at")
        return value.text
    if isinstance(value, (dict, list, tuple)):
        raise TypeError(f"a {kind.__name__} is not written to a JSON artifact")
    return json.dumps(value)  # a bool, None, a non-finite float, a str or number subclass


class _Encoded:
    """A value's ``_encode`` text at ``pad``, which ``_encode`` writes as it is
    wherever the value would stand at that pad."""

    __slots__ = ("text", "pad")

    def __init__(self, value, pad: str):
        self.text, self.pad = _encode(value, pad), pad

    @classmethod
    def of_text(cls, text: str, pad: str) -> "_Encoded":
        """A fragment of ``text``, which the caller wrote as ``_encode`` writes a value
        at ``pad``."""
        fragment = cls.__new__(cls)
        fragment.text, fragment.pad = text, pad
        return fragment


@contextmanager
def _malformed(path: str | Path, what: str):
    """Report a missing key, a wrong type, a rejected value or a bad road edge as a
    SchemaError naming ``path``."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{path}: malformed {what} (missing key {exc})") from None
    except (TypeError, ValueError, OverflowError, DanglingEdgeError,
            NonPositiveLengthError) as exc:
        raise SchemaError(f"{path}: malformed {what} ({exc})") from None


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector, and restore the caller's state on exit. A
    reader that allocates many objects and makes no cycles runs under it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _readable(path: Path):
    """Report a file that cannot be opened or read as UTF-8 text as a SchemaError
    naming ``path``."""
    try:
        yield
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found") from None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_json_artifact(path: str | Path, expected_schema: str) -> dict:
    p = Path(path)
    try:
        with _readable(p):
            obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{p}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{p}: expected a JSON object, got {type(obj).__name__}")
    if obj.get("schema") != expected_schema:
        raise SchemaError(
            f"{p}: expected schema {expected_schema!r}, got {obj.get('schema')!r}"
        )
    return obj


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _pairs(mapping: Mapping[NodeId, object]) -> list[list]:
    return [[i, mapping[i]] for i in sorted(mapping, key=node_key)]


def _ids(ids: Iterable[NodeId]) -> list[NodeId]:
    return sorted(ids, key=node_key)


def _keyed(pairs: Sequence, path: str | Path, table: str, *args) -> dict:
    """``[[key, value], ...]`` as a map; a SchemaError naming ``path``, the table
    (``table.format(*args)``) and the first key named twice.

    A key named twice leaves the map shorter than ``pairs``, so a well-formed
    table is checked without a step per row.
    """
    out = {key: value for key, value in pairs}
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"{path}: {table.format(*args)}: {key!r} is named twice")
            seen.add(key)
    return out


def _loads_kw(pairs: Sequence, path: str | Path) -> dict[NodeId, float]:
    """``[[node, kw], ...]`` as a map; every load must be a finite number >= 0, as a
    bus's ``downstream_load_kw`` must."""
    loads = {node: _number(kw, "loads_kw", "{}: node {!r}", path, node)
             for node, kw in _keyed(pairs, path, "loads_kw").items()}
    for node, kw in loads.items():
        if kw < 0:
            raise SchemaError(f"{path}: node {node!r}: loads_kw must be >= 0, got {kw!r}")
    return loads


def _road_json(road: RoadGraph, pad: str) -> dict:
    """The ``nodes`` and ``edges`` tables that ``road_graph/1`` and ``coupled_network/1``
    share, each as its text at ``pad``, the pad of the dict that holds them.

    Each row is written by one f-string, as ``_encode`` would write ``[id, lat, lon]``
    and ``[u, v, meters_str(m)]``: an id as ``_encode`` writes it, a coordinate (a
    float, ``RoadGraph``) by ``float.__repr__``, and a length's millimetres inline.
    """
    table = pad + "    "  # the pad of a table's rows
    cell = table + "  "  # the pad of a row's cells
    ids = {n: encode_basestring_ascii(n) if type(n) is str else _encode(n, cell)
           for n, _, _ in road.nodes}
    nodes = [f"[{cell}{ids[n]},{cell}{lat!r},{cell}{lon!r}{table}]" for n, lat, lon in road.nodes]
    edges = [f'[{cell}{ids[u]},{cell}{ids[v]},{cell}"{mm // 1000}.{mm % 1000:03d}"{table}]'
             for u, v, m in road.edges for mm in (round(m * 1000.0),)]  # meters_str
    inner = pad + "  "
    return {name: _Encoded.of_text("[" + table + ("," + table).join(rows) + inner + "]"
                                   if rows else "[]", inner)
            for name, rows in (("nodes", nodes), ("edges", edges))}


def _road_from_json(obj: dict, path: str | Path) -> RoadGraph:
    """Inverse of ``_road_json``; node coordinates and edge distances must be finite."""
    nodes = []
    for n, lat, lon in obj["nodes"]:
        # a pair of floats whose sum is finite passes straight through
        if not (type(lat) is float and type(lon) is float and math.isfinite(lat + lon)):
            lat = _number(lat, "lat", "{}: node {!r}", path, n)
            lon = _number(lon, "lon", "{}: node {!r}", path, n)
        nodes.append((n, lat, lon))
    edges = []
    for u, v, m in obj["edges"]:
        # a str that float parses to a finite value passes straight through;
        # anything else gets _parse_number's value or error
        try:
            meters = float(m) if type(m) is str else math.nan
        except ValueError:
            meters = math.nan
        if not math.isfinite(meters):
            meters = _parse_number(m, "distance", "{}", path)
        edges.append((u, v, meters))
    return RoadGraph(tuple(nodes), tuple(edges))


# --- CSV ingestion ---------------------------------------------------------


def _read_csv(path: str | Path, header: Sequence[str]):
    """Yield ``(line_number, cells)``, each cell stripped, for every row that holds a
    cell that is not blank; enforce the exact expected header and the field count. A
    row's line number is the physical line it starts on, counting the line breaks
    inside quoted cells. A byte-order mark that opens the file is skipped, as
    spreadsheets save one."""
    p = Path(path)
    width = len(header)
    with _readable(p), open(p, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise SchemaError(f"{p}:1: empty file, expected header {','.join(header)}") from None
        if [h.strip() for h in first] != list(header):
            raise SchemaError(
                f"{p}:1: expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        end = reader.line_num  # the line the previous row ends on
        for row in reader:
            lineno, end = end + 1, reader.line_num
            cells = list(map(str.strip, row))
            if not any(cells):
                continue
            if len(cells) != width:
                raise SchemaError(f"{p}:{lineno}: expected {width} fields, got {len(cells)}")
            yield lineno, cells


def _parse_int(text: str, column: str, path, lineno: int) -> int:
    """A CSV cell as an int; a SchemaError naming ``path:lineno`` and the column otherwise."""
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"{path}:{lineno}: bad {column} value {text!r}") from None


def _latitude(text: str, path, lineno: int) -> float:
    """A CSV cell as a latitude (``require_latitude``); a SchemaError naming
    ``path:lineno`` otherwise."""
    try:
        return require_latitude(_parse_number(text, "lat", "{}:{}", path, lineno), "lat")
    except ValueError as exc:
        raise SchemaError(f"{path}:{lineno}: {exc}") from None


def read_road_nodes_csv(path: str | Path) -> list[tuple[NodeId, float, float]]:
    return [(node, _latitude(lat, path, lineno), _parse_number(lon, "lon", "{}:{}", path, lineno))
            for lineno, (node, lat, lon) in _read_csv(path, ("node_id", "lat", "lon"))]


def read_road_edges_csv(path: str | Path) -> list[tuple[NodeId, NodeId, float]]:
    return [(u, v, _parse_number(length, "length_m", "{}:{}", path, lineno))
            for lineno, (u, v, length) in _read_csv(path, ("u", "v", "length_m"))]


def read_road_graph_json(path: str | Path) -> RoadGraph:
    """Single structured road file holding both tables."""
    obj = read_json_artifact(path, SCHEMA_ROAD)
    with _malformed(path, "road graph"):
        return _road_from_json(obj, path)


def write_road_graph_json(road: RoadGraph, path: str | Path) -> None:
    write_json_artifact(path, {"schema": SCHEMA_ROAD, **_road_json(road, "\n")})


def read_power_nodes_csv(path: str | Path) -> list[PowerNode]:
    out = []
    header = ("bus_id", "x", "y", "downstream_load_kw", "kind")
    for lineno, (bus, x, y, load, kind) in _read_csv(path, header):
        try:
            out.append(
                PowerNode(
                    bus_id=bus,
                    local_x=_parse_number(x, "x", "{}:{}", path, lineno),
                    local_y=_parse_number(y, "y", "{}:{}", path, lineno),
                    downstream_load_kw=_parse_number(load, "downstream_load_kw", "{}:{}",
                                                     path, lineno),
                    component_kind=kind,
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return out


def read_power_edges_csv(path: str | Path) -> list[tuple[NodeId, NodeId]]:
    return [(u, v) for _, (u, v) in _read_csv(path, ("bus_u", "bus_v"))]


def read_events_csv(
    path: str | Path, default_width_m: float | None = None
) -> list[TornadoEvent]:
    out = []
    header = ("ef", "start_lat", "start_lon", "end_lat", "end_lon", "width_m")
    for lineno, (ef, start_lat, start_lon, end_lat, end_lon, width_text) in _read_csv(
            path, header):
        if not width_text and default_width_m is not None:
            width = float(default_width_m)
        else:
            width = _parse_number(width_text, "width_m", "{}:{}", path, lineno)
        try:
            out.append(
                TornadoEvent(
                    ef_rating=_parse_int(ef, "ef", path, lineno),
                    path_start=(
                        _parse_number(start_lat, "start_lat", "{}:{}", path, lineno),
                        _parse_number(start_lon, "start_lon", "{}:{}", path, lineno),
                    ),
                    path_end=(
                        _parse_number(end_lat, "end_lat", "{}:{}", path, lineno),
                        _parse_number(end_lon, "end_lon", "{}:{}", path, lineno),
                    ),
                    corridor_width_m=width,
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return out


# --- coupled network artifact ----------------------------------------------


def write_network_file(net: CoupledNetwork, path: str | Path) -> None:
    write_json_artifact(
        path,
        {
            "schema": SCHEMA_NETWORK,
            "road": _road_json(net.road, "\n  "),
            "power_to_road": _pairs(net.power_to_road),
            "depots": _ids(net.depots),
            "damaged": _ids(net.damaged),
            "loads_kw": _pairs(net.loads_kw),
        },
    )


def read_network_file(path: str | Path) -> CoupledNetwork:
    # Decoding and building the road graph allocate many objects and no cycles.
    # The decoded document is freed before the collector resumes.
    with gc_paused():
        return _network_from_file(path)


def _network_from_file(path: str | Path) -> CoupledNetwork:
    obj = read_json_artifact(path, SCHEMA_NETWORK)
    with _malformed(path, "network"):
        return CoupledNetwork(
            road=_road_from_json(obj["road"], path),
            power_to_road=_keyed(obj["power_to_road"], path, "power_to_road"),
            depots=frozenset(obj["depots"]),
            damaged=frozenset(obj["damaged"]),
            loads_kw=_loads_kw(obj["loads_kw"], path),
        )


# --- scenario set artifact ---------------------------------------------------


def write_scenario_file(sset: ScenarioSet, path: str | Path) -> None:
    scenarios = [
        {
            "id": sc.scenario_id,
            "repair_time_h": list(zip(sset.nodes, times)),
            "repair_demand": list(zip(sset.nodes, demands)),
            "failed_edges": [
                list(e)
                for e in sorted(sc.failed_edges, key=lambda e: (node_key(e[0]), node_key(e[1])))
            ],
        }
        for sc, times, demands in zip(sset.scenarios, sset.repair_times.tolist(),
                                      sset.repair_demands.tolist())
    ]
    write_json_artifact(
        path,
        {
            "schema": SCHEMA_SCENARIOS,
            "seed": sset.seed,
            "config": dict(sset.config) if sset.config is not None else None,
            "damaged": _ids(sset.damaged),
            "crews": [
                {
                    "index": c.index,
                    "name": c.name,
                    "hourly_cost_per_person": c.hourly_cost_per_person,
                }
                for c in sset.crews
            ],
            "loads_kw": _pairs(sset.loads_kw) if sset.loads_kw is not None else None,
            "scenarios": scenarios,
        },
    )


def read_scenario_file(path: str | Path) -> ScenarioSet:
    obj = read_json_artifact(path, SCHEMA_SCENARIOS)
    with _malformed(path, "scenario set"):
        crews = tuple(
            CrewType(c["index"], c["name"], c["hourly_cost_per_person"])
            for c in obj["crews"]
        )
        scenarios = []
        for rec in obj["scenarios"]:
            # values pass through as parsed: CrewType and Scenario reject a bool, a
            # fraction or a string
            sid = rec["id"]
            times = {(i, k): t for i, per_crew in
                     _keyed(rec["repair_time_h"], path, "scenario {!r}: repair_time_h",
                            sid).items()
                     for k, t in enumerate(per_crew)}
            demands = {(i, k): d for i, per_crew in
                       _keyed(rec["repair_demand"], path, "scenario {!r}: repair_demand",
                              sid).items()
                       for k, d in enumerate(per_crew)}
            scenarios.append(Scenario(sid, times, demands, rec["failed_edges"]))
        loads = obj.get("loads_kw")
        return ScenarioSet(
            scenarios=tuple(scenarios),
            seed=obj["seed"],
            damaged=frozenset(obj["damaged"]),
            crews=crews,
            config=obj.get("config"),
            loads_kw=_loads_kw(loads, path) if loads is not None else None,
        )


# --- allocation artifact -----------------------------------------------------


def write_allocation_file(
    alloc,
    path: str | Path,
    scale_c: float,
    gains: Mapping[int, float],
    crew_costs: Sequence[float],
) -> None:
    by_scenario: dict[int, dict[NodeId, list[float]]] = {}
    for (s, i, k), y in alloc.assignment.items():
        by_scenario.setdefault(s, {}).setdefault(i, [0.0] * N_CREWS)[k] = y
    assignment = [
        [s, [[i, by_scenario[s][i]] for i in sorted(by_scenario[s], key=node_key)]]
        for s in sorted(by_scenario)
    ]
    write_json_artifact(
        path,
        {
            "schema": SCHEMA_ALLOCATION,
            "capacity": list(alloc.capacity),
            "assignment": assignment,
            "objective_value": alloc.objective_value,
            "boundedness": {
                "scale_c": scale_c,
                "per_crew": [
                    {
                        "crew": k,
                        "marginal_gain": gains[k],
                        "weighted_cost": scale_c * crew_costs[k],
                    }
                    for k in range(N_CREWS)
                ],
            },
        },
    )


def read_allocation_file(path: str | Path):
    from .allocation import CrewAllocation

    obj = read_json_artifact(path, SCHEMA_ALLOCATION)
    with _malformed(path, "allocation"):
        capacity = obj["capacity"]
        if not (isinstance(capacity, list) and len(capacity) == N_CREWS
                and all(is_int(x) and x >= 0 for x in capacity)):
            raise SchemaError(f"{path}: capacity must be a list of {N_CREWS} integers >= 0, "
                              f"got {capacity!r}")
        assignment = {}
        for s, rows in _keyed(obj["assignment"], path, "assignment").items():
            if not is_int(s):
                raise SchemaError(f"{path}: assignment scenario must be an integer, got {s!r}")
            for i, per_crew in _keyed(rows, path, "assignment scenario {}", s).items():
                for k, y in enumerate(per_crew):
                    y = _number(y, "assignment", "{}: scenario {}, node {!r}", path, s, i)
                    if y:
                        assignment[(s, i, k)] = y
        return CrewAllocation(
            capacity=tuple(capacity),
            assignment=assignment,
            objective_value=_number(obj["objective_value"], "objective_value", "{}", path),
        )


# --- route plan artifact ------------------------------------------------------


# the pad of each route in a route plan's "routes", and of each leg in a route's "legs"
_ROUTE_PAD = "\n    "
_LEG_PAD = _ROUTE_PAD + "    "


def write_route_plan_file(plan: RoutePlan, path: str | Path, complete: CompleteGraph, *,
                          fragments: dict[tuple, _Encoded] | None = None) -> None:
    """Route plan with per-leg costs, distances and road-level paths; the
    complete graph supplies only the paths (null without road data).

    ``fragments`` keeps each route's encoded text by all it holds: its crew,
    stops, leg costs, leg meters, road paths, total and labels. It keeps each
    leg's text by its arc, cost, meters and road path. A route or leg met again
    is not encoded again. The keys compare numbers by ``==``, under which
    ``1 == 1.0`` and ``0.0 == -0.0``, so share one map only between plans whose
    numbers come alike, as ``solve_routing``'s do under one set of rates.
    """
    if fragments is None:
        fragments = {}
    routes = []
    for k in sorted(plan.routes):
        r = plan.routes[k]
        stops = r.stops()
        paths = tuple(map(complete.path, stops, stops[1:]))
        key = (k, stops, r.leg_costs, r.leg_m, paths, r.total_cost,
               tuple(r.mtz_labels.items()))
        text = fragments.get(key)
        if text is None:
            text = fragments[key] = _Encoded(_route_json(k, r, paths, fragments), _ROUTE_PAD)
        routes.append(text)
    # _write_text, not write_json_artifact: perfbench times each write_* call and
    # counts its bytes once
    _write_text(path, _json_text({"schema": SCHEMA_ROUTES, "scenario_id": plan.scenario_id,
                                  "routes": routes, "total_cost": plan.total_cost}))


def _route_json(k: int, r: Route, paths: Sequence, fragments: dict) -> dict:
    """Crew ``k``'s route ``r`` as a route plan holds it, each leg as its encoded text
    from ``fragments``; ``paths`` are the legs' road paths."""
    legs = []
    for leg in zip(r.arcs(), r.leg_costs, r.leg_m, paths):
        text = fragments.get(leg)
        if text is None:
            (u, v), cost, meters, road_path = leg
            text = fragments[leg] = _Encoded(
                {"from": u, "to": v, "cost": cost, "distance_m": meters_str(meters),
                 "road_path": road_path}, _LEG_PAD)
        legs.append(text)
    return {
        "crew": k,
        "depot_start": r.depot_start,
        "depot_end": r.depot_end,
        "visit_order": r.visit_order,
        "leg_costs": r.leg_costs,
        "total_cost": r.total_cost,
        "mtz_labels": [[i, r.mtz_labels[i]] for i in sorted(r.mtz_labels, key=node_key)],
        "legs": legs,
    }


def _leg_meters(rec: dict, path: str | Path) -> tuple[float, ...]:
    """One route's ``distance_m`` per leg; the legs must chain its stops, one per arc,
    and a leg's ``road_path``, where it has one, must be null or node ids from its
    ``from`` to its ``to``."""
    stops = [rec["depot_start"], *rec["visit_order"], rec["depot_end"]]
    legs = rec["legs"]
    if [(leg["from"], leg["to"]) for leg in legs] != list(zip(stops, stops[1:])):
        raise SchemaError(f"{path}: crew {rec['crew']!r}: legs do not chain depot_start, "
                          "visit_order, depot_end")
    road_paths = []
    for leg in legs:
        road_path = leg.get("road_path")
        if road_path is None:
            continue
        if not (type(road_path) is list and road_path and road_path[0] == leg["from"]
                and road_path[-1] == leg["to"]):
            raise SchemaError(f"{path}: crew {rec['crew']!r}: road_path must be null or run "
                              f"from {leg['from']!r} to {leg['to']!r}, got {road_path!r}")
        road_paths += road_path
    require_node_ids(road_paths, "crew {!r}: road_path node", rec["crew"])
    return tuple(_parse_number(leg["distance_m"], "distance", "{}: crew {!r}", path, rec["crew"])
                 for leg in legs)


def read_route_plan_file(path: str | Path) -> RoutePlan:
    obj = read_json_artifact(path, SCHEMA_ROUTES)
    routes = []
    with _malformed(path, "route plan"):
        # values pass through as parsed: Route and RoutePlan reject a bool, a
        # fraction where an integer belongs, or a string
        for rec in obj["routes"]:
            routes.append((rec["crew"], Route(
                crew=rec["crew"],
                depot_start=rec["depot_start"],
                depot_end=rec["depot_end"],
                visit_order=tuple(rec["visit_order"]),
                leg_costs=rec["leg_costs"],
                leg_m=_leg_meters(rec, path),
                total_cost=rec["total_cost"],
                mtz_labels=_keyed(rec["mtz_labels"], path, "crew {!r}: mtz_labels", rec["crew"]),
            )))
        return RoutePlan(scenario_id=obj["scenario_id"],
                         routes=_keyed(routes, path, "routes: crew"))


# --- gantt csv / svg ----------------------------------------------------------


def _csv_cell(value) -> str:
    """``value`` as a CSV cell, quoted (as ``csv`` quotes) only when it holds a comma, a
    quote or a line break."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_gantt_csv(chart: GanttChart, path: str | Path) -> None:
    cells = {node: _csv_cell(node) for node in {e.node_id for e in chart.entries}}
    lines = [",".join(GANTT_HEADER)]
    for e in chart.entries:
        lines.append(f"{e.scenario_id},{cells[e.node_id]},{e.crew},{e.start_h:.4f},"
                     f"{e.finish_h:.4f}")
    _write_text(path, "\n".join(lines) + "\n")


def read_gantt_csv(path: str | Path) -> GanttChart:
    entries = []
    for lineno, (scenario, node, crew, start, finish) in _read_csv(path, GANTT_HEADER):
        fields = (_parse_int(scenario, "scenario", path, lineno), node,
                  _parse_int(crew, "crew", path, lineno),
                  _parse_number(start, "start_h", "{}:{}", path, lineno),
                  _parse_number(finish, "finish_h", "{}:{}", path, lineno))
        try:
            entries.append(GanttEntry(*fields))
        except ValueError as exc:  # an interval out of order
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return GanttChart.from_entries(entries)


_PALETTE = ("#e6194b", "#3c89d0", "#3cb44b", "#9334e6", "#f58231",
            "#46c8c8", "#d4a017", "#911eb4", "#800000", "#2f6f4f")


def _nice_step(span_h: float) -> float:
    """Grid step targeting at most ~12 tick lines."""
    for step in (0.5, 1, 2, 4, 6, 12, 24, 48, 96):
        if span_h / step <= 12:
            return float(step)
    return max(1.0, span_h / 12.0)


def _xml_text(value) -> str:
    """``value`` as XML character data. ``html.escape`` does the same but its import
    holds ~0.35 MB of entity tables for the life of every process."""
    return str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_gantt_svg(chart: GanttChart, path: str | Path, title: str = "Crew schedule") -> None:
    """Deterministic SVG rendering: one row per (node, crew), a bar per scenario.

    The title and node ids are escaped as XML text."""
    rows = sorted({(e.node_id, e.crew) for e in chart.entries},
                  key=lambda t: (node_key(t[0]), t[1]))
    scenario_ids = sorted({e.scenario_id for e in chart.entries})
    row_index = {rc: i for i, rc in enumerate(rows)}
    labels = {node: _xml_text(node) for node, _ in rows}
    lane_of = {sid: lane for lane, sid in enumerate(scenario_ids)}
    lane_count = max(1, len(scenario_ids))

    ml, mr, mt, mb = 180.0, 24.0, 48.0, 34.0
    row_h = 22.0
    span = max(chart.makespan_h, 1e-9)
    plot_w = 760.0
    width = ml + plot_w + mr
    height = mt + row_h * max(1, len(rows)) + mb

    def x(t: float) -> float:
        return ml + (t / span) * plot_w

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="monospace" font-size="11">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{ml:.1f}" y="20" font-size="14">{_xml_text(title)}</text>',
    ]
    step = _nice_step(span)
    t = 0.0
    while t <= span + 1e-9:
        xx = x(min(t, span))
        out.append(
            f'<line x1="{xx:.2f}" y1="{mt:.2f}" x2="{xx:.2f}" '
            f'y2="{height - mb:.2f}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{height - mb + 14:.2f}" text-anchor="middle">{t:g}h</text>'
        )
        t += step
    for (node, crew), idx in row_index.items():
        y0 = mt + idx * row_h
        out.append(
            f'<text x="{ml - 8:.1f}" y="{y0 + row_h * 0.7:.2f}" '
            f'text-anchor="end">{labels[node]} crew{crew}</text>'
        )
    lane_h = (row_h - 6.0) / lane_count
    for e in chart.entries:
        idx = row_index[(e.node_id, e.crew)]
        lane = lane_of[e.scenario_id]
        y0 = mt + idx * row_h + 3.0 + lane * lane_h
        color = _PALETTE[e.scenario_id % len(_PALETTE)]
        bar_w = max(x(e.finish_h) - x(e.start_h), 0.5)
        out.append(
            f'<rect x="{x(e.start_h):.2f}" y="{y0:.2f}" width="{bar_w:.2f}" '
            f'height="{max(lane_h - 1.0, 1.0):.2f}" fill="{color}">'
            f'<title>s{e.scenario_id} {labels[e.node_id]} crew{e.crew}: '
            f'{e.start_h:.2f}-{e.finish_h:.2f}h</title></rect>'
        )
    for lane, sid in enumerate(scenario_ids):
        color = _PALETTE[sid % len(_PALETTE)]
        lx = ml + 110.0 * lane
        out.append(f'<rect x="{lx:.1f}" y="30" width="10" height="10" fill="{color}"/>')
        out.append(f'<text x="{lx + 14:.1f}" y="39">scenario {sid}</text>')
    out.append("</svg>")
    _write_text(path, "\n".join(out) + "\n")

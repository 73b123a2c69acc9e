"""Versioned on-disk artifacts and CSV ingestion.

JSON artifacts are written with sorted keys and no timestamps, so identical
inputs produce byte-identical files. Maps keyed by node ids are stored as
sorted [id, value] pair lists, which keeps JSON round-trips type-faithful
(integer ids stay integers). Distances are serialized as fixed-point meter
strings with 3 decimals, matching the millimeter quantization used for all
shortest-path arithmetic.

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
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

from .errors import SchemaError
from .network import (
    CompleteGraph,
    CoupledNetwork,
    NodeId,
    PowerNode,
    RoadGraph,
    edge_key,
    is_int,
    is_number,
    node_key,
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
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


@contextmanager
def _malformed(path: str | Path, what: str):
    """Report a missing key, a wrong type or a rejected value as a SchemaError naming ``path``."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{path}: malformed {what} (missing key {exc})") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed {what} ({exc})") from None


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, and restore the caller's state on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_json_artifact(path: str | Path, expected_schema: str) -> dict:
    p = Path(path)
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"{p}: file not found") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{p}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict) or obj.get("schema") != expected_schema:
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


def _loads_kw(pairs: Iterable, path: str | Path) -> dict[NodeId, float]:
    """``[[node, kw], ...]`` as a map; every load must be a finite number."""
    return {node: _number(kw, "loads_kw", "{}: node {!r}", path, node) for node, kw in pairs}


def _road_json(road: RoadGraph) -> dict:
    """The ``nodes`` and ``edges`` tables that ``road_graph/1`` and ``coupled_network/1`` share."""
    return {
        "nodes": [[n, lat, lon] for n, lat, lon in road.nodes],
        "edges": [[u, v, meters_str(m)] for u, v, m in road.edges],
    }


def _road_from_json(obj: dict, path: str | Path) -> RoadGraph:
    """Inverse of ``_road_json``; node coordinates and edge distances must be finite."""
    nodes = []
    for n, lat, lon in obj["nodes"]:
        # a pair of floats whose sum is finite passes straight through
        if not (type(lat) is float and type(lon) is float and math.isfinite(lat + lon)):
            lat = _number(lat, "lat", "{}: node {!r}", path, n)
            lon = _number(lon, "lon", "{}: node {!r}", path, n)
        nodes.append((n, lat, lon))
    edges = [(u, v, _parse_number(m, "distance", "{}", path)) for u, v, m in obj["edges"]]
    return RoadGraph(tuple(nodes), tuple(edges))


# --- CSV ingestion ---------------------------------------------------------


def _read_csv(path: str | Path, header: Sequence[str]):
    """Yield (line_number, row_dict); enforce the exact expected header."""
    p = Path(path)
    try:
        fh = open(p, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise SchemaError(f"{p}: file not found") from None
    with fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise SchemaError(f"{p}:1: empty file, expected header {','.join(header)}") from None
        if [h.strip() for h in first] != list(header):
            raise SchemaError(
                f"{p}:1: expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise SchemaError(f"{p}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, dict(zip(header, (cell.strip() for cell in row)))


def _float_field(row: dict, key: str, path, lineno: int) -> float:
    return _parse_number(row[key], key, "{}:{}", path, lineno)


def _int_field(row: dict, key: str, path, lineno: int) -> int:
    try:
        return int(row[key])
    except ValueError:
        raise SchemaError(f"{path}:{lineno}: bad {key} value {row[key]!r}") from None


def read_road_nodes_csv(path: str | Path) -> list[tuple[NodeId, float, float]]:
    rows = []
    for lineno, row in _read_csv(path, ("node_id", "lat", "lon")):
        rows.append(
            (row["node_id"], _float_field(row, "lat", path, lineno),
             _float_field(row, "lon", path, lineno))
        )
    return rows


def read_road_edges_csv(path: str | Path) -> list[tuple[NodeId, NodeId, float]]:
    rows = []
    for lineno, row in _read_csv(path, ("u", "v", "length_m")):
        rows.append((row["u"], row["v"], _float_field(row, "length_m", path, lineno)))
    return rows


def read_road_graph_json(path: str | Path) -> RoadGraph:
    """Single structured road file holding both tables."""
    obj = read_json_artifact(path, SCHEMA_ROAD)
    with _malformed(path, "road graph"):
        return _road_from_json(obj, path)


def write_road_graph_json(road: RoadGraph, path: str | Path) -> None:
    write_json_artifact(path, {"schema": SCHEMA_ROAD, **_road_json(road)})


def read_power_nodes_csv(path: str | Path) -> list[PowerNode]:
    out = []
    for lineno, row in _read_csv(path, ("bus_id", "x", "y", "downstream_load_kw", "kind")):
        try:
            out.append(
                PowerNode(
                    bus_id=row["bus_id"],
                    local_x=_float_field(row, "x", path, lineno),
                    local_y=_float_field(row, "y", path, lineno),
                    downstream_load_kw=_float_field(row, "downstream_load_kw", path, lineno),
                    component_kind=row["kind"],
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return out


def read_power_edges_csv(path: str | Path) -> list[tuple[NodeId, NodeId]]:
    return [(row["bus_u"], row["bus_v"]) for _, row in _read_csv(path, ("bus_u", "bus_v"))]


def read_events_csv(
    path: str | Path, default_width_m: float | None = None
) -> list[TornadoEvent]:
    out = []
    header = ("ef", "start_lat", "start_lon", "end_lat", "end_lon", "width_m")
    for lineno, row in _read_csv(path, header):
        width_text = row["width_m"]
        if not width_text and default_width_m is not None:
            width = float(default_width_m)
        else:
            width = _float_field(row, "width_m", path, lineno)
        try:
            out.append(
                TornadoEvent(
                    ef_rating=_int_field(row, "ef", path, lineno),
                    path_start=(
                        _float_field(row, "start_lat", path, lineno),
                        _float_field(row, "start_lon", path, lineno),
                    ),
                    path_end=(
                        _float_field(row, "end_lat", path, lineno),
                        _float_field(row, "end_lon", path, lineno),
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
            "road": _road_json(net.road),
            "power_to_road": _pairs(net.power_to_road),
            "depots": _ids(net.depots),
            "damaged": _ids(net.damaged),
            "loads_kw": _pairs(net.loads_kw),
        },
    )


def read_network_file(path: str | Path) -> CoupledNetwork:
    # Decoding and building the road graph allocate many objects and no cycles.
    # The decoded document is freed before the collector resumes.
    with _gc_paused():
        return _network_from_file(path)


def _network_from_file(path: str | Path) -> CoupledNetwork:
    obj = read_json_artifact(path, SCHEMA_NETWORK)
    with _malformed(path, "network"):
        return CoupledNetwork(
            road=_road_from_json(obj["road"], path),
            power_to_road={bus: node for bus, node in obj["power_to_road"]},
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
            times = {(i, k): t for i, per_crew in rec["repair_time_h"]
                     for k, t in enumerate(per_crew)}
            demands = {(i, k): d for i, per_crew in rec["repair_demand"]
                       for k, d in enumerate(per_crew)}
            failed = frozenset(edge_key(u, v) for u, v in rec["failed_edges"])
            scenarios.append(Scenario(rec["id"], times, demands, failed))
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
        for s, rows in obj["assignment"]:
            if not is_int(s):
                raise SchemaError(f"{path}: assignment scenario must be an integer, got {s!r}")
            for i, per_crew in rows:
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


def write_route_plan_file(plan: RoutePlan, path: str | Path, complete: CompleteGraph) -> None:
    """Route plan with per-leg costs, distances and road-level paths; the
    complete graph supplies only the paths (null without predecessor data)."""
    routes = []
    for k in sorted(plan.routes):
        r = plan.routes[k]
        legs = []
        for (u, v), cost, meters in zip(r.arcs(), r.leg_costs, r.leg_m):
            road_path = complete.path(u, v)
            legs.append({"from": u, "to": v, "cost": cost, "distance_m": meters_str(meters),
                         "road_path": list(road_path) if road_path is not None else None})
        routes.append(
            {
                "crew": k,
                "depot_start": r.depot_start,
                "depot_end": r.depot_end,
                "visit_order": list(r.visit_order),
                "leg_costs": list(r.leg_costs),
                "total_cost": r.total_cost,
                "mtz_labels": [[i, r.mtz_labels[i]] for i in sorted(r.mtz_labels, key=node_key)],
                "legs": legs,
            }
        )
    write_json_artifact(
        path,
        {
            "schema": SCHEMA_ROUTES,
            "scenario_id": plan.scenario_id,
            "routes": routes,
            "total_cost": plan.total_cost,
        },
    )


def _leg_meters(rec: dict, path: str | Path) -> tuple[float, ...]:
    """One route's ``distance_m`` per leg; the legs must chain its stops, one per arc."""
    stops = [rec["depot_start"], *rec["visit_order"], rec["depot_end"]]
    if [(leg["from"], leg["to"]) for leg in rec["legs"]] != list(zip(stops, stops[1:])):
        raise SchemaError(f"{path}: crew {rec['crew']!r}: legs do not chain depot_start, "
                          "visit_order, depot_end")
    return tuple(_parse_number(leg["distance_m"], "distance", "{}: crew {!r}", path, rec["crew"])
                 for leg in rec["legs"])


def read_route_plan_file(path: str | Path) -> RoutePlan:
    obj = read_json_artifact(path, SCHEMA_ROUTES)
    routes = {}
    with _malformed(path, "route plan"):
        # values pass through as parsed: Route and RoutePlan reject a bool, a
        # fraction where an integer belongs, or a string
        for rec in obj["routes"]:
            routes[rec["crew"]] = Route(
                crew=rec["crew"],
                depot_start=rec["depot_start"],
                depot_end=rec["depot_end"],
                visit_order=tuple(rec["visit_order"]),
                leg_costs=rec["leg_costs"],
                leg_m=_leg_meters(rec, path),
                total_cost=rec["total_cost"],
                mtz_labels={i: u for i, u in rec["mtz_labels"]},
            )
        return RoutePlan(scenario_id=obj["scenario_id"], routes=routes)


# --- gantt csv / svg ----------------------------------------------------------


def write_gantt_csv(chart: GanttChart, path: str | Path) -> None:
    lines = [",".join(GANTT_HEADER)]
    for e in chart.entries:
        lines.append(f"{e.scenario_id},{e.node_id},{e.crew},{e.start_h:.4f},{e.finish_h:.4f}")
    _write_text(path, "\n".join(lines) + "\n")


def read_gantt_csv(path: str | Path) -> GanttChart:
    entries = []
    for lineno, row in _read_csv(path, GANTT_HEADER):
        entries.append(
            GanttEntry(
                scenario_id=_int_field(row, "scenario", path, lineno),
                node_id=row["node"],
                crew=_int_field(row, "crew", path, lineno),
                start_h=_float_field(row, "start_h", path, lineno),
                finish_h=_float_field(row, "finish_h", path, lineno),
            )
        )
    return GanttChart.from_entries(entries)


_PALETTE = ("#e6194b", "#3c89d0", "#3cb44b", "#9334e6", "#f58231",
            "#46c8c8", "#d4a017", "#911eb4", "#800000", "#2f6f4f")


def _nice_step(span_h: float) -> float:
    """Grid step targeting at most ~12 tick lines."""
    for step in (0.5, 1, 2, 4, 6, 12, 24, 48, 96):
        if span_h / step <= 12:
            return float(step)
    return max(1.0, span_h / 12.0)


def write_gantt_svg(chart: GanttChart, path: str | Path, title: str = "Crew schedule") -> None:
    """Deterministic SVG rendering: one row per (node, crew), a bar per scenario."""
    rows = sorted({(e.node_id, e.crew) for e in chart.entries},
                  key=lambda t: (node_key(t[0]), t[1]))
    scenario_ids = sorted({e.scenario_id for e in chart.entries})
    row_index = {rc: i for i, rc in enumerate(rows)}
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
        f'<text x="{ml:.1f}" y="20" font-size="14">{title}</text>',
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
            f'text-anchor="end">{node} crew{crew}</text>'
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
            f'<title>s{e.scenario_id} {e.node_id} crew{e.crew}: '
            f'{e.start_h:.2f}-{e.finish_h:.2f}h</title></rect>'
        )
    for lane, sid in enumerate(scenario_ids):
        color = _PALETTE[sid % len(_PALETTE)]
        lx = ml + 110.0 * lane
        out.append(f'<rect x="{lx:.1f}" y="30" width="10" height="10" fill="{color}"/>')
        out.append(f'<text x="{lx + 14:.1f}" y="39">scenario {sid}</text>')
    out.append("</svg>")
    _write_text(path, "\n".join(out) + "\n")

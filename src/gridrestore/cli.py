"""Pipeline command line: composable stages with files in between.

Stages communicate exclusively through versioned artifacts in the output
directory, so deleting an intermediate file and re-running its stage
reproduces it byte-for-byte. Every random draw descends from the single
--seed; a run manifest records config echo, seed, input digests, and outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .allocation import Stage1Instance, marginal_gain, solve_stage1
from .errors import (
    GridRestoreError,
    InvalidPlanError,
    NoDamagedNodesError,
    NodeUnreachableError,
    NonPositiveSpeedError,
    SchemaError,
    TooManyNodesError,
    UnboundedObjectiveError,
    UnreachableArcError,
)
from . import fileio
from .network import (
    apply_road_failures,
    build_coupled_network,
    is_int,
    is_number,
    load_road_network,
    node_key,
    shortest_path_matrix,
)
from .routing import RoutingInstance, expected_cost, solve_routing, validate_routes
from .scenario import CREW_NAMES, N_CREWS, ScenarioConfig, generate_scenarios
from .schedule import DEFAULT_SPEED_KMH, build_schedule, combine_charts

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_NO_DAMAGE = 4
EXIT_UNBOUNDED = 5
EXIT_UNREACHABLE = 6
EXIT_TOO_MANY_NODES = 7
EXIT_INVALID_PLAN = 8
EXIT_INTERNAL = 9

_EXIT_CODES = (
    (UnboundedObjectiveError, EXIT_UNBOUNDED),
    (NoDamagedNodesError, EXIT_NO_DAMAGE),
    ((NodeUnreachableError, UnreachableArcError), EXIT_UNREACHABLE),
    (TooManyNodesError, EXIT_TOO_MANY_NODES),
    ((InvalidPlanError, NonPositiveSpeedError), EXIT_INVALID_PLAN),
    (GridRestoreError, EXIT_INPUT),  # schema and validation errors
)

EXIT_DOC = """exit codes:
  0  success
  2  usage error
  3  input parse/validation error
  4  no damaged nodes
  5  unbounded allocation objective (message suggests a scale factor)
  6  unreachable node or route leg
  7  required-node count exceeds the exact solver cap
  8  invalid route plan / non-positive speed
  9  internal error
"""


# config key -> (type, range test, what the error asks for). A list holds
# N_CREWS numbers, each range-tested; a key whose default is None also takes null.
_CONFIG_FIELDS = {
    "n_scenarios": (int, lambda v: v >= 1, "an integer >= 1"),
    "demand_lo": (int, lambda v: v >= 0, "an integer >= 0"),
    "demand_hi": (int, lambda v: v >= 0, "an integer >= 0"),
    "repair_time_min_h": (float, lambda v: v > 0, "a finite number > 0"),
    "repair_time_max_h": (float, lambda v: v > 0, "a finite number > 0"),
    "repair_time_mu": (float, lambda v: True, "a finite number"),
    "repair_time_sigma": (float, lambda v: v >= 0, "a finite number >= 0"),
    "edge_fail_prob": (float, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "corridor_width_m": (float, lambda v: v > 0, "a finite number > 0"),
    "crew_costs": (list, lambda v: v > 0, f"a list of {N_CREWS} finite numbers > 0"),
    "scale_c": (float, lambda v: v > 0, "a finite number > 0"),
    "power_weight": (float, lambda v: v >= 0, "a finite number >= 0"),
    "time_weight": (float, lambda v: v >= 0, "a finite number >= 0"),
    "cost_rate_per_m": (list, lambda v: v >= 0, f"a list of {N_CREWS} finite numbers >= 0"),
    "speed_kmh": (float, lambda v: v > 0, "a finite number > 0"),
}


# numeric command-line flag (its argparse dest) -> (type, range test, what the
# error asks for), as in _CONFIG_FIELDS; a flag left unset (None) is not checked.
# --speed-kmh is left to build_schedule, which refuses a bad speed with exit 8.
_FLAG_FIELDS = {
    "seed": (int, lambda v: v >= 0, "an integer >= 0"),
    "n_scenarios": _CONFIG_FIELDS["n_scenarios"],
    "offset_x": (float, lambda v: True, "a finite number"),
    "offset_y": (float, lambda v: True, "a finite number"),
}


def _fits(value, kind, in_range) -> bool:
    """``value`` is a finite ``kind`` (a bool is no number) that passes ``in_range``."""
    if kind is list:
        return (isinstance(value, list) and len(value) == N_CREWS
                and all(_fits(v, float, in_range) for v in value))
    if kind is int:
        return is_int(value) and in_range(value)
    try:
        return is_number(value) and math.isfinite(value) and in_range(value)
    except OverflowError:  # an int past the float range
        return False


def _check_flags(args) -> None:
    """A SchemaError naming the first numeric flag that does not fit its _FLAG_FIELDS entry."""
    for name, (kind, in_range, wanted) in _FLAG_FIELDS.items():
        value = getattr(args, name, None)
        if value is not None and not _fits(value, kind, in_range):
            flag = "--" + name.replace("_", "-")
            raise SchemaError(f"{flag} must be {wanted}, got {value!r}")


@dataclass
class PipelineConfig:
    """Tunables shared across stages; a JSON config file overrides fields."""

    n_scenarios: int = 3
    demand_lo: int = ScenarioConfig.demand_lo
    demand_hi: int = ScenarioConfig.demand_hi
    repair_time_min_h: float = ScenarioConfig.repair_time_min_h
    repair_time_max_h: float = ScenarioConfig.repair_time_max_h
    repair_time_mu: float = ScenarioConfig.repair_time_mu
    repair_time_sigma: float = ScenarioConfig.repair_time_sigma
    edge_fail_prob: float = ScenarioConfig.edge_fail_prob
    corridor_width_m: float | None = None
    crew_costs: list[float] | None = None
    scale_c: float | None = None
    power_weight: float = 1.0
    time_weight: float = 1.0
    cost_rate_per_m: list[float] = field(default_factory=lambda: [1.0] * N_CREWS)
    speed_kmh: float = DEFAULT_SPEED_KMH

    @classmethod
    def load(cls, path: str | None) -> "PipelineConfig":
        cfg = cls()
        if path is None:
            return cfg
        obj = fileio.read_json_artifact(path, fileio.SCHEMA_CONFIG)
        for key, value in obj.items():
            if key == "schema":
                continue
            if key not in _CONFIG_FIELDS:
                raise SchemaError(f"{path}: unknown config key {key!r}")
            kind, in_range, wanted = _CONFIG_FIELDS[key]
            nullable = cls.__dataclass_fields__[key].default is None
            if not (value is None and nullable or _fits(value, kind, in_range)):
                raise SchemaError(f"{path}: {key} must be {wanted}"
                                  f"{' or null' if nullable else ''}, got {value!r}")
            setattr(cfg, key, value)
        try:
            cfg.scenario_config()  # relations between fields, e.g. demand_lo <= demand_hi
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from None
        return cfg

    def echo(self) -> dict:
        return {"schema": fileio.SCHEMA_CONFIG, **asdict(self)}

    def scenario_config(self, n_override: int | None = None) -> ScenarioConfig:
        return ScenarioConfig(
            n_scenarios=n_override if n_override is not None else self.n_scenarios,
            demand_lo=self.demand_lo,
            demand_hi=self.demand_hi,
            repair_time_min_h=self.repair_time_min_h,
            repair_time_max_h=self.repair_time_max_h,
            repair_time_mu=self.repair_time_mu,
            repair_time_sigma=self.repair_time_sigma,
            edge_fail_prob=self.edge_fail_prob,
        )


def _update_manifest(out_dir: Path, command: str, seed: int, config: PipelineConfig,
                     inputs: list[str], outputs: list[str]) -> None:
    path = out_dir / "run_manifest.json"
    manifest = {"schema": fileio.SCHEMA_MANIFEST, "tool_version": __version__,
                "seed": seed, "config": config.echo(), "commands": {}}
    if path.exists():
        manifest = fileio.read_json_artifact(path, fileio.SCHEMA_MANIFEST)
        if "commands" not in manifest:
            raise SchemaError(f"{path}: missing key 'commands'")
        if not isinstance(manifest["commands"], dict):
            raise SchemaError(f"{path}: commands must be an object, "
                              f"got {manifest['commands']!r}")
        manifest["tool_version"] = __version__
        manifest["seed"] = seed
        manifest["config"] = config.echo()
    # inputs keyed by basename so manifests compare equal across output dirs
    manifest["commands"][command] = {
        "inputs": {Path(p).name: fileio.sha256_file(p) for p in sorted(inputs)},
        "outputs": sorted(outputs),
    }
    fileio.write_json_artifact(path, manifest)


def _parse_id_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# --- subcommands -----------------------------------------------------------


def cmd_build_network(args, config: PipelineConfig) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs: list[str] = []

    if args.road:
        road = fileio.read_road_graph_json(args.road)
        inputs.append(args.road)
    else:
        if not (args.road_nodes and args.road_edges):
            print("build-network: provide --road or both --road-nodes and --road-edges",
                  file=sys.stderr)
            return EXIT_INPUT
        road = load_road_network(
            fileio.read_road_nodes_csv(args.road_nodes),
            fileio.read_road_edges_csv(args.road_edges),
        )
        inputs += [args.road_nodes, args.road_edges]

    power = fileio.read_power_nodes_csv(args.power)
    inputs.append(args.power)
    power_edges = []
    if args.power_edges:
        power_edges = fileio.read_power_edges_csv(args.power_edges)
        inputs.append(args.power_edges)
        known = {p.bus_id for p in power}
        for u, v in power_edges:
            if u not in known or v not in known:
                raise SchemaError(f"{args.power_edges}: edge ({u!r}, {v!r}) references unknown bus")

    depots = _parse_id_list(args.depots)
    damaged = _parse_id_list(args.damaged) if args.damaged else []
    for d in depots + damaged:
        if not road.has_node(d):
            raise SchemaError(f"unknown road node id {d!r} in --depots/--damaged")

    net = build_coupled_network(road, power, args.offset_x, args.offset_y, depots, damaged)
    out_path = out_dir / args.output
    fileio.write_network_file(net, out_path)

    summary = {
        "road_nodes": road.n_nodes,
        "road_edges": road.n_edges,
        "power_nodes": len(power),
        "power_edges": len(power_edges),
        "depots": len(net.depots),
        "damaged": len(net.damaged),
    }
    print(f"wrote {out_path}")
    print(
        "network: {road_nodes} road nodes / {road_edges} road edges, "
        "{power_nodes} power nodes / {power_edges} power edges, "
        "{depots} depot(s), {damaged} damaged node(s)".format(**summary)
    )
    _update_manifest(out_dir, "build-network", args.seed, config, inputs, [args.output])
    return EXIT_OK


def cmd_gen_scenarios(args, config: PipelineConfig) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = fileio.read_network_file(args.network)
    events = []
    inputs = [args.network]
    if args.events:
        events = fileio.read_events_csv(args.events, config.corridor_width_m)
        inputs.append(args.events)

    sset = generate_scenarios(
        config.scenario_config(args.n_scenarios), net, events, args.seed
    )
    out_path = out_dir / args.output
    fileio.write_scenario_file(sset, out_path)

    print(f"wrote {out_path}")
    print(f"scenarios: {sset.n_scenarios} over {len(sset.damaged)} damaged node(s), seed {args.seed}")
    for sc in sset.scenarios:
        print(f"  scenario {sc.scenario_id}: {len(sc.failed_edges)} failed road edge(s)")
    _update_manifest(out_dir, "gen-scenarios", args.seed, config, inputs, [args.output])
    return EXIT_OK


def cmd_solve(args, config: PipelineConfig) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = fileio.read_network_file(args.network)
    sset = fileio.read_scenario_file(args.scenarios)

    loads = dict(net.loads_kw)
    if sset.loads_kw:
        loads.update(sset.loads_kw)
    inst = Stage1Instance.from_scenarios(
        sset,
        loads_kw=loads,
        crew_costs=config.crew_costs,
        scale_c=config.scale_c,
        power_weight=config.power_weight,
        time_weight=config.time_weight,
    )
    alloc = solve_stage1(inst)
    gains = marginal_gain(inst)
    fileio.write_allocation_file(alloc, out_dir / "allocation.json", inst.scale_c,
                                 gains, inst.crew_costs)
    print(f"wrote {out_dir / 'allocation.json'}")
    print(f"scale_c: {inst.scale_c:g}")
    for k, name in enumerate(CREW_NAMES):
        print(f"  crew {k} ({name}): capacity {alloc.capacity[k]}")

    rates = {k: float(r) for k, r in enumerate(config.cost_rate_per_m)}
    terminals = sorted(net.depots | net.damaged | sset.damaged, key=node_key)
    outputs = ["allocation.json", "validation.json"]
    all_passed = True
    validation = []
    plans = []
    # One closure per distinct failure set, kept only until its last scenario
    last_use = {sc.failed_edges: sc.scenario_id for sc in sset.scenarios}
    closures = {}
    for scenario in sset.scenarios:
        failed = scenario.failed_edges
        complete = closures.pop(failed, None)
        if complete is None:
            complete = shortest_path_matrix(apply_road_failures(net.road, failed), terminals)
        if last_use[failed] > scenario.scenario_id:
            closures[failed] = complete
        rinst = RoutingInstance.from_scenario(complete, scenario, net.depots, rates)
        plan = solve_routing(rinst, scenario.scenario_id)
        report = validate_routes(plan, rinst)
        name = f"routes_s{scenario.scenario_id}.json"
        fileio.write_route_plan_file(plan, out_dir / name, complete)
        outputs.append(name)
        plans.append(plan)
        validation.append(
            {
                "scenario_id": scenario.scenario_id,
                "passed": report.passed,
                "violations": {fam: list(v) for fam, v in report.violations.items()},
            }
        )
        all_passed &= report.passed
        print(f"  scenario {scenario.scenario_id}: route cost {plan.total_cost:.3f}, "
              f"validation {'pass' if report.passed else 'FAIL'}")
        del complete, rinst  # a closure no later scenario needs is freed here
    fileio.write_json_artifact(
        out_dir / "validation.json",
        {"schema": "route_validation/1", "all_passed": all_passed, "scenarios": validation},
    )
    print(f"expected route cost over scenarios: {expected_cost(plans):.3f}")
    _update_manifest(out_dir, "solve", args.seed, config,
                     [args.network, args.scenarios], outputs)
    if not all_passed:
        print("route validation failed; see validation.json", file=sys.stderr)
        return EXIT_INVALID_PLAN
    return EXIT_OK


def cmd_schedule(args, config: PipelineConfig) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    depots = fileio.read_network_file(args.network).depots  # legs come from the plans
    sset = fileio.read_scenario_file(args.scenarios)
    routes_dir = Path(args.routes_dir) if args.routes_dir else out_dir
    speed = args.speed_kmh if args.speed_kmh is not None else config.speed_kmh

    inputs = [args.network, args.scenarios]
    charts = []
    outputs = []
    for scenario in sset.scenarios:
        plan_path = routes_dir / f"routes_s{scenario.scenario_id}.json"
        plan = fileio.read_route_plan_file(plan_path)
        inputs.append(str(plan_path))
        charts.append(build_schedule(plan, scenario, depots, speed))
    # every chart is built, and so checked, before the first file is written
    for scenario, chart in zip(sset.scenarios, charts):
        svg_name = f"gantt_s{scenario.scenario_id}.svg"
        fileio.write_gantt_svg(chart, out_dir / svg_name,
                               title=f"Crew schedule, scenario {scenario.scenario_id}")
        outputs.append(svg_name)

    combined = combine_charts(charts)
    fileio.write_gantt_csv(combined, out_dir / "gantt.csv")
    fileio.write_gantt_svg(combined, out_dir / "gantt.svg", title="Crew schedule, all scenarios")
    outputs += ["gantt.csv", "gantt.svg"]
    print(f"wrote {out_dir / 'gantt.csv'} and {len(charts) + 1} SVG chart(s)")
    print(f"combined makespan: {combined.makespan_h:.2f} h")
    _update_manifest(out_dir, "schedule", args.seed, config, inputs, outputs)
    return EXIT_OK


def cmd_render(args, config: PipelineConfig) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chart = fileio.read_gantt_csv(args.gantt)
    out_path = out_dir / args.output
    fileio.write_gantt_svg(chart, out_path)
    print(f"wrote {out_path}")
    _update_manifest(out_dir, "render", args.seed, config, [args.gantt], [args.output])
    return EXIT_OK


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridrestore",
        description="Two-stage stochastic crew allocation, routing, and scheduling "
                    "for power grid restoration over a road network.",
        epilog=EXIT_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--out-dir", default=".", help="artifact directory (default: .)")
    parser.add_argument("--config", default=None, help="JSON config file (schema config/1)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-network", help="ingest road + power files into a coupled network")
    b.add_argument("--road", help="structured road file (road_graph/1 JSON)")
    b.add_argument("--road-nodes", help="CSV node_id,lat,lon")
    b.add_argument("--road-edges", help="CSV u,v,length_m")
    b.add_argument("--power", required=True, help="CSV bus_id,x,y,downstream_load_kw,kind")
    b.add_argument("--power-edges", help="optional CSV bus_u,bus_v (feeder connectivity)")
    b.add_argument("--offset-x", type=float, default=0.0,
                   help="feeder-frame x offset added to bus x to get longitude")
    b.add_argument("--offset-y", type=float, default=0.0,
                   help="feeder-frame y offset added to bus y to get latitude")
    b.add_argument("--depots", required=True, help="comma-separated road node ids")
    b.add_argument("--damaged", help="comma-separated road node ids (optional)")
    b.add_argument("-o", "--output", default="network.json")
    b.set_defaults(func=cmd_build_network)

    g = sub.add_parser("gen-scenarios", help="sample a scenario set from tornado events")
    g.add_argument("--network", required=True)
    g.add_argument("--events", help="CSV ef,start_lat,start_lon,end_lat,end_lon,width_m")
    g.add_argument("--n-scenarios", type=int, default=None, help="override config n_scenarios")
    g.add_argument("-o", "--output", default="scenarios.json")
    g.set_defaults(func=cmd_gen_scenarios)

    s = sub.add_parser("solve", help="solve crew capacities, then route every scenario")
    s.add_argument("--network", required=True)
    s.add_argument("--scenarios", required=True)
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("schedule", help="simulate routes into Gantt CSV + SVG charts")
    c.add_argument("--network", required=True)
    c.add_argument("--scenarios", required=True)
    c.add_argument("--routes-dir", help="directory holding routes_s<N>.json (default: out dir)")
    c.add_argument("--speed-kmh", type=float, default=None)
    c.set_defaults(func=cmd_schedule)

    r = sub.add_parser("render", help="re-render a Gantt CSV as SVG")
    r.add_argument("--gantt", required=True)
    r.add_argument("-o", "--output", default="gantt.svg")
    r.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = PipelineConfig.load(args.config)
        _check_flags(args)
        return args.func(args, config)
    except GridRestoreError as exc:
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)  # pragma: no cover
        return EXIT_INPUT  # pragma: no cover
    except Exception as exc:  # a bug, not bad input: one line, no traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

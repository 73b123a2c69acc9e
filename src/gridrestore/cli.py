"""Pipeline command line: composable stages with files in between.

Stages communicate exclusively through versioned artifacts in the output
directory, so deleting an intermediate file and re-running its stage
reproduces it byte-for-byte. Every random draw descends from the single
--seed; a run manifest records config echo, seed, input digests, and outputs.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
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
    NodeId,
    RoadGraph,
    apply_road_failures,
    build_coupled_network,
    is_finite_number,
    is_int,
    load_road_network,
    node_key,
    require_latitude,
    shortest_path_matrix,
)
from .routing import (
    RoutingInstance,
    crew_problems,
    expected_cost,
    solve_routing,
    validate_routes,
)
from .scenario import CREW_NAMES, N_CREWS, ScenarioConfig, generate_scenarios
from .schedule import DEFAULT_SPEED_KMH, build_schedule, combine_charts

EXIT_OK = 0
EXIT_USAGE = 2  # argparse's
EXIT_INPUT = 3
EXIT_NO_DAMAGE = 4
EXIT_UNBOUNDED = 5
EXIT_UNREACHABLE = 6
EXIT_TOO_MANY_NODES = 7
EXIT_INVALID_PLAN = 8
EXIT_INTERNAL = 9

# (exit code, the error classes that exit with it, its --help line). An error exits
# with the code of the nearest class in its MRO that a row names.
_EXITS = (
    (EXIT_OK, (), "success"),
    (EXIT_USAGE, (), "usage error"),
    (EXIT_INPUT, (GridRestoreError,), "input parse/validation error"),
    (EXIT_NO_DAMAGE, (NoDamagedNodesError,), "no damaged nodes"),
    (EXIT_UNBOUNDED, (UnboundedObjectiveError,),
     "unbounded allocation objective (message suggests a scale factor)"),
    (EXIT_UNREACHABLE, (NodeUnreachableError, UnreachableArcError),
     "unreachable node or route leg"),
    (EXIT_TOO_MANY_NODES, (TooManyNodesError,),
     "required-node count exceeds the exact solver cap"),
    (EXIT_INVALID_PLAN, (InvalidPlanError, NonPositiveSpeedError),
     "invalid route plan / non-positive speed"),
    (EXIT_INTERNAL, (Exception,), "internal error"),
)
_EXIT_OF = {cls: code for code, classes, _ in _EXITS for cls in classes}
EXIT_DOC = "exit codes:\n" + "".join(f"  {code}  {text}\n" for code, _, text in _EXITS)


# Value rules: (type, range test, what the error asks for). A list holds N_CREWS
# numbers, each range-tested.
_FINITE = (float, lambda v: True, "a finite number")
_POSITIVE = (float, lambda v: v > 0, "a finite number > 0")
_NON_NEGATIVE = (float, lambda v: v >= 0, "a finite number >= 0")
_COUNT = (int, lambda v: v >= 0, "an integer >= 0")


def _key(default, rule: tuple):
    """A config key: its default, and the rule ``PipelineConfig.load`` checks a value
    against. A key whose default is None also takes null."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"rule": rule})
    return field(default=default, metadata={"rule": rule})


def _fits(value, kind, in_range) -> bool:
    """``value`` is a finite ``kind`` (a bool is no number) that passes ``in_range``."""
    if kind is list:
        return (isinstance(value, list) and len(value) == N_CREWS
                and all(_fits(v, float, in_range) for v in value))
    if kind is int:
        return is_int(value) and in_range(value)
    return is_finite_number(value) and in_range(value)


@dataclass
class PipelineConfig:
    """Tunables shared across stages; a JSON config file overrides fields. Each field
    declares its default and its rule together (``_key``)."""

    n_scenarios: int = _key(3, (int, lambda v: v >= 1, "an integer >= 1"))
    demand_lo: int = _key(ScenarioConfig.demand_lo, _COUNT)
    demand_hi: int = _key(ScenarioConfig.demand_hi, _COUNT)
    repair_time_min_h: float = _key(ScenarioConfig.repair_time_min_h, _POSITIVE)
    repair_time_max_h: float = _key(ScenarioConfig.repair_time_max_h, _POSITIVE)
    repair_time_mu: float = _key(ScenarioConfig.repair_time_mu, _FINITE)
    repair_time_sigma: float = _key(ScenarioConfig.repair_time_sigma, _NON_NEGATIVE)
    edge_fail_prob: float = _key(ScenarioConfig.edge_fail_prob,
                                 (float, lambda v: 0 <= v <= 1, "a number in [0, 1]"))
    corridor_width_m: float | None = _key(None, _POSITIVE)
    crew_costs: list[float] | None = _key(
        None, (list, lambda v: v > 0, f"a list of {N_CREWS} finite numbers > 0"))
    scale_c: float | None = _key(None, _POSITIVE)
    power_weight: float = _key(1.0, _NON_NEGATIVE)
    time_weight: float = _key(1.0, _NON_NEGATIVE)
    cost_rate_per_m: list[float] = _key(
        [1.0] * N_CREWS, (list, lambda v: v >= 0, f"a list of {N_CREWS} finite numbers >= 0"))
    speed_kmh: float = _key(DEFAULT_SPEED_KMH, _POSITIVE)

    @classmethod
    def load(cls, path: str | None) -> "PipelineConfig":
        cfg = cls()
        if path is None:
            return cfg
        obj = fileio.read_json_artifact(path, fileio.SCHEMA_CONFIG)
        keys = cls.__dataclass_fields__
        for key, value in obj.items():
            if key == "schema":
                continue
            if key not in keys:
                raise SchemaError(f"{path}: unknown config key {key!r}")
            kind, in_range, wanted = keys[key].metadata["rule"]
            nullable = keys[key].default is None
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
        values = {f.name: getattr(self, f.name) for f in fields(ScenarioConfig)}
        if n_override is not None:
            values["n_scenarios"] = n_override
        return ScenarioConfig(**values)


# numeric command-line flag (its argparse dest) -> its rule, as a config key's; a
# flag left unset (None) is not checked. --speed-kmh is left to build_schedule,
# which refuses a bad speed with exit 8.
_FLAG_FIELDS = {
    "seed": _COUNT,
    "n_scenarios": PipelineConfig.__dataclass_fields__["n_scenarios"].metadata["rule"],
    "offset_x": _FINITE,
    "offset_y": _FINITE,
}


def _check_flags(args) -> None:
    """A SchemaError naming the first numeric flag that does not fit its _FLAG_FIELDS entry."""
    for name, (kind, in_range, wanted) in _FLAG_FIELDS.items():
        value = getattr(args, name, None)
        if value is not None and not _fits(value, kind, in_range):
            flag = "--" + name.replace("_", "-")
            raise SchemaError(f"{flag} must be {wanted}, got {value!r}")


def _read_manifest(out_dir: Path, seed: int, config: PipelineConfig) -> dict:
    """``out_dir``'s run manifest, checked, with this run's seed and config; a new one
    when there is none. A stage reads it before it writes anything, so a manifest that
    cannot be read or is malformed fails the stage with no artifact written."""
    path = out_dir / "run_manifest.json"
    if not path.exists():
        return {"schema": fileio.SCHEMA_MANIFEST, "tool_version": __version__,
                "seed": seed, "config": config.echo(), "commands": {}}
    manifest = fileio.read_json_artifact(path, fileio.SCHEMA_MANIFEST)
    if "commands" not in manifest:
        raise SchemaError(f"{path}: missing key 'commands'")
    if not isinstance(manifest["commands"], dict):
        raise SchemaError(f"{path}: commands must be an object, "
                          f"got {manifest['commands']!r}")
    manifest["tool_version"] = __version__
    manifest["seed"] = seed
    manifest["config"] = config.echo()
    return manifest


def _write_manifest(out_dir: Path, manifest: dict, command: str, inputs: list[str],
                    outputs: list[str]) -> None:
    # inputs keyed by basename so manifests compare equal across output dirs; inputs
    # whose paths differ but share a basename are keyed by their paths as given
    names = {p: Path(p).name for p in inputs}
    shared = Counter(names.values())
    manifest["commands"][command] = {
        "inputs": {name if shared[name] == 1 else p: fileio.sha256_file(p)
                   for p, name in sorted(names.items())},
        "outputs": sorted(outputs),
    }
    fileio.write_json_artifact(out_dir / "run_manifest.json", manifest)


def _road_ids(road: RoadGraph, text: str) -> list[NodeId]:
    """The road ids a comma-separated list names: each token the str id equal to it,
    or else the int id it spells; a token that names both or neither is refused."""
    ids = []
    for token in filter(None, (part.strip() for part in text.split(","))):
        try:
            spelled = [token, int(token)]
        except ValueError:
            spelled = [token]
        named = [i for i in spelled if str(i) == token and road.has_node(i)]
        if len(named) != 1:
            raise SchemaError(f"{'ambiguous' if named else 'unknown'} road node id "
                              f"{token!r} in --depots/--damaged")
        ids += named
    return ids


# --- subcommands -----------------------------------------------------------
# Each command writes its artifacts into out_dir and returns its exit code, its
# input files and its outputs' names, which main records in the run manifest.


def cmd_build_network(args, config: PipelineConfig, out_dir: Path):
    if args.road and (args.road_nodes or args.road_edges):
        raise SchemaError("build-network: --road cannot be combined with "
                          "--road-nodes/--road-edges")
    if not (args.road or args.road_nodes and args.road_edges):
        raise SchemaError("build-network: provide --road or both --road-nodes and --road-edges")
    # reading the road and building its graph allocate many objects and make no cycles
    with fileio.gc_paused():
        if args.road:
            road = fileio.read_road_graph_json(args.road)
            inputs = [args.road]
        else:
            road = load_road_network(
                fileio.read_road_nodes_csv(args.road_nodes),
                fileio.read_road_edges_csv(args.road_edges),
            )
            inputs = [args.road_nodes, args.road_edges]

    power = fileio.read_power_nodes_csv(args.power)
    inputs.append(args.power)
    for bus in power:
        try:
            require_latitude(bus.local_y + args.offset_y, f"bus {bus.bus_id!r}: y + --offset-y")
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    power_edges = []
    if args.power_edges:
        power_edges = fileio.read_power_edges_csv(args.power_edges)
        inputs.append(args.power_edges)
        known = {p.bus_id for p in power}
        for u, v in power_edges:
            if u not in known or v not in known:
                raise SchemaError(f"{args.power_edges}: edge ({u!r}, {v!r}) references unknown bus")

    depots = _road_ids(road, args.depots)
    damaged = _road_ids(road, args.damaged or "")

    net = build_coupled_network(road, power, args.offset_x, args.offset_y, depots, damaged)
    out_path = out_dir / args.output
    fileio.write_network_file(net, out_path)

    print(f"wrote {out_path}")
    print(f"network: {road.n_nodes} road nodes / {road.n_edges} road edges, "
          f"{len(power)} power nodes / {len(power_edges)} power edges, "
          f"{len(net.depots)} depot(s), {len(net.damaged)} damaged node(s)")
    return EXIT_OK, inputs, [args.output]


def cmd_gen_scenarios(args, config: PipelineConfig, out_dir: Path):
    net = fileio.read_network_file(args.network)
    events = []
    inputs = [args.network]
    if args.events:
        events = fileio.read_events_csv(args.events, config.corridor_width_m)
        inputs.append(args.events)

    sset = generate_scenarios(config.scenario_config(args.n_scenarios), net, events, args.seed)
    out_path = out_dir / args.output
    fileio.write_scenario_file(sset, out_path)

    print(f"wrote {out_path}")
    print(f"scenarios: {sset.n_scenarios} over {len(sset.damaged)} damaged node(s), seed {args.seed}")
    for sc in sset.scenarios:
        print(f"  scenario {sc.scenario_id}: {len(sc.failed_edges)} failed road edge(s)")
    return EXIT_OK, inputs, [args.output]


def cmd_solve(args, config: PipelineConfig, out_dir: Path):
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
    # depots first: the order no longer sets what the closure's searches cost, only
    # which terminal of each pair is its source, and so which of two tied road paths
    # a leg takes (shortest_path_matrix, CompleteGraph.path)
    terminals = (sorted(net.depots, key=node_key)
                 + sorted((net.damaged | sset.damaged) - net.depots, key=node_key))
    outputs = ["allocation.json", "validation.json"]
    all_passed = True
    validation = []
    plans = []
    # One closure per distinct failure set, kept only until its last scenario with
    # the results solve_routing keeps on it. Its first scenario solves the crew
    # problems of all its scenarios (`ahead`). What was found on each route and
    # each route's text live for this call (`checked`, `fragments`): their keys
    # hold everything they depend on, and none of it is the closure's.
    last_use, problems, required = {}, {}, []
    for sc in sset.scenarios:
        last_use[sc.failed_edges] = sc.scenario_id
        required.append(sc.required())
        problems.setdefault(sc.failed_edges, {}).update(
            dict.fromkeys(crew_problems(required[-1], rates).values()))
    closures, checked, fragments = {}, {}, {}
    for scenario, needs in zip(sset.scenarios, required):
        failed = scenario.failed_edges
        complete = closures.pop(failed, None) or shortest_path_matrix(
            apply_road_failures(net.road, failed), terminals)
        if last_use[failed] > scenario.scenario_id:
            closures[failed] = complete
        rinst = RoutingInstance.from_scenario(complete, scenario, net.depots, rates,
                                              required=needs)
        plan = solve_routing(rinst, scenario.scenario_id, ahead=problems.pop(failed, ()))
        report = validate_routes(plan, rinst, checked=checked)
        name = f"routes_s{scenario.scenario_id}.json"
        fileio.write_route_plan_file(plan, out_dir / name, complete, fragments=fragments)
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
        del complete, rinst  # a closure no later scenario needs dies here
    fileio.write_json_artifact(
        out_dir / "validation.json",
        {"schema": "route_validation/1", "all_passed": all_passed, "scenarios": validation},
    )
    print(f"expected route cost over scenarios: {expected_cost(plans):.3f}")
    if not all_passed:
        print("route validation failed; see validation.json", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_INVALID_PLAN, [args.network, args.scenarios], outputs


def cmd_schedule(args, config: PipelineConfig, out_dir: Path):
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
    # every chart is built, and so checked, before the first file is written; the
    # charts share the text of equal row counts and rows, for this call only
    fragments = {}
    for scenario, chart in zip(sset.scenarios, charts):
        svg_name = f"gantt_s{scenario.scenario_id}.svg"
        fileio.write_gantt_svg(chart, out_dir / svg_name,
                               title=f"Crew schedule, scenario {scenario.scenario_id}",
                               fragments=fragments)
        outputs.append(svg_name)

    combined = combine_charts(charts)
    fileio.write_gantt_csv(combined, out_dir / "gantt.csv")
    fileio.write_gantt_svg(combined, out_dir / "gantt.svg", title="Crew schedule, all scenarios",
                           fragments=fragments)
    outputs += ["gantt.csv", "gantt.svg"]
    print(f"wrote {out_dir / 'gantt.csv'} and {len(charts) + 1} SVG chart(s)")
    print(f"combined makespan: {combined.makespan_h:.2f} h")
    return EXIT_OK, inputs, outputs


def cmd_render(args, config: PipelineConfig, out_dir: Path):
    chart = fileio.read_gantt_csv(args.gantt)
    out_path = out_dir / args.output
    fileio.write_gantt_svg(chart, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK, [args.gantt], [args.output]


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
    args = build_parser().parse_args(argv)
    try:
        config = PipelineConfig.load(args.config)
        _check_flags(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = _read_manifest(out_dir, args.seed, config)
        code, inputs, outputs = args.func(args, config, out_dir)
        _write_manifest(out_dir, manifest, args.command, inputs, outputs)
        return code
    except Exception as exc:
        code = next(_EXIT_OF[cls] for cls in type(exc).__mro__ if cls in _EXIT_OF)
        if code == EXIT_INTERNAL:  # a bug, not bad input: one line, no traceback
            exc = f"internal: {type(exc).__name__}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return code

if __name__ == "__main__":
    sys.exit(main())

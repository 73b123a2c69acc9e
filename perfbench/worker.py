"""One workload process: set-up, timed pipeline runs, correctness gate, traced run.

``run.py`` starts this script and reads the JSON object it prints as its
last line. The pipeline is driven in-process through ``gridrestore.cli.main``
with the package imported from the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostclock
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PARENT_DIGESTS = Path(__file__).resolve().parent / "parent_digests.json"
DEFAULT_SEED = 0  # the CLI's default --seed; parent_digests.json is recorded at it
ORACLE_SAMPLES = 8  # scenarios checked against the brute-force router per run
STAGES = ("build_network", "gen_scenarios", "solve", "schedule")
# A gated stage that takes less than this share of the pipeline is run again
# over the same outputs until its runs add up to it: a 30 ms stage timed once
# per pipeline gives too few samples for a steady median.
MIN_STAGE_SHARE = 0.1
GATED_STAGES = ("solve", "schedule")


def import_package():
    """Import gridrestore from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gridrestore
    from gridrestore import cli, fileio, network, routing

    if Path(gridrestore.__file__).resolve().parent != src / "gridrestore":
        raise ImportError(f"gridrestore imported from {gridrestore.__file__}, not {src}")
    return cli, fileio, network, routing


def calibration_s(reps: int = 3) -> float:
    """Median time of a fixed pure-Python loop; reported, never used to scale."""
    return statistics.median(hostclock.probe(1_000_000) for _ in range(reps))


def digest_dir(path: Path) -> str:
    """One SHA-256 over the names and contents of every file in ``path``."""
    digest = hashlib.sha256()
    for p in sorted(path.iterdir()):
        digest.update(f"{p.name}\0{hashlib.sha256(p.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()


def run_pipeline(cli, fx, out_dir: Path, stage_wrapper=None):
    """Run the four stages back to back; returns ((start, end) per stage, exit codes)."""
    intervals, codes = {}, {}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for stage, argv in workloads.stage_argvs(fx, out_dir):
            start = time.perf_counter()
            if stage_wrapper is None:
                codes[stage] = cli.main(argv)
            else:
                with stage_wrapper(f"cli.{stage}"):
                    codes[stage] = cli.main(argv)
            intervals[stage] = (start, time.perf_counter())
    return intervals, codes


def repeat_stage(cli, fx, out_dir: Path, stage: str, until_s: float):
    """Run ``stage`` again over the pipeline's outputs until the reruns total ``until_s``.

    Every stage writes the same bytes when it is run again, so the out-dir is
    unchanged. Returns ((start, end) per rerun, exit codes).
    """
    argv = dict(workloads.stage_argvs(fx, out_dir))[stage]
    intervals, codes = [], []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        while sum(end - start for start, end in intervals) < until_s:
            start = time.perf_counter()
            codes.append(cli.main(argv))
            intervals.append((start, time.perf_counter()))
    return intervals, codes


class Gate:
    """Counts operations and the ones that failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_run(gate: Gate, label: str, out_dir: Path, codes: dict, reference: str | None,
              parent: str | None) -> str:
    """One pipeline run, with its reruns, is one operation: exit codes, validation, digests."""
    problems = [f"{stage} exited {rc}" for stage, rcs in codes.items() for rc in rcs if rc != 0]
    validation = out_dir / "validation.json"
    if not problems and not json.loads(validation.read_text())["all_passed"]:
        problems.append("validation.json reports all_passed false")
    digests = digest_dir(out_dir)
    if reference is not None and digests != reference:
        problems.append("out-dir differs from the first run of this process")
    if parent is not None and digests != parent:
        problems.append("out-dir differs from the parent commit's at the default seed")
    gate.check(not problems, f"{label}: {'; '.join(problems)}")
    return digests


def oracle_check(gate: Gate, cli, fileio, network, routing, fx, out_dir: Path) -> None:
    """Held-Karp, the brute-force router and the route artifact agree on sampled scenarios."""
    net = fileio.read_network_file(out_dir / "network.json")
    sset = fileio.read_scenario_file(out_dir / "scenarios.json")
    config = cli.PipelineConfig.load(fx.files.get("config"))
    rates = {k: float(r) for k, r in enumerate(config.cost_rate_per_m)}
    terminals = sorted(net.depots | net.damaged | set(sset.damaged), key=network.node_key)
    step = max(1, sset.n_scenarios // ORACLE_SAMPLES)
    for scenario in sset.scenarios[::step][:ORACLE_SAMPLES]:
        sid = scenario.scenario_id
        road = network.apply_road_failures(net.road, scenario.failed_edges)
        complete = network.shortest_path_matrix(road, terminals)
        inst = routing.RoutingInstance.from_scenario(complete, scenario, net.depots, rates)
        brute = routing.brute_force_routing(inst, sid)
        written = fileio.read_route_plan_file(out_dir / f"routes_s{sid}.json")
        gate.check(routing.solve_routing(inst, sid) == brute == written,
                   f"scenario {sid}: Held-Karp, brute force and routes_s{sid}.json disagree")


def input_counters(cli, fileio, out_dir: Path, fx) -> dict[str, float]:
    """Counts computed from the generated inputs, labelled as computed, not measured."""
    sset = fileio.read_scenario_file(out_dir / "scenarios.json")
    net = fileio.read_network_file(out_dir / "network.json")
    rates = cli.PipelineConfig.load(fx.files.get("config")).cost_rate_per_m
    n_depots = len(net.depots)
    problems = distinct = states = 0
    for sc in sset.scenarios:
        required = {
            k: frozenset(i for (i, kk), d in sc.repair_demand.items() if kk == k and d > 0)
            for k in range(4)
        }
        crews = [(req, rates[k]) for k, req in required.items() if req]
        problems += len(crews)
        distinct += len(set(crews))
        states += sum(n_depots * len(req) * 2 ** len(req) for req, _rate in crews)
    return {
        "routing.crew_problems": problems,
        "routing.distinct_crew_problems": distinct,
        "routing.hk_states": states,
        "network.road_nodes": net.road.n_nodes,
        "network.road_edges": net.road.n_edges,
        "network.terminals": len(net.depots | net.damaged | sset.damaged),
        "scenario.n_scenarios": sset.n_scenarios,
    }


# The artifact calls whose self time is reported by name; spans of the other
# read_*/write_* functions still count toward fileio.share.
FILEIO_REPORTED = (
    "read_network_file", "write_network_file", "read_scenario_file", "write_scenario_file",
    "write_allocation_file", "write_route_plan_file", "read_route_plan_file",
    "write_gantt_svg", "write_gantt_csv", "read_json_artifact", "write_json_artifact",
    "sha256_file",
)
SELF_TIMED = (
    "routing.solve_routing", "routing.validate_routes", "routing.RoutingInstance.from_scenario",
    "network.apply_road_failures", "network.shortest_path_matrix",
    "network.load_road_network", "network.build_coupled_network",
    "scenario.generate_scenarios",
    "allocation.Stage1Instance.from_scenarios", "allocation.solve_stage1",
    "allocation.marginal_gain",
    "schedule.build_schedule", "schedule.combine_charts",
    *(f"fileio.{name}" for name in FILEIO_REPORTED),
    *(f"cli.{stage}" for stage in STAGES),
)
COUNTED = ("routing.solve_routing", "network.apply_road_failures",
           "network.shortest_path_matrix", "fileio.read_network_file")
MODULES = ("cli", "fileio", "network", "scenario", "allocation", "routing", "schedule")


def layer_metrics(tracer, runs, traced_pipeline_s: float, counters: dict) -> dict[str, float]:
    """Per-layer metrics of the traced runs; ``runs`` is ``spans.span_stats`` output."""
    def med(name: str, key: str = "self_s") -> float:
        return statistics.median(r.get(name, {}).get(key, 0) for r in runs.values())

    out = {f"{name}.calls": med(name, "calls") for name in COUNTED}
    out.update({f"{name}.self_s": med(name) for name in SELF_TIMED})
    durations = [d for r in runs.values()
                 for d in r.get("routing.solve_routing", {}).get("durations", [])]
    out["routing.solve_routing.p50_ms"] = statistics.median(durations) * 1e3
    out["routing.hk_states_per_s"] = (counters["routing.hk_states"]
                                      / out["routing.solve_routing.self_s"])
    out["network.closures_per_scenario"] = (out["network.shortest_path_matrix.calls"]
                                            / counters["scenario.n_scenarios"])
    out["fileio.bytes_read"] = tracer.bytes_read / len(runs)
    out["fileio.bytes_written"] = tracer.bytes_written / len(runs)
    # A module's share counts every span of that module, named above or not.
    names = {name for r in runs.values() for name in r}
    for module in MODULES:
        module_s = sum(med(n) for n in names if n.split(".", 1)[0] == module)
        out[f"{module}.share"] = module_s / traced_pipeline_s
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() when the process was started")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-out", help="JSON-lines file for the traced run's spans")
    ap.add_argument("--probe", action="store_true", help="measure set-up only, then exit")
    args = ap.parse_args()

    # Every timing is in reference seconds (see hostclock.py), set-up included:
    # the stretch from process start to the first probe runs at that probe's speed.
    started = time.perf_counter() - (time.time() - args.t0)
    sampler = hostclock.Sampler()
    with sampler:
        cli, fileio, network, routing = import_package()
        work = Path(args.work_dir)
        fx = workloads.write_fixture(workloads.WORKLOADS[args.workload], args.seed, work / "in")
        ready = time.perf_counter()
    setup_s = sampler.ref_seconds(started, ready)
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    parent = None
    if args.seed == DEFAULT_SEED:
        parent = json.loads(PARENT_DIGESTS.read_text())[args.workload]

    gate = Gate()
    samples: dict[str, list[float]] = {
        name: [] for name in ("pipeline_s", "pipeline_wall_s", *(f"{s}_s" for s in STAGES))}
    # With --trace 1 every untraced run is followed by a traced one, so the
    # pair sees the same host speed and their ratio is the tracing overhead.
    tracer = spans.Tracer() if args.trace else None
    traced_s: list[float] = []
    overhead: list[float] = []
    reference_dir = work / "out0"
    reference = None
    loop_start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - loop_start < args.seconds:
        out_dir = work / f"out{i}"
        with sampler:
            intervals, codes = run_pipeline(cli, fx, out_dir)
            wall = sum(end - start for start, end in intervals.values())
            reruns = {stage: repeat_stage(cli, fx, out_dir, stage, MIN_STAGE_SHARE * wall
                                          - (intervals[stage][1] - intervals[stage][0]))
                      for stage in GATED_STAGES}
        times = {stage: sampler.ref_seconds(*iv) for stage, iv in intervals.items()}
        samples["pipeline_s"].append(sum(times.values()))
        samples["pipeline_wall_s"].append(wall)
        for stage, t in times.items():
            samples[f"{stage}_s"].append(t)
        for stage, (rerun_intervals, _codes) in reruns.items():
            samples[f"{stage}_s"] += [sampler.ref_seconds(*iv) for iv in rerun_intervals]
        all_codes = {stage: [rc, *reruns.get(stage, ((), ()))[1]] for stage, rc in codes.items()}
        digests = check_run(gate, f"run {i}", out_dir, all_codes, reference,
                            parent if i == 0 else None)
        if i == 0:
            reference = digests
        else:
            shutil.rmtree(out_dir)
        if tracer is not None:
            tracer.run_id = i
            traced_dir = work / f"traced{i}"
            tracer.install(cli, fileio)
            try:
                intervals, codes = run_pipeline(cli, fx, traced_dir, tracer.span)
            finally:
                tracer.restore()
            # Spans are wall time, so the overhead compares wall times.
            traced_s.append(sum(end - start for start, end in intervals.values()))
            overhead.append(traced_s[-1] / samples["pipeline_wall_s"][-1])
            check_run(gate, f"traced run {i}", traced_dir,
                      {stage: [rc] for stage, rc in codes.items()}, reference, None)
            shutil.rmtree(traced_dir)
        i += 1

    result = {
        "setup_s": setup_s,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": calibration_s(),
        "slowdown": sampler.slowdown(),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": sys.modules["numpy"].__version__},
        "attempted": gate.attempted,
        "failures": gate.failures,
    }
    if gate.failures:  # the later steps read artifacts that may be missing
        print(json.dumps(result))
        return 0

    if fx.workload.n_damaged <= routing.BRUTE_NODE_CAP:
        oracle_check(gate, cli, fileio, network, routing, fx, reference_dir)
    result["counters"] = input_counters(cli, fileio, reference_dir, fx)
    if tracer is not None:
        tracer.write(Path(args.spans_out))
        result["per_layer"] = layer_metrics(tracer, spans.span_stats(tracer.spans),
                                            statistics.median(traced_s), result["counters"])
        result["per_layer"]["trace.overhead_ratio"] = statistics.median(overhead)

    result["attempted"] = gate.attempted  # failures is the gate's own list
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

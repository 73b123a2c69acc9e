"""End-to-end planning in the library: allocate, route, schedule.

A compact storm case (2 depots, a tornado corridor, 3 scenarios) taken
from network construction through both decision stages to a Gantt chart
on disk.

Run from the repository root:  python3 demos/03_two_stage_planning.py
Artifacts land in demo_output/two_stage/.
"""

from pathlib import Path

import numpy as np

from gridrestore import (
    PowerNode,
    RoutingInstance,
    ScenarioConfig,
    Stage1Instance,
    TornadoEvent,
    apply_road_failures,
    build_coupled_network,
    build_schedule,
    combine_charts,
    expected_cost,
    generate_scenarios,
    load_road_network,
    marginal_gain,
    shortest_path_matrix,
    solve_routing,
    solve_stage1,
    validate_routes,
)
from gridrestore import fileio

OUT = Path("demo_output/two_stage")
OUT.mkdir(parents=True, exist_ok=True)

# --- coupled network ---------------------------------------------------------

N = 7
nodes = [(f"r{r}c{c}", 32.90 + r * 0.005, -97.00 + c * 0.005)
         for r in range(N) for c in range(N)]
edges = []
for r in range(N):
    for c in range(N):
        if c + 1 < N:
            edges.append((f"r{r}c{c}", f"r{r}c{c+1}", 556.0))
        if r + 1 < N:
            edges.append((f"r{r}c{c}", f"r{r+1}c{c}", 556.0))
road = load_road_network(nodes, edges)
gen = np.random.default_rng(5)
buses = [
    PowerNode(f"bus{i}", float(gen.uniform(0, 0.03)), float(gen.uniform(0, 0.03)),
              float(gen.uniform(20, 350)), "line")
    for i in range(15)
]
net = build_coupled_network(road, buses, -97.0, 32.9, depots=["r0c0", "r6c6"])

# --- scenarios from one storm track -------------------------------------------

event = TornadoEvent(2, (32.905, -97.002), (32.928, -96.975), 1100.0)
# keep road failures light enough that every node stays reachable; a denser
# grid would tolerate the default 0.5
config = ScenarioConfig(n_scenarios=3, edge_fail_prob=0.15)
sset = generate_scenarios(config, net, [event], seed=2024)
print(f"{len(sset.damaged)} damaged nodes across {sset.n_scenarios} scenarios")

# --- stage 1: crew capacities --------------------------------------------------

inst1 = Stage1Instance.from_scenarios(sset, loads_kw=net.loads_kw)
alloc = solve_stage1(inst1)
print(f"\nstage 1 (scale_c = {inst1.scale_c:g}):")
for crew in sset.crews:
    print(f"  {crew.name:>18}: {alloc.capacity[crew.index]:>3} persons "
          f"(marginal gain {marginal_gain(inst1)[crew.index]:.1f})")
fileio.write_allocation_file(alloc, OUT / "allocation.json", inst1.scale_c,
                             marginal_gain(inst1), inst1.crew_costs)

# --- stage 2: per-scenario routing ---------------------------------------------

plans = []
charts = []
for sc in sset.scenarios:
    failed_road = apply_road_failures(net.road, sc.failed_edges)
    terminals = sorted(net.depots | sset.damaged, key=str)
    complete = shortest_path_matrix(failed_road, terminals)
    rinst = RoutingInstance.from_scenario(complete, sc, net.depots)
    plan = solve_routing(rinst, sc.scenario_id)
    report = validate_routes(plan, rinst)
    plans.append(plan)
    print(f"\nscenario {sc.scenario_id}: total travel cost {plan.total_cost:,.0f} "
          f"(validation {'ok' if report.passed else 'FAILED'})")
    for k, route in sorted(plan.routes.items()):
        stops = " -> ".join(str(s) for s in route.stops())
        print(f"  crew {k}: {stops}")
    fileio.write_route_plan_file(plan, OUT / f"routes_s{sc.scenario_id}.json", complete)

    # --- schedule the routes over their leg meters and this scenario's repair times
    charts.append(build_schedule(plan, sc, net.depots, speed_kmh=40.0))

print(f"\nexpected travel cost over scenarios: {expected_cost(plans):,.0f}")

combined = combine_charts(charts)
fileio.write_gantt_csv(combined, OUT / "gantt.csv")
fileio.write_gantt_svg(combined, OUT / "gantt.svg", title="Crew schedule, all scenarios")
print(f"combined makespan: {combined.makespan_h:.1f} h")
print(f"artifacts in {OUT}/")

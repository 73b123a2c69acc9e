"""Workload definitions and the input fixtures generated from a seed.

Every workload is a grid road network crossed by a tornado corridor that
runs along one interior grid row. Only that row's edges lie inside the
corridor, so only they can fail; the vertical edges keep every node
reachable, which keeps every seed solvable (a corridor that isolated a node
would make ``solve`` exit 6 by design). The damaged nodes are feeder buses
placed on that row, and the two depots sit at opposite corners.

This module uses the standard library only, so the same seed gives the same
input files on every Python and numpy version.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

LAT0 = 35.0
LON0 = -97.0
STEP_DEG = 0.001  # ~111 m between rows, ~91 m between columns at LAT0
CORRIDOR_WIDTH_M = 100.0  # half-width 50 m: the corridor row only
BUS_KINDS = ("line", "switch", "transformer", "substation")


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    n_damaged: int
    n_scenarios: int
    config: dict = field(default_factory=dict)  # config/1 overrides, if any


WORKLOADS = {
    w.name: w
    for w in (
        # Exact Held-Karp dominates: all four crews share one 12-node
        # required set (default demands are >= 5).
        Workload("routing-heavy", rows=12, cols=12, n_damaged=12, n_scenarios=4),
        # Graph rebuild, Dijkstra closure and network-file parsing dominate;
        # routing over 6 nodes is trivial.
        Workload("wide-road", rows=70, cols=70, n_damaged=6, n_scenarios=8),
        # Per-scenario overhead in every layer; demands of 0 make the crews'
        # required sets differ, so a per-crew memo is mostly bypassed.
        Workload("many-scenarios", rows=8, cols=8, n_damaged=5, n_scenarios=800,
                 config={"demand_lo": 0, "demand_hi": 3}),
    )
}


def node_id(r: int, c: int) -> str:
    return f"r{r}c{c}"


@dataclass(frozen=True)
class Fixture:
    """Input files of one workload at one seed, plus the facts derived from them."""

    workload: Workload
    seed: int
    corridor_row: int
    damaged: tuple[str, ...]
    depots: tuple[str, str]
    files: dict  # role -> path


def write_fixture(workload: Workload, seed: int, in_dir: Path) -> Fixture:
    """Generate the workload's input files from ``seed`` into ``in_dir``."""
    rng = random.Random(f"{workload.name}:{seed}")
    rows, cols = workload.rows, workload.cols
    row = rng.randrange(1, rows - 1)
    damaged_cols = sorted(rng.sample(range(cols), workload.n_damaged))
    depots = (node_id(0, 0), node_id(rows - 1, cols - 1))

    in_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "road_nodes": in_dir / "road_nodes.csv",
        "road_edges": in_dir / "road_edges.csv",
        "power": in_dir / "power.csv",
        "events": in_dir / "events.csv",
    }

    def lat(r: int) -> float:
        return round(LAT0 + r * STEP_DEG, 6)

    def lon(c: int) -> float:
        return round(LON0 + c * STEP_DEG, 6)

    with open(files["road_nodes"], "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("node_id", "lat", "lon"))
        for r in range(rows):
            for c in range(cols):
                out.writerow((node_id(r, c), lat(r), lon(c)))

    with open(files["road_edges"], "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("u", "v", "length_m"))
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    out.writerow((node_id(r, c), node_id(r, c + 1),
                                  f"{rng.uniform(91.0, 140.0):.3f}"))
                if r + 1 < rows:
                    out.writerow((node_id(r, c), node_id(r + 1, c),
                                  f"{rng.uniform(111.0, 170.0):.3f}"))

    # Buses sit exactly on their road node (offsets 0), so each snaps there.
    with open(files["power"], "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("bus_id", "x", "y", "downstream_load_kw", "kind"))
        for j, c in enumerate(damaged_cols):
            out.writerow((f"bus{j}", lon(c), lat(row), f"{rng.uniform(50.0, 500.0):.1f}",
                          BUS_KINDS[j % len(BUS_KINDS)]))

    with open(files["events"], "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("ef", "start_lat", "start_lon", "end_lat", "end_lon", "width_m"))
        out.writerow((rng.randrange(1, 6), lat(row), lon(0), lat(row), lon(cols - 1),
                      CORRIDOR_WIDTH_M))

    if workload.config:
        files["config"] = in_dir / "config.json"
        files["config"].write_text(
            json.dumps({"schema": "config/1", **workload.config}, sort_keys=True) + "\n",
            encoding="utf-8")

    return Fixture(workload, seed, row, tuple(node_id(row, c) for c in damaged_cols),
                   depots, files)


def stage_argvs(fx: Fixture, out_dir: Path) -> list[tuple[str, list[str]]]:
    """The four CLI invocations of one pipeline run, in order."""
    common = ["--out-dir", str(out_dir), "--seed", str(fx.seed)]
    if "config" in fx.files:
        common += ["--config", str(fx.files["config"])]
    network = str(out_dir / "network.json")
    scenarios = str(out_dir / "scenarios.json")
    return [
        ("build_network", common + [
            "build-network",
            "--road-nodes", str(fx.files["road_nodes"]),
            "--road-edges", str(fx.files["road_edges"]),
            "--power", str(fx.files["power"]),
            "--depots", ",".join(fx.depots),
        ]),
        ("gen_scenarios", common + [
            "gen-scenarios", "--network", network,
            "--events", str(fx.files["events"]),
            "--n-scenarios", str(fx.workload.n_scenarios),
        ]),
        ("solve", common + ["solve", "--network", network, "--scenarios", scenarios]),
        ("schedule", common + ["schedule", "--network", network, "--scenarios", scenarios]),
    ]

"""Tests of the benchmark's fixtures, tracer and correctness gate.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

The gate test runs every workload end to end twice (about two minutes on a
2-core machine).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostclock
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent


def _files(fx) -> dict[str, bytes]:
    return {role: Path(p).read_bytes() for role, p in fx.files.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixture_is_deterministic_per_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    a = workloads.write_fixture(w, 7, tmp_path / "a")
    b = workloads.write_fixture(w, 7, tmp_path / "b")
    c = workloads.write_fixture(w, 8, tmp_path / "c")
    assert _files(a) == _files(b)
    assert (a.corridor_row, a.damaged) == (b.corridor_row, b.damaged)
    assert _files(a) != _files(c)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixture_layout(tmp_path, name):
    w = workloads.WORKLOADS[name]
    fx = workloads.write_fixture(w, 3, tmp_path)
    assert 0 < fx.corridor_row < w.rows - 1  # vertical edges keep the row reachable
    assert len(set(fx.damaged)) == w.n_damaged
    assert all(d.startswith(f"r{fx.corridor_row}c") for d in fx.damaged)
    assert fx.depots == ("r0c0", f"r{w.rows - 1}c{w.cols - 1}")
    edges = fx.files["road_edges"].read_text().splitlines()
    assert len(edges) - 1 == w.rows * (w.cols - 1) + (w.rows - 1) * w.cols


def test_tracer_restores_every_patched_attribute():
    from gridrestore import allocation, cli, fileio, routing

    before = {name: getattr(cli, name) for name in spans.CLI_FUNCTIONS}
    io_before = {name: getattr(fileio, name) for name in spans.fileio_functions(fileio)}
    methods = (allocation.Stage1Instance.__dict__["from_scenarios"],
               routing.RoutingInstance.__dict__["from_scenario"])
    assert "read_network_file" in io_before and "parse_meters" not in io_before
    tracer = spans.Tracer()
    tracer.install(cli, fileio)
    try:
        assert cli.solve_routing is not before["solve_routing"]
        assert fileio.read_network_file is not io_before["read_network_file"]
    finally:
        tracer.restore()
    assert all(getattr(cli, n) is f for n, f in before.items())
    assert all(getattr(fileio, n) is f for n, f in io_before.items())
    assert (allocation.Stage1Instance.__dict__["from_scenarios"],
            routing.RoutingInstance.__dict__["from_scenario"]) == methods


def test_self_time_subtracts_direct_children():
    # (id, name, start, end, parent, run): a 10 s parent with children of 3 s
    # and 2 s, the second of which has a 1 s child of its own.
    recorded = [
        (0, "cli.solve", 0.0, 10.0, None, 0),
        (1, "fileio.read_network_file", 1.0, 4.0, 0, 0),
        (2, "routing.solve_routing", 5.0, 7.0, 0, 0),
        (3, "fileio.read_json_artifact", 1.5, 2.5, 1, 0),
    ]
    stats = spans.span_stats(recorded)[0]
    assert stats["cli.solve"]["self_s"] == pytest.approx(5.0)
    assert stats["fileio.read_network_file"]["self_s"] == pytest.approx(2.0)
    assert stats["fileio.read_json_artifact"]["self_s"] == pytest.approx(1.0)
    assert stats["routing.solve_routing"]["calls"] == 1


def test_reference_seconds_scale_wall_time_by_probe_speed():
    ref = hostclock.REF_PROBE_S
    sampler = hostclock.Sampler()
    # A probe every 50 ms that takes twice the reference time: half speed
    # for the probe, and less for the pipeline, which is more sensitive.
    sampler.marks = [(0.05 * k, 2 * ref) for k in range(21)]
    speed = 0.5 ** hostclock.SENSITIVITY
    inside = 19  # the probes at 0.05 ... 0.95 s
    assert sampler.ref_seconds(0.01, 0.99) == pytest.approx((0.98 - inside * 2 * ref) * speed)
    assert sampler.ref_seconds(0.052, 0.062) == pytest.approx(0.01 * speed)  # between two probes
    assert sampler.slowdown() == pytest.approx(2.0)


def test_sampler_probes_on_the_timer_and_stops():
    sampler = hostclock.Sampler()
    with sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    taken = len(sampler.marks)
    assert taken >= 4  # one on entry, one on exit, and the ticks between
    assert 0 < sampler.ref_seconds(start, end) < 10 * (end - start)
    time.sleep(0.2)
    assert len(sampler.marks) == taken


def _run(*args) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=900)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed, trace", [(0, 0), (1, 1)])
def test_every_workload_passes_the_gate(seed, trace):
    """Seed 0 also checks the parent digests; the traced run must leave the same bytes."""
    code, result = _run("--workload", "all", "--seed", str(seed), "--seconds", "0",
                        "--trace", str(trace))
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name in workloads.WORKLOADS:
        got = {k.split(".", 1)[1]: v["unit"] for k, v in result["metrics"].items()
               if k.startswith(name + ".")}
        assert got == expected

"""Benchmark of the gridrestore CLI pipeline: build-network, gen-scenarios, solve, schedule.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload routing-heavy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 1

Each run starts a few set-up probes and then one workload process
(``worker.py``). With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it also runs the pipeline with spans around every layer call
and prints the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is non-zero when any correctness check failed or the workload could not run.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4  # extra processes that only set up; setup_s is the median with the main one
DEADLINE_S = 170.0  # a run must end within 180 s


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.startswith("fileio.bytes"):
        return "bytes"
    if name.endswith((".share", "_ratio", "_per_scenario")):
        return "ratio"
    return "count"


def tail_percentile(n: int) -> float | None:
    """The highest of p75, p90, p95, p99 with at least ten samples above it."""
    fit = [p for p in (75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    return fit[-1] if fit else None


def spawn_worker(args, name: str, work_dir: Path, deadline: float, probe: bool,
                 spans_out: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if probe:
        cmd.append("--probe")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--t0", repr(time.time())]  # last, so the child starts as close to it as possible
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, name: str, deadline: float) -> dict:
    """Run one workload; returns its report with ``metrics`` keyed by metric name."""
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{args.seed}-{os.getpid()}"
    setups = [spawn_worker(args, name, OUT / f"work-{tag}-probe{k}", deadline, True, None)
              ["setup_s"] for k in range(SETUP_PROBES)]
    spans_out = OUT / f"{name}-seed{args.seed}-spans.jsonl" if args.trace else None
    res = spawn_worker(args, name, OUT / f"work-{tag}", deadline, False, spans_out)
    setups.append(res["setup_s"])

    samples = res["samples"]
    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": res["attempted"], "failed": len(res["failures"]),
        "failures": res["failures"], "samples": {**samples, "setup_s": setups},
        "host": res["host"], "calibration_s": res["calibration_s"], "slowdown": res["slowdown"],
        "counters": res.get("counters", {}), "summary": {}, "metrics": {},
    }
    timings = {"pipeline_s": samples["pipeline_s"], "solve_s": samples["solve_s"],
               "schedule_s": samples["schedule_s"], "setup_s": setups}
    summary = report["summary"]
    for metric, values in timings.items():
        p = tail_percentile(len(values))
        summary[metric] = {
            "median": statistics.median(values), "n": len(values),
            "tail": None if p is None else (p, statistics.quantiles(values, n=100)[p - 1]),
        }
    if report["failed"]:
        metrics = {}  # a failed gate reports no metric
    elif args.trace:
        metrics = {k: (v, per_layer_unit(k)) for k, v in res["per_layer"].items()}
        metrics["cli.build_network_s"] = (statistics.median(samples["build_network_s"]), "s")
        metrics["cli.gen_scenarios_s"] = (statistics.median(samples["gen_scenarios_s"]), "s")
        metrics["host.calibration_s"] = (res["calibration_s"], "s")
        metrics["host.slowdown"] = (res["slowdown"], "ratio")
        metrics["host.nproc"] = (res["host"]["nproc"], "count")
        metrics.update({k: (v, "count") for k, v in res["counters"].items()})
    else:
        metrics = {metric: (summary[metric]["median"], "s") for metric in timings}
        metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    report["metrics"] = {k: {"value": v, "unit": unit} for k, (v, unit) in sorted(metrics.items())}

    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def print_report(rep: dict) -> None:
    print(f"== {rep['workload']} seed {rep['seed']} ({rep['seconds']:g} s measured, "
          f"trace {rep['trace']})")
    host = rep["host"]
    print(f"host: nproc {host['nproc']}, python {host['python']}, numpy {host['numpy']}, "
          f"calibration {rep['calibration_s']:.4f} s, probe slowdown {rep['slowdown']:.3f}")
    for name, s in rep["summary"].items():
        tail = "no percentile with 10 samples above it" if s["tail"] is None else \
            f"p{s['tail'][0]} {s['tail'][1]:.4f} s"
        print(f"  {name:<18} median {s['median']:.4f} s   {tail}   n={s['n']}")
    if "peak_rss_mb" in rep["metrics"]:
        print(f"  {'peak_rss_mb':<18} {rep['metrics']['peak_rss_mb']['value']:.1f} MB")
    print(f"  {'failed_ops_ratio':<18} {rep['failed'] / rep['attempted']:.4f} "
          f"({rep['failed']} of {rep['attempted']} operations)")
    for failure in rep["failures"]:
        print(f"  FAILED: {failure}")
    if rep["trace"]:
        for name, m in rep["metrics"].items():
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="time measured per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gridrestore" / "__init__.py").is_file():
        print(f"error: no gridrestore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            reports.append(run_workload(args, name, time.monotonic() + DEADLINE_S))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name} did not run: {exc}", file=sys.stderr)
            return 3
        print_report(reports[-1])

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

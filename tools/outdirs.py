"""Write every benchmark pipeline's out-dir and each stage's exit code, stdout and stderr.

    PYTHONPATH=src python tools/outdirs.py DEST

For each workload of ``perfbench/workloads.py`` and each seed 0-8, this runs
build-network, gen-scenarios, solve and schedule in-process through
``gridrestore.cli.main`` into ``DEST/<workload>/seed<k>/``: the generated
inputs in ``in/``, the out-dir in ``out/``, and ``stages.txt`` with each
stage's exit code, stdout and stderr, the run directory written as ``<run>``.
Two trees written from two checkouts compare with ``diff -r``.

``gridrestore`` is imported from the path, so PYTHONPATH picks the checkout
under test. The workload definitions are loaded by path from the checkout that
holds this script, and only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gridrestore import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEEDS = 9


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def run_stage(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``gridrestore`` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_pipeline(workloads, workload, seed: int, run_dir: Path) -> None:
    """One pipeline of ``workload`` at ``seed`` into ``run_dir``."""
    fx = workloads.write_fixture(workload, seed, run_dir / "in")
    report = []
    for stage, argv in workloads.stage_argvs(fx, run_dir / "out"):
        code, out, err = run_stage(argv)
        report.append(f"== {stage}\nexit {code}\n-- stdout\n{out}-- stderr\n{err}")
    text = "".join(report).replace(str(run_dir), "<run>")
    (run_dir / "stages.txt").write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dest", type=Path, help="directory to write the tree into")
    args = ap.parse_args(argv)
    workloads = load_workloads()
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in range(SEEDS):
            write_pipeline(workloads, workload, seed, args.dest.resolve() / name / f"seed{seed}")
    print(f"wrote {args.dest}: gridrestore from {Path(cli.__file__).parents[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the artifact digests of every workload at the default seed.

Run once at a commit whose outputs are the reference:

    python3 perfbench/record_digests.py

It writes parent_digests.json, which the correctness gate compares every
default-seed run against.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import worker
import workloads


def main() -> None:
    cli, *_ = worker.import_package()
    digests = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            fx = workloads.write_fixture(workload, worker.DEFAULT_SEED, Path(tmp) / name / "in")
            out_dir = Path(tmp) / name / "out"
            _times, codes = worker.run_pipeline(cli, fx, out_dir)
            if any(codes.values()):
                raise SystemExit(f"{name}: stage exit codes {codes}")
            digests[name] = worker.digest_dir(out_dir)
            shutil.rmtree(Path(tmp) / name)
    worker.PARENT_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

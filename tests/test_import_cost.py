"""``import gridrestore`` loads nothing beyond the standard library and numpy.

Every CLI run pays for the package import at process start, so a new
third-party import (or one that drags in a heavy dependency) shows up in
every stage's start-up time. The import runs in a fresh interpreter so that
modules this test session already holds do not hide it.

A numpy submodule that loads lazily counts too: ``numpy.ma`` (which
``np.unique`` pulls in) stays in memory for good, +0.75 MB of resident set
in every stage, so the metric closure must not load it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import gridrestore
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


CLOSURE_PROBE = """
import json, sys
from gridrestore import load_road_network, shortest_path_matrix
road = load_road_network([(n, 32.0, -97.0) for n in range(6)],
                         [(n, n + 1, 10.0) for n in range(4)] + [(0, 4, 25.0)])
shortest_path_matrix(road, [0, 3, 5])
print(json.dumps("numpy.ma" in sys.modules))
"""


def run_probe(probe: str):
    """The JSON that ``probe`` prints, run in a fresh interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_import_loads_only_stdlib_and_numpy():
    loaded = run_probe(PROBE)
    assert "gridrestore" in loaded
    extra = [m for m in loaded
             if m not in sys.stdlib_module_names and m not in ("numpy", "gridrestore")]
    assert extra == []


def test_metric_closure_leaves_numpy_ma_unloaded():
    assert run_probe(CLOSURE_PROBE) is False

"""``import gridrestore`` loads nothing beyond the standard library and numpy.

Every CLI run pays for the package import at process start, so a new
third-party import (or one that drags in a heavy dependency) shows up in
every stage's start-up time. The import runs in a fresh interpreter so that
modules this test session already holds do not hide it.
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


def test_import_loads_only_stdlib_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = json.loads(out)
    assert "gridrestore" in loaded
    extra = [m for m in loaded
             if m not in sys.stdlib_module_names and m not in ("numpy", "gridrestore")]
    assert extra == []

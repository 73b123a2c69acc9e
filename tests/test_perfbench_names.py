"""The names the benchmark's tracer patches on ``gridrestore.cli`` exist there.

``perfbench/spans.py`` wraps every function in ``CLI_FUNCTIONS`` and every
classmethod in ``CLASSMETHODS`` by name on the ``cli`` module. It uses the
standard library only, so it is loaded here by path, and a ``cli`` that drops
one of those names fails this test instead of only the benchmark run.
"""

import importlib.util
from pathlib import Path

from gridrestore import cli, fileio

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_exposes_every_traced_name():
    spans = load_spans()
    missing = [name for name in spans.CLI_FUNCTIONS if not callable(getattr(cli, name, None))]
    assert missing == []
    for cls_name, attr in spans.CLASSMETHODS:
        assert isinstance(getattr(cli, cls_name).__dict__.get(attr), classmethod), (cls_name, attr)


def test_tracer_installs_and_restores():
    spans = load_spans()
    originals = {name: getattr(cli, name) for name in spans.CLI_FUNCTIONS}
    tracer = spans.Tracer()
    try:
        tracer.install(cli, fileio)
        assert all(getattr(cli, name) is not fn for name, fn in originals.items())
    finally:
        tracer.restore()
    assert all(getattr(cli, name) is fn for name, fn in originals.items())

"""In-memory spans recorded around the package's public calls.

The tracer patches module attributes from outside the package: the solver
functions that ``gridrestore.cli`` imports by name, the read/write API of
``gridrestore.fileio``, and two classmethod constructors. Every patch is
undone by ``restore``. Calls are assumed to run on one thread (the CLI's
default ``--jobs 1``), so spans nest strictly.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

# Names gridrestore.cli imports from the solver modules and calls. node_key
# and default_crews are left out: they are trivial helpers, and node_key runs
# as a sort key, where a span per call would measure the tracer.
CLI_FUNCTIONS = (
    "load_road_network",
    "build_coupled_network",
    "generate_scenarios",
    "solve_stage1",
    "marginal_gain",
    "apply_road_failures",
    "shortest_path_matrix",
    "solve_routing",
    "validate_routes",
    "expected_cost",
    "build_schedule",
    "combine_charts",
)
CLASSMETHODS = (("Stage1Instance", "from_scenarios"), ("RoutingInstance", "from_scenario"))


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def fileio_functions(fileio) -> list[str]:
    """The artifact API of the fileio module: its read_*/write_* functions and sha256_file."""
    return sorted(
        name for name, obj in vars(fileio).items()
        if inspect.isfunction(obj) and obj.__module__ == fileio.__name__
        and (name.startswith(("read_", "write_")) or name == "sha256_file")
    )


class Tracer:
    """Records (id, name, start, end, parent, run) spans and file sizes."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.run_id = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append((sid, name, 0.0, 0.0, None, self.run_id))  # reserves the id
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.run_id)

    def _in_fileio(self) -> bool:
        return bool(self._stack) and self._stack[-1][1].startswith("fileio.")

    def _wrap(self, fn, name: str, io_kind: str | None = None):
        sig = inspect.signature(fn) if io_kind else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # File sizes are counted at the outermost fileio call only, so a
            # reader that delegates to read_json_artifact is not counted twice.
            path = None
            if io_kind and not self._in_fileio():
                path = sig.bind(*args, **kwargs).arguments["path"]
                if io_kind == "read":
                    self.bytes_read += os.path.getsize(path)
            with self.span(name):
                result = fn(*args, **kwargs)
            if path is not None and io_kind == "write":
                self.bytes_written += os.path.getsize(path)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, cli, fileio) -> None:
        """Wrap the calls ``cli`` makes into the other modules."""
        for attr in CLI_FUNCTIONS:
            fn = getattr(cli, attr)
            self._patch(cli, attr, self._wrap(fn, f"{_layer(fn)}.{attr}"))
        for cls_name, attr in CLASSMETHODS:
            cls = getattr(cli, cls_name)
            fn = cls.__dict__[attr].__func__
            self._patch(cls, attr,
                        classmethod(self._wrap(fn, f"{_layer(fn)}.{cls_name}.{attr}")))
        for attr in fileio_functions(fileio):
            kind = "write" if attr.startswith("write_") else "read"
            self._patch(fileio, attr, self._wrap(getattr(fileio, attr), f"fileio.{attr}", kind))

    def restore(self) -> None:
        """Undo every patch, newest first, and check the originals are back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def span_stats(spans) -> dict[int, dict[str, dict]]:
    """Per run, per span name: calls, total and self seconds, and durations.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it without overlapping.
    """
    child_s: dict[int, float] = {}
    for _sid, _name, start, end, parent, _run in spans:
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    runs: dict[int, dict[str, dict]] = {}
    for sid, name, start, end, _parent, run in spans:
        entry = runs.setdefault(run, {}).setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_s.get(sid, 0.0)
        entry["durations"].append(end - start)
    return runs


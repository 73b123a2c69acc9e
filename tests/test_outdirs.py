"""``tools/outdirs.py`` writes a tree that depends only on the code, not on its place."""

import filecmp
import importlib.util
from pathlib import Path

OUTDIRS = Path(__file__).resolve().parents[1] / "tools" / "outdirs.py"


def load_outdirs():
    spec = importlib.util.spec_from_file_location("tools_outdirs", OUTDIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(same_tree(a / d, b / d) for d in cmp.common_dirs)


def test_two_places_give_the_same_tree(tmp_path):
    outdirs = load_outdirs()
    workloads = outdirs.load_workloads()
    for dest in ("one", "elsewhere/two"):
        outdirs.write_pipeline(workloads, workloads.WORKLOADS["routing-heavy"], 0,
                               tmp_path / dest)
    stages = (tmp_path / "one" / "stages.txt").read_text()
    assert stages.count("\nexit 0\n") == 4, stages
    assert "wrote <run>/out/allocation.json" in stages
    assert str(tmp_path) not in stages
    assert (tmp_path / "one" / "out" / "routes_s3.json").is_file()
    assert same_tree(tmp_path / "one", tmp_path / "elsewhere" / "two")

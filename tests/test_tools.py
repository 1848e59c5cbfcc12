"""Smoke tests for the scripts under tools/: they call the package's
interface, so a change to it must keep them running."""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flow_time_error_runs():
    tool = load_tool("flow_time_error")
    key = "gong_raw/512/0.05"
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())[
        "equator_length"][key]
    row = tool.time_error("gong_raw", 512, 0.05, ref)
    assert sorted(row) == ["check_ratio", "fine", "steps", "time_error"]
    assert row["steps"] == 82
    assert all(math.isfinite(v) for v in row.values())
    # the BDF3 flow's own time error is far below the reference's
    assert 0.0 < abs(row["time_error"]) < ref["time_error"]


def test_compare_outputs_of_one_tree_are_identical():
    tool = load_tool("compare_outputs")
    commands = (("describe", "--nodes", "257", "--surface", "round"),
                ("flow", "--nodes", "64", "--T", "0.001", "--surface",
                 "michel", "--coeffs", "0.3,-0.3"))
    assert tool.compare(ROOT, ROOT, commands) == {
        " ".join(c): [] for c in commands}


def test_compare_outputs_reports_moved_values():
    tool = load_tool("compare_outputs")
    old = (0, "# config_hash=a\nt,area\n0,1.0\n0.5,2.0\n", "", "")
    new = (3, "# config_hash=b\nt,area\n0,1.0\n0.5,2.5\n",
           '{"t": 0.5, "u": [0.0, 0.2]}', "failed\n")
    assert tool.differences(old, new) == [
        "exit code 0 -> 3", "line '# config_hash=a' -> '# config_hash=b'",
        "area: max abs 0.5, max rel 0.25",
        "abort snapshot t: 0 -> 1 values",
        "abort snapshot u: 0 -> 2 values", "streams '' -> 'failed'"]
    old = (0, '{"L": 2.0, "certified": true}\n', "", "")
    new = (0, '{"L": 2.0, "certified": false}\n', "", "")
    assert tool.differences(old, new) == ["certified: [True] -> [False]"]
    old = (3, "", '{"t": 0.5, "u": [0.0, 0.2]}', "")
    new = (3, "", '{"t": 0.5, "u": [0.0, 0.25]}', "")
    assert tool.differences(old, new) == [
        "abort snapshot u: max abs 0.05, max rel 0.25"]
    assert tool.differences(old, old) == []

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

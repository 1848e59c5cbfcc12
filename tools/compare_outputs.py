"""Compare the CLI outputs of the working tree with a parent revision.

    python3 tools/compare_outputs.py --parent HEAD

Both sides are exported into a temporary directory with
``bench_pairs.export``, removed at the end.  Each command of ``COMMANDS``
runs once on each tree, as its own process on that tree's package, writing
its report with ``--out`` (and, if a flow aborts, its last good state to
the report's ``.abort.json`` snapshot).  Per command the script prints
``identical`` when the report, the snapshot, the exit code and the
standard streams agree byte for byte.  Otherwise it prints the largest
absolute and relative change of every CSV column or JSON field that moved,
any other changed line or field, and any change of exit code or of the
standard streams.  It exits 1 when a command differs.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402  (tools/bench_pairs.py)

SURFACES = (("round",), ("gong_raw",), ("gong_normalized",),
            ("michel", "--coeffs", "0.3,-0.3"))
RUNS = (
    ("describe", "--nodes", "4097"),
    ("verify-zoll", "--nodes", "4097"),
    ("weinstein", "--nodes", "4097"),
    ("lprime", "--nodes", "512"),
    ("flow", "--nodes", "1024", "--checkpoint-every", "0.05"),
    ("flow", "--nodes", "512", "--checkpoint-every", "0.025",
     "--sweep-checkpoints"),
    ("flow", "--nodes", "1025"),
)
COMMANDS = tuple(run + ("--surface",) + surface
                 for surface in SURFACES for run in RUNS)


def run_cli(tree, argv, workdir):
    """(exit code, report text, abort snapshot text, stdout + stderr) of
    one command on the package under tree/src; a file not written reads
    as ''."""
    out = workdir / "report"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "zollflow.cli", *argv, "--out", str(out)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=900)
    texts = []
    for path in (out, workdir / "report.abort.json"):
        texts.append(path.read_text() if path.exists() else "")
        path.unlink(missing_ok=True)
    return proc.returncode, *texts, proc.stdout + proc.stderr


def _number(value):
    """value as a float if it is a JSON or CSV number, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _flatten(d, prefix=""):
    """{dotted key: value} of a nested JSON object."""
    flat = {}
    for key, value in d.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def _csv_columns(text):
    """(comment lines, {column: values}) of a CSV report with '#'
    comment lines and one header row."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    if not rows:
        return comments, {}
    header, body = rows[0], rows[1:]
    return comments, {name: [row[i] if i < len(row) else None
                             for row in body]
                      for i, name in enumerate(header)}


def _fields(text):
    """(other lines, {field: values}) of a JSON or CSV report."""
    try:
        d = json.loads(text)
    except ValueError:
        return _csv_columns(text)
    if not isinstance(d, dict):
        return [text], {}
    return [], {k: v if isinstance(v, list) else [v]
                for k, v in _flatten(d).items()}


def _change(old, new):
    """(largest absolute, largest relative) change over paired numbers,
    or None if some pair is not two numbers."""
    abs_max = rel_max = 0.0
    for a, b in zip(old, new):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            return None
        if x == y:
            continue
        d = abs(y - x)
        abs_max = max(abs_max, d)
        rel_max = max(rel_max, d / abs(x) if x != 0.0 else math.inf)
    return abs_max, rel_max


def _report_differences(old, new):
    """Lines that describe how report text new differs from old."""
    out = []
    old_other, old_fields = _fields(old)
    new_other, new_fields = _fields(new)
    for a, b in zip(old_other, new_other):
        if a != b:
            out.append(f"line {a!r} -> {b!r}")
    if len(old_other) != len(new_other):
        out.append(f"{len(old_other)} -> {len(new_other)} other lines")
    for name in dict.fromkeys([*old_fields, *new_fields]):
        a, b = old_fields.get(name), new_fields.get(name)
        if a == b:
            continue
        if a is None or b is None or len(a) != len(b):
            out.append(f"{name}: {len(a or ())} -> {len(b or ())} values")
            continue
        change = _change(a, b)
        if change is None:
            out.append(f"{name}: {a!r} -> {b!r}")
        else:
            out.append(f"{name}: max abs {change[0]:.3g}, "
                       f"max rel {change[1]:.3g}")
    return out


def differences(old, new):
    """Lines that describe how the result (exit code, report, abort
    snapshot, streams) new differs from old; none if they are identical."""
    out = []
    if old[0] != new[0]:
        out.append(f"exit code {old[0]} -> {new[0]}")
    for label, a, b in (("", old[1], new[1]),
                        ("abort snapshot ", old[2], new[2])):
        if a != b:
            out += [label + line for line in _report_differences(a, b)]
    if old[3] != new[3]:
        out.append(f"streams {old[3].strip()!r} -> {new[3].strip()!r}")
    return out


def compare(old_tree, new_tree, commands=COMMANDS):
    """{command text: differences} of every command, run on both trees."""
    workdir = Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    try:
        return {" ".join(argv): differences(run_cli(old_tree, argv, workdir),
                                            run_cli(new_tree, argv, workdir))
                for argv in commands}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD")
    args = ap.parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix="compare_trees_"))
    try:
        trees = workdir / "parent", workdir / "change"
        bench_pairs.export(args.parent, trees[0])
        bench_pairs.export(None, trees[1])
        moved = 0
        for argv in COMMANDS:
            diffs = compare(*trees, [argv])[" ".join(argv)]
            moved += bool(diffs)
            print(f"{' '.join(argv)}: " + ("identical" if not diffs else ""),
                  flush=True)
            for line in diffs:
                print(f"  {line}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(COMMANDS) - moved} of {len(COMMANDS)} identical")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark of a change against its parent revision.

    python3 tools/bench_pairs.py --label geodesic_fsal --parent HEAD \\
        --pairs certify:111-122 --pairs flow:111-113 \\
        --traced pipeline:31-42 --traced certify:11 \\
        --claim certify/task_p50_s --what "one line on the change"

Both sides are exported into a temporary directory, removed at the end:
the parent revision with ``git archive`` and the change as the working
tree's tracked and untracked (not ignored) files.  Exporting instead of
``git worktree`` leaves the repository's metadata as it was, also when a
run is interrupted.

``--pairs WORKLOAD:SEEDS`` runs ``perfbench/run.py --trace 0`` on both
sides once per seed, back to back, the parent first on odd seeds, for
BENCHMARK.json's ``run_seconds``.
``--traced WORKLOAD:SEEDS`` does the same with ``--trace 1`` and reports,
per run, whether it was ``correct`` and the largest per-task share of
``cli.main``'s self time (``perfbench/spans.self_times`` on the run's
spans file), the quantity that ``spans.CLI_SELF_MAX`` gates.  Since that
largest share is a maximum over a run's tasks, noise in any one task moves
it; so each workload's summary also pairs the two sides' per-task
``cli.main`` self times in seconds by seed and task index, and reports
the median difference (change - parent) and the number of tasks where
the change is at or below the parent.  ``--claim
WORKLOAD/METRIC`` states whether the change won at least nine in ten of
that workload's pairs and moved the median by more than the parent's
interquartile range.

Seeds are ``a-b`` ranges or comma lists.  Every run's result goes to
``BENCH_<label>.json`` in the repository root as soon as it finishes.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402  (perfbench/spans.py)

LOWER_IS_BETTER = {"setup_s", "task_p50_s", "task_tail_s", "peak_rss_mb"}


def seeds(text):
    out = []
    for part in text.split(","):
        a, _, b = part.partition("-")
        out += list(range(int(a), int(b or a) + 1))
    return out


def spec(text):
    workload, _, seed_text = text.partition(":")
    return workload, seeds(seed_text)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """Write the tree of rev, or of the working tree when rev is None,
    into dest."""
    dest.mkdir(parents=True)
    if rev is not None:
        with tempfile.TemporaryFile() as tar:
            tar.write(git("archive", "--format=tar", rev))
            tar.seek(0)
            with tarfile.open(fileobj=tar) as t:
                t.extractall(dest, filter="data")
        return
    for name in git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def perfbench(tree, workload, seed, trace, seconds):
    """One perfbench run in tree: (result line, info line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=60 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench failed in {tree}: {proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]


def cli_self_times(tree, spans_file):
    """Per traced task, in task order: (cli.main's self time, its wall
    time) in seconds."""
    keys = ("name", "start", "end", "parent", "task", "error")
    recorded = [[s[k] for k in keys]
                for s in json.loads((tree / spans_file).read_text())]
    return [(self_s, s[2] - s[1]) for s, self_s in sorted(
        zip(recorded, spans.self_times(recorded)), key=lambda p: p[0][4])
        if s[0] == "cli.main"]


def paired_self_times(runs):
    """cli.main self time, change - parent, paired by seed and task index
    over the traced runs of one workload."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r["cli_self_s"]
    diffs = [c - p for sides in by_seed.values() if len(sides) == 2
             for p, c in zip(sides["parent"], sides["change"])]
    if not diffs:
        return None
    return {"tasks": len(diffs), "median_diff_s": statistics.median(diffs),
            "change_at_or_below": sum(d <= 0.0 for d in diffs)}


def stats(values):
    if not values:
        return None
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(runs, claim):
    summary = {}
    sides = ("parent", "change")
    untraced = [r for r in runs if r["trace"] == 0]
    for workload in dict.fromkeys(r["workload"] for r in untraced):
        for metric in untraced[0]["metrics"]:
            summary[f"{workload}/{metric}"] = {side: stats(
                [r["metrics"][metric] for r in untraced
                 if (r["side"], r["workload"]) == (side, workload)])
                for side in sides}
    traced = {}
    for r in runs:
        if r["trace"] == 1:
            t = traced.setdefault(r["workload"], {s: [] for s in sides})
            t[r["side"]].append(r)
    for workload, by_side in traced.items():
        paired = paired_self_times(by_side["parent"] + by_side["change"])
        for side, rs in by_side.items():
            by_side[side] = {
                "runs": len(rs),
                "correct": sum(r["correct"] for r in rs),
                "median_max_cli_self_share": statistics.median(
                    r["max_cli_self_share"] for r in rs) if rs else None}
        by_side["paired_cli_self_s"] = paired
    out = {"summary": summary, "traced": traced}
    if claim:
        workload, metric = claim.split("/")
        pairs = {}
        for r in untraced:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = \
                    r["metrics"][metric]
        pairs = [p for p in pairs.values() if len(p) == 2]
        sign = 1.0 if metric in LOWER_IS_BETTER else -1.0
        wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs)
        if len(pairs) >= 2:
            parent = stats([p["parent"] for p in pairs])
            change = stats([p["change"] for p in pairs])
            gain = sign * (parent["median"] - change["median"])
            iqr = parent["q3"] - parent["q1"]
            out["claim"] = {
                "metric": claim, "pairs": len(pairs), "change_wins": wins,
                "parent": parent, "change": change, "median_gain": gain,
                "parent_iqr": iqr,
                "relative_change": change["median"] / parent["median"] - 1,
                "met": wins >= 0.9 * len(pairs) and gain > iqr}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--pairs", type=spec, action="append", default=[])
    ap.add_argument("--traced", type=spec, action="append", default=[])
    ap.add_argument("--claim")
    ap.add_argument("--what", default="", help="one line on the change")
    args = ap.parse_args(argv)

    out_file = ROOT / f"BENCH_{args.label}.json"
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workdir = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {"parent": workdir / "parent", "change": workdir / "change"}
    export(args.parent, trees["parent"])
    export(None, trees["change"])
    report = {
        "label": args.label, "what": args.what,
        "parent_commit": git("rev-parse", args.parent).decode().strip(),
        "change": "working tree",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace T",
        "host": None, "runs": []}
    jobs = [(w, s, 0) for w, ss in args.pairs for s in ss] + \
           [(w, s, 1) for w, ss in args.traced for s in ss]
    try:
        for workload, seed, trace in jobs:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result, info = perfbench(trees[side], workload, seed, trace,
                                         seconds)
                run = {"side": side, "workload": workload, "seed": seed,
                       "trace": trace, "correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "tasks": info["tasks"],
                       "wall_p50_s": info["wall_p50_s"],
                       "kernel_p50_s": info["kernel_p50_s"],
                       "metrics": {k: v["value"] for k, v
                                   in result["metrics"].items()}}
                if trace:
                    times = cli_self_times(trees[side], info["spans_file"])
                    shares = [self_s / wall for self_s, wall in times]
                    run["max_cli_self_share"] = max(shares)
                    run["max_share_task"] = shares.index(max(shares))
                    run["cli_self_s"] = [self_s for self_s, _wall in times]
                report["host"] = info["env"]
                report["runs"].append(run)
                report.update(summarize(report["runs"], args.claim))
                out_file.write_text(json.dumps(report, indent=1) + "\n")
                share = run.get("max_cli_self_share")
                print(f"{side:6} {workload:8} seed {seed:3} trace {trace} "
                      f"correct {run['correct']}"
                      + (f" max cli self {share:.2%}" if trace else
                         f" p50 {run['metrics']['task_p50_s']:.4f}"),
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "claim" in report:
        print(json.dumps(report["claim"], indent=1))
    for workload, by_side in report.get("traced", {}).items():
        print(f"{workload}: paired cli.main self time "
              + json.dumps(by_side["paired_cli_self_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""zollflow benchmark: seeded workloads of CLI tasks, checked and timed.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 21 --trace 0

Run from the root of a source tree.  The program under test is the tree's
``src/zollflow``; the benchmark builds nothing and installs nothing.

Each workload is a closed loop: one client, in this process and one
thread, calls ``zollflow.cli.main([...])`` with ``--out`` in a scratch
directory, checks the output (``checks.py``), then sends the next task.
Tasks come in rounds of a fixed mix (``workloads.py``); whole rounds run
until about ``--seconds`` of task time have passed, so at least one round
runs.  Every time reported, set-up included, is a wall time scaled to a
reference host speed (``hostspeed.py``), because this host's speed drifts
during a run, and the run's length is counted in scaled time too.  The
median and the tail percentile are Harrell-Davis estimates over the tasks'
scaled times; the throughput is tasks over the sum of their scaled times.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` reports the per-layer metrics of a fixed task set, the first
TRACE_ROUNDS rounds of the seed, so that layer totals compare like with
like across commits; ``--seconds`` does not apply to it.  Each task runs
twice in a row, once untraced and once with the layer functions wrapped
(``spans.py``), alternating which goes first, so host drift falls on both
sides of the tracing overhead.  The run checks that each pair wrote
byte-identical outputs, that every wrapped attribute was restored and that
every task's spans add up.  Spans are written to ``.perfbench_runs/``.

The last line of standard output is the JSON result; the line before it
records the run environment, the tail percentile and its sample count.
Exit status is 0 when the run completes, whether or not outputs were right
(``correct`` says that), and non-zero without a result when it cannot run.
"""

import os

# pinned before numpy is imported, here and in the set-up probes
os.environ.pop("ZOLLFLOW_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
TRACE_ROUNDS = 2
TAIL_BEYOND = 10
WALL_LIMIT = 2.0
SETUP_PROBES = 2

END_TO_END = {
    "setup_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "tasks_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    task: object
    wall: float
    time: float  # wall at the reference host speed (hostspeed.py)
    output: bytes
    failure: str  # None when the output passed its check


def load(workload, seed):
    """Import zollflow from the tree and make the first round of tasks."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from zollflow import cli

    source = Path(cli.__file__).resolve()
    if SRC not in source.parents:
        raise RuntimeError(f"zollflow imported from {source}, not {SRC}")
    rounds = workloads.rounds(workload, seed)
    first = next(rounds)
    return cli, first, rounds


def probe_setup(workload, seed):
    """Time from starting a fresh interpreter to its first task ready, at
    the reference host speed.  The fresh interpreter times the kernel
    itself, because it may run on another core than this process."""
    import hostspeed

    t0 = time.time()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=120).stdout
    ready, kernel = map(float, out.split()[-2:])
    return (ready - t0) * hostspeed.REFERENCE_S / kernel


def environment():
    import numpy
    import scipy
    from zollflow import _accel

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": _accel.backend_name(),
        "threads": {v: os.environ.get(v) for v in (
            "ZOLLFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }


def run_task(cli, checks, clock, task, out):
    """Run one task, time it and check its output."""
    err = io.StringIO()

    def call():
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main([*task.argv, "--out", out])
        except (Exception, SystemExit) as e:  # a failed task, not a crash
            last = (err.getvalue().strip().splitlines() or [""])[-1]
            return time.perf_counter() - t0, None, f"raised {e!r} {last}"
        return time.perf_counter() - t0, code, None

    (wall, code, raised), speed = clock.around(call)
    if raised:
        return Outcome(task, wall, wall * speed, b"", raised)
    data = Path(out).read_bytes() if os.path.exists(out) else b""
    return Outcome(task, wall, wall * speed, data,
                   checks.check(task, code, data.decode()))


def closed_loop(cli, checks, clock, first, rounds, seconds, outdir,
                halfway):
    """Run whole rounds until the tasks' scaled times add up to about
    ``seconds``: stop before a round that, as long as the last one, would
    end more than halfway past them.  Counting scaled time keeps the number
    of tasks, and so the tail percentile, the same whatever the host's
    speed; a run still stops after WALL_LIMIT times ``seconds`` of wall
    time.  ``halfway()`` is called once, between rounds, when half of the
    time has passed."""
    outcomes = []
    start = time.perf_counter()
    spent = 0.0
    rnd = first
    while True:
        done = len(outcomes)
        for task in rnd:
            out = os.path.join(outdir, f"{len(outcomes):05d}.out")
            outcomes.append(run_task(cli, checks, clock, task, out))
        last_round = sum(o.time for o in outcomes[done:])
        spent += last_round
        if halfway and spent >= seconds / 2:
            halfway()
            halfway = None
        if (spent + 0.5 * last_round >= seconds
                or time.perf_counter() - start >= WALL_LIMIT * seconds):
            return outcomes
        rnd = next(rounds)


def paired_trace(cli, checks, clock, spans, tasks, outdir):
    """Run each task untraced and traced, alternating which goes first.

    Returns (untraced outcomes, traced outcomes, tracer, problems), where
    problems lists integrity failures.
    """
    tracer = spans.Tracer()
    plain, traced, problems = [], [], []
    for i, task in enumerate(tasks):
        for wrapped in (False, True) if i % 2 == 0 else (True, False):
            out = os.path.join(outdir, f"{i:05d}-{int(wrapped)}.out")
            if not wrapped:
                plain.append(run_task(cli, checks, clock, task, out))
                continue
            tracer.task = i
            with tracer.installed() as originals:
                traced.append(run_task(cli, checks, clock, task, out))
            problems += [f"{mod.__name__}.{attr} not restored"
                         for mod, attr, fn in originals
                         if getattr(mod, attr) is not fn]
        if plain[-1].output != traced[-1].output:
            problems.append(f"task {i}: traced output differs")
    problems += [f"task {i}: {why}" for i, why in spans.integrity_errors(
        tracer.spans, tasks, [o.wall for o in traced])]
    return plain, traced, tracer, problems


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics, steadier on a few dozen tasks than any single one."""
    from scipy.special import betainc

    ranked = sorted(values)
    n = len(ranked)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ranked))


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0
    p = (n - TAIL_BEYOND) / n
    return quantile(times, p), 100.0 * p


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "flow", "pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=21.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "zollflow" / "__init__.py").is_file():
        print(f"perfbench: no zollflow source under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        load(args.workload, args.seed)
        ready = time.time()
        import hostspeed

        print(repr(ready), repr(hostspeed.kernel_s()))
        return 0

    import hostspeed

    # set-up is timed SETUP_PROBES times at each of three points spread over
    # the run, so that its median sees the same host states as the tasks
    clock = hostspeed.Clock()
    setup = []

    def probe():
        setup.extend(probe_setup(args.workload, args.seed)
                     for _ in range(SETUP_PROBES))

    if not args.trace:
        probe()
    cli, first, rounds = load(args.workload, args.seed)
    import checks
    import spans

    RUNS.mkdir(exist_ok=True)
    problems = []
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        if args.trace:
            tasks = first + [t for _ in range(TRACE_ROUNDS - 1)
                             for t in next(rounds)]
            outcomes, traced, tracer, problems = paired_trace(
                cli, checks, clock, spans, tasks, tmp)
            done = outcomes + traced
        else:
            outcomes = closed_loop(cli, checks, clock, first, rounds,
                                   args.seconds, tmp, halfway=probe)
            done = outcomes
            probe()

    failures = [(" ".join(o.task.argv), o.failure)
                for o in done if o.failure is not None]
    for argv_text, why in failures + [("trace", p) for p in problems]:
        print(f"perfbench: FAILED {argv_text}: {why}", file=sys.stderr)

    times = [o.time for o in outcomes]
    tail_value, tail_pct = tail(times)
    if args.trace:
        overhead = sum(o.time for o in traced) / sum(times) - 1.0
        values = spans.layer_metrics(tracer, overhead)
        units = spans.LAYER_METRICS
        spans_file = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.to_json()))
    else:
        values = {
            "setup_s": statistics.median(setup),
            "task_p50_s": quantile(times, 0.5),
            "task_tail_s": tail_value,
            "tasks_per_s": len(times) / sum(times),
            "ok_frac": 1.0 - sum(o.failure is not None for o in outcomes)
            / len(outcomes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "tasks": len(outcomes), "task_tail_percentile": tail_pct,
            "setup_samples_s": setup,
            "wall_p50_s": statistics.median(o.wall for o in outcomes),
            "kernel_p50_s": statistics.median(clock.kernel_times),
            "reference_kernel_s": hostspeed.REFERENCE_S,
            "env": environment()}
    if args.trace:
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        info["sweep_entries"] = tracer.entries
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

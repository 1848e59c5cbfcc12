"""Tests of the benchmark itself: smoke runs and the output checker.

    python3 -m pytest perfbench -q
"""

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from zollflow import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.fixture
def short_runs(monkeypatch):
    """Rounds cut to their first two tasks, and one traced round."""
    full = workloads.rounds
    monkeypatch.setattr(workloads, "rounds",
                        lambda w, seed: (r[:2] for r in full(w, seed)))
    monkeypatch.setattr(run, "TRACE_ROUNDS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace, short_runs, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out, err = capsys.readouterr()
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, err
    assert result["attempted"] == 2 * (1 + trace)
    assert result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "certify", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_clock_scales_by_the_kernel_around_each_step(monkeypatch):
    kernel = iter([0.04, 0.06, 0.02])
    monkeypatch.setattr(hostspeed, "kernel_s", lambda: next(kernel))
    clock = hostspeed.Clock()
    ref = hostspeed.REFERENCE_S
    assert clock.around(lambda: "a") == ("a", pytest.approx(ref / 0.05))
    # the kernel after one step is the kernel before the next
    assert clock.around(lambda: "b") == ("b", pytest.approx(ref / 0.04))
    assert clock.kernel_times == [0.04, 0.06, 0.02]


def test_seed_fixes_the_tasks():
    def first_rounds(seed):
        gen = workloads.rounds("certify", seed)
        return [next(gen) for _ in range(3)]

    assert first_rounds(5) == first_rounds(5)
    assert first_rounds(5) != first_rounds(6)


def _task(workload, command, surface, **fields):
    gen = workloads.rounds(workload, 0)
    for _ in range(3):
        for task in next(gen):
            if task.command == command and task.surface == surface and all(
                    getattr(task, k) == v for k, v in fields.items()):
                return task
    raise LookupError((workload, command, surface, fields))


def _output(task, tmp_path):
    out = tmp_path / "out"
    with redirect_stderr(io.StringIO()):
        code = cli.main([*task.argv, "--out", str(out)])
    return code, out.read_text()


def test_checker_rejects_a_period_off_by_1e_3(tmp_path):
    task = _task("certify", "verify-zoll", "michel")
    code, text = _output(task, tmp_path)
    assert checks.check(task, code, text) is None
    lines = text.splitlines()
    c, period, err = lines[-3].split(",")
    lines[-3] = ",".join([c, repr(float(period) + 1e-3), err])
    assert "period" in checks.check(task, code, "\n".join(lines) + "\n")


def test_checker_rejects_a_certified_gong(tmp_path):
    task = _task("certify", "weinstein", "gong_normalized")
    code, text = _output(task, tmp_path)
    assert code == 2 and checks.check(task, code, text) is None
    assert "exit 0" in checks.check(task, 0, text)


def test_checker_rejects_a_wrong_lprime(tmp_path):
    task = _task("pipeline", "lprime", "gong_normalized")
    code, text = _output(task, tmp_path)
    assert checks.check(task, code, text) is None
    report = json.loads(text)
    report["numeric"] += 2e-3
    assert "numeric" in checks.check(task, code, json.dumps(report))
    report["numeric"] -= 2e-3
    report["flagged"] = True
    assert "flagged" in checks.check(task, code, json.dumps(report))


def test_checker_rejects_a_zoll_verdict_on_a_flowed_gong(tmp_path):
    task = _task("pipeline", "flow", "gong_raw")
    code, text = _output(task, tmp_path)
    assert checks.check(task, code, text) is None
    head, last = text.rstrip("\n").rsplit("\n", 1)
    fields = last.split(",")
    fields[-1] = "0"  # period spread
    assert "spread" in checks.check(task, code,
                                    head + "\n" + ",".join(fields))


def test_integrity_check_catches_a_missing_layer():
    task = _task("flow", "flow", "round")
    tracer = spans.Tracer()
    tracer.task = 0
    main = tracer.wrap("cli.main", lambda: tracer.wrap(
        "cli.atomic_write", lambda: None)())
    t0 = time.perf_counter()
    main()
    wall = time.perf_counter() - t0
    errors = spans.integrity_errors(tracer.spans, [task], [wall])
    assert any("ricci.evolve" in why for _, why in errors)


def test_checker_rejects_a_wrong_flow(tmp_path):
    task = _task("flow", "flow", "gong_raw", nodes=512)
    code, text = _output(task, tmp_path)
    assert checks.check(task, code, text) is None
    head, last = text.rstrip("\n").rsplit("\n", 1)
    fields = last.split(",")
    fields[1] = repr(float(fields[1]) + 1e-4)  # equator length
    assert "reference" in checks.check(task, code,
                                       head + "\n" + ",".join(fields))
    fields = last.split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-8))  # area
    assert "area" in checks.check(task, code, head + "\n" + ",".join(fields))
    assert "exit 3" in checks.check(task, 3, text)


@pytest.mark.parametrize("workload", ["flow", "pipeline"])
def test_reference_covers_every_flow_task(workload):
    gen = workloads.rounds(workload, 0)
    for _ in range(6):
        for task in next(gen):
            if task.command == "flow" and task.surface != "round":
                key = f"{task.surface}/{task.nodes}/{task.T!r}"
                assert key in checks.REFERENCE["equator_length"]


"""Command-line front end: configs, formats, exit codes, determinism."""

import collections
import dataclasses
import importlib
import json
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zollflow import _accel, cli, geodesics
from zollflow.errors import NumericalAbort

FOUR_PI = 4.0 * np.pi
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def run(argv):
    return cli.main(argv)


POSITIVE = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.integers(1, 10 ** 20))


@st.composite
def valid_configs(draw):
    surface = draw(st.sampled_from(cli.SURFACES))
    coeffs = ()
    if surface == "michel":
        # h = a x (1 - x^2) + b x^3 (1 - x^2), sup |h| < 1
        a, b = draw(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)))
        coeffs = (a, b - a, -b)
    return cli.RunConfig(
        surface=surface, coeffs=coeffs,
        n_nodes=draw(st.integers(64, 10 ** 20)),
        n_samples=draw(st.integers(2, 10 ** 20)),
        horizon=draw(POSITIVE), T=draw(POSITIVE),
        checkpoint_every=draw(st.one_of(
            st.floats(min_value=0.0, allow_infinity=False),
            st.integers(0, 10 ** 20))),
        sweep_checkpoints=draw(st.booleans()),
        # a name in the working directory, which exists
        out=draw(st.text().filter(lambda t: "/" not in t))).validate()


class TestConfig:
    def test_round_trip_identity(self):
        c = cli.RunConfig(surface="michel", coeffs=(0.2, -0.2), n_nodes=256)
        again = cli.RunConfig.from_dict(json.loads(json.dumps(c.to_dict())))
        assert again == c

    def test_unknown_field_rejected(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.RunConfig.from_dict({"bogus": 1})

    def test_field_path_in_message(self):
        with pytest.raises(cli.ConfigError, match="n_nodes"):
            cli.RunConfig(n_nodes=8).validate()
        with pytest.raises(cli.ConfigError, match="surface"):
            cli.RunConfig(surface="torus").validate()
        with pytest.raises(cli.ConfigError, match="coeffs"):
            cli.RunConfig(surface="michel", coeffs=(0.5, 0.5)).validate()

    def test_digest_stable(self):
        assert cli.RunConfig().digest() == "631ed1b90dfc5541"

    @settings(max_examples=200, deadline=None)
    @given(config=valid_configs())
    def test_digest_payload_is_sorted_json(self, config):
        # the formatted payload is the JSON of every field but out, keys
        # sorted, so config hashes keep their values
        fields = config.to_dict()
        del fields["out"]
        assert config.digest_payload() == json.dumps(fields, sort_keys=True)

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"surface": "round", "n_nodes": 256}))
        out = tmp_path / "d.json"
        assert run(["describe", "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["surface"] == "round"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["describe", "--surface", "round", "--nodes", "8"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags, field", [
        (None, ["--surface", "michel", "--coeffs", "0.3,abc"], "coeffs"),
        ({"n_nodes": "abc"}, [], "n_nodes"),
        ([1, 2], [], "c.json"),
        ({"horizon": float("nan")}, [], "horizon: must be finite"),
        (b"\xff{}", [], "can't decode byte 0xff"),
        # non-finite coefficients are refused by their own check, before
        # numpy computes with them, so no RuntimeWarning comes first
        (None, ["--surface", "michel", "--coeffs", "inf,-inf", "--nodes",
                "64"], "config error: coeffs: coefficients must be finite"),
        (None, ["--surface", "michel", "--coeffs", "0.3,nan", "--nodes",
                "64"], "config error: coeffs: coefficients must be finite"),
    ])
    def test_malformed_input_is_config_error(self, tmp_path, capsys,
                                             config, flags, field):
        if config is not None:
            cfg = tmp_path / "c.json"
            if not isinstance(config, bytes):
                config = json.dumps(config).encode()
            cfg.write_bytes(config)
            flags = ["--config", str(cfg)] + flags
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["describe"] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_out_in_missing_directory_is_config_error(self, tmp_path,
                                                      capsys):
        # refused before any computation, so nothing is written
        out = tmp_path / "missing" / "x.json"
        assert run(["describe", "--surface", "round", "--nodes", "64",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: out: directory "
                       f"{str(out.parent)!r} does not exist\n")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_is_one_line_error(self, tmp_path, capsys):
        # a directory where the report should go: the write fails after
        # the computation, with one line and exit 1, and leaves no file
        out = tmp_path / "report.json"
        out.mkdir()
        assert run(["describe", "--surface", "round", "--nodes", "64",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert [q.name for q in tmp_path.iterdir()] == ["report.json"]

    def test_michel_flow(self, tmp_path, capsys):
        # a nonzero odd function gives a gauge with no reflection
        # symmetry, which flows on the whole grid; it starts on the Zoll
        # surface's equator, of length 2 pi, and leaves it
        out = tmp_path / "f.csv"
        assert run(["flow", "--surface", "michel", "--coeffs", "0.3,-0.3",
                    "--nodes", "1024", "--T", "0.1", "--checkpoint-every",
                    "0.05", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [[float(v) for v in ln.split(",")]
                for ln in out.read_text().splitlines()
                if ln and not ln.startswith(("#", "t,"))]
        assert [r[0] for r in rows] == [0.0, 0.05, 0.1]
        assert rows[0][1] == pytest.approx(2.0 * np.pi, abs=1e-9)
        assert rows[-1][1] < 2.0 * np.pi - 1e-3
        for _t, _length, _k_dev, area, _k_bar in rows:
            assert area == pytest.approx(FOUR_PI, abs=1e-8)

    def test_michel_flow_without_coeffs(self, tmp_path):
        # h = 0 is the round sphere, and flows as one
        out = tmp_path / "f.csv"
        assert run(["flow", "--surface", "michel", "--nodes", "256",
                    "--T", "0.001", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith(("#", "t,"))]
        assert len(rows) == 2
        for _t, length, k_dev, area, _k_bar in rows:
            assert float(length) == pytest.approx(2.0 * np.pi, rel=1e-9)
            assert float(k_dev) < 1e-8
            assert float(area) == pytest.approx(FOUR_PI, rel=1e-9)

    def test_tiny_horizon_is_reached(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run(["flow", "--nodes", "64", "--T", "1e-20",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith(("#", "t,"))]
        assert [float(r[0]) for r in rows] == [0.0, 1e-20]

    def test_numerical_abort_exit_code(self, monkeypatch, capsys):
        def abort(*args, **kwargs):
            raise NumericalAbort("find_period: step budget exhausted")
        monkeypatch.setattr(geodesics, "find_period", abort)
        assert run(["verify-zoll", "--surface", "round", "--nodes", "256",
                    "--samples", "3"]) == 3
        assert "numerical abort" in capsys.readouterr().err

    def test_untyped_runtime_error_propagates(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("not a numerical abort")
        monkeypatch.setattr(geodesics, "find_period", fail)
        with pytest.raises(RuntimeError, match="not a numerical abort"):
            run(["verify-zoll", "--surface", "round", "--nodes", "256",
                 "--samples", "3"])

    def test_verify_pass_and_fail(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["verify-zoll", "--surface", "round", "--nodes", "512",
                    "--samples", "4", "--out", str(out)]) == 0
        assert run(["verify-zoll", "--surface", "gong_normalized",
                    "--nodes", "512", "--samples", "3",
                    "--out", str(out)]) == 2


class TestDescribe:
    def test_round(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert run(["describe", "--surface", "round", "--nodes", "512",
                    "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["area"] == pytest.approx(FOUR_PI, rel=1e-7)
        assert d["K_equator"] == pytest.approx(1.0, abs=1e-6)
        assert d["S"] == pytest.approx(np.pi, abs=1e-7)

    def test_gong(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["describe", "--surface", "gong_normalized",
                    "--nodes", "1024", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["K_equator"] == pytest.approx(4 * (2 - np.sqrt(2)), abs=1e-6)
        assert d["equator_length"] == pytest.approx(2 * np.pi, abs=1e-7)

    def test_stdout_when_no_out(self, capsys):
        assert run(["describe", "--surface", "round", "--nodes", "256"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["surface"] == "round"


class TestOutputs:
    def test_csv_header_and_hash(self, tmp_path):
        out = tmp_path / "r.csv"
        run(["verify-zoll", "--surface", "round", "--nodes", "512",
             "--samples", "4", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[2] == "clairaut_c,period,closure_error"
        assert len(lines) == 3 + 4

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(["verify-zoll", "--surface", "michel", "--coeffs",
                 "0.1,-0.1", "--nodes", "512", "--samples", "4",
                 "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_flow_series(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run(["flow", "--surface", "round", "--nodes", "256",
                    "--T", "0.01", "--checkpoint-every", "0.005",
                    "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "t,equator_length,max_abs_K_minus_1,area,K_bar"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 3
        lengths = [float(r[1]) for r in rows]
        # round sphere: constant up to the quadrature bias of the grid
        assert max(lengths) - min(lengths) < 1e-9

    def test_weinstein_round(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["weinstein", "--surface", "round", "--nodes", "512",
                    "--samples", "4", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["certified"]
        assert d["i_nearest"] == 1
        assert d["discreteness"]["passed"]

    def test_weinstein_refuses_non_integer_i(self, tmp_path, monkeypatch):
        # a common period 2 pi sqrt 2 on the round sphere gives i = 1/2,
        # which the 2/L^2 test alone would accept
        period = 2.0 * np.pi * np.sqrt(2.0)
        report = geodesics.PeriodReport(entries=[
            geodesics.PeriodEntry(clairaut_c=c, period=period,
                                  closure_error=0.0, converged=True)
            for c in (0.0, 0.5, 1.0)])
        monkeypatch.setattr(geodesics, "zoll_sweep", lambda *a, **k: report)
        out = tmp_path / "w.json"
        assert run(["weinstein", "--surface", "round", "--nodes", "512",
                    "--samples", "3", "--out", str(out)]) == 2
        d = json.loads(out.read_text())
        assert not d["certified"]
        assert d["i_value"] == pytest.approx(0.5, abs=1e-9)
        assert "not a positive integer" in d["reason"]
        assert d["discreteness"]["passed"]

    def test_weinstein_gong_fails(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["weinstein", "--surface", "gong_normalized",
                    "--nodes", "512", "--samples", "3",
                    "--out", str(out)]) == 2
        assert not json.loads(out.read_text())["certified"]

    def test_lprime_round_clean(self, tmp_path):
        out = tmp_path / "l.json"
        assert run(["lprime", "--surface", "round", "--nodes", "512",
                    "--samples", "4", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert abs(d["analytic"]) < 1e-6
        assert not d["zoll_not_preserved"]

    def test_lprime_round_numeric_vanishes(self, tmp_path):
        out = tmp_path / "l.json"
        assert run(["lprime", "--surface", "round", "--nodes", "512",
                    "--samples", "4", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert abs(d["numeric"]) < 1e-12
        assert d["flagged"] is False

    def test_lprime_gongs_report_one_surface(self, tmp_path):
        # both gongs flow as the one area-4 pi gong, and analytic is taken
        # on that surface too, by the scale law l'(0) ~ 1/lambda
        reports = []
        for surface in ("gong_raw", "gong_normalized"):
            out = tmp_path / f"{surface}.json"
            assert run(["lprime", "--surface", surface, "--nodes", "512",
                        "--samples", "4", "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        raw, normalized = reports
        assert raw["analytic"] == pytest.approx(normalized["analytic"],
                                                rel=1e-9)
        for d in reports:
            assert d["analytic"] == pytest.approx(d["numeric"], abs=1e-3)

    def test_michel_odd_function_built_once(self, tmp_path, monkeypatch):
        from zollflow import catalog
        built = []

        class Counted(catalog.OddFunction):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(catalog, "OddFunction", Counted)
        assert run(["lprime", "--surface", "michel", "--coeffs", "0.3,-0.3",
                    "--nodes", "256", "--samples", "3",
                    "--out", str(tmp_path / "m.json")]) == 0
        assert len(built) == 1

    def test_lprime_michel_numeric_by_symmetry(self, tmp_path):
        # both symmetry classes flow: h = 0 (symmetric, half grid) as the
        # round sphere; a nonzero h (no symmetry, whole grid) keeps its
        # equator's length to first order, as on the Zoll surface
        # l'(0) = -2 pi (K_eq - 1) = 0
        reports = {}
        for name, coeffs in (("h0", []), ("h", ["--coeffs", "0.3,-0.3"])):
            out = tmp_path / f"{name}.json"
            assert run(["lprime", "--surface", "michel", "--nodes", "512",
                        "--samples", "4", "--out", str(out)] + coeffs) == 0
            reports[name] = json.loads(out.read_text())
        out = tmp_path / "round.json"
        assert run(["lprime", "--surface", "round", "--nodes", "512",
                    "--samples", "4", "--out", str(out)]) == 0
        round_numeric = json.loads(out.read_text())["numeric"]
        assert reports["h0"]["flagged"] is False
        assert reports["h0"]["numeric"] == pytest.approx(round_numeric,
                                                         abs=1e-8)
        assert abs(reports["h0"]["numeric"]) < 1e-6
        assert reports["h"]["flagged"] is False
        assert abs(reports["h"]["numeric"]) < 1e-4
        assert reports["h"]["certified_zoll"] is True
        assert reports["h"]["zoll_not_preserved"] is False


class TestParser:
    """The option table: every usage error is a config error (exit 1)."""

    @pytest.mark.parametrize("argv, message", [
        (["flow", "--bogus", "1"], "--bogus: unknown option"),
        (["flow", "--node", "256"], "--node: unknown option"),
        (["flow", "--nodes", "abc"], "--nodes: expected an integer"),
        (["flow", "--nodes=2.5"], "--nodes: expected an integer"),
        (["flow", "--T", "soon"], "--T: expected a number"),
        (["flow", "--nodes"], "--nodes: expected a value"),
        (["flow", "--nodes", "--T", "0.1"], "--nodes: expected a value"),
        (["flow", "--sweep-checkpoints=yes"], "takes no value"),
        ([], "no command"),
        (["--surface", "round"], "no command"),
        (["frobnicate"], "unknown command 'frobnicate'"),
        (["flow", "describe"], "unexpected argument 'describe'"),
        (["flow", "-x"], "-x: unknown option"),
        (["flow", "--nodes", "64", "--T", "inf"], "T: must be finite"),
        (["flow", "--nodes", "64", "--T", "nan"], "T: must be finite"),
        (["flow", "--nodes", "64", "--T", "0.01", "--checkpoint-every",
          "nan"], "checkpoint_every: must be finite"),
        (["verify-zoll", "--nodes", "64", "--horizon", "nan"],
         "horizon: must be finite"),
    ])
    def test_usage_errors_exit_1(self, capsys, argv, message):
        assert run(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, capsys, flag):
        assert run(["flow", flag]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: zollflow COMMAND")
        for option, *_ in cli.OPTIONS:
            assert option in out
        for command in cli.COMMANDS:
            assert command in out

    def test_value_forms(self):
        command, values = cli.parse_args(
            ["--nodes=256", "flow", "--T", "0.5", "--coeffs=-0.3,0.3",
             "--sweep-checkpoints", "--out", "x.csv"])
        assert command == "flow"
        assert values == {"n_nodes": 256, "T": 0.5,
                          "coeffs": ["-0.3", "0.3"],
                          "sweep_checkpoints": True, "out": "x.csv"}
        # a value may start with "-" when it is a separate argument
        assert cli.parse_args(["flow", "--coeffs", "-0.3,0.3"])[1] \
            == {"coeffs": ["-0.3", "0.3"]}
        # the last occurrence wins
        assert cli.parse_args(["flow", "--nodes", "64", "--nodes=128"])[1] \
            == {"n_nodes": 128}

    def test_coeffs_forms_give_the_same_output(self, tmp_path):
        outs = []
        for i, coeffs in enumerate((["--coeffs=-0.3,0.3"],
                                    ["--coeffs", "-0.3,0.3"])):
            out = tmp_path / f"{i}.json"
            assert run(["describe", "--surface", "michel", "--nodes", "256",
                        "--out", str(out)] + coeffs) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["surface"] == "michel"

    def test_every_option_sets_a_config_field(self):
        fields = {f.name: f.type for f in dataclasses.fields(cli.RunConfig)}
        for option, field, kind, *_ in cli.OPTIONS:
            if field == "config":
                continue
            assert field in fields
            if kind in (int, float, bool, str):
                assert kind is fields[field]


class TestConformalRoute:
    def test_gong_flow_converts_the_meridian_through_cli(self, tmp_path,
                                                         monkeypatch):
        # the gauge conversion goes through the wrapped name
        # cli.to_conformal, so a trace of cli.main covers it
        seen = []
        real = cli.to_conformal

        def recorded(surface, *args, **kwargs):
            seen.append(type(surface).__name__)
            return real(surface, *args, **kwargs)

        def no_arclength(*args, **kwargs):
            raise AssertionError("flow went through to_arclength")

        monkeypatch.setattr(cli, "to_conformal", recorded)
        monkeypatch.setattr(cli, "to_arclength", no_arclength)
        assert run(["flow", "--surface", "gong_raw", "--nodes", "256",
                    "--T", "0.001", "--out", str(tmp_path / "f.csv")]) == 0
        assert seen == ["MeridianCurve"]

    def test_michel_flow_converts_the_odd_function(self, tmp_path,
                                                   monkeypatch):
        # a Michel surface's gauge comes straight from its odd function:
        # no arc-length profile is built on the way
        from zollflow import catalog
        seen = []
        real = cli.to_conformal

        def recorded(surface, *args, **kwargs):
            seen.append(surface)
            return real(surface, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("flow built an arc-length profile")

        monkeypatch.setattr(cli, "to_conformal", recorded)
        monkeypatch.setattr(cli, "to_arclength", refused)
        monkeypatch.setattr(catalog, "michel_surface", refused)
        assert run(["flow", "--surface", "michel", "--coeffs", "0.3,-0.3",
                    "--nodes", "256", "--T", "0.001",
                    "--out", str(tmp_path / "f.csv")]) == 0
        assert seen == [catalog.OddFunction((0.3, -0.3))]


class TestBenchmarkNames:
    """The traced benchmark (perfbench/spans.py) wraps package names at run
    time, so a rename would otherwise fail only there."""

    def test_wrapped_names_resolve(self):
        # run_path compiles the source and writes no bytecode next to it
        wrapped = runpy.run_path(str(SPANS))["WRAPPED"]
        assert wrapped
        for mod_name, attr, _span in wrapped:
            module = importlib.import_module(f"zollflow.{mod_name}")
            assert callable(getattr(module, attr, None)), (mod_name, attr)

    def test_task_classes_record_expected_spans(self, tmp_path):
        # one task of every (command, surface, swept) class the workloads
        # draw, at 257 nodes, run under the benchmark's tracer: each span
        # the benchmark's integrity check expects must be recorded
        workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
        spans = runpy.run_path(str(PERFBENCH / "spans.py"))
        classes = {}
        for workload in ("certify", "flow", "pipeline"):
            rounds = workloads["rounds"](workload, 0)
            for _ in range(3):
                for task in next(rounds):
                    classes.setdefault(
                        (task.command, task.surface, bool(task.samples)),
                        task)
        assert len(classes) == 15, sorted(classes)
        tracer = spans["Tracer"]()
        recorded = collections.defaultdict(set)
        for i, task in enumerate(classes.values()):
            argv = list(task.argv)
            argv[argv.index("--nodes") + 1] = "257"
            tracer.task = i
            with tracer.installed():
                run([*argv, "--out", str(tmp_path / f"{i}.out")])
        for name, _start, _end, _parent, task_id, _error in tracer.spans:
            recorded[task_id].add(name)
        for i, task in enumerate(classes.values()):
            missing = spans["expected_spans"](task) - recorded[i]
            assert not missing, (task.argv, missing)

    def test_backend_name(self):
        assert isinstance(_accel.backend_name(), str)

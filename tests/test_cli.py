"""Command-line front end: configs, formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from zollflow import cli, geodesics
from zollflow.errors import NumericalAbort

FOUR_PI = 4.0 * np.pi


def run(argv):
    return cli.main(argv)


class TestConfig:
    def test_round_trip_identity(self):
        c = cli.RunConfig(surface="michel", coeffs=(0.2, -0.2), n_nodes=256)
        again = cli.RunConfig.from_dict(json.loads(c.to_json()))
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
        a = cli.RunConfig().digest()
        b = cli.RunConfig().digest()
        assert a == b and len(a) == 16

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

    def test_michel_flow_rejected(self, capsys):
        assert run(["flow", "--surface", "michel", "--coeffs", "0.2,-0.2",
                    "--nodes", "256", "--T", "0.001"]) == 1

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

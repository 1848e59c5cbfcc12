"""Command-line front end.

Subcommands: describe, verify-zoll, flow, weinstein, lprime.  One command
per process.  Reports are JSON, data series are CSV with a comment header
carrying the config hash; all floats print with 17 significant digits so
identical configs give byte-identical outputs.

Exit codes: 0 success, 1 usage or config error, 2 certification failure
(no common geodesic period, or a nonzero first variation on a certified
surface), 3 numerical abort.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import numbers
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import catalog, geodesics, ricci, weinstein
from .errors import (FlowInstabilityError, GaugeError, NoClosureError,
                     NumericalAbort, QuadratureError, ZollCertificationError)
from .profile import (FOUR_PI, ConformalProfile, conformal_to_arclength,
                      curvature_arclength, normalize_to_volume, to_arclength,
                      to_conformal)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERT = 2
EXIT_NUMERIC = 3

# catalog meridian of each surface; michel is built from its odd function
MERIDIANS = {"round": catalog.round_sphere, "gong_raw": catalog.gong_raw,
             "gong_normalized": catalog.gong_normalized, "michel": None}
SURFACES = tuple(MERIDIANS)
DEFAULT_LPRIME_DTS = (1e-3, 5e-4, 2.5e-4)


# accepted value types of the int and float config fields
FIELD_KINDS = {int: numbers.Integral, float: numbers.Real}


class ConfigError(ValueError):
    """Invalid RunConfig field; message carries the field path."""


@dataclass
class RunConfig:
    surface: str = "round"
    coeffs: tuple = ()
    n_nodes: int = 2048
    n_samples: int = 32
    tol: float = 1e-10
    closure_tol: float = 1e-6
    horizon: float = geodesics.DEFAULT_HORIZON
    T: float = 0.1
    checkpoint_every: float = 0.0
    dt: float = 0.0
    sweep_checkpoints: bool = False
    out: str = ""

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind = FIELD_KINDS.get(f.type, f.type)
            if (not isinstance(value, kind)
                    or (isinstance(value, bool) and f.type is not bool)):
                raise ConfigError(
                    f"{f.name}: expected {f.type.__name__}, got {value!r}")
        if self.surface not in SURFACES:
            raise ConfigError(f"surface: {self.surface!r} not one of {SURFACES}")
        if self.surface == "michel":
            try:
                catalog.OddFunction(tuple(self.coeffs))
            except ValueError as e:
                raise ConfigError(f"coeffs: {e}") from e
        elif self.coeffs:
            raise ConfigError("coeffs: only meaningful with surface=michel")
        if self.n_nodes < 64:
            raise ConfigError(f"n_nodes: {self.n_nodes} below minimum 64")
        if self.n_samples < 2:
            raise ConfigError(f"n_samples: {self.n_samples} below minimum 2")
        for name in ("tol", "closure_tol", "horizon", "T"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name}: must be positive")
        for name in ("checkpoint_every", "dt"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name}: must be non-negative")
        return self

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["coeffs"] = list(self.coeffs)
        return d

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in dataclasses.fields(cls)}
        for k in d:
            if k not in known:
                raise ConfigError(f"{k}: unknown config field")
        d = dict(d)
        if "coeffs" in d:
            try:
                d["coeffs"] = tuple(float(c) for c in d["coeffs"])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"coeffs: {e}") from e
        return cls(**d).validate()

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def digest(self):
        d = self.to_dict()
        d.pop("out")  # hash identifies the computation, not the destination
        payload = json.dumps(d, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def fmt_float(x):
    return "%.17g" % float(x)


def atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".zollflow-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(config, text):
    if config.out:
        atomic_write(config.out, text)
    else:
        sys.stdout.write(text)


def _header_lines(config):
    return [f"# config_hash={config.digest()}",
            f"# defaults n_nodes={config.n_nodes} n_samples={config.n_samples}"
            f" tol={fmt_float(config.tol)}"
            f" closure_tol={fmt_float(config.closure_tol)}"]


def build_profile(config):
    """Arc-length profile of the configured surface."""
    meridian = MERIDIANS[config.surface]
    if meridian is None:
        h = catalog.OddFunction(tuple(config.coeffs))
        return catalog.michel_surface(h, n_nodes=config.n_nodes)
    return to_arclength(meridian(), n_nodes=config.n_nodes)


def build_conformal(config):
    """Conformal profile for the flow: area-normalized to 4 pi first."""
    if config.surface == "round":
        return ConformalProfile(u=np.zeros(config.n_nodes))
    meridian = MERIDIANS[config.surface]
    if meridian is None:
        raise ConfigError(
            "surface: the flow front end requires a reflection-symmetric "
            "surface (round or gong)")
    m = normalize_to_volume(meridian())
    p = to_arclength(m, n_nodes=4 * config.n_nodes + 1)
    return to_conformal(p, n_nodes=config.n_nodes)


def _json_report(config, payload):
    payload = {"config_hash": config.digest(), **payload}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_describe(config):
    p = build_profile(config)
    s_eq, rho_eq = p.equator()
    report = {
        "surface": config.surface,
        "area": float(p.area()),
        "K_bar": float(FOUR_PI / p.area()),
        "K_equator": float(curvature_arclength(p, s_eq)),
        "S": float(p.total_length),
        "equator_length": float(2.0 * np.pi * rho_eq),
    }
    _emit(config, _json_report(config, report))
    return EXIT_OK


def _sweep(config, p):
    return geodesics.zoll_sweep(
        p, n_samples=config.n_samples, tol=config.closure_tol,
        integrator_tol=config.tol, horizon=config.horizon)


def _report_csv(config, report):
    lines = _header_lines(config)
    lines.append("clairaut_c,period,closure_error")
    for c, period, err in report.to_csv_rows():
        lines.append(",".join(fmt_float(v) for v in (c, period, err)))
    return "\n".join(lines) + "\n"


def cmd_verify_zoll(config):
    p = build_profile(config)
    report = _sweep(config, p)
    _emit(config, _report_csv(config, report))
    print(f"period spread = {fmt_float(report.spread)} over "
          f"{len(report.entries)} samples", file=sys.stderr)
    try:
        weinstein.common_period(report)
    except ZollCertificationError:
        print("certification FAILED: no common geodesic period",
              file=sys.stderr)
        return EXIT_CERT
    return EXIT_OK


def cmd_flow(config):
    c0 = build_conformal(config)
    states = ricci.evolve(ricci.make_state(c0), config.T,
                          checkpoint_every=config.checkpoint_every or None,
                          dt_cap=config.dt)
    lines = _header_lines(config)
    cols = "t,equator_length,max_abs_K_minus_1,area,K_bar"
    if config.sweep_checkpoints:
        cols += ",period_spread"
    lines.append(cols)
    for st in states:
        row = [st.t, st.equator_length(), st.max_abs_k_minus_1, st.area,
               st.k_bar]
        if config.sweep_checkpoints:
            p = conformal_to_arclength(st.profile)
            row.append(_sweep(config, p).spread)
        lines.append(",".join(fmt_float(v) for v in row))
    _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_weinstein(config):
    p = build_profile(config)
    report = _sweep(config, p)
    try:
        L, uncertainty = weinstein.common_period(report)
    except ZollCertificationError as e:
        _emit(config, _json_report(config, {
            "certified": False, "reason": str(e),
            "period_spread": report.spread}))
        return EXIT_CERT
    datum = weinstein.weinstein_integer(p.area(), L)
    verdict = weinstein.discreteness_check(p.area(), L) \
        if abs(p.area() - FOUR_PI) < 1e-6 else None
    payload = {
        "certified": True,
        "L": L,
        "L_uncertainty": uncertainty,
        "i_value": datum.i_value,
        "i_nearest": datum.nearest,
        "i_residual": datum.residual,
    }
    if verdict is not None:
        payload["discreteness"] = {
            "passed": verdict.passed, "integer": verdict.integer,
            "value": verdict.value}
    _emit(config, _json_report(config, payload))
    return EXIT_OK


def cmd_lprime(config):
    p = build_profile(config)
    analytic = ricci.lprime_analytic(p)

    numeric = None
    residual = None
    flagged = None
    if config.surface != "michel":
        c0 = build_conformal(config)
        res = ricci.lprime_numeric(ricci.make_state(c0), DEFAULT_LPRIME_DTS)
        numeric, residual, flagged = res.value, res.residual, res.flagged

    certified = True
    try:
        weinstein.common_period(_sweep(config, p))
    except ZollCertificationError:
        certified = False

    contradiction = certified and abs(analytic) > 1e-3
    payload = {
        "analytic": analytic,
        "numeric": numeric,
        "residual": residual,
        "flagged": flagged,
        "certified_zoll": certified,
        "zoll_not_preserved": contradiction,
    }
    _emit(config, _json_report(config, payload))
    return EXIT_CERT if contradiction else EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="zollflow",
        description="Surfaces of revolution: geodesic periods, curvature, "
                    "normalized Ricci flow.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("describe", "verify-zoll", "flow", "weinstein", "lprime"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file; flags override")
        sp.add_argument("--surface", choices=SURFACES)
        sp.add_argument("--coeffs", help="comma-separated odd-polynomial "
                                         "coefficients (michel)")
        sp.add_argument("--nodes", type=int, dest="n_nodes")
        sp.add_argument("--samples", type=int, dest="n_samples")
        sp.add_argument("--tol", type=float)
        sp.add_argument("--horizon", type=float)
        sp.add_argument("--T", type=float, dest="T")
        sp.add_argument("--dt", type=float)
        sp.add_argument("--checkpoint-every", type=float,
                        dest="checkpoint_every")
        sp.add_argument("--sweep-checkpoints", action="store_true",
                        default=None)
        sp.add_argument("--out")
    return ap


def config_from_args(args):
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ConfigError(f"{args.config}: not a JSON object")
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    if "coeffs" in overrides:
        overrides["coeffs"] = [c for c in overrides["coeffs"].split(",")
                               if c.strip()]
    base.update(overrides)
    return RunConfig.from_dict(base)


COMMANDS = {
    "describe": cmd_describe,
    "verify-zoll": cmd_verify_zoll,
    "flow": cmd_flow,
    "weinstein": cmd_weinstein,
    "lprime": cmd_lprime,
}


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        config = config_from_args(args)
    except (ConfigError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except GaugeError as e:
        print(f"gauge error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FlowInstabilityError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        if e.state is not None and config.out:
            snap = config.out + ".abort.json"
            atomic_write(snap, json.dumps(
                {"t": e.state.t, "u": [float(x) for x in e.state.profile.u]}))
            print(f"last good state written to {snap}", file=sys.stderr)
        return EXIT_NUMERIC
    except (NoClosureError, NumericalAbort, QuadratureError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

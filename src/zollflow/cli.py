"""Command-line front end.

Subcommands: describe, verify-zoll, flow, weinstein, lprime.  One command
per process.  Reports are JSON, data series are CSV with a comment header
carrying the config hash; all floats print with 17 significant digits so
identical configs give byte-identical outputs.

Exit codes: 0 success, 1 usage or config error, 2 certification failure
(no common geodesic period, or a nonzero first variation on a certified
surface), 3 numerical abort.
"""

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import catalog, geodesics, ricci, weinstein
from .errors import (FlowInstabilityError, GaugeError, NoClosureError,
                     NumericalAbort, QuadratureError, ZollCertificationError)
from .profile import (FOUR_PI, TWO_PI, ConformalProfile,
                      conformal_to_arclength, curvature_arclength,
                      normalize_to_volume, to_arclength, to_conformal)

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
    horizon: float = geodesics.DEFAULT_HORIZON
    T: float = 0.1
    checkpoint_every: float = 0.0
    sweep_checkpoints: bool = False
    out: str = ""

    @functools.cached_property
    def odd_function(self):
        """The Michel surface's odd function, built once per config."""
        return catalog.OddFunction(tuple(self.coeffs))

    def validate(self):
        for f in CONFIG_FIELDS:
            value = getattr(self, f.name)
            kind = FIELD_KINDS.get(f.type, f.type)
            if (not isinstance(value, kind)
                    or (isinstance(value, bool) and f.type is not bool)):
                raise ConfigError(
                    f"{f.name}: expected {f.type.__name__}, got {value!r}")
            # rejects NaN and +-inf, and takes any int
            if f.type is float and not -math.inf < value < math.inf:
                raise ConfigError(f"{f.name}: must be finite, got {value!r}")
        if self.surface not in SURFACES:
            raise ConfigError(f"surface: {self.surface!r} not one of {SURFACES}")
        if self.surface == "michel":
            try:
                self.odd_function
            except ValueError as e:
                raise ConfigError(f"coeffs: {e}") from e
        elif self.coeffs:
            raise ConfigError("coeffs: only meaningful with surface=michel")
        if self.n_nodes < 64:
            raise ConfigError(f"n_nodes: {self.n_nodes} below minimum 64")
        if self.n_samples < 2:
            raise ConfigError(f"n_samples: {self.n_samples} below minimum 2")
        for name in ("horizon", "T"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name}: must be positive")
        if self.checkpoint_every < 0.0:
            raise ConfigError("checkpoint_every: must be non-negative")
        if self.out:
            d = os.path.dirname(os.path.abspath(self.out))
            if not os.path.isdir(d):
                raise ConfigError(f"out: directory {d!r} does not exist")
        return self

    def to_dict(self):
        # the fields are scalars and one tuple, so no deep copy is needed
        d = {f.name: getattr(self, f.name) for f in CONFIG_FIELDS}
        d["coeffs"] = list(self.coeffs)
        return d

    @classmethod
    def from_dict(cls, d):
        for k in d:
            if k not in CONFIG_NAMES:
                raise ConfigError(f"{k}: unknown config field")
        d = dict(d)
        if "coeffs" in d:
            try:
                d["coeffs"] = tuple(float(c) for c in d["coeffs"])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"coeffs: {e}") from e
        return cls(**d).validate()

    def digest_payload(self):
        """json.dumps(to_dict() without "out", sort_keys=True), formatted
        directly: the hash identifies the computation, not the destination.
        """
        return DIGEST_FORMAT % (
            self.T, self.checkpoint_every, ", ".join(map(str, self.coeffs)),
            self.horizon, self.n_nodes, self.n_samples, self.surface,
            "true" if self.sweep_checkpoints else "false")

    def digest(self):
        return hashlib.sha256(
            self.digest_payload().encode()).hexdigest()[:16]


CONFIG_FIELDS = dataclasses.fields(RunConfig)
CONFIG_NAMES = frozenset(f.name for f in CONFIG_FIELDS)
# the digest payload, fields in sorted order (str of an int or a float is
# its JSON text; surface is one of SURFACES, so it needs no escaping)
DIGEST_FORMAT = ('{"T": %s, "checkpoint_every": %s, "coeffs": [%s], '
                 '"horizon": %s, "n_nodes": %s, "n_samples": %s, '
                 '"surface": "%s", "sweep_checkpoints": %s}')


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


# the sweep's fixed tolerances, which close the "# defaults" header line
TOLERANCES = (f" tol={fmt_float(geodesics.DEFAULT_TOL)}"
              f" closure_tol={fmt_float(geodesics.CLOSURE_TOL)}")


def _header_lines(config):
    return [f"# config_hash={config.digest()}",
            f"# defaults n_nodes={config.n_nodes} n_samples={config.n_samples}"
            + TOLERANCES]


def build_profile(config):
    """Arc-length profile of the configured surface."""
    meridian = MERIDIANS[config.surface]
    if meridian is None:
        return catalog.michel_surface(config.odd_function,
                                      n_nodes=config.n_nodes)
    return to_arclength(meridian(), n_nodes=config.n_nodes)


def build_conformal(config):
    """Conformal profile for the flow: area-normalized to 4 pi first.

    A catalog meridian goes to ``to_conformal`` as it is, a Michel surface
    as its odd function (area 4 pi already).  ``to_conformal`` needs no
    reflection symmetry, so a Michel surface with a nonzero odd function
    flows too.
    """
    if config.surface == "round":
        return ConformalProfile(u=np.zeros(config.n_nodes))
    meridian = MERIDIANS[config.surface]
    surface = (config.odd_function if meridian is None
               else normalize_to_volume(meridian()))
    return to_conformal(surface, n_nodes=config.n_nodes)


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
        "equator_length": float(TWO_PI * rho_eq),
    }
    _emit(config, _json_report(config, report))
    return EXIT_OK


def _sweep(config, p):
    return geodesics.zoll_sweep(p, n_samples=config.n_samples,
                                horizon=config.horizon)


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
    lines = _header_lines(config)
    cols = "t,equator_length,max_abs_K_minus_1,area,K_bar"
    row = "%.17g,%.17g,%.17g,%.17g,%.17g"
    if config.sweep_checkpoints:
        cols += ",period_spread"
        row += ",%.17g"
    lines.append(cols)
    c0 = build_conformal(config)
    states = ricci.evolve(ricci.make_state(c0), config.T,
                          checkpoint_every=config.checkpoint_every or None)
    for st in states:
        values = (st.t, st.equator_length(), st.max_abs_k_minus_1, st.area,
                  st.k_bar)
        if config.sweep_checkpoints:
            p = conformal_to_arclength(st.profile)
            values += (_sweep(config, p).spread,)
        lines.append(row % values)
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
    area = p.area()
    datum = weinstein.weinstein_integer(area, L)
    verdict = weinstein.discreteness_check(area, L) \
        if abs(area - FOUR_PI) < 1e-6 else None
    payload = {
        "certified": datum.positive_integer,
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
    if not datum.positive_integer:
        payload["reason"] = (f"Weinstein invariant i = {datum.i_value:.12g} "
                             "is not a positive integer")
    _emit(config, _json_report(config, payload))
    return EXIT_OK if datum.positive_integer else EXIT_CERT


def cmd_lprime(config):
    p = build_profile(config)
    # on the area-4 pi surface that the flow runs on (l'(0) ~ 1/lambda)
    analytic = ricci.lprime_analytic(p) * math.sqrt(p.area() / FOUR_PI)

    res = ricci.lprime_numeric(ricci.make_state(build_conformal(config)),
                               DEFAULT_LPRIME_DTS)

    certified = True
    try:
        weinstein.common_period(_sweep(config, p))
    except ZollCertificationError:
        certified = False

    contradiction = certified and abs(analytic) > 1e-3
    payload = {
        "analytic": analytic,
        "numeric": res.value,
        "residual": res.residual,
        "flagged": res.flagged,
        "certified_zoll": certified,
        "zoll_not_preserved": contradiction,
    }
    _emit(config, _json_report(config, payload))
    return EXIT_CERT if contradiction else EXIT_OK


def _coeff_list(text):
    return [c for c in text.split(",") if c.strip()]


# command-line options: (option, RunConfig field, value type, metavar,
# help).  A bool option is a flag and takes no value; --config is no field
# but a JSON file of fields, which the other options override.
OPTIONS = (
    ("--config", "config", str, "PATH",
     "JSON config file; the options below override its fields"),
    ("--surface", "surface", str, "NAME", " | ".join(SURFACES)),
    ("--coeffs", "coeffs", _coeff_list, "A,B,...",
     "odd-polynomial coefficients of x, x^3, ... (michel)"),
    ("--nodes", "n_nodes", int, "N", "grid nodes"),
    ("--samples", "n_samples", int, "N", "Clairaut constants per sweep"),
    ("--horizon", "horizon", float, "X", "geodesic march horizon"),
    ("--T", "T", float, "X", "flow end time"),
    ("--checkpoint-every", "checkpoint_every", float, "X",
     "flow checkpoint interval"),
    ("--sweep-checkpoints", "sweep_checkpoints", bool, "",
     "sweep the geodesics of every flow checkpoint"),
    ("--out", "out", str, "PATH", "output file (default: standard output)"),
)
OPTION_ROWS = {row[0]: row for row in OPTIONS}
TYPE_NAMES = {int: "an integer", float: "a number"}


def usage():
    lines = ["usage: zollflow COMMAND [--option VALUE | --option=VALUE]...",
             "", "commands: " + ", ".join(COMMANDS), "", "options:"]
    for option, _field, _kind, metavar, text in OPTIONS:
        lines.append(f"  {(option + ' ' + metavar).strip():26}{text}")
    lines.append(f"  {'-h, --help':26}print this help and exit")
    lines += ["", "exit codes: 0 success, 1 usage or config error, "
                  "2 certification failure, 3 numerical abort"]
    return "\n".join(lines) + "\n"


def parse_args(argv):
    """(command, values) from the command line, where values maps the
    given options' fields to their typed values; (None, None) when it asks
    for help.  Options take their value as the next argument or after
    "="; the command may stand anywhere.  ConfigError on any usage error.
    """
    command = None
    values = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg in ("-h", "--help"):
            return None, None
        if not arg.startswith("-"):
            if command is not None:
                raise ConfigError(f"unexpected argument {arg!r}")
            if arg not in COMMANDS:
                raise ConfigError(f"unknown command {arg!r}; one of "
                                  + ", ".join(COMMANDS))
            command = arg
            continue
        option, has_value, value = arg.partition("=")
        row = OPTION_ROWS.get(option)
        if row is None:
            raise ConfigError(f"{option}: unknown option")
        _option, field, kind = row[:3]
        if kind is bool:
            if has_value:
                raise ConfigError(f"{option}: takes no value")
            values[field] = True
            continue
        if not has_value:
            if i == len(argv) or argv[i].startswith("--"):
                raise ConfigError(f"{option}: expected a value")
            value = argv[i]
            i += 1
        try:
            values[field] = kind(value)
        except ValueError:
            raise ConfigError(f"{option}: expected {TYPE_NAMES[kind]}, "
                              f"got {value!r}") from None
    if command is None:
        raise ConfigError("no command; one of " + ", ".join(COMMANDS))
    return command, values


def config_from_args(values):
    """RunConfig of the parsed options over the --config file's fields."""
    values = dict(values)
    path = values.pop("config", None)
    base = {}
    if path:
        with open(path) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ConfigError(f"{path}: not a JSON object")
    base.update(values)
    return RunConfig.from_dict(base)


COMMANDS = {
    "describe": cmd_describe,
    "verify-zoll": cmd_verify_zoll,
    "flow": cmd_flow,
    "weinstein": cmd_weinstein,
    "lprime": cmd_lprime,
}


def main(argv=None):
    try:
        command, values = parse_args(sys.argv[1:] if argv is None else argv)
        if command is None:
            sys.stdout.write(usage())
            return EXIT_OK
        config = config_from_args(values)
    except (OSError, ValueError) as e:
        # ValueError covers ConfigError, json.JSONDecodeError and
        # UnicodeDecodeError
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[command](config)
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
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

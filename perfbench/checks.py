"""Output checks for benchmark tasks.

Each check looks only at what the planned work on zollflow must keep: the
certification verdicts and periods of genuine Zoll surfaces, the refusal of
the gong (its spread numbers are expected to change, so only the verdict is
checked), the flow's invariants, the numeric l'(0), and values from
perfbench/reference.json.
A check returns None when the output is right and a one-line reason when
it is not.
"""

import csv
import io
import json
import math
import os

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

PERIOD_TOL = 1e-6       # |period - 2 pi| on a Zoll surface
L_TOL = 1e-6            # |L - 1|
AREA_TOL = 1e-8         # |area - 4 pi| at every checkpoint
KBAR_TOL_ROUND = 1e-8   # |K_bar - 1| on the round sphere
# The discrete curvature meets Gauss-Bonnet only to second order in the grid:
# the gong's K_bar at t = 0 is 1 + 0.056 h^2 (2.1e-6 at 512 nodes).
KBAR_TOL_H2 = 0.1
ROUND_LENGTH_TOL = 1e-9  # |equator length - 2 pi| on the round sphere
ROUND_K_TOL = 1e-8       # max|K - 1| on the round sphere
# equator-length tolerance, in units of the explicit scheme's time error
TIME_ERROR_FACTOR = 4.0
# a sweep's period spread below this is a Zoll verdict (zollflow's own rule)
SPREAD_TOL = 1e-4
LPRIME_TOL = 1e-3       # |numeric l'(0) - analytic l'(0)| on one surface

EXIT_OK = 0
EXIT_CERT = 2

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def _table(text):
    """Rows of a CSV report as dicts of floats (comment lines skipped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [{k: float(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO("\n".join(lines)))]


def _check_zoll(task, code, text):
    if code != EXIT_OK:
        return f"exit {code}, expected {EXIT_OK}"
    if task.command == "verify-zoll":
        rows = _table(text)
        if len(rows) != task.samples:
            return f"{len(rows)} periods, expected {task.samples}"
        worst = max(abs(r["period"] - TWO_PI) for r in rows)
        if not worst <= PERIOD_TOL:
            return f"max |period - 2pi| = {worst:.3e}"
        return None
    rep = json.loads(text)
    if rep.get("certified") is not True:
        return "not certified"
    if not abs(rep["L"] - 1.0) <= L_TOL:
        return f"L = {rep['L']!r}"
    if rep["i_nearest"] != 1:
        return f"i_nearest = {rep['i_nearest']}"
    if rep.get("discreteness", {}).get("integer") != 2:
        return f"discreteness = {rep.get('discreteness')}"
    return None


def _check_refused(task, code, text):
    if code != EXIT_CERT:
        return f"exit {code}, expected {EXIT_CERT} (refusal)"
    if task.command == "weinstein" and json.loads(text).get("certified"):
        return "report says certified"
    return None


def _kbar_tol(task):
    if task.surface == "round":
        return KBAR_TOL_ROUND
    return KBAR_TOL_H2 * (math.pi / (task.nodes - 1)) ** 2


def _check_flow(task, code, text):
    if code != EXIT_OK:
        return f"exit {code}, expected {EXIT_OK}"
    rows = _table(text)
    if len(rows) != task.checkpoints + 1:
        return f"{len(rows)} rows, expected {task.checkpoints + 1}"
    if rows[0]["t"] != 0.0 or not abs(rows[-1]["t"] - task.T) <= 1e-12:
        return f"time span {rows[0]['t']!r}..{rows[-1]['t']!r}"
    kbar_tol = _kbar_tol(task)
    for r in rows:
        if not abs(r["area"] - FOUR_PI) <= AREA_TOL:
            return f"t={r['t']!r}: area {r['area']!r}"
        if not abs(r["K_bar"] - 1.0) <= kbar_tol:
            return f"t={r['t']!r}: K_bar {r['K_bar']!r}"
    swept = task.samples > 0
    if swept != ("period_spread" in rows[0]):
        return "period_spread column " + ("missing" if swept else "unasked")
    for r in rows if swept else ():
        if (r["period_spread"] < SPREAD_TOL) != (task.surface == "round"):
            return f"t={r['t']!r}: period spread {r['period_spread']!r}"
    if task.surface == "round":
        for r in rows:
            if not abs(r["equator_length"] - TWO_PI) <= ROUND_LENGTH_TOL:
                return f"t={r['t']!r}: equator length {r['equator_length']!r}"
            if not r["max_abs_K_minus_1"] <= ROUND_K_TOL:
                return f"t={r['t']!r}: max|K-1| {r['max_abs_K_minus_1']!r}"
        return None
    if not rows[-1]["max_abs_K_minus_1"] < rows[0]["max_abs_K_minus_1"]:
        return "max|K-1| did not shrink"
    key = f"{task.surface}/{task.nodes}/{task.T!r}"
    ref = REFERENCE["equator_length"][key]
    err = abs(rows[-1]["equator_length"] - ref["value"])
    if not err <= TIME_ERROR_FACTOR * ref["time_error"]:
        return (f"final equator length off the reference by {err:.3e} "
                f"(time error {ref['time_error']:.3e})")
    return None


def _check_lprime(task, code, text):
    # The report's "analytic" field is taken on the catalog profile, which
    # for the gong is not the area-4 pi surface the numeric flow runs on;
    # the reference holds the analytic value on that same surface.
    if code != EXIT_OK:
        return f"exit {code}, expected {EXIT_OK}"
    rep = json.loads(text)
    if rep["flagged"] is not False:
        return f"flagged = {rep['flagged']!r}"
    ref = REFERENCE["lprime"][task.surface]
    if not abs(rep["numeric"] - ref) <= LPRIME_TOL:
        return f"numeric l'(0) {rep['numeric']!r}, analytic {ref!r}"
    if rep["certified_zoll"] is not (task.surface == "round"):
        return f"certified_zoll = {rep['certified_zoll']!r}"
    return None


_CHECKS = {"zoll": _check_zoll, "refused": _check_refused,
           "flow": _check_flow, "lprime": _check_lprime}


def check(task, code, text):
    """None if ``text`` (the task's output file) and exit ``code`` are
    right for ``task``, else the reason."""
    try:
        return _CHECKS[task.expect](task, code, text)
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {e!r}"

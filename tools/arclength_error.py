"""Error of the arc-length profiles against closed forms, per sample count.

    PYTHONPATH=src python3 tools/arclength_error.py [--samples 1025,2049,...]
        [--nodes 512,4097,16385] [--out FILE]

Builds each catalog surface's ``ProfileMetric`` as ``cli.build_profile``
does (``to_arclength`` for the meridians, ``michel_surface`` for the Michel
surface h = 0.3 (x - x^3)) with ``profile.ARCLENGTH_SAMPLES`` set to each
sample count in turn, and prints the error of the meridian length S and the
largest error of rho at the interior nodes, against:

* round: S = pi and rho = sin s;
* gong_raw: z = sin chi, r = 4 (sqrt(1 + cos chi) - 1) and
  s = 2 (chi + pi/2) - sin chi - 1, since ds/dchi = 2 - cos chi, so
  S = 2 pi - 2;
* gong_normalized: the gong scaled by 1/(4c), c = sqrt(2) - 1;
* michel: rho = sin theta and s = theta + sum a_k P_k(sin theta), where
  P_k(y) = integral from 0 to y of (1 - x^2)^k dx integrates
  cos^(2k+1), so S = pi.

rho is compared at the profile's own nodes s_k = k S / (n - 1), with the
exact parameter found by Newton's method.  Prints one JSON object keyed
``surface/nodes/samples``.  The errors come from the speed samples
nearest the poles: at few samples, the truncation of their cubic
extrapolation to the pole (falling as h^5); at many, the rounding of r'
next to the poles (growing as 1/h), which differs from one count to the
next, so a count is judged by its neighbours too, e.g.
``--samples $(seq -s, 3901 4 4299)``.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P

from zollflow import catalog, cli, profile

MICHEL_COEFFS = (0.3, -0.3)
GONG_SCALE = 4.0 * catalog.GONG_C
SAMPLES = (1025, 2049, 4097, 8193, 16385, 32769)
NODES = (512, 4097, 16385)
NEWTON_STEPS = 50


def _newton(f, df, s, x):
    """Root of f(x) = s for every s, from the start x (f increasing)."""
    for _ in range(NEWTON_STEPS):
        step = (f(x) - s) / df(x)
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    return x


def _gong_rho(s):
    chi = _newton(lambda c: 2.0 * (c + 0.5 * np.pi) - np.sin(c) - 1.0,
                  lambda c: 2.0 - np.cos(c), s, s / 2.0 - 0.5 * np.pi)
    return 4.0 * (np.sqrt(1.0 + np.cos(chi)) - 1.0)


def _michel_rho(s):
    # P_k as coefficients in y, summed with the odd function's a_k
    poly = np.zeros(1)
    for k, a in enumerate(MICHEL_COEFFS):
        poly = P.polyadd(poly, a * P.polyint(P.polypow([1.0, 0.0, -1.0], k)))
    h = catalog.OddFunction(MICHEL_COEFFS)
    theta = _newton(lambda t: t + P.polyval(np.sin(t), poly),
                    lambda t: 1.0 + h(np.cos(t)), s, s.copy())
    return np.sin(theta)


# surface -> (exact S, exact rho at arc lengths s)
EXACT = {
    "round": (math.pi, np.sin),
    "gong_raw": (2.0 * math.pi - 2.0, _gong_rho),
    "gong_normalized": ((2.0 * math.pi - 2.0) / GONG_SCALE,
                        lambda s: _gong_rho(GONG_SCALE * s) / GONG_SCALE),
    "michel": (math.pi, _michel_rho),
}


def errors(surface, n_nodes, n_samples):
    """(S error, max abs rho error at the interior nodes) of the profile
    ``cli.build_profile`` builds with ``n_samples`` arc-length samples."""
    coeffs = MICHEL_COEFFS if surface == "michel" else ()
    config = cli.RunConfig(surface=surface, n_nodes=n_nodes,
                           coeffs=coeffs).validate()
    kept = profile.ARCLENGTH_SAMPLES
    profile.ARCLENGTH_SAMPLES = n_samples
    try:
        p = cli.build_profile(config)
    finally:
        profile.ARCLENGTH_SAMPLES = kept
    S, rho = EXACT[surface]
    s = p.s_grid[1:-1]
    return (p.total_length - S,
            float(np.max(np.abs(p.rho_grid[1:-1] - rho(s)))))


def _counts(text):
    return tuple(int(v) for v in text.split(","))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--samples", type=_counts, default=SAMPLES,
                    help="comma list of sample counts")
    ap.add_argument("--nodes", type=_counts, default=NODES,
                    help="comma list of node counts")
    ap.add_argument("--out", help="also write the JSON object here")
    args = ap.parse_args(argv)
    out = {}
    for surface in EXACT:
        for n_nodes in args.nodes:
            for n_samples in args.samples:
                dS, drho = errors(surface, n_nodes, n_samples)
                key = f"{surface}/{n_nodes}/{n_samples}"
                out[key] = {"S_error": dS, "rho_error": drho}
                print(f"{key:28} S error {dS:+.2e}  rho error {drho:.2e}",
                      file=sys.stderr)
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

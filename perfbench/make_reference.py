"""Regenerate perfbench/reference.json, the values the output checks use.

    PYTHONPATH=src python3 perfbench/make_reference.py

``equator_length`` holds the gong's equator length after a flow to time T,
  per surface, node count and T of the flow workloads.  ``value`` is the
  explicit scheme run with half its stability factor; ``time_error`` is how
  far the scheme at its default factor lies from it.  The checks accept
  a few times that error, so a different time stepper that is at least as
  accurate still passes.
``lprime`` holds, per surface, the analytic l'(0) of the area-4 pi surface
  that ``lprime`` flows, read back to arc length on a fine grid.

Takes under a minute on one core.
"""

import json
import os
import sys

from zollflow import cli, profile, ricci

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import GONG_T, PIPELINE_NODES  # noqa: E402

GONGS = ("gong_raw", "gong_normalized")
NODES = (512, 1024)
LPRIME_NODES = 8193


def equator_key(surface, nodes, T):
    return f"{surface}/{nodes}/{T!r}"


def main():
    ref = {"equator_length": {}, "lprime": {}}
    for surface in (*GONGS, "round"):
        config = cli.RunConfig(surface=surface,
                               n_nodes=PIPELINE_NODES).validate()
        back = profile.conformal_to_arclength(cli.build_conformal(config),
                                              n_nodes=LPRIME_NODES)
        ref["lprime"][surface] = ricci.lprime_analytic(back)
    for surface in GONGS:
        for nodes in NODES:
            config = cli.RunConfig(surface=surface, n_nodes=nodes).validate()
            s0 = ricci.make_state(cli.build_conformal(config))
            for T in GONG_T:
                half = ricci.evolve(s0, T, stability_factor=0.5
                                    * ricci.STABILITY_FACTOR)[-1]
                full = ricci.evolve(s0, T)[-1]
                value = half.equator_length()
                ref["equator_length"][equator_key(surface, nodes, T)] = {
                    "value": value,
                    "time_error": abs(full.equator_length() - value)}
                print(surface, nodes, T, value, file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

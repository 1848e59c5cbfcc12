"""Time error of ``ricci.evolve``'s equator length at its default step.

    PYTHONPATH=src python3 tools/flow_time_error.py [--out FILE]

For each (surface, nodes, T) key of perfbench/reference.json, flows the
surface to T in one checkpoint interval twice: at evolve's default step,
``ricci.DT_PER_H`` times the grid spacing, and at 1/16 of it (through
``dt_cap``).  The time error is the first run's final equator length minus
the second's; at 1/16 of the step the second run's own time error is
smaller by a factor of 16^order.  Prints one JSON object, keyed like
reference.json, with the step count, the fine value, the error and
``check_ratio``: the default run's offset from the reference value in
units of the reference's time error, which the flow check bounds by
``TIME_ERROR_FACTOR`` (4).  Reads no name that differs between step rules,
so it runs on older trees too.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from zollflow import cli, ricci

ROOT = Path(__file__).resolve().parent.parent
REFINE = 16


def time_error(surface, nodes, T, ref):
    config = cli.RunConfig(surface=surface, n_nodes=nodes).validate()
    s0 = ricci.make_state(cli.build_conformal(config))
    dt = ricci.DT_PER_H * s0.profile.h
    coarse = ricci.evolve(s0, T)[-1].equator_length()
    fine = ricci.evolve(s0, T, dt_cap=dt / REFINE)[-1].equator_length()
    return {"steps": max(ricci.MIN_STEPS, math.ceil(T / dt - 1e-9)),
            "fine": fine, "time_error": coarse - fine,
            "check_ratio": abs(coarse - ref["value"]) / ref["time_error"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", help="also write the JSON object here")
    args = ap.parse_args(argv)
    keys = json.loads(
        (ROOT / "perfbench" / "reference.json").read_text())["equator_length"]
    out = {}
    for key in sorted(keys):
        surface, nodes, T = key.split("/")
        out[key] = row = time_error(surface, int(nodes), float(T), keys[key])
        print(f"{key:28} {row['steps']:4} steps  time error "
              f"{row['time_error']:+.3e}  check ratio "
              f"{row['check_ratio']:.3f}", file=sys.stderr)
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded task generator for the benchmark workloads.

A workload is an endless sequence of rounds.  Each round holds a fixed mix of
tasks, one zollflow subcommand each, in a seeded order; parameters come from
the seed.  The mix is the same in every round, so the share of each task
class in a run does not depend on the seed or on where the run stops.
Grid parameters (geodesic horizons, flow horizons T, checkpoints) are dealt
from seeded decks: every value of a grid is used once before any is used
again, which keeps the cost mix of two seeds alike.

The program only sees the generated argument lists.
"""

import math
import random
from dataclasses import dataclass

from zollflow.catalog import OddFunction

TWO_PI = 2.0 * math.pi

# geodesic horizons as multiples of 2 pi: every Zoll period (2 pi) closes
# before the first one, and a shorter horizon keeps the sweeps short
HORIZONS = tuple(m * TWO_PI for m in (2.5, 2.75, 3.0))
CERTIFY_SAMPLES = 12
CERTIFY_NODES = 4097
MICHEL_BOUND = 0.3
# flow horizons T.  The round sphere steps about twice as fast as the gong,
# so it gets the longer horizons and a flow costs about the same on either.
# perfbench/reference.json holds the gong's equator length at each T.
GONG_T = (0.05, 0.055)
ROUND_T = (0.09, 0.1)
CHECKPOINTS = (1, 2, 4)
# pipeline: the paper's check on 512-node grids with 4 Clairaut samples
PIPELINE_NODES = 512
PIPELINE_SAMPLES = 4
SWEEP_CHECKPOINTS = 4


@dataclass(frozen=True)
class Task:
    """One CLI call and what its output must show.

    ``expect`` is ``"zoll"`` (certified common period 2 pi), ``"refused"``
    (exit 2, no common period), ``"flow"`` or ``"lprime"``.
    """

    command: str
    surface: str
    expect: str
    argv: tuple
    samples: int = 0
    nodes: int = 0
    T: float = 0.0
    checkpoints: int = 0


def fmt(x):
    return repr(float(x))


class _Decks:
    """Seeded decks of grid values, one deck per key."""

    def __init__(self, rng):
        self._rng = rng
        self._decks = {}

    def draw(self, key, values):
        deck = self._decks.get(key)
        if not deck:
            deck = list(values)
            self._rng.shuffle(deck)
            self._decks[key] = deck
        return deck.pop()


def michel_coeffs(rng):
    """h = a x(1 - x^2) + b x^3(1 - x^2), i.e. coefficients (a, b - a, -b).

    Constructing OddFunction checks h(+-1) = 0 and sup|h| < 1.
    """
    a = round(rng.uniform(-MICHEL_BOUND, MICHEL_BOUND), 4)
    b = round(rng.uniform(-MICHEL_BOUND, MICHEL_BOUND), 4)
    coeffs = (a, b - a, -b)
    OddFunction(coeffs)
    return coeffs


def _certify_task(command, surface, horizon, rng):
    argv = [command, "--surface", surface, "--samples", str(CERTIFY_SAMPLES),
            "--nodes", str(CERTIFY_NODES), "--horizon", fmt(horizon)]
    if surface == "michel":
        # one token, so argparse does not read a leading "-" as an option
        argv.append("--coeffs=" + ",".join(fmt(c) for c in michel_coeffs(rng)))
    expect = "refused" if surface.startswith("gong") else "zoll"
    return Task(command=command, surface=surface, expect=expect,
                argv=tuple(argv), samples=CERTIFY_SAMPLES, nodes=CERTIFY_NODES)


def _flow_task(surface, nodes, T, checkpoints, samples=0):
    """A flow; with ``samples`` it also sweeps every checkpoint."""
    argv = ["flow", "--surface", surface, "--nodes", str(nodes),
            "--T", fmt(T), "--checkpoint-every", fmt(T / checkpoints)]
    if samples:
        argv += ["--sweep-checkpoints", "--samples", str(samples)]
    return Task(command="flow", surface=surface, expect="flow",
                argv=tuple(argv), samples=samples, nodes=nodes, T=T,
                checkpoints=checkpoints)


def _lprime_task(surface):
    argv = ["lprime", "--surface", surface, "--samples",
            str(PIPELINE_SAMPLES), "--nodes", str(PIPELINE_NODES)]
    return Task(command="lprime", surface=surface, expect="lprime",
                argv=tuple(argv), samples=PIPELINE_SAMPLES,
                nodes=PIPELINE_NODES)


# Round mixes.  Task times cluster by class, so each mix has one class in a
# large majority and the median and tail percentile fall well inside that
# cluster instead of near a gap between two.  Decks shared within a round
# hold a whole number of grids per round where they can, so every round
# has the same parameters.

def _certify_round(rng, decks):
    # six Zoll sweeps, one gong refusal
    zoll = (("weinstein", "round"), ("verify-zoll", "round"),
            ("weinstein", "michel"), ("weinstein", "michel"),
            ("verify-zoll", "michel"), ("verify-zoll", "michel"))
    tasks = [_certify_task(cmd, surface, decks.draw("horizon", HORIZONS), rng)
             for cmd, surface in zoll]
    command = decks.draw("gong command", ("weinstein", "verify-zoll"))
    tasks.append(_certify_task(command, "gong_normalized",
                               decks.draw("gong horizon", HORIZONS), rng))
    return tasks


def _flow_T(surface, nodes, decks):
    horizons = ROUND_T if surface == "round" else GONG_T
    if nodes == 1024:
        # the 1024-node runs hold the median and the tail; the longer T
        # costs 7% more, so one T per surface keeps every round alike
        return horizons[0]
    return decks.draw("round T" if surface == "round" else "gong T", horizons)


def _flow_round(rng, decks):
    # five 1024-node runs (each surface, then two more) and two 512-node runs
    surfaces = ("gong_raw", "gong_normalized", "round")
    mix = [(s, 1024) for s in surfaces]
    mix += [(decks.draw("extra 1024", surfaces), 1024) for _ in range(2)]
    mix += [(decks.draw("512", surfaces), 512) for _ in range(2)]
    return [_flow_task(surface, nodes, _flow_T(surface, nodes, decks),
                       decks.draw(("checkpoints", nodes), CHECKPOINTS))
            for surface, nodes in mix]


def _pipeline_round(rng, decks):
    # seven lprime runs and one swept flow, whose dense checkpoints give
    # several short evolve calls and sweeps on flowed profiles; the gong T
    # keep the sweeps, not the steps, the main cost.  lprime costs about
    # 0.27 s on round, 0.33 s on gong_raw and 0.49 s on gong_normalized, so
    # gong_raw runs three times and the median falls inside its cluster
    surfaces = ("gong_raw", "gong_normalized", "round")
    tasks = [_lprime_task(s) for s in surfaces for _ in range(2)]
    tasks.append(_lprime_task("gong_raw"))
    tasks.append(_flow_task(decks.draw("swept", surfaces), PIPELINE_NODES,
                            decks.draw("swept T", GONG_T), SWEEP_CHECKPOINTS,
                            samples=PIPELINE_SAMPLES))
    return tasks


_ROUNDS = {"certify": _certify_round, "flow": _flow_round,
           "pipeline": _pipeline_round}


def rounds(workload, seed):
    """Endless generator of task rounds for ``workload`` under ``seed``."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    decks = _Decks(rng)
    make = _ROUNDS[workload]
    while True:
        tasks = make(rng, decks)
        rng.shuffle(tasks)
        yield tasks

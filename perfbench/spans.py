"""Layer spans recorded from outside zollflow.

A Tracer replaces the module attributes that zollflow's call sites resolve
at call time with timing wrappers, and puts the originals back afterwards:

* ``cli.to_arclength``, ``cli.to_conformal``, ``cli.normalize_to_volume``
  and ``cli.conformal_to_arclength``: cli binds its own copies of these
  profile functions, so wrapping them in ``profile`` would miss its calls;
* ``geodesics.find_period``, which ``_sweep_entry`` looks up per call;
* ``ricci.evolve``, which ``lprime_numeric`` looks up per call, and
  ``ricci.make_state``, which ``evolve`` looks up per call.

Spans (name, start, end, parent, task, error) stay in memory until the run
writes them out.  The kernels in ``_kernels`` are reached only through
``geodesics`` and ``ricci`` and get no spans of their own.
"""

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# (module in zollflow, attribute, span name)
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "atomic_write", "cli.atomic_write"),
    ("cli", "to_arclength", "profile.to_arclength"),
    ("cli", "to_conformal", "profile.to_conformal"),
    ("cli", "normalize_to_volume", "profile.normalize_to_volume"),
    ("cli", "conformal_to_arclength", "profile.conformal_to_arclength"),
    ("catalog", "michel_surface", "catalog.michel_surface"),
    ("geodesics", "zoll_sweep", "geodesics.zoll_sweep"),
    ("geodesics", "find_period", "geodesics.find_period"),
    ("ricci", "evolve", "ricci.evolve"),
    ("ricci", "make_state", "ricci.make_state"),
    ("ricci", "lprime_numeric", "ricci.lprime_numeric"),
    ("weinstein", "common_period", "weinstein.common_period"),
    ("weinstein", "weinstein_integer", "weinstein.weinstein_integer"),
    ("weinstein", "discreteness_check", "weinstein.discreteness_check"),
)

# per-layer metrics: name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "geodesics.zoll_sweep.calls": "count",
    "geodesics.zoll_sweep.s": "s",
    "geodesics.zoll_sweep.self_s": "s",
    "geodesics.find_period.calls": "count",
    "geodesics.find_period.s": "s",
    "geodesics.find_period.p50_s": "s",
    "geodesics.converged_ratio": "frac",
    "ricci.evolve.calls": "count",
    "ricci.evolve.s": "s",
    "ricci.evolve.p50_s": "s",
    "ricci.evolve.sim_t_per_s": "t/s",
    "ricci.make_state.calls": "count",
    "ricci.make_state.s": "s",
    "ricci.lprime_numeric.s": "s",
    "profile.to_arclength.calls": "count",
    "profile.to_arclength.s": "s",
    "profile.to_conformal.calls": "count",
    "profile.to_conformal.s": "s",
    "profile.conformal_to_arclength.calls": "count",
    "profile.conformal_to_arclength.s": "s",
    "profile.normalize_to_volume.s": "s",
    "catalog.michel_surface.calls": "count",
    "catalog.michel_surface.s": "s",
    "weinstein.certified": "count",
    "weinstein.refused": "count",
    "weinstein.s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.atomic_write.s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Records nested spans of the wrapped layer functions."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, task, error]
        self.task = None  # id stamped on spans opened from now on
        self._open = []
        # sweep entries (all, converged) and flow time advanced
        self.entries = 0
        self.converged = 0
        self.sim_t = 0.0

    def _observe(self, name, result):
        if name == "geodesics.zoll_sweep":
            self.entries += len(result.entries)
            self.converged += sum(e.converged for e in result.entries)
        elif name == "ricci.evolve":
            self.sim_t += result[-1].t - result[0].t

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._open[-1] if self._open else None, self.task, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[5] = type(e).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self._observe(name, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every WRAPPED attribute; restore the originals on exit.

        Yields the list of (module, attribute, original) so the caller can
        check the restoration.
        """
        originals = []
        try:
            for mod_name, attr, name in WRAPPED:
                mod = importlib.import_module(f"zollflow.{mod_name}")
                fn = getattr(mod, attr)
                originals.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn))
            yield originals
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def to_json(self):
        keys = ("name", "start", "end", "parent", "task", "error")
        return [dict(zip(keys, s)) for s in self.spans]


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            total += b - a
            hi = b
        elif b > hi:
            total += b - hi
            hi = b
    return total


def self_times(spans):
    """Per span: duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - _covered(children[i]) for i, s in enumerate(spans)]


# share of a task's wall time that cli.main may spend outside the wrapped
# layers: parsing, config hash, formatting, the unwrapped catalog builders
CLI_SELF_MAX = 0.05


def expected_spans(task):
    """Names of the spans a task's layers must produce."""
    names = {"cli.main", "cli.atomic_write"}
    if task.samples:
        names |= {"geodesics.zoll_sweep", "geodesics.find_period"}
    if task.command in ("flow", "lprime"):
        names.add("ricci.evolve")
    if task.command == "lprime":
        names.add("ricci.lprime_numeric")
    if task.command == "flow" and task.samples:
        names.add("profile.conformal_to_arclength")
    if task.surface == "michel":
        names.add("catalog.michel_surface")
    return names


def integrity_errors(spans, tasks, walls, tol_abs=1e-3, tol_rel=1e-3):
    """(task id, reason) for each task whose spans do not add up.

    Task ``i`` is ``tasks[i]``, run in ``walls[i]`` seconds by the runner's
    timer.  Its only root span must be ``cli.main``, lasting that wall time
    (this shows only that cli.main was wrapped).  Every span in
    ``expected_spans`` must be present, and cli.main's self time must stay
    under CLI_SELF_MAX of the wall time, so that the layer spans account for
    the rest of it.
    """
    selfs = self_times(spans)
    roots = defaultdict(list)
    names = defaultdict(set)
    for i, s in enumerate(spans):
        names[s[4]].add(s[0])
        if s[3] is None:
            roots[s[4]].append(i)
    bad = []
    for i, (task, wall) in enumerate(zip(tasks, walls)):
        root = roots[i]
        if [spans[r][0] for r in root] != ["cli.main"]:
            bad.append((i, f"root spans {[spans[r][0] for r in root]}"))
            continue
        start, end = spans[root[0]][1:3]
        if abs(end - start - wall) > tol_abs + tol_rel * wall:
            bad.append((i, f"cli.main {end - start:.6f} s vs wall {wall:.6f} s"))
        missing = expected_spans(task) - names[i]
        if missing:
            bad.append((i, f"no span of {sorted(missing)}"))
        if selfs[root[0]] > CLI_SELF_MAX * wall:
            bad.append((i, f"cli self time {selfs[root[0]]:.3f} s "
                           f"of {wall:.3f} s"))
    return bad


def layer_metrics(tracer, overhead_frac):
    """Values of LAYER_METRICS from a finished traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    durations = defaultdict(list)
    refused = 0
    for s, self_s in zip(spans, selfs):
        name = s[0]
        calls[name] += 1
        total[name] += s[2] - s[1]
        own[name] += self_s
        durations[name].append(s[2] - s[1])
        if name == "weinstein.common_period" \
                and s[5] == "ZollCertificationError":
            refused += 1

    def p50(name):
        return statistics.median(durations[name]) if durations[name] else 0.0

    evolve_s = total["ricci.evolve"]
    values = {
        "geodesics.zoll_sweep.self_s": own["geodesics.zoll_sweep"],
        "geodesics.find_period.p50_s": p50("geodesics.find_period"),
        "geodesics.converged_ratio":
            tracer.converged / tracer.entries if tracer.entries else 0.0,
        "ricci.evolve.p50_s": p50("ricci.evolve"),
        "ricci.evolve.sim_t_per_s":
            tracer.sim_t / evolve_s if evolve_s else 0.0,
        "weinstein.certified":
            calls["weinstein.common_period"] - refused,
        "weinstein.refused": refused,
        "weinstein.s": sum(v for k, v in total.items()
                           if k.startswith("weinstein.")),
        "cli.self_s": own["cli.main"],
        "trace.overhead_frac": overhead_frac,
    }
    for metric in LAYER_METRICS:
        if metric in values:
            continue
        name, kind = metric.rsplit(".", 1)
        values[metric] = calls[name] if kind == "calls" else total[name]
    return {m: values[m] for m in LAYER_METRICS}

"""In-memory span tracer that times shelab's layers from outside the package.

`instrument` replaces the callables through which one layer of
src/shelab calls the next with timing wrappers; nothing in the package is
edited.  Each wrapper opens a span (name, start, end, causing span).  A
span's self time is its duration minus the time covered by the spans and
leaf calls made inside it.  Leaf callables that run 10^5 times or more per
run (the Philox fill, the inverse-CDF transform, the convolutions, the
log-kernel step) are not kept one call at a time: each is summed into the
span that made it, as a call count, a total time and an item count, so
memory stays at a few records per engine run.

Every span and leaf name maps to exactly one metric in LAYER_TIMES, so the
self times add up to the duration of the root span, the traced wall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# metric -> span or leaf names whose self time it sums
LAYER_TIMES = {
    "noise.philox_s": ("noise.fill_u53",),
    "noise.ndtri_s": ("noise.uniforms_to_normals",),
    "sim.propagate_self_s": ("sim.BatchEngine.run",),
    "sim.conv_s": ("sim.convolve1d",),
    "sim.logK_s": ("sim.advance_logK",),
    "green.shift_self_s": ("green.shift_identity_samples",),
    "green.conv_s": ("green.convolve1d",),
    "oracles.volterra_s": ("oracles.second_moment_volterra",),
    "stats.s": ("stats.CovarianceAccumulator", "stats.ks_normality", "stats.ks_2samp"),
    "experiments.consume_s": ("experiments.consume",),
    "experiments.driver_self_s": ("experiments.run",),
}

# the propagator layer of either engine: self time plus heat steps
PROPAGATE = ("sim.propagate_self_s", "sim.conv_s", "sim.logK_s",
             "green.shift_self_s", "green.conv_s")

# metric -> (leaf name, 'calls' or 'items')
LAYER_COUNTS = {
    "noise.philox_calls": ("noise.fill_u53", "calls"),
    "noise.variates": ("noise.uniforms_to_normals", "items"),
    "sim.conv_calls": ("sim.convolve1d", "calls"),
    "sim.logK_calls": ("sim.advance_logK", "calls"),
    "green.conv_calls": ("green.convolve1d", "calls"),
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    leaves: dict = field(default_factory=dict)   # name -> [calls, seconds, items]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name, fn):
        """Wrap fn so that each call records a span."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sp = Span(name, parent, clock())
            self.spans.append(sp)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                sp.end = clock()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += sp.end - sp.start
        return wrapper

    def leaf(self, name, fn, items=None):
        """Wrap a hot leaf callable; calls are summed into the open span."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                sp = self.spans[self._stack[-1]]
                rec = sp.leaves.setdefault(name, [0, 0.0, 0])
                rec[0] += 1
                rec[1] += dt
                if items is not None:
                    rec[2] += items(*args)
                sp.child_s += dt
        return wrapper

    def self_times(self) -> dict:
        """Self seconds per span or leaf name."""
        out = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + sp.self_s
            for name, (_, secs, _) in sp.leaves.items():
                out[name] = out.get(name, 0.0) + secs
        return out

    def leaf_totals(self) -> dict:
        out = {}
        for sp in self.spans:
            for name, (calls, _, items) in sp.leaves.items():
                tot = out.setdefault(name, {"calls": 0, "items": 0})
                tot["calls"] += calls
                tot["items"] += items
        return out

    def records(self) -> list:
        return [{"id": i, "name": sp.name, "parent": sp.parent, "start": sp.start,
                 "end": sp.end, "self_s": sp.self_s, "leaves": sp.leaves}
                for i, sp in enumerate(self.spans)]


def instrument(tracer: Tracer) -> None:
    """Patch shelab's layer boundaries in this process to record into tracer."""
    import scipy.stats
    from shelab import experiments, green, noise, sim, stats

    ndtri = tracer.leaf("noise.uniforms_to_normals", noise._uniforms_to_normals,
                        items=lambda u: u.size)
    noise._uniforms_to_normals = ndtri      # green imports it at call time
    sim._uniforms_to_normals = ndtri
    noise._FastNormals.fill_u53 = tracer.leaf("noise.fill_u53", noise._FastNormals.fill_u53)
    sim.convolve1d = tracer.leaf("sim.convolve1d", sim.convolve1d)
    green.convolve1d = tracer.leaf("green.convolve1d", green.convolve1d)
    sim._BatchEngine._advance_logK = tracer.leaf("sim.advance_logK",
                                                 sim._BatchEngine._advance_logK)

    engine_run = sim._BatchEngine.run

    def traced_engine_run(self, replicate_ids, checkpoint_steps, consume):
        reps = list(replicate_ids)
        tracer.count("sim.cell_steps", len(reps) * self.n * max(checkpoint_steps))
        return engine_run(self, reps, checkpoint_steps,
                          tracer.span("experiments.consume", consume))

    sim._BatchEngine.run = tracer.span("sim.BatchEngine.run", traced_engine_run)

    shift = experiments.shift_identity_samples

    def traced_shift(grid, replicate_ids, *args, **kwargs):
        ids = list(replicate_ids)
        out = shift(grid, ids, *args, **kwargs)
        tracer.count("green.attempted", len(ids))
        tracer.count("green.used", len(out[0]))
        return out

    experiments.shift_identity_samples = tracer.span("green.shift_identity_samples",
                                                     traced_shift)
    experiments.second_moment_volterra = tracer.span(
        "oracles.second_moment_volterra", experiments.second_moment_volterra)
    experiments.ks_normality = tracer.span("stats.ks_normality", experiments.ks_normality)
    scipy.stats.ks_2samp = tracer.span("stats.ks_2samp", scipy.stats.ks_2samp)
    acc = stats.CovarianceAccumulator
    for meth in ("add", "merge", "matrix", "finalize"):
        setattr(acc, meth, tracer.span("stats.CovarianceAccumulator", getattr(acc, meth)))
    experiments.run = tracer.span("experiments.run", experiments.run)


def layer_metrics(tracer: Tracer, required: int) -> dict:
    """Per-layer metrics of one traced run (times in s, counts exact);
    `required` is the run's required replicate-cell-steps."""
    selfs = tracer.self_times()
    unknown = set(selfs) - {n for names in LAYER_TIMES.values() for n in names}
    if unknown:
        raise RuntimeError(f"spans without a layer metric: {sorted(unknown)}")
    out = {m: sum(selfs.get(n, 0.0) for n in names) for m, names in LAYER_TIMES.items()}
    totals = tracer.leaf_totals()
    for m, (name, kind) in LAYER_COUNTS.items():
        out[m] = totals.get(name, {}).get(kind, 0)
    out["propagate_s"] = sum(out[m] for m in PROPAGATE)
    c = tracer.counters
    out["sim.cell_steps"] = c.get("sim.cell_steps", 0)
    out["sim.useful_ratio"] = (required / out["sim.cell_steps"]
                               if out["sim.cell_steps"] else 0.0)
    out["green.used_ratio"] = (c["green.used"] / c["green.attempted"]
                               if c.get("green.attempted") else 0.0)
    roots = [sp for sp in tracer.spans if sp.parent is None]
    if len(roots) != 1 or roots[0].name != "experiments.run":
        raise RuntimeError("a traced run must have exactly one experiments.run root span")
    out["trace.wall_s"] = roots[0].end - roots[0].start
    return out


def check_self_times(metrics: dict) -> str | None:
    """None if every self time is nonnegative and they add up to the traced
    wall; otherwise a description of the violation."""
    times = [metrics[m] for m in LAYER_TIMES]
    if min(times) < -1e-9:
        return f"negative self time: {dict(zip(LAYER_TIMES, times))}"
    gap = sum(times) - metrics["trace.wall_s"]
    if abs(gap) > 1e-9 * max(1.0, metrics["trace.wall_s"]):
        return f"self times miss the traced wall by {gap:.3e} s"
    return None

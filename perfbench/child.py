"""One benchmark run, executed by run.py in a fresh interpreter.

    python3 perfbench/child.py MODE CONFIG_JSON SPAWNED

MODE is `setup` (import shelab from this checkout and validate the config,
then stop), `run` (also execute the experiment untraced) or `trace`
(execute it with the layer tracer installed).  CONFIG_JSON is the
experiment config; its out_dir receives the CSV files and, when traced, the
spans as trace.json.  SPAWNED is the parent's time.monotonic()
just before it started this process; CLOCK_MONOTONIC is system-wide, so
setup_s covers interpreter start-up too.  After set-up, and all through an
untraced run, the child samples the host's speed (SpeedProbe); run.py
scales the times by it.  The result is printed as one JSON line.  A run
that raises exits with status 1.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def csv_check(out_dir):
    """(SHA-256 over the CSV files in name order, list of non-finite cells)."""
    h = hashlib.sha256()
    bad = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        name = os.path.basename(path)
        with open(path, "rb") as fh:
            body = fh.read()
        h.update(name.encode() + b"\0" + body + b"\0")
        for line in body.decode().splitlines():
            if line.startswith("#") or line.startswith("series,"):
                continue
            # the series name may itself hold commas; the last five are numbers
            if not all(math.isfinite(float(v)) for v in line.split(",")[-5:]):
                bad.append(f"{name}: {line}")
    return h.hexdigest(), bad


# Host-speed probe.  A shared host runs the same instructions up to 1.7x
# slower for seconds or minutes at a time, and process CPU time slows with
# it.  So a child times a short fixed kernel of NumPy/SciPy operations (no
# shelab code) in two parts: calls on a short row (a Philox fill, the
# inverse-CDF transform and a 23-tap convolution), where call overhead
# dominates, and passes over an array larger than the core's L2 cache,
# which a run evicts from the nearer caches between samples.  The parts
# take about equal time; of the mixes tried (with a third part on long
# rows, in steps of a tenth), this one's speed tracked the speed of all
# three workloads best.  The kernel runs PROBE_SETUP_SAMPLES times after
# set-up, and during a run every PROBE_INTERVAL_S from a SIGALRM handler,
# whose time is taken out of the run's wall.  A sample that took t seconds
# gives the host's speed as PROBE_NOMINAL_S / t, PROBE_NOMINAL_S being about
# the kernel's time on an idle host of the kind in baseline.json; the mean
# over a run's samples is the time-average of the speed during the run.
# The probe's array adds PROBE_BIG * 8 bytes to the run's peak RSS.
PROBE_SHORT_ROW = 281
PROBE_SHORT_CALLS = 80
PROBE_BIG = 1 << 19
PROBE_BIG_PASSES = 2
PROBE_NOMINAL_S = 0.0018
PROBE_INTERVAL_S = 0.2
PROBE_SETUP_SAMPLES = 15


class SpeedProbe:
    def __init__(self):
        import numpy as np
        from scipy.special import ndtri

        self._np, self._ndtri = np, ndtri
        self._taps = np.exp(-np.linspace(-3.0, 3.0, 23) ** 2)
        self._taps /= self._taps.sum()
        self._rng = np.random.Generator(np.random.Philox(0))
        self._big = np.ones(PROBE_BIG)
        self.speeds, self.spent_s = [], 0.0
        self.sample()  # warm-up, not kept
        self.take()

    def sample(self, *_):
        np, ndtri, taps, rng = self._np, self._ndtri, self._taps, self._rng
        t0 = time.perf_counter()
        row = rng.random(PROBE_SHORT_ROW)
        for _ in range(PROBE_SHORT_CALLS):
            row = np.convolve(row, taps, mode="same") + ndtri(rng.random(PROBE_SHORT_ROW))
        for _ in range(PROBE_BIG_PASSES):
            np.multiply(self._big, 1.0, out=self._big)
            self._big.sum()
        t = time.perf_counter() - t0
        self.speeds.append(PROBE_NOMINAL_S / t)
        self.spent_s += t

    def take(self):
        """(mean speed, samples, seconds spent sampling) since the last
        take; starts afresh."""
        taken = (sum(self.speeds) / max(len(self.speeds), 1), len(self.speeds),
                 self.spent_s)
        self.speeds, self.spent_s = [], 0.0
        return taken

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv):
    mode, config_json, spawned = argv
    sys.path[:0] = [SRC, HERE]
    import shelab
    from shelab import experiments
    import workloads

    if os.path.dirname(os.path.abspath(shelab.__file__)) != os.path.join(SRC, "shelab"):
        raise SystemExit(f"shelab imported from {shelab.__file__}, not from {SRC}")
    cfg = experiments.ExperimentConfig.from_dict(json.loads(config_json))
    cfg.validate()
    result = {"setup_s": time.monotonic() - float(spawned),
              "master_seed": cfg.master_seed}
    probe = SpeedProbe()
    for _ in range(PROBE_SETUP_SAMPLES):
        probe.sample()
    result["setup_speed"] = probe.take()[0]
    if mode == "setup":
        print(json.dumps(result))
        return
    required = workloads.required_cell_steps(cfg)
    tracer = None
    if mode == "trace":
        import tracer as tr
        tracer = tr.Tracer()
        tr.instrument(tracer)
        t0 = time.perf_counter()
        report = experiments.run(cfg)
        wall = time.perf_counter() - t0
    else:
        with probe:
            t0 = time.perf_counter()
            report = experiments.run(cfg)
            wall = time.perf_counter() - t0
        result["speed"], result["speed_samples"], spent = probe.take()
        wall -= spent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest, nonfinite = csv_check(cfg.out_dir)
    result.update(
        wall_s=wall,
        required_cell_steps=required,
        peak_rss_mb=peak_rss_mb,
        digest=digest,
        nonfinite=nonfinite,
        verdict_misses=[v["criterion"] for v in report.verdicts
                        if not v["passed"] and workloads.KNOWN_XFAIL not in v["criterion"]])
    if tracer is not None:
        result["layers"] = tr.layer_metrics(tracer, required)
        result["trace_error"] = tr.check_self_times(result["layers"])
        result["expected_counts"] = workloads.expected_counts(cfg, experiments._CHUNK)
        with open(os.path.join(cfg.out_dir, "trace.json"), "w") as fh:
            json.dump(tracer.records(), fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

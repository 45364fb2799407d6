"""Benchmark of shelab's acceptance workloads at 10% of their replicates.

    python3 perfbench/run.py --workload {clt,moment,shift} [--seed N]
                             [--seconds S] [--trace 0|1]

Every run of the workload is one `experiments.run(cfg)` call in a fresh
interpreter (perfbench/child.py) with workers=1, so set-up time and peak RSS
are per run and no cache warms across runs.  Runs are sequential: the
benchmark never has more than one child process.

--trace 0 makes runs while the next one is expected to end within --seconds
of the start, then set-up probes (interpreters that only import shelab and
validate the config) in the time left, at least SETUP_SAMPLES set-ups in all.
It reports the medians of wall_s, setup_s (probes and runs) and peak_rss_mb,
and cell_steps_per_s from the median wall_s.  The times are scaled to a
nominal host speed (see child.SpeedProbe); the raw ones are printed too.
--trace 1 makes one traced run first, then untraced runs in the same way,
and reports the per-layer split of the traced run, in raw seconds;
trace.overhead_s is its wall minus the untraced raw median.

--seed is the master seed (default: the pinned acceptance seed).  All runs
of one invocation use it, so their CSV files must be byte-identical.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # set-ups timed per invocation, at the least
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cell_steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "noise.philox_s": "s", "noise.ndtri_s": "s", "propagate_s": "s",
    "experiments.driver_self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
    "noise.philox_calls": "count", "noise.variates": "count",
    "sim.conv_calls": "count", "sim.logK_calls": "count", "sim.cell_steps": "count",
    "green.conv_calls": "count", "sim.useful_ratio": "ratio", "green.used_ratio": "ratio",
}
# printed by the traced run besides PER_LAYER; zero on workloads that never
# enter the layer
MODULE_TIMES = ("sim.propagate_self_s", "sim.conv_s", "sim.logK_s",
                "green.shift_self_s", "green.conv_s", "oracles.volterra_s",
                "stats.s", "experiments.consume_s")


class ChildFailed(Exception):
    pass


def spawn(mode, cfg):
    """Run child.py once on config dict cfg; its parsed JSON result, or
    ChildFailed."""
    os.makedirs(cfg["out_dir"])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, json.dumps(cfg), repr(spawned)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} run exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} run exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def recorded_digest(workload, master_seed):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(master_seed))


def measure(args, base):
    dirs = (os.path.join(base, f"{i:03d}") for i in itertools.count())

    def child(mode):
        return spawn(mode, workloads.config_dict(args.workload, args.seed, next(dirs)))

    start = time.monotonic()
    traced = None
    if args.trace:
        traced = child("trace")
        os.replace(os.path.join(base, "000", "trace.json"),
                   os.path.join(RUN_DIR, f"trace-{args.workload}.json"))
    setup, runs, errors = [], [], []
    longest = 0.0
    while not runs or time.monotonic() - start + longest <= args.seconds:
        t0 = time.monotonic()
        try:
            runs.append(child("run"))
        except ChildFailed as e:
            errors.append(str(e))
            break
        longest = max(longest, time.monotonic() - t0)
    if not args.trace and runs:
        longest = 0.0
        while (len(setup) + len(runs) < SETUP_SAMPLES
               or time.monotonic() - start + longest <= args.seconds):
            t0 = time.monotonic()
            setup.append(child("setup"))
            longest = max(longest, time.monotonic() - t0)
    return setup, runs, traced, errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    ap.add_argument("--seed", type=int, default=None,
                    help="master seed (default: the pinned acceptance seed)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must fit in 64 bits")

    base = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    try:
        setup, runs, traced, errors = measure(args, base)
    except ChildFailed as e:
        sys.exit(f"perfbench: {e}")
    finally:
        shutil.rmtree(base, ignore_errors=True)

    done = runs + ([traced] if traced else [])
    for e in errors:
        print(f"FAILED RUN: {e}", file=sys.stderr)
    if not runs or (args.trace and traced is None):
        sys.exit("perfbench: no run completed")

    master_seed = done[0]["master_seed"]
    attempted = len(done) + len(errors)
    bad_csv = [r for r in done if r["nonfinite"]]
    misses = [r for r in done if r["verdict_misses"]]
    failed = len(errors) + len(bad_csv)
    digests = {r["digest"] for r in done}
    correct = failed == 0 and len(digests) == 1

    print(f"workload {args.workload}  master_seed {master_seed}  "
          f"runs {attempted}  trace {args.trace}")
    if args.trace:
        layers = dict(traced["layers"])
        trace_error = traced["trace_error"]
        correct = correct and trace_error is None
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - statistics.median(r["wall_s"] for r in runs))
        wall = layers["trace.wall_s"]
        for name in list(PER_LAYER) + list(MODULE_TIMES):
            unit = PER_LAYER.get(name, "s")
            share = f"  {100 * layers[name] / wall:5.1f}% of traced wall" if unit == "s" else ""
            print(f"  {name:28s} {layers[name]:.6g} {unit}{share}")
        print("self times add up to the traced wall" if trace_error is None
              else f"TRACE CHECK FAILED: {trace_error}")
        for name, want in traced["expected_counts"].items():
            got = layers[name]
            print(f"  count {name}: {got} ({'as' if got == want else 'NOT as'} "
                  f"the config implies, {want})")
        metrics = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER.items()}
    else:
        # a time t taken while the host ran at speed v (child.SpeedProbe)
        # is reported as t * v, its length at the nominal speed
        walls = [r["wall_s"] * r["speed"] for r in runs]
        setups = [r["setup_s"] * r["setup_speed"] for r in setup + runs]
        wall = statistics.median(walls)
        required = runs[0]["required_cell_steps"]
        per_run = {
            "wall_s": walls,
            "cell_steps_per_s": [required / w for w in walls],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        metrics = {}
        for name, unit in END_TO_END.items():
            vals = per_run[name]
            lo, hi = quartiles(vals)
            value = required / wall if name == "cell_steps_per_s" else statistics.median(vals)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:18s} {value:.6g} {unit}  quartiles {lo:.6g}..{hi:.6g}  "
                  f"n={len(vals)}  runs: {' '.join(f'{v:.4g}' for v in vals)}")
        print(f"  raw medians: wall_s {statistics.median(r['wall_s'] for r in runs):.6g} s, "
              f"setup_s {statistics.median(r['setup_s'] for r in setup + runs):.6g} s")
        print("  host speed in runs: " + " ".join(f"{r['speed']:.3f}" for r in runs)
              + f" ({sum(r['speed_samples'] for r in runs)} samples); in set-ups: "
              + " ".join(f"{r['setup_speed']:.3f}" for r in setup + runs))

    print(f"  failed_frac {(failed + len(misses)) / attempted:.3g}  "
          f"({failed} raised or wrote non-finite CSV values, {len(misses)} missed "
          f"a verdict other than the known xfail, of {attempted})")
    for r in misses[:1]:
        print(f"  verdict misses at this seed: {r['verdict_misses']}")
    recorded = recorded_digest(args.workload, master_seed)
    if len(digests) > 1:
        print("  CSV DIGESTS DIFFER BETWEEN RUNS OF ONE SEED: output is not reproducible")
    elif recorded is None:
        print(f"  csv digest {done[0]['digest']}: none recorded for this seed")
    else:
        state = "identical to" if recorded in digests else "CHANGED from"
        print(f"  csv digest {done[0]['digest']}: {state} the recorded one")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

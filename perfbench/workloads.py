"""Benchmark workloads and the work counts derived from their configs.

Each workload is an acceptance-suite fixture config (tests/test_acceptance.py)
at 10% of its replicates, run with workers=1.  Only the master seed varies;
the pinned acceptance seed is the default.

Why these three (the four other acceptance workloads repeat a layer mix
already covered: fdd is close to clt, holder and covariance to moment, and
the oracle suite is a subset of moment's oracle work):

  clt     far-field grid (n = 4161) in the kernel-relative engine: the tap
          loop and the log-kernel step dominate, noise is drawn in long rows.
  moment  small grid (n = 801) in the absolute engine plus the Volterra
          oracle: noise-bound, one Philox fill per (replicate, step) row, and
          every trajectory is evolved twice (to the first-moment and to the
          gbar checkpoint).
  shift   Green's-function shift identity: per-replicate (2, n) forward and
          (n,) adjoint convolutions, so wrapper overhead per call dominates;
          the batch engine does not run at all.

This module imports nothing from shelab at import time, so the parent
process of the benchmark stays free of the package under test.
"""

from __future__ import annotations

import math

CONFIGS = {
    "clt": dict(
        kind="clt", master_seed=20260810,
        dx=0.1, half_width=208.0, times=[1.0], n_values=[50.0, 200.0],
        replicates=150, calibration_replicates=40),
    "moment": dict(
        kind="diagnostics", master_seed=20260812,
        dx=0.05, half_width=20.0, times=[1.0],
        replicates=200, calibration_replicates=10,
        first_moment_xmax=6.0,
        gbar_probe={"t": 0.5, "x": 0.0, "k": 2, "volterra_levels": 96}),
    "shift": dict(
        kind="shift_check", master_seed=20260814,
        dx=0.05, half_width=7.0, times=[0.5], shift_s=0.25,
        shift_probes=[[0.0, 0.0], [1.0, 0.5]],
        replicates=250, calibration_replicates=1),
}

# the acceptance suite pins this CLT verdict as a strict xfail
KNOWN_XFAIL = "|Var ratio - 1| shrinks"


def config_dict(workload: str, master_seed: int | None, out_dir: str) -> dict:
    d = dict(CONFIGS[workload], workers=1, out_dir=out_dir)
    if master_seed is not None:
        d["master_seed"] = master_seed
    return d


def required_cell_steps(cfg) -> int:
    """Replicate-cell-steps the verdicts need: estimation replicates x cells
    x last checkpoint step.  Checkpoints of one trajectory share it, so a
    diagnostics run needs only its latest one; shift probes are distinct
    source pairs and add up."""
    g = cfg.grid()
    n = g.cell_count
    if cfg.kind == "shift_check":
        return len(cfg.shift_probes) * cfg.replicates * n * g.step_of(cfg.times[-1])
    last = g.step_of(cfg.times[-1])
    if cfg.kind == "diagnostics":
        probes = [float(s) for s in cfg.holder_s_values]
        if cfg.gbar_probe:
            probes.append(float(cfg.gbar_probe.get("t", 0.5)))
        last = max([last] + [g.step_of(t) for t in probes])
    return cfg.replicates * n * last


def expected_counts(cfg, chunk: int) -> dict:
    """Trace counts implied by the config under the evolution schedule of the
    drivers as they stand: one engine run per chunk of `chunk` replicates
    and pass, one Philox fill per (replicate, step) row, one inverse-CDF
    call per step of a block, one absolute convolution per step of a block
    and one log-kernel step per step of a relative run."""
    g = cfg.grid()
    n = g.cell_count
    counts = dict.fromkeys(("noise.philox_calls", "noise.variates", "sim.conv_calls",
                            "sim.logK_calls", "sim.cell_steps", "green.conv_calls"), 0)

    def engine(reps, steps, relative):
        runs = math.ceil(reps / chunk)
        counts["noise.philox_calls"] += reps * steps
        counts["noise.variates"] += reps * n * steps
        counts["sim.cell_steps"] += reps * n * steps
        counts["sim.logK_calls" if relative else "sim.conv_calls"] += runs * steps

    if cfg.kind == "clt":
        k = g.step_of(cfg.times[-1])
        engine(cfg.calibration_replicates, k, True)
        engine(cfg.replicates, k, True)
    elif cfg.kind == "diagnostics":
        engine(cfg.replicates, g.step_of(cfg.times[-1]), False)
        if cfg.holder_s_values:
            engine(cfg.replicates, max(g.step_of(s) for s in cfg.holder_s_values), False)
        if cfg.gbar_probe:
            engine(cfg.replicates, g.step_of(float(cfg.gbar_probe.get("t", 0.5))), False)
    elif cfg.kind == "shift_check":
        kt, ks = g.step_of(cfg.times[-1]), g.step_of(cfg.shift_s)
        rows = len(cfg.shift_probes) * cfg.replicates
        counts["noise.philox_calls"] = rows * kt
        counts["noise.variates"] = rows * kt * n
        counts["green.conv_calls"] = rows * (kt + kt - ks)
    else:
        raise ValueError(f"no count model for kind {cfg.kind!r}")
    return counts

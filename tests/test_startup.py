"""A shelab run imports scipy.stats and scipy.integrate only if it calls them.

Only the KS verdicts (clt, covariance) use scipy.stats, and only the
quadrature oracles use scipy.integrate, so `import shelab` and a diagnostics
or shift_check run must load neither.  The check runs in a fresh interpreter,
because other test modules import scipy.stats themselves.
"""

import json
import os
import subprocess
import sys

import shelab

LAZY = ("scipy.stats", "scipy.integrate")

SCRIPT = r"""
import json, sys, tempfile
import scipy.special, scipy.optimize, scipy.ndimage, scipy.sparse
# what the scipy modules every run needs load by themselves
before = [m for m in LAZY if m in sys.modules]
import shelab
from shelab.experiments import ExperimentConfig, run
configs = [
    dict(kind="diagnostics", master_seed=3, dx=0.1, half_width=10.0, times=[0.5],
         replicates=4, first_moment_xmax=1.0, holder_s_values=[0.01, 0.02],
         gbar_probe={"t": 0.25, "x": 0.5, "k": 2}),
    dict(kind="shift_check", master_seed=3, dx=0.05, half_width=7.0, times=[0.5],
         shift_s=0.25, shift_probes=[[1.0, 0.5]], replicates=4),
]
with tempfile.TemporaryDirectory() as out:
    for i, cfg in enumerate(configs):
        cfg = ExperimentConfig(workers=1, out_dir=f"{out}/{i}", **cfg)
        cfg.validate()
        run(cfg)
print(json.dumps({"before": before, "after": [m for m in LAZY if m in sys.modules]}))
"""


def test_diagnostics_and_shift_runs_load_neither_scipy_stats_nor_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(shelab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", f"LAZY = {LAZY!r}\n{SCRIPT}"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert set(loaded["after"]) <= set(loaded["before"]), loaded

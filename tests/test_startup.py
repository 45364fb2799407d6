"""A shelab run imports scipy.optimize, scipy.stats and scipy.integrate only
if it calls them.

The heat step's tap width is solved by sim._brentq, an in-package port of
scipy.optimize.brentq, and the KS p-value of stats.ks_normality by
stats._kstwo_sf, an in-package port of scipy.stats.kstwo.sf, so no shelab
code imports scipy.optimize, and only the covariance stationarity test
(ks_2samp) uses scipy.stats.  Only the quadrature oracles use
scipy.integrate, which loads scipy.optimize itself.  So a bare
`import shelab`, and a diagnostics or shift_check run, must load none of
the three, and a clt run no scipy.stats.  The checks run in fresh
interpreters, because other test modules import these modules themselves.
"""

import json
import os
import subprocess
import sys

import shelab

LAZY = ("scipy.optimize", "scipy.stats", "scipy.integrate")

SCRIPT = r"""
import json, sys, tempfile
import scipy.special, scipy.ndimage, scipy.sparse
# what the scipy modules every run needs load by themselves
before = [m for m in LAZY if m in sys.modules]
import shelab
from shelab.experiments import ExperimentConfig, run
with tempfile.TemporaryDirectory() as out:
    for i, cfg in enumerate(CONFIGS):
        cfg = ExperimentConfig(workers=1, out_dir=f"{out}/{i}", **cfg)
        cfg.validate()
        run(cfg)
print(json.dumps({"before": before, "after": [m for m in LAZY if m in sys.modules]}))
"""

DIAGNOSTICS = dict(kind="diagnostics", master_seed=3, dx=0.1, half_width=10.0,
                   times=[0.5], replicates=4, first_moment_xmax=1.0,
                   holder_s_values=[0.01, 0.02],
                   gbar_probe={"t": 0.25, "x": 0.5, "k": 2})
SHIFT_CHECK = dict(kind="shift_check", master_seed=3, dx=0.05, half_width=7.0,
                   times=[0.5], shift_s=0.25, shift_probes=[[1.0, 0.5]],
                   replicates=4)
# 50 replicates: the fewest ks_normality accepts, so the KS verdicts run
CLT = dict(kind="clt", master_seed=3, dx=0.1, half_width=20.0, times=[0.5],
           n_values=[5.0, 10.0], replicates=50, calibration_replicates=2)


def _fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(shelab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_by_runs(configs):
    return _fresh_interpreter(f"LAZY = {LAZY!r}\nCONFIGS = {configs!r}\n{SCRIPT}")


def test_diagnostics_and_shift_runs_load_no_lazy_scipy_module():
    loaded = _loaded_by_runs([DIAGNOSTICS, SHIFT_CHECK])
    assert set(loaded["after"]) <= set(loaded["before"]), loaded


def test_clt_run_loads_no_scipy_stats():
    # continuum_first_chaos's quadrature may load scipy.integrate and
    # scipy.optimize; the KS verdicts must not load scipy.stats
    loaded = _loaded_by_runs([CLT])
    assert "scipy.stats" not in loaded["after"], loaded


def test_bare_import_loads_no_lazy_scipy_module():
    loaded = _fresh_interpreter(
        "import json, sys\nimport shelab\n"
        f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))")
    assert loaded == [], loaded

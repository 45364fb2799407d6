"""Tests of the benchmark's tracer on small configs of each traced kind.

    python3 -m pytest perfbench/test_tracer.py

Each traced run happens in its own interpreter (child.py), because the
tracer patches shelab's module globals for the rest of the process.
Checked: the self times add up to the traced wall, and the counts equal the
values implied by the config and repeat exactly.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))

SMALL = {
    "clt": dict(kind="clt", master_seed=5, dx=0.1, half_width=20.0, times=[0.5],
                n_values=[5.0, 10.0], replicates=70, calibration_replicates=5),
    "diagnostics": dict(kind="diagnostics", master_seed=5, dx=0.1, half_width=10.0,
                        times=[0.5], replicates=70, calibration_replicates=1,
                        first_moment_xmax=1.0, holder_s_values=[0.01, 0.02, 0.05],
                        gbar_probe={"t": 0.25, "x": 0.0, "k": 2, "volterra_levels": 32}),
    "shift_check": dict(kind="shift_check", master_seed=5, dx=0.1, half_width=7.0,
                        times=[0.5], shift_s=0.25, shift_probes=[[0.0, 0.0], [0.5, 0.5]],
                        replicates=70, calibration_replicates=1),
}


def traced(cfg, out_dir):
    """Result of one traced run of cfg by child.py."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "trace",
         json.dumps(dict(cfg, out_dir=str(out_dir))), repr(time.monotonic())],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_self_times_and_counts(kind, tmp_path):
    first = traced(SMALL[kind], tmp_path / "a")
    second = traced(SMALL[kind], tmp_path / "b")
    for res in (first, second):
        assert res["trace_error"] is None
        for name, want in res["expected_counts"].items():
            assert res["layers"][name] == want, name
    counts = [k for k, v in first["layers"].items() if isinstance(v, int)]
    assert counts
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}
    if kind == "diagnostics":
        # the gbar and Hoelder passes re-evolve trajectories the first pass made
        assert 0 < first["layers"]["sim.useful_ratio"] < 1

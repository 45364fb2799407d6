"""The benchmark's workload configs validate.

perfbench/workloads.py imports nothing from shelab, so it is loaded by path;
a validator change that rejects a benchmark config fails here rather than
only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

from shelab.experiments import ExperimentConfig

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", sorted(workloads.CONFIGS))
def test_benchmark_workload_config_validates(workload):
    ExperimentConfig(**workloads.config_dict(workload, None, None)).validate()

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    # every name a demo imports from shelab exists; no demo is run
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shelab":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name}: {node.module} has no {missing}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "shelab":
                    importlib.import_module(a.name)


def test_oracle_suite_demo_runs():
    # the import check above cannot see a demo that misreads what an oracle
    # returns; this demo touches no simulator, so it is quick to run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "demo_oracle_suite.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "second-moment oracle" in proc.stdout


MODULES = sorted(p.stem for p in (ROOT / "src" / "shelab").glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    # `from shelab.<module> import *` raises on a stale __all__ entry
    exec(f"from shelab.{name} import *", {})

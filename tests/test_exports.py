import importlib.util
import json
import os
import subprocess
import sys

import pytest


@pytest.mark.parametrize("name", ["slopelab", "slopelab.arith",
                                  "slopelab.monodromy"])
def test_exports_resolve(name):
    # a name left in __all__ after its definition is gone breaks
    # `from package import *`
    package = importlib.import_module(name)
    missing = [attr for attr in package.__all__ if not hasattr(package, attr)]
    assert missing == []


def test_benchmark_tracer_still_binds_the_library(tmp_path, monkeypatch):
    # perfbench/trace.py wraps library functions by name (closure_direct
    # among them) and perfbench/kernels.py imports them; a renamed or
    # deleted name would break `--trace 1` runs without failing a workload
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    bench = os.path.join(root, "perfbench")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), bench]))
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(bench, "trace.py"), "--out", str(out),
         "--run-id", "t", "cli", "np", "compare", "1/2x2", "1/2x2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["exit"] == 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "kernels", os.path.join(bench, "kernels.py"))
    spec.loader.exec_module(importlib.util.module_from_spec(spec))

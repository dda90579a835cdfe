import ast
import importlib.util
import json
import os
import subprocess
import sys

import pytest


_PACKAGES = ("slopelab", "slopelab.arith", "slopelab.monodromy")
_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.mark.parametrize("name", _PACKAGES)
def test_exports_resolve(name):
    # a name left in __all__ after its definition is gone breaks
    # `from package import *`
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    missing = [attr for attr in package.__all__ if not hasattr(package, attr)]
    assert missing == []
    # the package hands out the defining module's object, not a copy
    for attr in package.__all__:
        value = getattr(package, attr)
        home = sys.modules[getattr(value, "__module__", name)]
        assert getattr(home, attr) is value, attr
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert all(namespace[attr] is getattr(package, attr)
               for attr in package.__all__)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")


# Runs one import or one CLI command in a fresh interpreter and prints the
# modules it loaded beyond those present at start-up.
_LOADED = """
import contextlib, io, sys
before = set(sys.modules)
code = 0
if sys.argv[1] == "import":
    __import__(sys.argv[2])
else:
    from slopelab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def _loaded(argv) -> set:
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("name", _PACKAGES)
def test_importing_a_package_loads_none_of_its_modules(name):
    loaded = {m for m in _loaded(["import", name]) if m.startswith("slopelab")}
    assert loaded <= {"slopelab", name, "slopelab.errors"}


@pytest.mark.parametrize("argv, unused", [
    (["units", "verify", "--p", "3", "--s", "2", "--n", "2"],
     ["slopelab.display", "slopelab.polygon", "slopelab.monodromy",
      "slopelab.arith.twisted", "dataclasses"]),
    (["as", "test", "--q", "3", "--field", "F9", "--all"],
     ["slopelab.arith.witt", "slopelab.arith.ramified", "slopelab.unitgroup",
      "slopelab.display", "slopelab.monodromy.equations",
      "slopelab.monodromy.certify", "slopelab.monodromy.slab"]),
    (["np", "compare", "1/2x2", "1/2x2"], ["slopelab.arith"]),
    # no command pays for `dataclasses` and the `inspect` it loads
    (["certify", "--base", "ss6", "--lambda", "1/3", "--p", "2",
      "--guard", "100000"], ["dataclasses", "inspect"]),
    (["deform", "--base", "ss6", "--lambda", "1/3"],
     ["dataclasses", "inspect"]),
    (["np", "attain", "--poly", "1/2x6", "--lambda", "1/3"],
     ["dataclasses", "inspect"]),
    (["as", "test", "--q", "3", "--field", "F9", "--all"],
     ["dataclasses", "inspect"]),
])
def test_a_command_loads_only_the_modules_it_runs(argv, unused):
    loaded = sorted(m for m in _loaded(argv) for u in unused
                    if m == u or m.startswith(u + "."))
    assert loaded == []


def test_benchmark_tracer_still_binds_the_library(tmp_path, monkeypatch):
    # perfbench/trace.py wraps library functions by name (closure_direct
    # among them) and perfbench/kernels.py imports them; a renamed or
    # deleted name would break `--trace 1` runs without failing a workload
    bench = os.path.join(_ROOT, "perfbench")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([os.path.join(_ROOT, "src"), bench]))
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(bench, "trace.py"), "--out", str(out),
         "--run-id", "t", "cli", "np", "compare", "1/2x2", "1/2x2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["exit"] == 0
    # the per-layer view still sees the display layer of a deformation
    proc = subprocess.run(
        [sys.executable, os.path.join(bench, "trace.py"), "--out", str(out),
         "--run-id", "t", "cli", "deform", "--base", "ss6", "--lambda", "1/3"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["exit"] == 0
    spans = [rec[0] for rec in data["spans"]]
    assert "display.deformation" in spans
    # the base charpoly is computed once and read from the spec after
    assert spans.count("display.charpoly") == 1
    # the graded legs, and at p = 2 the depth-one report next to the
    # 2 q = 8 congruence checks, are wrapped by name
    for argv, span, count in (
            (["certify", "--base", "ss6", "--lambda", "1/3", "--p", "2",
              "--guard", "100000"], "certify.graded", 2),
            (["units", "verify", "--p", "2", "--s", "2", "--n", "2"],
             "unitgroup.pth_power", 9)):
        proc = subprocess.run(
            [sys.executable, os.path.join(bench, "trace.py"), "--out",
             str(out), "--run-id", "t", "cli", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["exit"] == 0
        spans = [rec[0] for rec in data["spans"]]
        assert spans.count(span) == count
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "kernels", os.path.join(bench, "kernels.py"))
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


# the fast paths that tests/oracles.py checks; an oracle that borrowed from
# them would agree with them by construction
_FAST_PATHS = ("slopelab.arith.linalg", "slopelab.unitgroup",
               "slopelab.monodromy.slab")


def _oracle_imports():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "oracles.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, node.module or "", alias.name


def _borrows_a_fast_path(module, name) -> bool:
    if not module.startswith("slopelab"):
        return False
    full = module if name is None else f"{module}.{name}"
    if any(part.startswith("_") for part in full.split(".")):
        return True
    if any(full == m or full.startswith(m + ".") for m in _FAST_PATHS):
        return True
    # a name re-exported by a package is judged by the module defining it
    value = getattr(importlib.import_module(module), name or "", None)
    return getattr(value, "__module__", None) in _FAST_PATHS


def test_oracles_share_no_code_with_the_fast_paths():
    found = [f"oracles.py:{line}: {module} {name or ''}".rstrip()
             for line, module, name in _oracle_imports()
             if _borrows_a_fast_path(module, name)]
    assert found == []

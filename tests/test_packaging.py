"""Packaging metadata and module exports point at things that exist."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import arcwave

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
MODULES = sorted(m.name for m in pkgutil.iter_modules(arcwave.__path__))


def test_readme_exists():
    assert (ROOT / PROJECT["readme"]).is_file()


def test_script_targets_import():
    for name, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(f"arcwave.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"arcwave.{module}.__all__ names missing attributes: {missing}"


def test_importing_arcwave_loads_no_scipy():
    code = ("import sys\n"
            f"for name in {MODULES!r}:\n"
            "    __import__('arcwave.' + name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(arcwave.__path__[0]).parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    assert [d.split(">")[0] for d in PROJECT["dependencies"]] == ["numpy"]


def test_no_module_imports_a_private_name_from_another():
    """Modules share only public names; a private one stays in its module."""
    found = []
    for path in sorted(Path(arcwave.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "arcwave"
            found += [f"{path.name}: {node.module}.{alias.name}"
                      for alias in node.names
                      if internal and alias.name.startswith("_")]
    assert not found, found


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module imports is read in it, or re-exported by ``__all__``."""
    found = []
    for path in sorted(Path(arcwave.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in [
                    getattr(target, "id", None) for target in node.targets]:
                exported.update(ast.literal_eval(node.value))
        found += [f"{path.name}: {name}" for name in imported
                  if name not in used and name not in exported]
    assert not found, found


def test_every_cited_roadmap_item_exists():
    """A "ROADMAP item N" cited in code or tests names an item header of ROADMAP.md."""
    items = set(re.findall(r"^(\d+)\. \*\*", (ROOT / "ROADMAP.md").read_text(), re.M))
    cited = {}
    for path in sorted([*Path(arcwave.__path__[0]).glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        for number in re.findall(r"ROADMAP[\s#]+item[\s#]+(\d+)", path.read_text()):
            cited.setdefault(number, []).append(path.name)
    missing = {n: names for n, names in cited.items() if n not in items}
    assert not missing, f"cited ROADMAP items without a header: {missing}"


#: the benchmark's own traffic: one ``--toy`` round of every workload in
#: ``benchmark/workloads.py``, inputs made before the profile starts, with
#: the scan's rows run inline (one CPU as far as ``error_scan`` can tell)
PRODUCTION_ROUTES = """
import os
import workloads

os.sched_getaffinity = lambda pid: {0}
inputs = {name: w.inputs(1, True) for name, w in workloads.WORKLOADS.items()}
failed = []
sys.setprofile(profile)
for name, w in workloads.WORKLOADS.items():
    out = w.run_round(w.setup(inputs[name]), inputs[name])
    failed += [f"{name}: {op['error']}" for op in out["ops"] if "error" in op]
sys.setprofile(None)
"""

#: defs of src/arcwave that no production route calls, each kept on purpose
REACH_ALLOWLIST = {
    # the per-call first-block kernel gets a production role in ROADMAP item 14
    "kernels.py:n_hat",
    # reached only in the forked children of a scan, which the profile does not follow
    "sim.py:_bin_child",
}


def _source_defs() -> dict[tuple[str, int], str]:
    """(file name, first line of the code object) -> "file:qualname" for every
    def in src/arcwave; a decorated def's code starts at its first decorator."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                defs[(path.name, first)] = f"{path.name}:{qualname}"
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(Path(arcwave.__path__[0]).glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return defs


def _replay_production_routes(profile: str) -> dict:
    """Replay ``PRODUCTION_ROUTES`` under a profile function in a fresh
    interpreter, so that every lru cache starts cold as in the benchmark's
    workers.

    ``profile`` is code that defines ``profile(frame, event, arg)`` and the
    set ``seen`` it adds to; ``sys.argv[1]`` is src/arcwave.  Returns the
    sorted ``seen`` and the operations that failed.
    """
    src = Path(arcwave.__path__[0])
    code = ("import json, sys\n" + profile + PRODUCTION_ROUTES +
            "print(json.dumps({'seen': sorted(seen), 'failed': failed}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src.parent), str(ROOT / "benchmark"), os.environ.get("PYTHONPATH", "")]))
    return json.loads(subprocess.run([sys.executable, "-c", code, str(src)], env=env,
                                     check=True, capture_output=True, text=True).stdout)


def test_src_holds_only_production_routes():
    """Every def in src/arcwave runs on a production route, or is allowed.

    The replay reports the code objects of src/arcwave that were entered,
    and the operations that failed.
    """
    out = _replay_production_routes(
        "seen = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_filename.startswith(sys.argv[1]):\n"
        "        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))\n")
    assert out["failed"] == []
    ran = {(Path(name).name, line) for name, line in out["seen"]}
    never = sorted(name for key, name in _source_defs().items() if key not in ran)
    assert never == sorted(REACH_ALLOWLIST)


def test_production_routes_call_no_linear_algebra():
    """No workload round calls into ``numpy.linalg`` or ``numpy.polyfit``.

    The scan's slope is a closed-form least-squares fit, so a round never
    touches the LAPACK code that a fit through ``polyfit`` would page in.
    """
    out = _replay_production_routes(
        "import os, numpy\n"
        "numpy_dir = os.path.dirname(numpy.__file__) + os.sep\n"
        "linalg_dir = os.path.dirname(numpy.linalg.__file__) + os.sep\n"
        "seen = set()\n"
        "def profile(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if event == 'call' and (code.co_filename.startswith(linalg_dir) or (\n"
        "            code.co_name == 'polyfit' and code.co_filename.startswith(numpy_dir))):\n"
        "        seen.add(code.co_filename.removeprefix(numpy_dir) + ':' + code.co_name)\n")
    assert out["failed"] == []
    assert out["seen"] == []


def test_readme_test_nodes_exist():
    """Every ``tests/<file>.py::<node>`` that README names is a test that exists."""
    nodes = re.findall(r"tests/(\w+\.py)::([\w:]+)", (ROOT / PROJECT["readme"]).read_text())
    assert nodes
    missing = []
    for file, node in nodes:
        path = ROOT / "tests" / file
        scope = ast.parse(path.read_text()) if path.is_file() else None
        for name in node.split("::"):
            scope = next((child for child in getattr(scope, "body", [])
                          if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                          and child.name == name), None)
        if scope is None:
            missing.append(f"{file}::{node}")
    assert not missing, f"README names tests that do not exist: {missing}"


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_records_parse_and_carry_their_provenance(path):
    """Every root BENCH_*.json parses and says what it claims, how it was
    measured, on what machine and against which parent."""
    record = json.loads(path.read_text())
    missing = [key for key in ("claim", "command", "machine", "parent") if key not in record]
    assert not missing, f"{path.name} lacks {missing}"

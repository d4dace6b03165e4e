"""The benchmark (perfbench/) calls package functions directly from
its workloads and runner, and its traced run (perfbench/spans.py)
wraps package functions by module and name; a rename or removal must
show up here rather than as a crash of the benchmark."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SPANS = BENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import(modname):
    """The package module, or None for the optional compiled kernel
    when it is not built."""
    try:
        return importlib.import_module(modname)
    except ImportError:
        assert modname == "hyperforge._tccore"
        return None


def test_traced_names_resolve():
    missing = []
    for modname, attr, _, _ in _load_spans().TARGETS:
        module = _import(modname)
        if module is not None and not callable(getattr(module, attr, None)):
            missing.append("%s.%s" % (modname, attr))
    assert missing == []


def _package_names(tree):
    """(local name -> package module name) for the modules a file
    imports from the package, and the (module, name) pairs of the other
    names it imports from it."""
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names
                           if a.name.split(".")[0] == "hyperforge")
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "hyperforge":
            for a in node.names:
                full = "%s.%s" % (node.module, a.name)
                if importlib.util.find_spec(full) is not None or \
                        full == "hyperforge._tccore":
                    modules[a.asname or a.name] = full
                else:
                    names.append((node.module, a.name))
    return modules, names


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_direct_calls_resolve(name):
    # every attribute read off a package module the file imports, such
    # as engine.induced_geometry_map or toddcox.backend_name
    tree = ast.parse((BENCH / name).read_text())
    modules, reads = _package_names(tree)
    assert modules
    reads += [(modules[node.value.id], node.attr)
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    missing = []
    for modname, attr in reads:
        module = _import(modname)
        if module is not None and not hasattr(module, attr):
            missing.append("%s.%s" % (modname, attr))
    assert missing == []


def test_import_loads_only_numpy_and_the_standard_library():
    # the benchmark's setup_s times the import; a new third-party import
    # would show there first
    code = ("import json, sys; before = set(sys.modules); import hyperforge;"
            " print(json.dumps(sorted({m.split('.')[0] for m in sys.modules}"
            " - {m.split('.')[0] for m in before})))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert "hyperforge" in loaded
    assert [m for m in loaded if m not in ("hyperforge", "numpy")
            and m not in sys.stdlib_module_names] == []

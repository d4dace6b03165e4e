"""The traced benchmark run (perfbench/spans.py) wraps package
functions by module and name; a rename or removal must show up here
rather than as a crash of the traced run."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    missing = []
    for modname, attr, _, _ in _load_spans().TARGETS:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            # the compiled kernel is optional
            assert modname == "hyperforge._tccore"
            continue
        if not callable(getattr(module, attr, None)):
            missing.append("%s.%s" % (modname, attr))
    assert missing == []

"""The benchmark's traced names still name uniprod functions and methods.

perfbench/tracer.py wraps functions by name and perfbench/metrics.py reads
per-layer counters by name, so a rename under src/ would leave a counter
reading zero.  This guard fails at once; perfbench/selftest.py finds the
same fault only after running every workload.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    """The tracer and metrics modules, loaded from their files (metrics imports tracer)."""
    saved = {name: sys.modules.pop(name, None) for name in ("tracer", "metrics")}
    try:
        for name in saved:
            spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, f"{name}.py"))
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        yield sys.modules["tracer"], sys.modules["metrics"]
    finally:
        for name, mod in saved.items():
            sys.modules.pop(name, None)
            if mod is not None:
                sys.modules[name] = mod


def resolves(name: str) -> bool:
    """True when module.function or module.Class.method is what the tracer would wrap."""
    mod_name, *path = name.split(".")
    mod = importlib.import_module(f"uniprod.{mod_name}")
    if len(path) == 1:
        fn = getattr(mod, path[0], None)
        return inspect.isfunction(fn) and fn.__module__ == mod.__name__
    if len(path) == 2:
        cls = getattr(mod, path[0], None)
        return inspect.isclass(cls) and path[1] in vars(cls)
    return False


def test_wrapped_methods_exist(bench):
    tracer, _ = bench
    names = [f"{m}.{c}.{meth}" for m, classes in tracer.METHODS.items() for c, ms in classes.items() for meth in ms]
    assert [n for n in names if not resolves(n)] == []


def test_hot_names_exist(bench):
    tracer, _ = bench
    assert sorted(n for n in tracer.HOT if not resolves(n)) == []


def test_per_layer_call_metrics_name_functions(bench):
    _, metrics = bench
    heads = []
    for name, *_ in metrics.PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat not in ("calls", "self_s") or name.startswith("traced."):
            continue
        for split in ("cli.main", "harness.run_suite"):  # spans named per command or suite
            if head.startswith(split + "."):
                head = split
        heads.append(head)
    assert heads
    assert [h for h in heads if not resolves(h)] == []

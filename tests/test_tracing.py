"""The benchmark tracer (benchmarks/tracing.py, loaded read-only by path)
names functions and classes of the package; a deletion or an alias that
breaks it should fail here rather than at benchmark time."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import zenosim  # noqa: F401  (loads every module the tracer patches)
import zenosim.cli  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("zenosim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_state(constructors):
    modules = {n: m for n, m in sys.modules.items()
               if n == "zenosim" or n.startswith("zenosim.")}
    state = {(n, attr): value for n, m in modules.items() for attr, value in vars(m).items()}
    operators = modules["zenosim.operators"]
    for cname in constructors:
        state[("class", cname)] = getattr(operators, cname).__dict__["__post_init__"]
    return state


def test_traced_names_resolve_to_distinct_functions():
    tracing = _load_tracing()
    originals = []
    for layer, functions in tracing.TRACED.items():
        module = importlib.import_module(f"zenosim.{layer}")
        for fname in functions:
            fn = getattr(module, fname)
            assert inspect.isfunction(fn), f"{layer}.{fname}"
            originals.append(fn)
    # an alias would be wrapped once per traced name
    assert len({id(fn) for fn in originals}) == len(originals)
    operators = importlib.import_module("zenosim.operators")
    for cname in tracing.CONSTRUCTORS:
        assert "__post_init__" in getattr(operators, cname).__dict__


def test_install_then_uninstall_restores_every_attribute():
    tracing = _load_tracing()
    before = _package_state(tracing.CONSTRUCTORS)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert zenosim.operators.eig is not before[("zenosim.operators", "eig")]
        zenosim.zeno_sectors(zenosim.three_level(1.0, 1.0))
        assert tracer.spans
    finally:
        tracer.uninstall()
    after = _package_state(tracing.CONSTRUCTORS)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

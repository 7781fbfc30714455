"""Span tracer for the traced run, installed from outside the package.

Each traced function is replaced by a wrapper that records a span
``(name, start, end, parent)``.  Calls inside the package go through the
names each module bound at import time, so the wrapper is bound in place
of the original in every ``zenosim`` module that holds it.  The
constructors are traced through their validation (``__post_init__``).
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = {
    "operators": ("expm", "eig", "cluster_values", "snorm", "is_hermitian",
                  "load_matrix", "offblock_norm", "block_diagonal_part",
                  "projector_from_columns"),
    "pulsed": ("pulsed_propagator", "pulsed_limit", "nonselective_evolve",
               "survival_probability"),
    "continuous": ("zeno_sectors", "real_sectors", "exact_propagator",
                   "zeno_propagator", "nonadiabatic_defect"),
    "adiabatic": ("rotating_bundle", "required_steps", "intertwining_defect"),
    "models": ("three_level", "three_level_survival", "cavity", "dfs_extract"),
    "scenario": ("load_scenario", "run", "export_csv"),
}
CONSTRUCTORS = ("Operator", "Projector", "DensityMatrix")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# Work counts, accumulated from the arguments or result of a traced call:
# span name -> (counter, amount).
COUNTERS = {
    "pulsed.pulsed_propagator": ("pulsed.chain_steps",
                                 lambda a, k, r: int(_arg(a, k, 2, "n"))),
    "pulsed.nonselective_evolve": ("pulsed.chain_steps",
                                   lambda a, k, r: int(_arg(a, k, 2, "n"))),
    "adiabatic.required_steps": ("adiabatic.integrator_steps", lambda a, k, r: int(r)),
    "scenario.export_csv": ("scenario.csv_rows",
                            lambda a, k, r: len(_arg(a, k, 0, "series").rows)),
    "operators.load_matrix": ("operators.load_matrix.entries", lambda a, k, r: r.dim ** 2),
}


def span_names() -> list[str]:
    names = [f"operators.{c}" for c in CONSTRUCTORS]
    for layer, functions in TRACED.items():
        names += [f"{layer}.{f}" for f in functions]
    return names


def counter_names() -> list[str]:
    return sorted({c for c, _ in COUNTERS.values()})


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result
        return traced

    def top_level(self, offset: int = 0) -> list:
        return [s for s in self.spans[offset:] if s[3] < 0]

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "zenosim" or n.startswith("zenosim.")]
        for layer, functions in TRACED.items():
            home = importlib.import_module(f"zenosim.{layer}")
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        operators = importlib.import_module("zenosim.operators")
        for cname in CONSTRUCTORS:
            cls = getattr(operators, cname)
            original = cls.__dict__["__post_init__"]
            cls.__post_init__ = self._wrap(f"operators.{cname}", original)
            self._restore.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans, offset: int = 0) -> tuple[Counter, dict]:
    """Calls and self time (duration minus child spans) per span name.

    ``spans`` is a slice of a tracer's spans starting at index ``offset``
    that holds whole top-level spans; parents are absolute indices.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent - offset] += end - start
    calls, own = Counter(), defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - child[i]
    return calls, own

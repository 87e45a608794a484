"""Spans around the public functions and constructors of the effinfo modules.

`Tracer.install` wraps, from outside the program, every public function that
an `effinfo` module defines and the `__init__` of every class it defines. A
function is replaced in every `effinfo` module namespace that holds it, so the
names that `cli` and `instances` bind with `from .learning import ...` are
traced too. Each call records a span (layer, function, start, end, parent,
op id) in memory; `Tracer.end_batch` reduces the spans to calls and self
time per layer, where self time is a span's duration minus that of its children.
"""
from __future__ import annotations

import fnmatch
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# Functions that share one layer name, by name pattern; everything else is
# "<module>.<name>" and constructors are "<module>.construct". Report assembly
# is the `cmd_*` self time plus the `*_doc` builders of embedded documents.
LAYERS = {
    "learning.ei_of_learner": "learning.views",
    "learning.expected_risk": "learning.views",
    "learning.falsification_report": "learning.views",
    "info.expected_effective_information": "info.expected_ei",
    "documents.parse_*": "documents.parse",
    "documents.*_doc": "cli.report",
    "cli.cmd_*": "cli.report",
    "instances.random_*": "instances.generate",
}
# Each call of these sweeps all 2^l sign patterns of its dataset argument.
SWEEPS = ("learning.risk_distribution", "learning.rademacher")


def layer_of(func: str) -> str:
    for pattern, layer in LAYERS.items():
        if fnmatch.fnmatchcase(func, pattern):
            return layer
    return func


def _dataset_patterns(args, kwargs) -> int:
    """2^l for the dataset argument of a sweep call; 0 if it has no length."""
    d = kwargs.get("d", args[1] if len(args) > 1 else None)
    length = getattr(d, "length", None)
    return 1 << length if isinstance(length, int) else 0


class Tracer:
    """Records spans for one package while installed; not thread-safe."""

    def __init__(self, package: str = "effinfo"):
        self.package = package
        self.op = 0
        self.patterns_swept = 0
        self.batches = 0
        self.calls = Counter()  # per layer
        self.self_s = Counter()  # per layer
        self.func_calls = Counter()  # per "<module>.<name>"
        self._spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in sys.modules.items()
                if name == self.package or name.startswith(self.package + ".")]

    def _wrap(self, fn, func: str, layer: str):
        spans, stack = self._spans, self._stack
        sweep = func in SWEEPS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sweep:
                self.patterns_swept += _dataset_patterns(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, func, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    func = f"{short}.{name}"
                    wrappers[id(obj)] = (obj, self._wrap(obj, func, layer_of(func)))
                elif (inspect.isclass(obj) and "__init__" in vars(obj)
                      and not issubclass(obj, BaseException)):
                    self._undo.append((obj, "__init__", obj.__init__))
                    obj.__init__ = self._wrap(obj.__init__, f"{short}.{name}",
                                              f"{short}.construct")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def end_batch(self) -> None:
        """Add the recorded spans to the totals and drop them, bounding memory."""
        spans = self._spans
        if self._stack:
            raise RuntimeError("end_batch() called inside an open span")
        child = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for (layer, func, start, end, _, _), inner in zip(spans, child):
            self.calls[layer] += 1
            self.func_calls[func] += 1
            self.self_s[layer] += end - start - inner
        spans.clear()
        self.batches += 1

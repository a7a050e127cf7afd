"""Span tracer for the traced run: times every call into eecap's public functions.

While active, the tracer replaces each public function of the layer modules
with a wrapper, both in its home module and wherever another eecap module
bound it by ``from ... import``, and each public method on the class that
defines it.  Every call records a span: function, parent span, start and
end.  Spans stay in memory (four flat arrays) until the run writes them out.
Leaving the ``with`` block restores every original.

Hooks see a call's arguments and result, for what a span cannot give
(solver variants, distinct cost-model arguments, simulated slots); they
record it in ``counters`` and ``distinct``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("phy", "channel", "access", "costs", "metrics", "network",
          "solver", "simulate", "scenario", "cli")


class LayerTracer:
    def __init__(self, package, hooks: dict | None = None):
        self.package = package
        self.modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                        for layer in LAYERS}
        self.hooks = hooks or {}
        self.names: list[str] = []        # span function id -> "layer.function"
        self.layer_ids: list[int] = []    # span function id -> index into LAYERS
        self.counters: Counter = Counter()
        self.distinct: set = set()
        self.func = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._targets = self._discover()
        self._restore: list = []

    def _discover(self) -> list:
        """(owner, attribute, wrapper) for every binding to patch."""
        targets = []
        wrappers = {}   # id(original) -> (original, wrapper)
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
                elif inspect.isclass(obj):
                    for attr, meth in vars(obj).items():
                        if inspect.isfunction(meth) and not attr.startswith("_"):
                            targets.append((obj, attr, self._wrap(f"{layer}.{attr}", layer, meth)))
        for mod in (self.package, *self.modules.values()):
            for name, obj in vars(mod).items():
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    targets.append((mod, name, found[1]))
        return targets

    def _wrap(self, name: str, layer: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.layer_ids.append(LAYERS.index(layer))
        hook = self.hooks.get(name)
        func, parent, start, end, stack = self.func, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(func)
            func.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for owner, attr, wrapper in self._targets:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.func)

    def arrays(self) -> dict:
        """Every span as numpy arrays; views of the tracer's buffers, so drop
        them before tracing again."""
        return {
            "func": np.frombuffer(self.func, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def calls(self, lo: int = 0, hi: int | None = None) -> dict:
        """Calls per traced function over spans [lo, hi), zero counts left out."""
        hi = len(self.func) if hi is None else hi
        counts = np.bincount(np.frombuffer(self.func, dtype=np.uint16)[lo:hi],
                             minlength=len(self.names))
        return {self.names[f]: int(c) for f, c in enumerate(counts) if c}

    def totals(self) -> dict:
        """Per function and per layer: calls, total seconds and self seconds.

        A span's self time is its duration minus the durations of its child
        spans; calls run on one thread, so children never overlap.
        """
        s = self.arrays()
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        own = dur - np.bincount(s["parent"][nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        per_func = {
            "calls": np.bincount(s["func"], minlength=n),
            "s": np.bincount(s["func"], weights=dur, minlength=n),
            "self_s": np.bincount(s["func"], weights=own, minlength=n),
        }
        layer_self = np.bincount(self.layer_ids, weights=per_func["self_s"], minlength=len(LAYERS))
        return {"func": per_func, "layer_self_s": dict(zip(LAYERS, layer_self))}

    def calls_from(self, name: str, layer: str) -> int:
        """Calls of one function made directly from a span of the given layer."""
        s = self.arrays()
        parents = s["parent"][s["func"] == self.fid(name)]
        parents = parents[parents >= 0]
        layers = np.asarray(self.layer_ids)[s["func"][parents]]
        return int((layers == LAYERS.index(layer)).sum())

    def fid(self, name: str) -> int:
        return self.names.index(name)

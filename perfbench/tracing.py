"""Spans around the library's public functions, recorded from outside it.

The package imports names with ``from .x import y``, so a function lives
under its name in every module that imported it. ``Tracer`` rebinds each
public function of the traced modules, plus ``Network.build`` and
``Network.topology``, in every package module that holds it, and restores the
originals on exit. Generator functions are left alone: a span around one
would only cover creating the generator.

A span is (name id, start, end, parent index); spans are kept in memory and
written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

PACKAGE = "opinion_game"
MODULES = ("cli", "model", "harness", "dynamics", "centrality",
           "strategy_fixed", "strategy_dependent", "game")
METHODS = (("model", "Network", "build"), ("model", "Network", "topology"))


def _rhs_count(args, kwargs) -> int:
    rhs = kwargs["rhs"] if "rhs" in kwargs else args[1]
    shape = np.shape(rhs)
    return int(shape[1]) if len(shape) == 2 else 1


class Tracer:
    """Context manager that records spans while the package is rebound."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.rhs = 0
        self.games: list = []  # (payoff, (row_mix, col_mix, value)) of every solve_zero_sum
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_solve = name == "dynamics.solve_linear"
        is_game = name == "game.solve_zero_sum"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if is_solve:
                self.rhs += _rhs_count(args, kwargs)
            elif is_game:
                self.games.append((args[0] if args else kwargs["game"], result))
            return result

        return traced

    def __enter__(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__.get(attr)
            if raw is None:  # a method the library dropped reads as an idle layer
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            new = self._wrap(f"{short}.{cls_name}.{attr}", fn)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, classmethod(new) if isinstance(raw, classmethod) else new)
        package = importlib.import_module(PACKAGE)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            names = self.names
            for name_id, start, end, parent in self.spans:
                fh.write(f"{names[name_id]},{start!r},{end!r},{parent}\n")

    def totals(self) -> dict:
        """Per span name: calls, busy_s (outermost spans of that name) and
        self_s (duration minus the time direct children cover)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for index, (name_id, start, end, parent) in enumerate(spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            if not self._has_ancestor(parent, name_id):
                entry["busy_s"] += end - start
        return out

    def _has_ancestor(self, index: int, name_id: int) -> bool:
        spans = self.spans
        while index >= 0:
            if spans[index][0] == name_id:
                return True
            index = spans[index][3]
        return False

    def count_children(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent span is named ``parent``."""
        names, spans = self.names, self.spans
        return sum(
            1 for name_id, _, _, p in spans
            if names[name_id] == child and p >= 0 and names[spans[p][0]] == parent
        )

    def count_outside(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` with no ancestor span named ``ancestor``."""
        ids = [i for i, n in enumerate(self.names) if n == ancestor]
        count = 0
        for name_id, _, _, parent in self.spans:
            if self.names[name_id] == name and not any(
                self._has_ancestor(parent, a) for a in ids
            ):
                count += 1
        return count

"""Span tracer that times calls into macsat from outside, by wrapping names.

Nothing in the package is edited: `Tracer.install` replaces each target
function or method with a timing wrapper, in every loaded `macsat` module
that holds the same object (names bound at import, such as `conv_vn` inside
`jointde` and `coupled`, are patched too), and `uninstall` restores the
originals. A target that no longer exists is recorded in `absent` instead of
raising, so the tracer survives refactors of the package.

Spans nest: each op counts its calls per span that caused them, and a span's
self time is its duration minus the time covered by the spans it caused.
Stats are kept in memory and read out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


class OpStats:
    __slots__ = ("calls", "total_s", "self_s", "counted", "largest", "parents")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counted = 0  # sum of the integers a result hook extracted
        self.largest = 0  # and the largest of them
        self.parents: dict[str, int] = {}  # calls per span that caused them


class Tracer:
    def __init__(self):
        self.stats: dict[str, OpStats] = {}
        self.absent: list[str] = []
        self._open: list[str] = []  # names of the open spans, innermost last
        self._child_time: list[float] = []  # one accumulator per open span
        self._patches: list[tuple[object, str, object]] = []

    def op(self, name: str) -> OpStats:
        return self.stats.setdefault(name, OpStats())

    def _wrap(self, name: str, fn, count=None):
        stats = self.op(name)
        open_spans, child_time = self._open, self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_spans[-1] if open_spans else ""
            stats.parents[parent] = stats.parents.get(parent, 0) + 1
            open_spans.append(name)
            child_time.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_spans.pop()
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - inner
            if count is not None:
                n = count(result, args)
                stats.counted += n
                stats.largest = max(stats.largest, n)
            return result

        return wrapper

    def install(self, targets):
        """targets: (span name, module name, dotted attribute, result hook)."""
        for name, module_name, attr, count in targets:
            module = sys.modules.get(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = module
            for part in owner.split(".") if owner else ():
                holder = getattr(holder, part, None)
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            if owner:  # a method: the class is the one namespace holding it
                self._patch(holder, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "macsat" or mod_name.startswith("macsat."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

"""Span tracing of superinduce's public functions, installed from outside.

The tracer replaces each named function with a wrapper, both in the module
that defines it and in every ``superinduce`` module that imported it by name,
so calls between modules are seen too.  Private helpers are not wrapped: their
time counts toward the public function that called them.

Spans (name, start, end, parent) are kept in flat integer arrays, 32 bytes a
span, because the polynomial product alone is called hundreds of thousands of
times a round; they are written out once, when the run ends.  A span's self
time is its duration minus the time covered by its direct children.

Cache traffic is inferred at the call boundary: a call to a function that
consults ``Ambient._cache`` is a miss when the cache grew during the call and
a hit otherwise.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list = []
        self.counters = defaultdict(int)
        self.ambients: dict = {}
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(self.clock())
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def wrap(self, name: str, fn, hook=None):
        """fn inside a span named ``name``; hook(counters, args, result) runs
        after the span closes, so its cost is not charged to fn.

        The wrapper repeats begin/end inline, with the arrays bound to locals,
        because it runs on every polynomial product."""
        nid = self.name_id(name)
        names, starts, ends, parents = (
            self.span_name,
            self.span_start,
            self.span_end,
            self.span_parent,
        )
        stack = self._stack
        clock = self.clock
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_cached(self, fn):
        """Count hits and misses of a function whose first argument is an
        Ambient and which stores its result in ``Ambient._cache``."""
        counters = self.counters
        ambients = self.ambients

        def cached(amb, *args, **kwargs):
            cache = amb._cache
            before = len(cache)
            result = fn(amb, *args, **kwargs)
            if len(cache) > before:
                counters["ambient_cache.misses"] += 1
            else:
                counters["ambient_cache.hits"] += 1
            ambients[id(amb)] = amb
            return result

        cached.__wrapped__ = fn
        return cached

    # -- installation ----------------------------------------------------------

    def patch_function(self, module, attr: str, replacement) -> None:
        """Replace module.attr everywhere in the package it was imported into."""
        original = getattr(module, attr)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, replacement)

    def patch_attribute(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def calls(self) -> dict:
        out = defaultdict(int)
        names = self.names
        for nid in self.span_name:
            out[names[nid]] += 1
        return out

    def self_seconds(self) -> dict:
        """Self time per span name, in seconds."""
        n = len(self.span_name)
        child = [0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = defaultdict(float)
        names = self.names
        for i in range(n):
            out[names[self.span_name[i]]] += (ends[i] - starts[i] - child[i]) / 1e9
        return out

    def cache_entries(self) -> int:
        return sum(len(amb._cache) for amb in self.ambients.values())

    def write(self, path: Path) -> None:
        """Spans as four int64 columns in native byte order, with a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
                column.tofile(fh)
        header = {
            "spans": len(self.span_name),
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "dtype": "int64",
            "names": self.names,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")

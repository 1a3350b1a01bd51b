"""In-memory span recorder and the timing wrappers of the traced run.

A span is one call: a name, a start, an end and the span that was open when
it began. Spans live in flat arrays while the run lasts and are written once,
at the end, as a compressed numpy archive. Self time is a span's duration
minus the durations of its direct children (calls are nested and sequential
in this single-threaded program, so children never overlap).

Wrappers are installed from outside the program: for every traced function,
each accent_forge module attribute that holds the original function object is
replaced by the wrapper, so callers that imported the name with
`from .gmm import loglik` are timed as well as callers that go through the
defining module.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._installed = []

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, counter=None):
        """fn timed as span `name`; counter(args, kwargs, result) adds to counts."""

        def timed(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.count("%s.%s" % (name, key), amount)
            return result

        return timed

    def replace(self, package, original, replacement):
        """Point every module-level reference to `original` at `replacement`."""
        replaced = 0
        for key, module in list(sys.modules.items()):
            if module is None or not (key == package or key.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._installed.append((module, attr, original))
                    replaced += 1
        return replaced

    def install(self, package, targets):
        """Time every target wherever a package module refers to it.

        targets: (module, function, counter) triples, module relative to the
        package. Returns the number of references replaced.
        """
        replaced = 0
        for module_name, func_name, counter in targets:
            original = getattr(sys.modules["%s.%s" % (package, module_name)], func_name)
            wrapper = self.wrap("%s.%s" % (module_name, func_name), original, counter)
            replaced += self.replace(package, original, wrapper)
        return replaced

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def totals(self):
        """name -> (summed inclusive seconds, summed self seconds, calls)."""
        name_id, parent, start, end = self.arrays()
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        inclusive = np.bincount(name_id, weights=duration, minlength=len(self.names))
        exclusive = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        calls = np.bincount(name_id, minlength=len(self.names))
        return {name: (float(inclusive[i]), float(exclusive[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)

"""Spans around the calls into nssgate's public functions, recorded from outside.

`installed(tracer, targets)` replaces each target function, under every name
an nssgate module looks it up by, with a wrapper that records one span per
call: name, start, end, parent span and thread.  Each thread has its own
span buffer (the sweep runs on a thread pool), so no lock is taken per call.
`Tracer.drain()` adds the buffered spans to per-name totals and empties
the buffers; a span's self time is its duration minus that of its children,
which on one thread nest strictly inside it.  A span opened on a pool thread
has no parent, so the waiting shows in the self time of the span that
started the pool.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from array import array
from collections import Counter


class _Buffer:
    """The spans of one thread, as parallel arrays; parents index into them."""

    __slots__ = ("names", "parents", "starts", "ends", "stack")

    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []

    def clear(self) -> None:
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[:]


class Tracer:
    """Span buffers and deterministic counters for one traced run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list = []
        self.counters: Counter = Counter()
        self.totals: dict = {}

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer()
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span named `name` around each call; on_result(tracer, result)
        runs after the span closes and may add to the counters."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            idx = len(buf.names)
            buf.names.append(nid)
            buf.parents.append(stack[-1] if stack else -1)
            buf.ends.append(0.0)
            stack.append(idx)
            buf.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def drain(self, inside: str, counted: str) -> int:
        """Add the buffered spans to the per-name `totals` (calls, time_s,
        self_s) and empty the buffers.  Returns how many `counted` spans had
        an `inside` span among their ancestors."""
        inside_id = self._ids.get(inside, -1)
        counted_id = self._ids.get(counted, -1)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        nested = 0
        for buf in self._buffers:
            if buf.stack:
                raise RuntimeError("drain() with spans still open")
            within = bytearray(len(buf.names))
            for i, (nid, parent, start, end) in enumerate(zip(buf.names, buf.parents, buf.starts, buf.ends)):
                dur = end - start
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur
                if parent >= 0:
                    self_time[buf.names[parent]] -= dur
                    within[i] = within[parent] or buf.names[parent] == inside_id
                if nid == counted_id and within[i]:
                    nested += 1
            buf.clear()
        for i, name in enumerate(self.names):
            acc = self.totals.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            acc["calls"] += calls[i]
            acc["time_s"] += total[i]
            acc["self_s"] += self_time[i]
        return nested


@contextlib.contextmanager
def installed(tracer: Tracer, package: str, targets: dict):
    """Wrap every `module.function` in `targets` (mapped to its on_result hook,
    or None) wherever a module of `package` holds it; restore on exit."""
    modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
    patched = []
    for qual, on_result in targets.items():
        modname, attr = qual.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"{package}.{modname}"), attr)
        traced = tracer.wrap(qual, fn, on_result)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is fn]:
                patched.append((module, key, fn))
                setattr(module, key, traced)
    try:
        yield
    finally:
        for module, key, fn in reversed(patched):
            setattr(module, key, fn)

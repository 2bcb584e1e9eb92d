"""In-memory span tracing of voxscript's public functions, from outside.

The tracer wraps module-level functions by rebinding every module attribute
that refers to the original function object, so callers that look the name
up at call time (``inference`` calling ``execute_block``, ``templates``
calling ``write_binvox``, the benchmark calling ``read_binvox``) run the
wrapper. Nothing under ``src/`` is edited; ``uninstall`` restores every
binding.

Spans are recorded only inside ``Tracer.item`` (the benchmark's timed
calls), so output checks that call voxscript between items are not traced.
A span is (name, start, end, parent span, item id), with times in process
CPU seconds like the benchmark's item timings; self time is derived once
the run ends.
"""
from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

ITEM_SPAN = "bench.item"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._item = array("i")
        self._stack: list = []
        self._current_item = -1
        self.counters: dict = {}
        self._bindings: list = []  # (module, attribute, original)
        self.name_id(ITEM_SPAN)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._item.append(self._current_item)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.process_time())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.process_time()
        self._stack.pop()

    @contextmanager
    def item(self, item_id: int):
        """Root span of one timed item; spans are recorded only inside it."""
        self._current_item = item_id
        self._stack.append(-1)
        idx = self._open(self.name_id(ITEM_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self._stack.pop()
            self._current_item = -1

    def count(self, name: str, n) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, module_name: str, attr: str, span, measure=None) -> None:
        """Trace ``module_name.attr`` wherever voxscript modules bind it.

        ``span`` is a span name, or a function of the call's arguments that
        returns one. ``measure(result)`` returns (counter name, amount) to
        add to a counter after each traced call.
        """
        original = getattr(sys.modules[module_name], attr)
        if callable(span):
            namer = span
        else:
            fixed = self.name_id(span)

            def namer(*_args, **_kwargs):
                return fixed

        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            idx = tracer._open(namer(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                tracer.count(*measure(result))
            return result

        wrapper.__wrapped__ = original
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "voxscript" or mod_name.startswith("voxscript.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._bindings.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._bindings):
            setattr(mod, key, original)
        self._bindings.clear()

    def summarize(self, scales=None):
        """Per span name: calls, inclusive time and self time, in seconds.

        ``scales[item]``, when given, multiplies every duration in that
        item. Inclusive time skips spans directly nested in a span of the
        same name (recursion), so it is never counted twice. Also returns,
        per item, the root span's duration and the sum of self times of all
        its spans; the two agree when every span closed inside its parent.
        """
        n = len(self._name)
        dur = [(self._end[i] - self._start[i]) * (scales[self._item[i]] if scales else 1.0)
               for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        items: dict = {}
        item_nid = self._name_ids[ITEM_SPAN]
        for i in range(n):
            nid = self._name[i]
            s = stats[self.names[nid]]
            s[0] += 1
            p = self._parent[i]
            if p < 0 or self._name[p] != nid:
                s[1] += dur[i]
            s[2] += dur[i] - child[i]
            rec = items.setdefault(self._item[i], [0.0, 0.0])
            rec[1] += dur[i] - child[i]
            if nid == item_nid:
                rec[0] += dur[i]
        return stats, items

    def span_count(self) -> int:
        return len(self._name)

    def write_csv(self, path) -> None:
        """All spans, times in seconds from the first span's start."""
        t0 = self._start[0] if len(self._start) else 0.0
        with open(path, "w") as out:
            out.write("span,name,start_s,end_s,parent,item\n")
            for i in range(len(self._name)):
                out.write(f"{i},{self.names[self._name[i]]},{self._start[i] - t0:.9f},"
                          f"{self._end[i] - t0:.9f},{self._parent[i]},{self._item[i]}\n")

"""Outside-in span tracer: wraps callables by attribute assignment.

``Tracer.install`` replaces each listed target (a class method or a
module-level function of the runtime, or a kernel of this benchmark) with a
wrapper that records one span ``(name, start, end, parent)`` per call on a
per-thread list; ``uninstall`` restores every original.  Nothing under
``src/`` knows about it, and only the ``traced`` child ever installs it.

Spans of one thread are properly nested, so a span's *self time* is its
duration minus the durations of its direct children (``self_times``).
Children on *other* threads never subtract: a barrier's self time is the
time its own thread spent waiting.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from typing import Callable, Iterable, Optional

__all__ = ["Tracer", "self_times", "reduce_spans", "load_spans"]

_now = time.perf_counter_ns


def _named_like(fn: Callable, wrapper: Callable) -> Callable:
    """Give ``wrapper`` the identity of ``fn`` so it pickles by reference to
    the patched attribute.  Deliberately not ``functools.wraps``: a
    ``__wrapped__`` attribute would let the gateway client unwrap the body
    and ship the original, which no longer is what its module name resolves to.
    """
    for attribute in ("__module__", "__name__", "__qualname__", "__doc__"):
        try:
            setattr(wrapper, attribute, getattr(fn, attribute))
        except AttributeError:
            pass
    return wrapper


class _ThreadLog:
    """Flat event log of one thread: ``name_id, t_ns`` opens a span and
    ``-1, t_ns`` closes the innermost open one.

    A flat list of integers keeps the per-call cost near 0.4 us and gives the
    cyclic garbage collector nothing to traverse, which matters when a run
    records hundreds of thousands of spans.
    """

    __slots__ = ("events", "thread_id", "thread_name")

    def __init__(self) -> None:
        self.events: list[int] = []
        self.thread_id = threading.get_ident()
        self.thread_name = threading.current_thread().name


class Tracer:
    """Records spans around patched callables (see module docstring)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        #: Sums of the optional per-call probe values, keyed (name, thread id).
        self.probes: dict[tuple[str, int], float] = {}
        self.t0_ns = _now()

    # -- recording ---------------------------------------------------------------
    def _new_log(self):
        log = _ThreadLog()
        with self._logs_lock:
            self._logs.append(log)
        self._local.append = log.events.append
        return log.events.append

    def wrap(self, fn: Callable, name: str, probe: Optional[Callable] = None) -> Callable:
        """A wrapper around ``fn`` recording one ``name`` span per call.

        ``probe(args, result)`` may return a number measured at the boundary
        (bytes encoded, a queue depth); values are summed per thread — or
        kept as a maximum when the span name ends in ``.max``.
        """
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        local = self._local
        new_log = self._new_log

        def traced(*args, **kwargs):
            try:
                append = local.append
            except AttributeError:
                append = new_log()
            append(name_id)
            append(_now())
            try:
                return fn(*args, **kwargs)
            finally:
                append(-1)
                append(_now())

        if probe is None:
            return _named_like(fn, traced)

        probes = self.probes
        keep_max = name.endswith(".max")

        def probed(*args, **kwargs):
            result = traced(*args, **kwargs)
            key = (name, threading.get_ident())
            value = probe(args, result)
            if keep_max:
                probes[key] = max(probes.get(key, 0), value)
            else:
                probes[key] = probes.get(key, 0) + value
            return result

        return _named_like(fn, probed)

    # -- patching ----------------------------------------------------------------
    def install(self, targets: Iterable[tuple]) -> list[str]:
        """Patch ``(module, qualified attribute, span name[, probe])`` targets.

        A module-level function is replaced in every loaded ``repro`` /
        ``bench`` module that imported it by name, so ``from m import f``
        call sites are traced too.  Returns the targets that did not resolve
        (a renamed seam must fail the ledger loudly, not silently).
        """
        missing: list[str] = []
        for target in targets:
            module_name, attribute, name = target[:3]
            probe = target[3] if len(target) > 3 else None
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}:{attribute}")
                continue
            if isinstance(original, staticmethod):
                wrapper: object = staticmethod(self.wrap(original.__func__, name, probe))
            else:
                wrapper = self.wrap(original, name, probe)
            holders = [owner]
            if not path:
                holders += [
                    module for key, module in list(sys.modules.items())
                    if module is not owner and module is not None
                    and key.split(".")[0] in ("repro", "bench")
                    and module.__dict__.get(leaf) is original
                ]
            for holder in holders:
                self._restore.append((holder, leaf, holder.__dict__[leaf]))
                setattr(holder, leaf, wrapper)
        return missing

    def uninstall(self) -> None:
        while self._restore:
            holder, leaf, original = self._restore.pop()
            setattr(holder, leaf, original)

    # -- export ------------------------------------------------------------------
    def export(self) -> dict:
        """Columnar, JSON-ready form: one row per span, ``parent`` a row
        index on the same thread (-1 for a thread's top-level spans).  A span
        still open at export time (a receiver blocked on its socket) is
        closed at its own start."""
        name, start, end, parent, thread = [], [], [], [], []
        threads = []
        with self._logs_lock:
            logs = list(self._logs)
        t0 = self.t0_ns
        for log in logs:
            threads.append({"id": log.thread_id, "name": log.thread_name})
            events = list(log.events)
            stack: list[int] = []
            for position in range(0, len(events) - 1, 2):
                code, stamp = events[position], events[position + 1] - t0
                if code >= 0:
                    name.append(code)
                    start.append(stamp)
                    end.append(stamp)
                    parent.append(stack[-1] if stack else -1)
                    thread.append(len(threads) - 1)
                    stack.append(len(name) - 1)
                elif stack:
                    end[stack.pop()] = stamp
        return {
            "unit": "ns", "names": list(self.names), "threads": threads,
            "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread,
        }


def self_times(spans: dict) -> list[int]:
    """Self time (ns) of every span: duration minus its direct children's.

    Children are attributed through the recorded ``parent`` column, which only
    ever links spans of one thread.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    own = [e - s for s, e in zip(start, end)]
    for index, parent_index in enumerate(parent):
        if parent_index >= 0:
            own[parent_index] -= end[index] - start[index]
    return own


def reduce_spans(spans: dict, root: Optional[str] = None) -> dict:
    """Per span name: calls, total and self seconds (all threads), plus the
    self seconds per thread (``by_thread[thread index][name]``).

    With ``root`` (the name of a span recorded exactly once), only spans that
    lie inside that span's interval are counted, on whichever thread: set-up
    and tear-down around the timed region stay out of the ledger.
    """
    own = self_times(spans)
    names = spans["names"]
    start, end = spans["start"], spans["end"]
    window = (min(start, default=0), max(end, default=0))
    if root is not None:
        index = spans["name"].index(names.index(root))
        window = (start[index], end[index])
    totals = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    by_thread: list[dict] = [dict() for _ in spans["threads"]]
    for index, name_id in enumerate(spans["name"]):
        if start[index] < window[0] or end[index] > window[1]:
            continue
        name = names[name_id]
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += (end[index] - start[index]) * 1e-9
        entry["self_s"] += own[index] * 1e-9
        per_thread = by_thread[spans["thread"][index]]
        per_thread[name] = per_thread.get(name, 0.0) + own[index] * 1e-9
    return {"totals": totals, "by_thread": by_thread}


def write_spans(spans: dict, path) -> None:
    with open(path, "w") as handle:
        json.dump(spans, handle, separators=(",", ":"))


def load_spans(path) -> dict:
    with open(path) as handle:
        return json.load(handle)

"""Span bookkeeping: self time, windows, patching and restoring."""

import threading

from pytest import approx

from bench import trace


def _spans(rows, names=("root", "a", "b"), threads=1):
    """rows: (name index, start, end, parent row, thread index)."""
    return {
        "unit": "ns", "names": list(names),
        "threads": [{"id": i, "name": f"t{i}"} for i in range(threads)],
        "name": [r[0] for r in rows], "start": [r[1] for r in rows],
        "end": [r[2] for r in rows], "parent": [r[3] for r in rows],
        "thread": [r[4] for r in rows],
    }


def test_self_time_subtracts_direct_children_only():
    spans = _spans([
        (0, 0, 100, -1, 0),     # root: 100 - (40 + 20) = 40
        (1, 10, 50, 0, 0),      # a:    40 - 25 = 15
        (2, 20, 45, 1, 0),      # b (grandchild of root): 25
        (1, 60, 80, 0, 0),      # a:    20
    ])
    assert trace.self_times(spans) == [40, 15, 25, 20]
    totals = trace.reduce_spans(spans)["totals"]
    assert totals["a"] == {"calls": 2, "total_s": approx(60e-9), "self_s": approx(35e-9)}
    assert sum(t["self_s"] for t in totals.values()) == approx(100e-9)   # nothing lost


def test_other_threads_never_subtract_and_the_root_window_filters():
    spans = _spans([
        (1, 0, 5, -1, 0),        # before the root: set-up, not counted
        (0, 10, 110, -1, 0),     # root on the blocking thread
        (1, 20, 100, 1, 0),      # a barrier waiting 80 ...
        (2, 30, 90, -1, 1),      # ... while a worker thread does 60 of work
        (2, 105, 130, -1, 1),    # straddles the root's end: not counted
    ], threads=2)
    reduced = trace.reduce_spans(spans, root="root")
    assert reduced["totals"]["a"]["calls"] == 1
    assert reduced["totals"]["a"]["self_s"] == approx(80e-9)
    assert reduced["totals"]["b"] == {
        "calls": 1, "total_s": approx(60e-9), "self_s": approx(60e-9)}
    assert reduced["by_thread"][0] == {"root": approx(20e-9), "a": approx(80e-9)}
    assert reduced["by_thread"][1] == {"b": approx(60e-9)}


class _Target:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return 2 * n


def test_install_records_nested_spans_and_uninstall_restores():
    original = _Target.__dict__["outer"]
    tracer = trace.Tracer()
    sizes = []
    missing = tracer.install([
        (__name__, "_Target.outer", "outer"),
        (__name__, "_Target.inner", "inner", lambda args, result: sizes.append(result) or result),
        (__name__, "_Target.gone", "gone"),
    ])
    assert missing == [f"{__name__}:_Target.gone"]
    worker = threading.Thread(target=lambda: _Target().inner(5))
    try:
        assert _Target().outer(3) == 7
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert _Target.__dict__["outer"] is original and _Target().outer(1) == 3
    spans = tracer.export()
    named = [spans["names"][i] for i in spans["name"]]
    assert named == ["outer", "inner", "inner"]
    assert spans["parent"] == [-1, 0, -1]
    assert spans["thread"] == [0, 0, 1]
    assert all(e >= s for s, e in zip(spans["start"], spans["end"]))
    assert sizes == [6, 10] and sum(tracer.probes.values()) == 16

"""The per-layer ledger: which calls are traced and how spans become metrics.

``TARGETS`` lists the seams the traced pass wraps, from this benchmark's own
files: the public entry points of each module plus five private dispatch
methods (marked below) for which the process and network executors expose no
public seam — spans *inside* ``src/`` are a later change.  ``ledger`` reduces
the recorded spans, together with the counters the system already exposes, to
the metrics declared in ``bench.metrics.PER_LAYER``; layers a workload does
not touch report exactly 0.
"""

from __future__ import annotations

from bench.metrics import PER_LAYER

__all__ = ["TARGETS", "ledger"]

_RT = "repro.runtime."


def _frame_bytes(args, result) -> int:
    return len(result)


def _queued_after(args, result) -> int:
    return args[0].queued()


TARGETS = (
    ("repro.session.session", "Session.submit", "session.submit"),
    ("repro.session.session", "Session.submit_batch", "session.submit"),
    ("repro.session.session", "Session.wait_all", "session.barrier"),
    # finish() runs wait_all() inside: its own span keeps the barrier count honest.
    ("repro.session.session", "Session.finish", "session.finish"),
    (_RT + "dependences", "DependenceTracker.dependences_for", "dependences"),
    (_RT + "graph", "TaskDependenceGraph.add_task", "graph.add"),
    (_RT + "graph", "TaskDependenceGraph.add_tasks", "graph.add"),
    (_RT + "graph", "TaskDependenceGraph.complete_task", "graph.complete"),
    (_RT + "scheduler", "Scheduler.task_ready", "scheduler.push"),
    (_RT + "scheduler", "Scheduler.tasks_ready", "scheduler.push"),
    (_RT + "scheduler", "Scheduler.next_task", "scheduler.pop"),
    (_RT + "executor", "SerialExecutor.drain", "executor.drain"),
    (_RT + "executor", "ThreadedExecutor.drain", "executor.drain"),
    (_RT + "mp_executor", "ProcessExecutor.drain", "executor.drain"),
    (_RT + "net_executor", "NetworkExecutor.drain", "executor.drain"),
    (_RT + "executor", "BaseExecutor.close", "executor.close"),
    (_RT + "mp_executor", "ProcessExecutor.close", "executor.close"),
    (_RT + "net_executor", "NetworkExecutor.close", "executor.close"),
    ("repro.atm.engine", "ATMEngine.task_ready", "engine.ready"),
    ("repro.atm.engine", "ATMEngine.task_finished", "engine.finished"),
    ("repro.atm.keygen", "HashKeyGenerator.compute", "keygen"),
    ("repro.atm.tht", "TaskHistoryTable.lookup", "tht.lookup"),
    ("repro.atm.tht", "TaskHistoryTable.insert", "tht.insert"),
    ("repro.atm.ikt", "InFlightKeyTable.lookup", "ikt.lookup"),
    ("repro.atm.ikt", "InFlightKeyTable.register", "ikt.update"),
    ("repro.atm.ikt", "InFlightKeyTable.retire", "ikt.update"),
    (_RT + "shm", "SharedBufferRegistry.copy_in", "shm.copy_in"),
    (_RT + "shm", "SharedBufferRegistry.copy_out", "shm.copy_out"),
    # Private seams (no public equivalent): parent-side chunk dispatch and the
    # blocking result fetch of the process and network executors.
    (_RT + "mp_executor", "ProcessExecutor._dispatch_chunk", "mp.dispatch"),
    (_RT + "mp_executor", "ProcessExecutor._next_result", "mp.result_wait"),
    (_RT + "net_executor", "NetworkExecutor._encode_chunk", "net.encode"),
    (_RT + "net_executor", "NetworkExecutor._send_chunk", "net.send"),
    (_RT + "net_executor", "NetworkExecutor._pump", "net.pump"),
    (_RT + "net_wire", "encode_frame", "net_wire.encode", _frame_bytes),
    (_RT + "net_wire", "decode_frame", "net_wire.decode"),
    # read_frame blocks on the socket; its CRC + unpickle step is the decode cost.
    (_RT + "net_wire", "_check_payload", "net_wire.decode"),
    (_RT + "net_wire", "write_frame", "net_wire.write"),
    (_RT + "net_wire", "read_frame", "net_wire.read"),
    (_RT + "residency", "ResidencyTable.lookup", "residency"),
    (_RT + "residency", "ResidencyTable.record", "residency"),
    (_RT + "residency", "ResidencyTable.note_write", "residency"),
    (_RT + "net_transport", "NetWorkerState.run_chunk", "net_worker.run_chunk"),
    ("repro.serving.client", "GatewayClient.submit_batch", "client.submit"),
    ("repro.serving.client", "GatewayClient.wait_all", "client.barrier"),
    ("repro.serving.client", "GatewayClient.finish", "client.barrier"),
    ("repro.serving.admission", "AdmissionController.enqueue", "admission.enqueue.max",
     _queued_after),
    ("repro.serving.admission", "AdmissionController.take", "admission.take"),
    ("repro.serving.admission", "AdmissionController.release", "admission.release"),
    ("bench.kernels", "load", "kernel"),
    ("bench.kernels", "step", "kernel"),
    ("bench.kernels", "step2", "kernel"),
    ("bench.kernels", "stencil3", "kernel"),
    ("bench.kernels", "relax", "kernel"),
)

#: The benchmark-owned root span around the timed region.
ROOT = "generator"

_MB = 1.0 / (1 << 20)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def ledger(reduced: dict, probes: dict, blocking: int, outcome: dict, open_s: float,
           traced_wall_s: float) -> dict:
    """Span- and counter-derived layer metrics of one traced run.

    ``blocking`` is the index (in the spans file's thread table) of the thread
    whose waiting the result is made of: coverage is the share of the traced
    wall its non-root spans explain.  Self times are summed over all threads;
    on the threaded workloads the workers' self time overlaps the blocking
    thread's ``executor.drain`` wait, it does not add to it.
    """
    totals = reduced["totals"]

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def self_s(*names: str) -> float:
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(*names: str) -> float:
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    def probe(name: str) -> float:
        return sum(v for (n, _), v in probes.items() if n == name)

    counters = outcome.get("counters", {})
    stats = counters.get("stats", {})
    cache = counters.get("keygen_cache", {})
    tht = counters.get("tht", {})
    ikt = counters.get("ikt", {})
    process = counters.get("process_backend", {})
    network = counters.get("network_backend", {})
    residency = network.get("residency", {})
    tenants = counters.get("gateway", {}).get("tenants", {})
    interactive = tenants.get("interactive", {})

    explained = sum(
        seconds for name, seconds in reduced["by_thread"][blocking].items()
        if name != ROOT
    ) if blocking is not None else 0.0
    spans = sum(entry["calls"] for entry in totals.values())

    values = {
        "generator.self_s": max(traced_wall_s - explained, 0.0),
        "kernel.calls": calls("kernel"),
        "kernel.busy_s": total_s("kernel"),
        "session.open_s": open_s,
        "session.submit_calls": calls("session.submit"),
        "session.submit_self_s": self_s("session.submit"),
        "session.barrier_calls": calls("session.barrier"),
        "session.barrier_self_s": self_s("session.barrier", "session.finish"),
        "session.close_s": total_s("executor.close"),
        "dependences.calls": calls("dependences"),
        "dependences.self_s": self_s("dependences"),
        "dependences.edges": counters.get("edges", 0),
        "graph.add_self_s": self_s("graph.add"),
        "graph.complete_calls": calls("graph.complete"),
        "graph.complete_self_s": self_s("graph.complete"),
        "scheduler.push_self_s": self_s("scheduler.push"),
        "scheduler.pop_calls": calls("scheduler.pop"),
        "scheduler.pop_self_s": self_s("scheduler.pop"),
        "scheduler.max_depth": counters.get("max_depth", 0),
        "executor.drains": calls("executor.drain"),
        "executor.drain_self_s": self_s("executor.drain"),
        "engine.ready_calls": calls("engine.ready"),
        "engine.ready_self_s": self_s("engine.ready"),
        "engine.finished_calls": calls("engine.finished"),
        "engine.finished_self_s": self_s("engine.finished"),
        "engine.copied_mb": stats.get("copied_bytes", 0) * _MB,
        "engine.stored_mb": stats.get("stored_bytes", 0) * _MB,
        "keygen.calls": calls("keygen"),
        "keygen.self_s": self_s("keygen"),
        "keygen.hashed_mb": stats.get("hashed_bytes", 0) * _MB,
        "keygen.key_cache_hit_ratio": _ratio(
            cache.get("key_cache_hits", 0), cache.get("key_cache_misses", 0)),
        "keygen.digest_cache_hit_ratio": _ratio(
            cache.get("digest_cache_hits", 0), cache.get("digest_cache_misses", 0)),
        "tht.lookups": calls("tht.lookup"),
        "tht.lookup_self_s": self_s("tht.lookup"),
        "tht.hit_ratio": _ratio(tht.get("hits", 0), tht.get("misses", 0)),
        "tht.inserts": calls("tht.insert"),
        "tht.insert_self_s": self_s("tht.insert"),
        "tht.evictions": tht.get("evictions", 0),
        "tht.entries": tht.get("entries", 0),
        "ikt.lookups": calls("ikt.lookup"),
        "ikt.hits": ikt.get("hits", 0),
        "ikt.self_s": self_s("ikt.lookup", "ikt.update"),
        "policy.chosen_p": counters.get("chosen_p", 0.0),
        "policy.trained_tasks": outcome.get("trained", 0),
        "mp.chunks": process.get("chunks", 0),
        "mp.dispatch_self_s": self_s("mp.dispatch"),
        "mp.result_wait_s": self_s("mp.result_wait"),
        "mp.respawns": process.get("respawns", 0),
        "shm.copy_in_calls": calls("shm.copy_in"),
        "shm.copy_in_s": total_s("shm.copy_in"),
        "shm.copy_out_s": total_s("shm.copy_out"),
        "shm.refreshed_buffers": process.get("copyin_refreshed", 0),
        "net.chunks": network.get("chunks", 0),
        "net.encode_self_s": self_s("net.encode"),
        "net.send_self_s": self_s("net.send"),
        "net.pump_wait_s": self_s("net.pump"),
        "net.resubmitted_tasks": network.get("resubmitted_tasks", 0),
        "net_wire.frames": calls("net_wire.encode"),
        "net_wire.encode_s": self_s("net_wire.encode"),
        "net_wire.decode_s": self_s("net_wire.decode"),
        "net_wire.payload_mb": probe("net_wire.encode") * _MB,
        "residency.hit_ratio": _ratio(residency.get("hits", 0), residency.get("misses", 0)),
        "residency.saved_mb": residency.get("bytes_saved", 0) * _MB,
        "residency.self_s": self_s("residency"),
        "net_worker.run_chunk_s": total_s("net_worker.run_chunk"),
        "client.submit_calls": calls("client.submit"),
        "client.submit_s": total_s("client.submit"),
        "client.barrier_s": total_s("client.barrier"),
        "client.shipped_mb": sum(
            v for (name, thread), v in probes.items()
            if name == "net_wire.encode" and thread in outcome.get("client_threads", ())
        ) * _MB,
        "admission.enqueue_calls": calls("admission.enqueue.max"),
        "admission.enqueue_self_s": self_s("admission.enqueue.max"),
        "admission.take_self_s": self_s("admission.take"),
        "admission.max_queued": max(
            [v for (n, _), v in probes.items() if n == "admission.enqueue.max"], default=0),
        "gateway.task_p50_ms": 1e3 * interactive.get("latency_p50_s", 0.0),
        "gateway.task_p99_ms": 1e3 * interactive.get("latency_p99_s", 0.0),
        "trace.spans": spans,
        "trace.coverage": explained / traced_wall_s if traced_wall_s else 0.0,
    }
    unknown = set(values) - {layer.name for layer in PER_LAYER}
    if unknown:
        raise KeyError(f"ledger emits undeclared metrics: {sorted(unknown)}")
    return values

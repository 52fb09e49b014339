"""Multiprocess shared-memory execution backend.

:class:`ProcessExecutor` runs task bodies in real worker *processes*, the
only Python backend that can use more than one core for the compute-bound
portions of a program (the ``ThreadedExecutor`` is GIL-bound, see DESIGN.md
§4.2).  The division of labour:

* **Parent** — owns the task dependence graph, the scheduler and the
  reference :class:`~repro.atm.engine.ATMEngine`.  The drain loop, ledger,
  reply decoder, wedge rule, crash resubmission and delta barrier are the
  shared :class:`~repro.runtime.dispatch.ChunkDispatcher`; this module is
  its shared-memory *transport*: chunks of
  :class:`~repro.runtime.remote_task.TaskDescriptor` (array payloads as
  :class:`~repro.runtime.data.ArrayRef` handles into shared memory) go
  round-robin onto *per-worker* task queues, answers come back on one
  result pipe.
* **Workers** — each is the one
  :class:`~repro.runtime.remote_task.RemoteWorker` behind a queue and a
  pipe, resolving refs over :mod:`multiprocessing.shared_memory` views
  (:class:`~repro.runtime.shm.WorkerArena`), which bump the cross-process
  write-version table for every committed write.  The messages are the
  remote-worker protocol's (DESIGN.md §4.6), the envelope this module's.
* **Data plane** — bytes move per chunk, not per barrier, while the
  workers compute: :meth:`ProcessExecutor._send` checks the base buffers a
  chunk touches for the first time in the drain against their segments
  (``copy_in``: a host store since the last drain is mirrored in),
  :meth:`ProcessExecutor._write_back` lands a completed task's written
  regions in the parent arrays (``copy_out``) *before* the task's
  successors — or a gateway tenant's barrier — are released.  A drain that
  aborts, or a task that is quarantined, therefore leaves every completed
  task's outputs at home and a failed body's partial writes in the segment
  only, where the next drain's first touch overwrites them (DESIGN.md §4.3).

Worker processes persist across drains (barriers inside an application keep
their warm THTs and keygen caches); :meth:`ProcessExecutor.close` — called
automatically by :meth:`repro.session.Session.finish` and by a GC finalizer — shuts
the pool down and unlinks every shared segment.

**Supervision** (DESIGN.md §7): a worker that *dies* mid-drain (killed,
segfault, ``os._exit``) is detected by ``Process.is_alive()`` polling and
respawned in place; the chunk it was executing is charged against the
dispatcher's resubmission budget (``max(1, task_max_retries)``), chunks
merely queued behind it are requeued for free.  A wedged task is the
dispatcher's wedge rule; taking its worker out of service means, here,
killing and respawning it.  Caveat: a crashed worker may have completed (and
committed to shared memory) a prefix of its chunk that the parent never
heard about; resubmission re-runs those tasks, which is only transparent
for idempotent bodies — tasks with ``InOut`` accumulation semantics can
observe a double apply after a crash.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import Optional

from repro.common.config import ATMConfig, RuntimeConfig
from repro.common.exceptions import RuntimeStateError, WorkerLostError
from repro.runtime.dispatch import Chunk, ChunkDispatcher
from repro.runtime.executor import BaseExecutor, RunResult
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.remote_task import (
    RemoteWorker,
    TaskDescriptor,
    describe_task,
    worker_engine_config,
)
from repro.runtime.shm import SharedBufferRegistry, SharedVersionTable, WorkerArena
from repro.runtime.supervision import POLL_INTERVAL

__all__ = ["ProcessExecutor"]


def _worker_main(
    worker_id: int,
    task_queue,
    results,
    results_lock,
    version_name: str,
    version_capacity: int,
    version_lock,
    engine_config: Optional[ATMConfig],
    ack_chunks: bool,
) -> None:
    """Worker process entry point: the remote worker behind a queue and a pipe.

    Each worker owns a private task queue, so a sync pill can never be
    stolen by a peer.  It takes ``("chunk", chunk_id, pickled descriptors)``
    and ``("sync",)`` until the ``None`` shutdown pill, and writes the
    protocol's replies as ``(worker_id, reply)`` — the ``ack`` only when
    ``ack_chunks`` (under ``task_timeout_s``: the parent ages a running
    chunk from it; a dead worker it sees without).

    Answers are written to the shared ``results`` pipe synchronously (under
    ``results_lock``, one message at a time): whatever a worker finished
    before it died is already in the pipe, so the parent never mistakes a
    completed chunk for the one that killed the worker.
    """

    def reply(message: tuple) -> None:
        with results_lock:
            results.send((worker_id, message))

    version_table = SharedVersionTable.attach(version_name, version_capacity, version_lock)
    arena = WorkerArena(version_table)
    worker = RemoteWorker(worker_id, engine_config)
    try:
        while (message := task_queue.get()) is not None:
            if message[0] == "sync":
                reply(("sync_result", worker.sync()))
                continue
            _, chunk_id, payload = message
            for answer in worker.replies(
                chunk_id,
                lambda: worker.run_chunk(pickle.loads(payload), arena),
                ack=ack_chunks,
            ):
                reply(answer)
    finally:
        arena.close()
        version_table.close()


def _cleanup_pool(processes, task_queues, registry, version_table):
    """Pool teardown, run once by close() or the GC finalizer."""
    for task_queue in task_queues:
        try:
            task_queue.put(None)
        except (OSError, ValueError):  # pragma: no cover - queue already closed
            pass
    deadline = time.perf_counter() + 5.0
    for process in processes:
        process.join(timeout=max(0.1, deadline - time.perf_counter()))
    for process in processes:
        if process.is_alive():  # a wedged task never takes the pill
            process.terminate()
            process.join(timeout=1.0)
    registry.close()
    version_table.close()


class ProcessExecutor(BaseExecutor):
    """Executor backed by worker processes over shared memory."""

    #: Slots in the shared write-version table (one per owning base buffer).
    VERSION_TABLE_CAPACITY = 8192

    def __init__(self, config: Optional[RuntimeConfig] = None, engine=None) -> None:
        super().__init__(config=config, engine=engine)
        if self.config.enable_tracing:
            raise RuntimeStateError(
                "ProcessExecutor does not support tracing: task bodies run in "
                "worker processes where CoreState spans cannot be recorded; "
                "use the threaded or simulated backend for Figure 7/8 traces"
            )
        # Validates replicability before anything is allocated (a rejected
        # engine must not leave the version-table segment behind); the
        # config itself is recomputed at spawn time (see _ensure_workers).
        self._engine_config = worker_engine_config(engine)
        self.num_workers = self.config.num_threads
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(method)
        self._version_table = SharedVersionTable(
            capacity=self.VERSION_TABLE_CAPACITY, context=self._ctx
        )
        self._registry = SharedBufferRegistry(self._version_table)
        self._task_queues: list = []
        # Workers answer on one pipe, written synchronously under a lock
        # (see _worker_main); only the parent reads it.
        self._results, self._results_writer = self._ctx.Pipe(duplex=False)
        self._results_lock = self._ctx.Lock()
        self._processes: list = []
        self._next_worker = 0
        self._stats = {
            "workers": self.num_workers, "dispatched": 0, "chunks": 0,
            "resubmitted_tasks": 0, "copyin_refreshed": 0,
            "copyout_buffers": 0, "respawns": 0, "lost_deltas": 0,
        }
        # The finalizer is registered up front so even a never-drained
        # executor releases its shared segments; _cleanup_pool sees
        # later-spawned/respawned workers through the (mutated in place)
        # process/queue lists.
        self._dispatcher = ChunkDispatcher(
            self,
            "process",
            chunk_size=self.config.mp_chunk_size,
            loss_budget=max(1, self.config.task_max_retries),
            counters=self._stats,
            cleanup=(
                _cleanup_pool, self._processes, self._task_queues,
                self._registry, self._version_table,
            ),
        )

    # -- pool management ---------------------------------------------------------
    def _spawn_worker(self, worker_id: int) -> None:
        """Start worker ``worker_id`` (in place when the slot already exists)."""
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                task_queue,
                self._results_writer,
                self._results_lock,
                self._version_table.name,
                self._version_table.capacity,
                self._version_table.lock,
                self._engine_config,
                self.config.task_timeout_s is not None,
            ),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        if worker_id < len(self._processes):
            self._task_queues[worker_id] = task_queue
            self._processes[worker_id] = process
        else:
            self._task_queues.append(task_queue)
            self._processes.append(process)

    def _lose(self, worker_id: int) -> tuple[str, list[Chunk]]:
        """Replace a dead (or wedged) worker with a fresh process in place;
        returns the old worker's name and the chunks it still held."""
        process = self._processes[worker_id]
        chunks = self._dispatcher.reclaim(worker_id, f"worker {process.name}")
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)
        old_queue = self._task_queues[worker_id]
        try:
            old_queue.cancel_join_thread()
            old_queue.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        self._spawn_worker(worker_id)
        self._stats["respawns"] += 1
        return process.name, chunks

    def _ensure_workers(self) -> None:
        if self._processes:
            return
        # Recomputed at spawn time, not construction: Session assigns its
        # assembled engine to a pre-built engine-less executor *after*
        # __init__, and a config snapshotted there would silently run the
        # workers without ATM.
        self._engine_config = worker_engine_config(self.engine)
        for worker_id in range(self.num_workers):
            self._spawn_worker(worker_id)

    def close(self) -> None:
        """Shut the worker pool down and release every shared segment."""
        self._dispatcher.close()

    # -- transport: parent -> workers --------------------------------------------
    def _send(self, chunk: Chunk) -> int:
        """Describe a chunk's tasks over shared memory and dispatch them,
        checking the buffers the drain touches here first (copy-in)."""
        registry = self._registry
        self._stats["copyin_refreshed"] += registry.copy_in(
            access.region for task in chunk.tasks for access in task.accesses
        )
        descriptors = [
            describe_task(
                task.task_id, task.creation_index, task.task_type,
                task.function, task.accesses, task.args, task.kwargs,
                registry.array_ref,
            )
            for task in chunk.tasks
        ]
        return self._dispatch_chunk(chunk.chunk_id, descriptors)

    def _dispatch_chunk(self, chunk_id: int, descriptors: list[TaskDescriptor]) -> int:
        """Pickle one chunk and hand it to the next worker round-robin.

        Pickle synchronously: mp.Queue serialises in a feeder thread, which
        would swallow "unpicklable task function" errors and turn them into
        a silent drain hang.  This way they raise here, with the offending
        tasks named.
        """
        try:
            payload = pickle.dumps(descriptors, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            labels = ", ".join(
                f"{d.type_spec.name}#{d.task_id}" for d in descriptors
            )
            raise RuntimeStateError(
                f"cannot serialize task(s) [{labels}] for the process "
                f"backend: {exc}; task functions and plain arguments must "
                "be picklable (module-level functions, no lambdas/closures)"
            ) from exc
        worker_id = self._next_worker
        self._next_worker = (worker_id + 1) % len(self._processes)
        self._task_queues[worker_id].put(("chunk", chunk_id, payload))
        return worker_id

    def _request_deltas(self) -> range:
        for task_queue in self._task_queues:
            task_queue.put(("sync",))
        return range(len(self._processes))

    # -- transport: workers -> parent --------------------------------------------
    def _pump(self) -> None:
        """Hand the next worker reply to the dispatcher; report a lost worker."""
        answer = self._next_result()
        if answer is None:
            return
        worker_id, message = answer
        name = self._processes[worker_id].name
        if message[0] == "crash":
            what = f"died (exitcode {message[1]})"
        else:
            problem = self._dispatcher.reply(worker_id, name, message)
            if problem is None:
                return
            what = f"was replaced after a bad answer ({problem})"
        # Only the chunk the worker was plausibly running (the acknowledged
        # one when chunks are acked, else the oldest) is charged: a queued
        # task never ran, so its loss says nothing about the task itself.
        _, chunks = self._lose(worker_id)
        executing = next(
            (c for c in chunks if c.started_at is not None), chunks[0]
        ) if chunks else None
        self._dispatcher.worker_lost(
            name,
            executing.tasks if executing else [],
            [t for c in chunks if c is not executing for t in c.tasks],
            WorkerLostError,
            f"worker {name} {what} while the task was in flight",
        )

    # Shared memory is the data plane: a result carries no bytes — the
    # task's written regions are read out of the segments (copy-out) — and a
    # body that raised leaves nothing stale behind.
    def _check_write(self, task) -> None:
        return None

    def _write_back(self, worker_id: int, task, chunk: Chunk) -> None:
        self._stats["copyout_buffers"] += self._registry.copy_out(
            access.region for access in task.accesses if access.writes
        )

    def _task_raised(self, worker_id: int) -> None:
        return None

    def _next_result(self):
        """Blocking result fetch with the liveness check.

        Returns the next ``(worker_id, reply)``, a synthesised ``(worker_id,
        ("crash", exitcode))`` when a worker process is dead, or ``None``
        after one idle poll interval.
        """
        results = self._results
        for worker_id, process in enumerate(self._processes):
            # Everything a worker answered before dying is in the pipe by
            # now: consume that first, or a chunk it completed would be
            # charged with the crash.
            if not process.is_alive() and not results.poll():
                return worker_id, ("crash", process.exitcode)
        return results.recv() if results.poll(POLL_INTERVAL) else None

    # -- drain ---------------------------------------------------------------------
    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        self._dispatcher.ensure_open()
        if graph.all_finished:
            self._finalize_result()
            return self._result
        self._ensure_workers()
        self._fresh_supervisor()
        self._registry.fresh.clear()
        self._result.elapsed += self._dispatcher.run(graph)
        self._result.extra.setdefault("process_backend", self._stats)
        self._finalize_result()
        return self._result

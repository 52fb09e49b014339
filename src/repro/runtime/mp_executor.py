"""Multiprocess shared-memory execution backend.

:class:`ProcessExecutor` runs task bodies in real worker *processes*, the
only Python backend that can use more than one core for the compute-bound
portions of a program (the ``ThreadedExecutor`` is GIL-bound, see DESIGN.md
§4.2).  The division of labour:

* **Parent** — owns the task dependence graph, the scheduler and the
  reference :class:`~repro.atm.engine.ATMEngine`.  The drain loop, the
  in-flight ledger, crash resubmission and the engine-delta barrier are
  the shared :class:`~repro.runtime.dispatch.ChunkDispatcher`; this module
  is its shared-memory *transport*: chunks of
  :class:`~repro.runtime.remote_task.TaskDescriptor` (array payloads as
  :class:`~repro.runtime.data.ArrayRef` handles into shared memory) go
  round-robin onto *per-worker* task queues, answers come back on one
  result pipe.
* **Workers** — pull chunks from their private queue and run each
  descriptor through :func:`~repro.runtime.remote_task.run_descriptor`
  over :mod:`multiprocessing.shared_memory` views
  (:class:`~repro.runtime.shm.WorkerArena`) against a per-worker engine
  replica, bumping the cross-process write-version table for every
  committed write.
* **Data plane** — ``copy_in`` mirrors parent bytes into the segments
  before a drain, ``copy_out`` brings the written buffers home after it.

Worker processes persist across drains (barriers inside an application keep
their warm THTs and keygen caches); :meth:`ProcessExecutor.close` — called
automatically by :meth:`repro.session.Session.finish` and by a GC finalizer — shuts
the pool down and unlinks every shared segment.

**Supervision** (DESIGN.md §7): a worker that *dies* mid-drain (killed,
segfault, ``os._exit``) is detected by ``Process.is_alive()`` polling and
respawned in place; the chunk it was executing is charged against the
dispatcher's resubmission budget (``max(1, task_max_retries)``), chunks
merely queued behind it are requeued for free.  When
``task_timeout_s`` is set, dispatch degrades to one task per chunk and
workers announce chunk starts, so a wedged task is identifiable: the
parent kills the worker hosting it, respawns, and records a
``TaskTimeoutError``.  Caveat: a crashed worker may have completed (and
committed to shared memory) a prefix of its chunk that the parent never
heard about; resubmission re-runs those tasks, which is only transparent
for idempotent bodies — tasks with ``InOut`` accumulation semantics can
observe a double apply after a crash.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from typing import Optional

from repro.common.config import ATMConfig, RuntimeConfig
from repro.common.exceptions import (
    RuntimeStateError,
    TaskTimeoutError,
    WorkerLostError,
)
from repro.runtime.dispatch import Chunk, ChunkDispatcher
from repro.runtime.executor import BaseExecutor, RunResult
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.remote_task import (
    TaskDescriptor,
    build_worker_engine,
    describe_task,
    run_descriptor,
    worker_engine_config,
)
from repro.runtime.shm import SharedBufferRegistry, SharedVersionTable, WorkerArena
from repro.runtime.supervision import POLL_INTERVAL, TIMEOUT_GRACE
from repro.runtime.task import TaskType

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
    report_start: bool,
) -> None:
    """Worker process entry point: pull chunks until the shutdown pill.

    Each worker owns a private task queue, so a sync pill can never be
    stolen by a peer.  A chunk answers with ``("done", worker, chunk_id,
    results)`` listing the tasks that completed, followed — when a task
    body raised — by ``("error", worker, chunk_id, task_id, traceback)``;
    the parent resubmits whatever the worker did not reach.
    ``report_start`` (set when ``task_timeout_s`` supervision is active)
    additionally announces ``("start", worker, chunk_id)`` so the parent
    can age a running chunk.

    Answers are written to the shared ``results`` pipe synchronously (under
    ``results_lock``, one message at a time): whatever a worker finished
    before it died is already in the pipe, so the parent never mistakes a
    completed chunk for the one that killed the worker.
    """

    def reply(*message) -> None:
        with results_lock:
            results.send(message)

    version_table = SharedVersionTable.attach(version_name, version_capacity, version_lock)
    arena = WorkerArena(version_table)
    engine = build_worker_engine(engine_config)
    task_types: dict[str, TaskType] = {}
    try:
        while True:
            message = task_queue.get()
            if message is None:
                break
            if message[0] == "sync":
                delta = engine.snapshot(reset=True) if engine is not None else None
                reply("sync", worker_id, delta)
                continue
            chunk_id = message[1]
            if report_start:
                reply("start", worker_id, chunk_id)
            done: list[tuple[int, str, bool]] = []
            error: Optional[tuple[int, str]] = None
            for desc in pickle.loads(message[2]):
                try:
                    action, executed, _task = run_descriptor(
                        desc, arena, engine, task_types, worker_id
                    )
                except BaseException:
                    error = (desc.task_id, traceback.format_exc())
                    break
                done.append((desc.task_id, action, executed))
            reply("done", worker_id, chunk_id, done)
            if error is not None:
                reply("error", worker_id, chunk_id, *error)
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
        # With a per-task timeout the offender must be identifiable, so
        # workers announce chunk starts and dispatch degrades to one task
        # per chunk (see module docstring).
        self._report_start = self.config.task_timeout_s is not None
        self._next_worker = 0
        #: Slots of the buffers this drain's tasks write (copy_out set).
        self._written_slots: set[int] = set()
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
            send=self._send,
            poll=self._poll,
            request_deltas=self._request_deltas,
            chunk_size=1 if self._report_start else self.config.mp_chunk_size,
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
                self._report_start,
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

    def _lose_worker(self, worker_id: int) -> tuple[str, list[Chunk]]:
        """Replace a dead (or wedged) worker with a fresh process in place.

        Returns the old worker's name and the chunks it still held.
        """
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
        """Describe a chunk's tasks over shared memory and dispatch them."""
        registry = self._registry
        descriptors = []
        for task in chunk.tasks:
            descriptors.append(
                describe_task(
                    task.task_id, task.creation_index, task.task_type,
                    task.function, task.accesses, task.args, task.kwargs,
                    registry.array_ref,
                )
            )
            for access in task.accesses:
                if access.writes:
                    self._written_slots.add(
                        registry.entry_for_array(access.region.array).slot
                    )
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
        self._task_queues[worker_id].put(("tasks", chunk_id, payload))
        return worker_id

    def _request_deltas(self) -> range:
        for task_queue in self._task_queues:
            task_queue.put(("sync",))
        return range(len(self._processes))

    # -- transport: workers -> parent --------------------------------------------
    def _poll(self) -> None:
        """Report the next worker message (or detected loss) to the dispatcher."""
        message = self._next_result()
        if message is None:
            return
        dispatcher = self._dispatcher
        kind, worker_id = message[0], message[1]
        if kind == "done":
            dispatcher.done(worker_id, message[2], message[3])
        elif kind == "error":
            _, _, chunk_id, task_id, trace = message
            dispatcher.task_error(
                worker_id, chunk_id, task_id,
                f"worker {worker_id} failed on task {task_id}:\n{trace}",
                f"repro-worker-{worker_id}",
            )
        elif kind == "start":
            dispatcher.started(worker_id, message[2])
        elif kind == "sync":
            dispatcher.delta(worker_id, message[2])
        elif kind == "crash":
            # Only the chunk the worker was plausibly running when it died
            # (the start-reported one when available, else the oldest) is
            # charged: a queued task never ran, so its loss says nothing
            # about the task itself.
            name, chunks = self._lose_worker(worker_id)
            executing = next(
                (c for c in chunks if c.started_at is not None), chunks[0]
            ) if chunks else None
            dispatcher.worker_lost(
                name,
                executing.tasks if executing else [],
                [t for c in chunks if c is not executing for t in c.tasks],
                WorkerLostError,
                f"worker {name} died (exitcode {message[2]}) while the task "
                "was in flight",
            )
        elif kind == "wedged":
            # A task that blew its budget once would blow it again: the
            # wedged chunk is terminal at once; whatever else sat in the
            # killed worker's queue never started and requeues for free.
            _, _, chunk_id, elapsed = message
            name, chunks = self._lose_worker(worker_id)
            reason = (
                self._supervisor.timeout_reason(elapsed)
                + f"; worker {name} was killed and respawned"
            )
            innocent = []
            for chunk in chunks:
                if chunk.chunk_id != chunk_id:
                    innocent.extend(chunk.tasks)
                    continue
                for task in chunk.tasks:
                    dispatcher.fail(task, TaskTimeoutError, reason, name)
            dispatcher.worker_lost(name, [], innocent, WorkerLostError, reason)
        else:  # pragma: no cover - defensive
            raise RuntimeStateError(f"unexpected worker message: {kind!r}")

    def _next_result(self):
        """Blocking result fetch with liveness and wedge checks.

        Returns the next worker message, a synthesised ``("crash",
        worker_id, exitcode)`` / ``("wedged", worker_id, chunk_id,
        elapsed)`` message when supervision detects a dead worker or an
        over-budget chunk, or ``None`` after one idle poll interval.
        """
        results = self._results
        for worker_id, process in enumerate(self._processes):
            # Everything a worker answered before dying is in the pipe by
            # now: consume that first, or a chunk it completed would be
            # charged with the crash.
            if not process.is_alive() and not results.poll():
                return ("crash", worker_id, process.exitcode)
        if self._report_start:
            now = time.perf_counter()
            budget = self._supervisor.task_timeout_s + TIMEOUT_GRACE
            for worker_id in range(len(self._processes)):
                for chunk in self._dispatcher.outstanding(worker_id):
                    if chunk.started_at is not None and now - chunk.started_at > budget:
                        return ("wedged", worker_id, chunk.chunk_id, now - chunk.started_at)
        return results.recv() if results.poll(POLL_INTERVAL) else None

    # -- drain ---------------------------------------------------------------------
    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        self._dispatcher.ensure_open()
        if graph.all_finished:
            self._finalize_result()
            return self._result
        self._ensure_workers()
        self._fresh_supervisor()
        stats = self._stats
        stats["copyin_refreshed"] += self._registry.copy_in()
        self._written_slots.clear()
        self._result.elapsed += self._dispatcher.run(graph)
        stats["copyout_buffers"] += self._registry.copy_out(self._written_slots)
        self._result.extra.setdefault("process_backend", stats)
        self._finalize_result()
        return self._result

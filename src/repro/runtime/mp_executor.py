"""Multiprocess shared-memory execution backend.

:class:`ProcessExecutor` runs task bodies in real worker *processes*, the
only Python backend that can use more than one core for the compute-bound
portions of a program (the ``ThreadedExecutor`` is GIL-bound, see DESIGN.md
§4.2).  The division of labour:

* **Parent** — owns the task dependence graph, the scheduler and, with
  the tasks' owners, the ATM engines: every lookup and commit runs here.
  The drain loop, ledger, reply decoder, wedge rule and crash resubmission
  are the shared :class:`~repro.runtime.dispatch.ChunkDispatcher`; this
  module is its shared-memory *transport*: chunks of
  :class:`~repro.runtime.remote_task.TaskDescriptor` (array payloads as
  refs into shared memory, resolved through the chunk's table of segment
  names) go round-robin onto *per-worker* task queues as control-codec
  frames (:mod:`repro.runtime.codec`, the bytes a socket carries), and
  each worker answers with frames on its own pipe (``send_bytes`` /
  ``recv_bytes``: nothing the parent reads is unpickled).  The pool shares
  nothing else with its workers: no lock, no version table.
* **Workers** — each is the one
  :class:`~repro.runtime.remote_task.RemoteWorker` behind a queue and a
  pipe, resolving refs over :mod:`multiprocessing.shared_memory` views
  (:class:`~repro.runtime.shm.WorkerArena`) and running task bodies; it
  holds no engine and no write-versions, so a respawned worker needs
  nothing but the next chunk.  The messages are the remote-worker
  protocol's (DESIGN.md §4.6) plus ``("release", slots)``: the segments of
  bases the parent collected, sent when a drain opens.
* **Data plane** — bytes move per chunk, not per barrier, while the
  workers compute: :meth:`ProcessExecutor._send` checks the write-versions
  of the base buffers a chunk touches for the first time in the drain
  (``copy_in``: a base whose version moved since its segment last matched
  it — an announced host store, DESIGN.md §4.5 — is mirrored in),
  :meth:`ProcessExecutor._write_back` lands a completed task's written
  regions in the parent arrays (``copy_out``) *before* the task's
  successors — or a gateway tenant's barrier — are released, and
  :meth:`ProcessExecutor._wrote_here` mirrors outputs the parent memoized
  into their segments (``copy_regions_in``) before anything reads them
  there.  A drain that
  aborts, or a task that is quarantined, therefore leaves every completed
  task's outputs at home and a failed body's partial writes in the segment
  only; the drain ends by settling every base it touched in step at its
  version except those bases, which the next drain's first touch
  overwrites (DESIGN.md §4.3).

Worker processes persist across drains (barriers inside an application keep
their attached segments); :meth:`ProcessExecutor.close` — called
automatically by :meth:`repro.session.Session.finish` and by a GC finalizer — shuts
the pool down and unlinks every shared segment; a segment whose array
the program dropped is unlinked when the next drain opens.

**Supervision** (DESIGN.md §7): a worker that *dies* mid-drain (killed,
segfault, ``os._exit``) is detected by waiting on its ``Process.sentinel``
beside the reply pipes — reported once its own pipe is empty — and
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
import time
from multiprocessing import resource_tracker
from multiprocessing.connection import wait
from typing import Optional

from repro.common.config import RuntimeConfig
from repro.common.exceptions import RuntimeStateError, WorkerLostError
from repro.runtime.data import region_versions
from repro.runtime.dispatch import Chunk, ChunkDispatcher
from repro.runtime.executor import BaseExecutor, RunResult
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.net_wire import NetChunk, decode_frame, encode_frame
from repro.runtime.remote_task import RemoteWorker, TaskDescriptor, describe_tasks
from repro.runtime.shm import SharedBufferRegistry, WorkerArena
from repro.runtime.supervision import POLL_INTERVAL

__all__ = ["ProcessExecutor"]


def _writes(tasks):
    """The regions ``tasks`` write."""
    return (access.region for task in tasks for access in task.accesses if access.writes)


def _worker_main(worker_id: int, task_queue, results, ack_chunks: bool) -> None:
    """Worker process entry point: the remote worker behind a queue and a pipe.

    Each worker owns a private task queue, so a release can never be
    taken by a peer, and a private ``results`` pipe, so a peer killed
    mid-reply can never garble or block its answers.  It takes the frames
    of ``("chunk", NetChunk)`` and ``("release", slots)`` until the
    ``None`` shutdown pill, and writes the protocol's replies as
    frames — the ``ack`` only when ``ack_chunks`` (under ``task_timeout_s``:
    the parent ages a running chunk from it; a dead worker it sees without).

    Answers are written synchronously, one message at a time: whatever a
    worker finished before it died is already in its pipe, so the parent
    never mistakes a completed chunk for the one that killed the worker.

    The version registry a fork inherited is reset first: a parent thread
    may have held its lock, which the weakref callback of an inherited base
    takes when the base is collected here.
    """

    def reply(message: tuple) -> None:
        results.send_bytes(bytes(encode_frame(message)))

    region_versions.reset()
    arena = WorkerArena()
    worker = RemoteWorker(worker_id)
    try:
        while (frame := task_queue.get()) is not None:
            message, _ = decode_frame(frame)
            if message[0] == "release":
                arena.release(message[1])
                continue
            _, chunk = message
            arena.attach(chunk.buffers)
            for answer in worker.replies(
                chunk.chunk_id, lambda: worker.run_chunk(chunk.tasks, arena), ack=ack_chunks
            ):
                reply(answer)
    finally:
        arena.close()


def _cleanup_pool(processes, task_queues, readers, registry):
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
    for task_queue in task_queues:  # its feeder thread exits now, not at GC
        task_queue.cancel_join_thread()
        task_queue.close()
    for reader in readers:
        reader.close()
    registry.close()


class ProcessExecutor(BaseExecutor):
    """Executor backed by worker processes over shared memory."""

    def __init__(self, config: Optional[RuntimeConfig] = None) -> None:
        super().__init__(config=config)
        if self.config.enable_tracing:
            raise RuntimeStateError(
                "ProcessExecutor does not support tracing: task bodies run in "
                "worker processes where CoreState spans cannot be recorded; "
                "use the threaded or simulated backend for Figure 7/8 traces"
            )
        self.num_workers = self.config.num_threads
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(method)
        self._registry = SharedBufferRegistry()
        self._task_queues: list = []
        # Worker i answers on the pipe whose read end is _readers[i].
        self._readers: list = []
        self._processes: list = []
        self._next_worker = 0
        self._stats = {
            "workers": self.num_workers, "dispatched": 0, "chunks": 0,
            "resubmitted_tasks": 0, "copyin_refreshed": 0,
            "copyout_buffers": 0, "respawns": 0,
        }
        # The finalizer is registered up front so even a never-drained
        # executor releases its shared segments; _cleanup_pool sees
        # later-spawned/respawned workers through the (mutated in place)
        # process/queue lists.
        self._dispatcher = ChunkDispatcher(
            self,
            "process",
            workers=self.num_workers,
            chunk_size=self.config.mp_chunk_size,
            loss_budget=max(1, self.config.task_max_retries),
            counters=self._stats,
            cleanup=(
                _cleanup_pool, self._processes, self._task_queues, self._readers,
                self._registry,
            ),
        )

    # -- pool management ---------------------------------------------------------
    def _spawn_worker(self, worker_id: int) -> None:
        """Start worker ``worker_id`` (in place when the slot already exists)."""
        task_queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_queue, writer, self.config.task_timeout_s is not None),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        writer.close()  # the worker holds the write end now
        if worker_id < len(self._processes):
            self._task_queues[worker_id] = task_queue
            self._readers[worker_id] = reader
            self._processes[worker_id] = process
        else:
            self._task_queues.append(task_queue)
            self._readers.append(reader)
            self._processes.append(process)

    def _lose(self, worker_id: int) -> tuple[str, list[Chunk]]:
        """Replace a dead (or wedged) worker with a fresh process in place;
        returns the old worker's name and the chunks it still held."""
        process = self._processes[worker_id]
        chunks = self._dispatcher.reclaim(worker_id)
        self._registry.stale(_writes(task for chunk in chunks for task in chunk.tasks))
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)
        old_queue = self._task_queues[worker_id]
        try:
            old_queue.cancel_join_thread()
            old_queue.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        self._readers[worker_id].close()  # what it still said is stale
        self._spawn_worker(worker_id)
        self._stats["respawns"] += 1
        return process.name, chunks

    def _ensure_workers(self) -> None:
        if self._processes:
            return
        # Forked workers must share the parent's resource tracker: one they
        # started themselves would unlink every segment they attached when
        # they die.
        resource_tracker.ensure_running()
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
        descriptors = describe_tasks(chunk.tasks, registry.array_ref, "process")
        return self._dispatch_chunk(chunk.chunk_id, descriptors)

    def _dispatch_chunk(self, chunk_id: int, descriptors: list[TaskDescriptor]) -> int:
        """Frame one chunk — its descriptors and the table of the segments
        they reference — and hand it to the next worker round-robin.

        Encoded here, synchronously: mp.Queue serialises in a feeder thread,
        which would swallow an encoding error and turn it into a silent
        drain hang (a body that cannot travel by name was already named by
        ``describe_tasks``).
        """
        chunk = NetChunk(chunk_id, self._registry.table(), tuple(descriptors))
        frame = encode_frame(("chunk", chunk))
        worker_id = self._next_worker
        self._next_worker = (worker_id + 1) % len(self._processes)
        self._task_queues[worker_id].put(bytes(frame))
        return worker_id

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
    # body that raised leaves its written bases out of step.
    def _check_write(self, task) -> None:
        return None

    def _write_back(self, worker_id: int, task, chunk: Chunk) -> None:
        self._stats["copyout_buffers"] += self._registry.copy_out(_writes([task]))

    def _task_raised(self, worker_id: int, task) -> None:
        # The body may have written part of its outputs in the segments.
        self._registry.stale(_writes([task]))

    def _wrote_here(self, tasks) -> None:
        # The tasks hold their outputs exclusively: no worker reads or
        # writes those bytes while they are mirrored in.
        self._registry.copy_regions_in(_writes(tasks))

    # -- the parent's share of the Figure 1 step ----------------------------------
    @property
    def max_in_flight(self) -> int:
        # The dispatcher pulls an engine's task only while fewer are in flight.
        return self._dispatcher.window

    def _rescue_orphan(self, task, graph, worker, clock) -> None:
        # A deferred twin whose producer failed runs on a worker, not here.
        self._dispatcher.reship(task)

    def _next_result(self):
        """Blocking result fetch: one wait on every reply pipe and every
        worker's ``Process.sentinel``.

        Returns the next ``(worker_id, reply)``, a synthesised ``(worker_id,
        ("crash", exitcode))`` for a dead worker, or ``None`` after one idle
        poll interval.  Everything a worker answered before dying is in its
        pipe: that is consumed first, or a chunk it completed would be
        charged with the crash.
        """
        readers, processes = self._readers, self._processes
        ready = wait([*readers, *(process.sentinel for process in processes)], POLL_INTERVAL)
        for worker_id, (reader, process) in enumerate(zip(readers, processes)):
            if reader in ready:
                try:
                    return worker_id, decode_frame(reader.recv_bytes())[0]
                except EOFError:  # all it wrote is read: it has exited
                    process.join(timeout=POLL_INTERVAL)
                    return worker_id, ("crash", process.exitcode)
            if process.sentinel in ready and not reader.poll():
                return worker_id, ("crash", process.exitcode)
        return None

    # -- drain ---------------------------------------------------------------------
    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        self._dispatcher.ensure_open()
        if graph.all_finished:
            return self._result
        self._ensure_workers()
        self._fresh_supervisor()
        released = self._registry.release()
        if released:
            frame = bytes(encode_frame(("release", released)))
            for task_queue in self._task_queues:
                task_queue.put(frame)
        try:
            self._result.elapsed += self._dispatcher.run(graph)
        finally:
            # An aborted drain leaves tasks in flight that may still write.
            self._registry.stale(_writes(self._dispatcher.inflight.values()))
            self._registry.settle()
        self._result.extra.setdefault("process_backend", self._stats)
        return self._result

"""Multiprocess shared-memory execution backend.

:class:`ProcessExecutor` runs task bodies in real worker *processes*, the
only Python backend that can use more than one core for the compute-bound
portions of a program (the ``ThreadedExecutor`` is GIL-bound, see DESIGN.md
§4.2).  The division of labour:

* **Parent** — owns the task dependence graph, the scheduler and, with
  the tasks' owners, the ATM engines: every lookup and commit runs here.
  The drain loop, ledger, reply decoder, wedge rule and crash resubmission
  are the shared :class:`~repro.runtime.dispatch.ChunkDispatcher`; this
  module adds what differs from the network backend: the shared-memory
  data plane, round-robin placement and respawn in place.
* **Workers** — each is a
  :class:`~repro.runtime.net_transport.ProcessEndpoint`: a child process
  serving :func:`~repro.runtime.net_transport.serve_connection`, the one
  worker loop, on its end of a socketpair, with every endpoint's receiver
  thread posting to one inbox.  Chunks of
  :class:`~repro.runtime.remote_task.TaskDescriptor` (array payloads as
  refs into shared memory, resolved through the chunk's table of segment
  names) go round-robin as frames of the remote-worker protocol
  (DESIGN.md §4.6); the ``"shared"`` hello lets a worker attach them into
  its connection's one :class:`~repro.runtime.remote_task.WorkerArena`,
  the arena every remote worker keeps across chunks, so its results carry
  no bytes, and ``("drop", [(slot, 0)])`` — the segments of bases the
  parent collected, sent when a drain opens — detaches them.  A worker holds
  no engine and no write-versions, so a respawned worker needs nothing but
  the hello and the next chunk.  Nothing else is shared: no lock, no
  version table, and nothing the parent reads is unpickled.
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
automatically by :meth:`repro.session.Session.finish` and by a GC finalizer —
kills the workers and unlinks every shared segment; a segment whose array
the program dropped is unlinked when the next drain opens.

**Supervision** (DESIGN.md §7): a worker that *dies* mid-drain (killed,
segfault, ``os._exit``) closes its socket, and its endpoint posts a
``TRANSPORT_ERROR`` after every frame the worker wrote before dying; the
worker is respawned in place, the chunk it acknowledged — the one it was
running — is charged against the dispatcher's resubmission budget
(``max(1, task_max_retries)``) and chunks merely queued behind it are
requeued for free.  A wedged task is the dispatcher's wedge rule; taking its
worker out of service means, here, killing and respawning it.  Caveat: a
crashed worker may have completed (and committed to shared memory) a prefix
of its chunk that the parent never heard about; resubmission re-runs those
tasks, which is only transparent for idempotent bodies — tasks with
``InOut`` accumulation semantics can observe a double apply after a crash.
"""

from __future__ import annotations

import multiprocessing
import queue
from multiprocessing import resource_tracker
from typing import Optional

from repro.common.config import RuntimeConfig
from repro.common.exceptions import RuntimeStateError, WorkerLostError
from repro.runtime.dispatch import Chunk, ChunkDispatcher
from repro.runtime.executor import PoolExecutor, RunResult
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.net_transport import TRANSPORT_ERROR, ProcessEndpoint
from repro.runtime.net_wire import NetChunk, PROTOCOL_VERSION, encode_frame
from repro.runtime.remote_task import TaskDescriptor, describe_tasks
from repro.runtime.shm import SharedBufferRegistry
from repro.runtime.supervision import POLL_INTERVAL

__all__ = ["ProcessExecutor"]


def _writes(tasks):
    """The regions ``tasks`` write."""
    return (access.region for task in tasks for access in task.accesses if access.writes)


def _close_pool(endpoints, registry):
    """Pool teardown, run once by close() or the GC finalizer."""
    for endpoint in endpoints:
        endpoint.close()
    registry.close()


class ProcessExecutor(PoolExecutor):
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
        #: Worker i's endpoint; a respawn replaces it in place.
        self._endpoints: list[ProcessEndpoint] = []
        #: ``(endpoint, message)`` from every worker, in arrival order.
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._next_worker = 0
        self._stats = {
            "workers": self.num_workers, "dispatched": 0, "chunks": 0,
            "resubmitted_tasks": 0, "copyin_refreshed": 0,
            "copyout_buffers": 0, "respawns": 0,
        }
        # The finalizer is registered up front so even a never-drained
        # executor releases its shared segments; _close_pool sees
        # later-started/respawned workers through the (mutated in place)
        # endpoint list.
        self._dispatcher = ChunkDispatcher(
            self,
            "process",
            workers=self.num_workers,
            chunk_size=self.config.mp_chunk_size,
            loss_budget=max(1, self.config.task_max_retries),
            counters=self._stats,
            cleanup=(_close_pool, self._endpoints, self._registry),
        )

    # -- pool management ---------------------------------------------------------
    def _start(self, worker_id: int) -> ProcessEndpoint:
        """Start worker ``worker_id``: it resolves refs in the shared segments."""
        endpoint = ProcessEndpoint(f"repro-worker-{worker_id}", worker_id, self._ctx)
        endpoint.start(self._inbox)
        endpoint.send(("hello", {"protocol": PROTOCOL_VERSION, "shared": True}))
        return endpoint

    def _lose(self, worker_id: int) -> tuple[str, list[Chunk]]:
        """Replace a dead (or wedged) worker with a fresh process in place;
        returns the old worker's name and the chunks it still held."""
        endpoint = self._endpoints[worker_id]
        chunks = self._dispatcher.reclaim(worker_id)
        self._registry.stale(_writes(task for chunk in chunks for task in chunk.tasks))
        endpoint.close()  # what it still said is stale
        self._endpoints[worker_id] = self._start(worker_id)
        self._stats["respawns"] += 1
        return endpoint.name, chunks

    def _ensure_workers(self) -> None:
        if self._endpoints:
            return
        # Forked workers must share the parent's resource tracker: one they
        # started themselves would unlink every segment they attached when
        # they die.
        resource_tracker.ensure_running()
        self._endpoints.extend(self._start(worker_id) for worker_id in range(self.num_workers))

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
        they reference — and send it to the next worker round-robin."""
        chunk = NetChunk(chunk_id, self._registry.table(), tuple(descriptors))
        frame = encode_frame(("chunk", chunk))
        worker_id = self._next_worker
        self._next_worker = (worker_id + 1) % len(self._endpoints)
        self._endpoints[worker_id].send(frame)
        return worker_id

    # -- transport: workers -> parent --------------------------------------------
    def _pump(self) -> None:
        """Hand the next worker reply to the dispatcher; replace a lost worker."""
        answer = self._next_result()
        if answer is None:
            return
        endpoint, message = answer
        worker_id = endpoint.worker_id
        if self._endpoints[worker_id] is not endpoint or message[0] == "hello_ack":
            return  # a replaced worker's last words, or the greeting
        problem = None
        if message[0] != TRANSPORT_ERROR:
            problem = self._dispatcher.reply(worker_id, endpoint.name, message)
            if problem is None:
                return
        # Only the chunk the worker acknowledged and did not finish was
        # running: a queued task never ran, so its loss says nothing about it.
        _, chunks = self._lose(worker_id)
        what = (
            f"died (exitcode {endpoint.process.exitcode})" if problem is None
            else f"was replaced after a bad answer ({problem})"
        )
        executing = next((c for c in chunks if c.started_at is not None), None)
        self._dispatcher.worker_lost(
            endpoint.name,
            executing.tasks if executing else [],
            [t for c in chunks if c is not executing for t in c.tasks],
            WorkerLostError,
            f"worker {endpoint.name} {what} while the task was in flight",
        )

    def _next_result(self):
        """Blocking result fetch: the next ``(endpoint, message)`` from the
        inbox, or ``None`` after one idle poll interval.

        A worker's death arrives as a ``TRANSPORT_ERROR`` behind everything
        it answered before dying (its socket's EOF), so a chunk it completed
        is never charged with the crash.
        """
        try:
            return self._inbox.get(timeout=POLL_INTERVAL)
        except queue.Empty:
            return None

    # Shared memory is the data plane: a result carries no bytes — the
    # task's written regions are read out of the segments (copy-out) — and a
    # body that raised leaves its written bases out of step.
    def _write_back(self, worker_id: int, task, chunk: Chunk) -> None:
        self._stats["copyout_buffers"] += self._registry.copy_out(_writes([task]))

    def _task_raised(self, worker_id: int, task) -> None:
        # The body may have written part of its outputs in the segments.
        self._registry.stale(_writes([task]))

    def _wrote_here(self, tasks) -> None:
        # The tasks hold their outputs exclusively: no worker reads or
        # writes those bytes while they are mirrored in.
        self._registry.copy_regions_in(_writes(tasks))

    # -- drain ---------------------------------------------------------------------
    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        self._dispatcher.ensure_open()
        if graph.all_finished:
            return self._result
        self._ensure_workers()
        self._fresh_supervisor()
        released = self._registry.release()
        if released:
            frame = encode_frame(("drop", released))
            for endpoint in self._endpoints:
                endpoint.send(frame)
        try:
            self._result.elapsed += self._dispatcher.run(graph)
        finally:
            # An aborted drain leaves tasks in flight that may still write.
            self._registry.stale(_writes(self._dispatcher.inflight.values()))
            self._registry.settle()
        self._result.extra.setdefault("process_backend", self._stats)
        return self._result

"""Network-transport execution backend (DESIGN.md §4.5).

:class:`NetworkExecutor` drives remote workers over the segmented frame
protocol of :mod:`repro.runtime.net_wire`: the parent keeps the task
dependence graph, the scheduler and, with the tasks' owners, the ATM
engines: every lookup and commit runs there.  Workers — in the same
process behind :class:`~repro.runtime.net_transport.LoopbackEndpoint`
socketpairs, or on other hosts behind ``scripts/net_worker.py`` TCP
daemons — rebuild task chunks from shipped byte buffers, run the bodies,
and ship written region bytes back.

The drain loop, ledger, reply decoder, wedge rule and resubmission budgets
are the shared :class:`~repro.runtime.dispatch.ChunkDispatcher` (§4.6);
this module is its socket *transport* and data plane:

* **No shared memory.**  Every dispatch ships the byte spans a chunk
  touches — views of the parent arrays where the chunk's own accesses cover
  the span, copies where they do not (the alias rule of
  :class:`~repro.runtime.net_wire.ChunkEncoder`: a frame waits in its
  endpoint's outbox until the writer thread sends it); every completion
  carries the written bytes home, checked against the task while it is
  still in flight and applied to the parent arrays by one ``np.copyto``
  *before* successors are released.  The one data plane is per-endpoint
  data residency, so dispatch cost is proportional to *stale* data rather
  than touched data: the parent's
  :class:`~repro.runtime.residency.ResidencyTable` tracks which buffer
  spans each endpoint already holds at which write-version, chunks ship
  ``data=None`` cached references for current spans, and the placement
  layer routes ready chunks to the endpoint holding the most of their
  input bytes.  Outputs the parent memoized drop the overlapping entries:
  no endpoint holds those bytes.  An entry evicted over the budget or
  dropped by an overlapping write reaches its worker as a ``drop`` of its
  ``(buffer_id, generation)`` pair, which the worker's one arena forgets.
  Cold buffers fall back to a round-robin cursor over the *fixed* endpoint
  pool — the cursor skips failed endpoints instead of re-indexing a
  shrunken live list, so placement stays deterministic across failover.
  See PERFORMANCE.md ("Network backend dispatch overhead" and
  "Stale-bytes dispatch").
* **Failure is expected.**  A broken connection is the receiver's
  ``TRANSPORT_ERROR`` (sends never block and never fail inline), the
  silence rule (``RuntimeConfig.net_timeout_s``) fails an endpoint that
  owes an answer and stays silent, a
  reply the dispatcher's decoder rejects fails the endpoint that sent it,
  and the unfinished chunks of a failed endpoint are resubmitted to the
  surviving ones — the failed endpoint stays excluded.  Every chunk it
  held is charged against the dispatcher's resubmission budget
  (``net_max_retries``); a task wedged past ``task_timeout_s`` is the
  dispatcher's wedge rule, with "out of service" meaning excluded here;
  under ``task_timeout_s`` a chunk the worker acked belongs to the wedge
  rule, not to the silence rule.
  Exhausting that budget,
  losing every endpoint, or exceeding the drain deadline raises
  :class:`~repro.common.exceptions.NetworkDrainError` instead of hanging.
  Resubmission is safe by construction: a dispatched task's input bytes
  cannot change until its own completion (dependence exclusivity), and
  writes are only applied from the first accepted result — messages from
  failed endpoints are dropped.
"""

from __future__ import annotations

import functools
import queue as queue_module
import time
from typing import Optional, Sequence

import numpy as np

from repro.common.config import RuntimeConfig
from repro.common.exceptions import (
    ConfigurationError,
    NetworkDrainError,
    NetworkTransportError,
    RuntimeStateError,
    WireProtocolError,
    WorkerLostError,
)
from repro.runtime.dispatch import Chunk, ChunkDispatcher
from repro.runtime.executor import PoolExecutor, RunResult
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.remote_task import describe_tasks
from repro.runtime.supervision import POLL_INTERVAL
from repro.runtime.net_transport import (
    SocketEndpoint,
    TRANSPORT_ERROR,
    parse_endpoints,
)
from repro.runtime.net_wire import (
    ChunkEncoder,
    Frame,
    NetBuffer,
    NetChunk,
    PROTOCOL_VERSION,
    encode_frame,
)
from repro.runtime.data import region_versions
from repro.runtime.residency import RESIDENCY_BUDGET_BYTES, ResidencyTable
from repro.runtime.task import Task

__all__ = ["NetworkExecutor"]


def _close_endpoints(endpoints: list) -> None:
    """Endpoint teardown, run once by close() or the GC finalizer."""
    for endpoint in endpoints:
        endpoint.send(("shutdown",))
        try:
            endpoint.close()
        except Exception:  # pragma: no cover - defensive
            pass


class NetworkExecutor(PoolExecutor):
    """Executor backed by workers behind a message transport."""

    abort_error = NetworkDrainError

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        endpoints: Optional[Sequence[SocketEndpoint]] = None,
    ) -> None:
        super().__init__(config=config)
        if not self.config.net_residency:
            raise ConfigurationError(
                "net_residency=False: the network backend has one data plane, "
                "per-endpoint residency; the ship-everything protocol is gone"
            )
        if self.config.enable_tracing:
            raise RuntimeStateError(
                "NetworkExecutor does not support tracing: task bodies run on "
                "remote workers where CoreState spans cannot be recorded; "
                "use the threaded or simulated backend for Figure 7/8 traces"
            )
        self.timeout = self.config.net_timeout_s
        self.max_retries = self.config.net_max_retries
        #: Per-drain wall-clock bound, from ``RuntimeConfig.drain_timeout_s``;
        #: instances may override it (the fault tests bound every scenario).
        self.drain_timeout = self.config.drain_timeout_s
        if endpoints is None:
            endpoints = parse_endpoints(
                self.config.net_endpoints, self.config.num_threads
            )
        self._endpoints: list[SocketEndpoint] = list(endpoints)
        self._inbox: queue_module.Queue = queue_module.Queue()
        #: Live endpoint -> ``perf_counter`` stamp it was last heard from
        #: (or last handed work): the silence rule's clock.
        self._last_heard: dict[SocketEndpoint, float] = {}
        #: Round-robin cursor over live endpoints; persists across dispatch
        #: calls so wavefront apps (one ready chunk at a time) still spread
        #: over the whole pool instead of hammering endpoint 0.
        self._rr_cursor = 0
        self._failures: list[str] = []
        self._started = False
        #: Which buffer spans each endpoint holds, at which write-version.
        self._residency = ResidencyTable(RESIDENCY_BUDGET_BYTES)
        self._chunks_by_endpoint: dict[str, int] = {}
        self._stats = {
            "endpoints": len(self._endpoints),
            "dispatched": 0,
            "chunks": 0,
            "resubmitted_tasks": 0,
            "payload_bytes": 0,
            "failed_endpoints": self._failures,
            "chunks_by_endpoint": self._chunks_by_endpoint,
            # Aliases the table's live counters, like failed_endpoints.
            "residency": self._residency.stats,
        }
        self._dispatcher = ChunkDispatcher(
            self,
            "network",
            workers=len(self._endpoints),
            chunk_size=self.config.mp_chunk_size,
            loss_budget=self.max_retries,
            counters=self._stats,
            cleanup=(_close_endpoints, self._endpoints),
        )

    # -- pool management ---------------------------------------------------------
    def _live_endpoints(self) -> list[SocketEndpoint]:
        return [ep for ep in self._endpoints if not ep.failed]

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        hello = ("hello", {"protocol": PROTOCOL_VERSION})
        for endpoint in self._endpoints:
            try:
                endpoint.start(self._inbox)
            except NetworkTransportError as exc:
                self._record_failure(endpoint, str(exc))
                continue
            endpoint.send(hello)
            self._last_heard[endpoint] = time.perf_counter()
        if not self._live_endpoints():
            raise NetworkDrainError(
                "no network endpoint could be reached: "
                + "; ".join(self._failures)
            )

    def _record_failure(self, endpoint: SocketEndpoint, reason: str) -> None:
        endpoint.failed = True
        self._failures.append(f"{endpoint.name}: {reason}")
        # Never join threads here: this runs on the drain thread and a
        # wedged worker would stall failover for the whole join timeout.
        endpoint.close(wait=False)

    def close(self) -> None:
        """Shut every endpoint down (idempotent; also runs via GC finalizer)."""
        self._dispatcher.close()

    # -- transport: parent -> endpoints ------------------------------------------
    def _encode_chunk(
        self, chunk: Chunk, endpoint: SocketEndpoint
    ) -> tuple[Frame, dict[int, int], list[tuple[int, int]]]:
        """Build and frame one chunk for ``endpoint``.

        Returns ``(frame, dispatch_gens, evicted)`` where
        ``dispatch_gens`` maps buffer ids to the residency generation the
        chunk was encoded against and ``evicted`` lists budget-evicted
        ``(buffer_id, generation)`` pairs to forward as a ``drop``.

        Describing and framing happen synchronously (not in the receiver/
        sender machinery), as in the process backend: a task that cannot
        travel must raise with the offending tasks named, not wedge the
        drain.  Each touched buffer ships either its full union span (stale
        or unknown on this endpoint) or a ``data=None`` cached reference
        (current) — the stale-bytes dispatch.
        A shipped span follows the encoder's alias rule, so the frame may
        wait in the endpoint's outbox.
        """
        encoder = ChunkEncoder()
        descriptors = tuple(describe_tasks(chunk.tasks, encoder.ref, "network"))
        dispatch_gens: dict[int, int] = {}
        residency = self._residency
        protect_tick = residency.next_tick()
        buffers: list[NetBuffer] = []
        for buffer_id, (base, start, end) in encoder.spans().items():
            version = region_versions.version_of(base)
            entry = residency.lookup(endpoint, buffer_id, start, end, version)
            if entry is not None:
                row = NetBuffer(buffer_id, entry.start, None, entry.generation)
            else:
                generation = residency.record(endpoint, buffer_id, start, end, version)
                row = NetBuffer(buffer_id, start, encoder.payload(buffer_id), generation)
            buffers.append(row)
            dispatch_gens[buffer_id] = row.generation
        evicted = residency.evict_over_budget(endpoint, protect_tick)
        try:
            frame = encode_frame(
                ("chunk", NetChunk(chunk.chunk_id, tuple(buffers), descriptors))
            )
        except WireProtocolError:
            # The recorded entries describe bytes that never shipped.
            residency.drop_endpoint(endpoint)
            raise
        return frame, dispatch_gens, evicted

    def _send_chunk(self, chunk: Chunk, endpoint: SocketEndpoint) -> None:
        """Ship one chunk to ``endpoint``."""
        frame, chunk.extra, evicted = self._encode_chunk(chunk, endpoint)
        endpoint.send(frame)
        if evicted:
            # After the chunk: socket FIFO order guarantees the worker
            # processes every dispatch referencing the evicted
            # generations before it drops them.
            endpoint.send(("drop", tuple(evicted)))
        # Dispatch restarts the endpoint's silence clock: an endpoint that
        # was legitimately idle (nothing outstanding) must get a full
        # timeout window to answer freshly (re)submitted work.
        self._last_heard[endpoint] = time.perf_counter()
        self._stats["payload_bytes"] += len(frame)
        self._chunks_by_endpoint[endpoint.name] = (
            self._chunks_by_endpoint.get(endpoint.name, 0) + 1
        )

    def _send(self, chunk: Chunk) -> SocketEndpoint:
        """Place one chunk on a live endpoint (locality-aware) and ship it."""
        live = self._live_endpoints()
        if not live:
            raise NetworkDrainError(
                "all network endpoints failed: " + "; ".join(self._failures)
            )
        endpoint = self._place(chunk.tasks, live)
        self._send_chunk(chunk, endpoint)
        return endpoint

    # -- placement ---------------------------------------------------------------
    def _place(
        self, tasks: list[Task], live: list[SocketEndpoint]
    ) -> SocketEndpoint:
        """Pick the endpoint for one ready chunk.

        Scoring order (first hit wins), pure locality by design so placement
        stays deterministic under completion/dispatch races:

        1. **Residency bytes** — the endpoint whose current residency
           entries cover the most of the chunk's touched bytes (ties break
           in pool order);
        2. **Cold round-robin** — a cursor over the *fixed* endpoint pool
           that skips failed endpoints, so failover never re-biases
           placement of unrelated work.

        Twins need no routing: the parent looks every task up before it
        ships, so a twin never reaches an endpoint.
        """
        if len(live) == 1:
            return live[0]
        endpoint: Optional[SocketEndpoint] = None
        wanted = self._wanted_spans(tasks)
        best_score = 0
        for candidate in live:
            score = self._residency.score(candidate, wanted)
            if score > best_score:
                endpoint, best_score = candidate, score
        return endpoint or self._next_cold_endpoint(live)

    def _wanted_spans(self, tasks: list[Task]) -> list[tuple[int, int, int, int]]:
        """Merged ``(buffer_id, start, end, version)`` spans a chunk touches."""
        encoder = ChunkEncoder()
        for task in tasks:
            for access in task.accesses:
                encoder.ref(access.region.array, access.region)
        return [
            (buffer_id, start, end, region_versions.version_of(base))
            for buffer_id, (base, start, end) in encoder.spans().items()
        ]

    def _next_cold_endpoint(self, live: list[SocketEndpoint]) -> SocketEndpoint:
        """Advance the round-robin cursor over the *fixed* endpoint pool.

        Indexing the full pool and skipping failed endpoints keeps the
        assignment sequence of the survivors stable when an endpoint dies
        mid-drain; the old ``live[cursor % len(live)]`` re-biased toward
        low-index endpoints every time ``live`` shrank.
        """
        pool = self._endpoints
        for _ in range(len(pool)):
            endpoint = pool[self._rr_cursor % len(pool)]
            self._rr_cursor += 1
            if not endpoint.failed:
                return endpoint
        return live[0]  # pragma: no cover - live is non-empty by contract

    # -- failure handling --------------------------------------------------------
    def _exclude(self, endpoint: SocketEndpoint, reason: str) -> tuple[str, list[Chunk]]:
        """Mark an endpoint dead; returns its name and the chunks it held."""
        if endpoint.failed:
            return endpoint.name, []
        self._record_failure(endpoint, reason)
        # Residency died with the endpoint's connection (resubmission to
        # survivors re-ships full bytes).
        self._residency.drop_endpoint(endpoint)
        self._last_heard.pop(endpoint, None)
        return endpoint.name, self._dispatcher.reclaim(endpoint)

    def _lose(self, endpoint: SocketEndpoint) -> tuple[str, list[Chunk]]:
        """The dispatcher's wedge rule: exclude the endpoint a task is stuck on."""
        return self._exclude(
            endpoint, f"a task ran past task_timeout_s={self.config.task_timeout_s}s"
        )

    def _lose_endpoint(self, endpoint: SocketEndpoint, reason: str) -> None:
        """Exclude a failed endpoint and resubmit what it held, charged."""
        name, chunks = self._exclude(endpoint, reason)
        self._dispatcher.worker_lost(
            name, [t for c in chunks for t in c.tasks], [], WorkerLostError,
            f"exceeded net_max_retries={self.max_retries} after endpoint "
            "failures: " + "; ".join(self._failures),
        )

    def _task_raised(self, endpoint: SocketEndpoint, task: Task) -> None:
        """A body raised on ``endpoint``: forget what it holds, so the next
        dispatch re-ships full bytes — the body may have partially written
        into cached backings, which re-shipped bytes replace."""
        self._residency.drop_endpoint(endpoint)

    def _wrote_here(self, tasks) -> None:
        """The parent wrote these tasks' outputs (THT or IKT copies): drop
        every residency entry overlapping them — a write no endpoint made,
        which ``note_write`` with no writer and an unchanged version does.
        Their version bumps alone would not do: a result landing in the
        same step upgrades the entries of its base across them."""
        dropped = []
        for task in tasks:
            for access in task.accesses:
                if access.writes:
                    region = access.region
                    version = region.version
                    dropped += self._residency.note_write(
                        None, None, region.base_id, region.byte_interval, version, version
                    )
        self._drop(dropped)

    # -- drain -------------------------------------------------------------------
    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        self._dispatcher.ensure_open()
        if graph.all_finished:
            return self._result
        self._ensure_started()
        self._fresh_supervisor().drain_timeout_s = self.drain_timeout
        self._result.elapsed += self._dispatcher.run(graph)
        # _stats["failed_endpoints"] aliases self._failures, so the extra
        # dict stays live across drains without re-assignment.
        self._result.extra.setdefault("network_backend", self._stats)
        return self._result

    # -- transport: endpoints -> parent ------------------------------------------
    def _pump(self) -> None:
        """Hand one inbox message to the dispatcher, or run the liveness
        check on idle."""
        try:
            endpoint, message = self._inbox.get(timeout=POLL_INTERVAL)
        except queue_module.Empty:
            self._check_liveness()
            return
        if endpoint not in self._last_heard:
            return  # stale traffic from an endpoint already declared dead
        kind = message[0]
        if kind == TRANSPORT_ERROR:
            self._lose_endpoint(endpoint, message[1])
            return
        # Whatever it says, the endpoint is alive.
        self._last_heard[endpoint] = time.perf_counter()
        if kind == "hello_ack":
            return
        problem = self._dispatcher.reply(endpoint, endpoint.name, message)
        if problem is not None:
            # Nothing of the message was applied and its tasks are still in
            # flight: they re-run on another endpoint.
            self._lose_endpoint(endpoint, problem)

    def _check_write(self, task: Task, writes) -> Optional[str]:
        """What is wrong with the written-bytes payload of ``task``'s result.

        Checked before the task leaves the in-flight map: each write must
        name a written access of its task and carry exactly that region's
        bytes, or :meth:`_write_back` would raise mid-completion (or land
        bytes in an input).
        """
        for index, raw in writes:
            if not 0 <= index < len(task.accesses):
                return f"task {task.task_id} write names access {index!r}"
            access = task.accesses[index]
            sent, expected = memoryview(raw).nbytes, access.region.array.nbytes
            if not access.writes or sent != expected:
                return (
                    f"task {task.task_id} write carries {sent} bytes for access "
                    f"{index}, a {expected}-byte {access.mode.value!r} region"
                )
        return None

    def _write_back(self, endpoint: SocketEndpoint, task: Task, chunk: Chunk, writes):
        """Land one completed task's written bytes in the parent arrays.

        Runs *before* the dispatcher releases the task's successors:
        anything scheduled next reads the new values (and re-serializes them
        at its own dispatch).  Returns the residency commit to run after the
        release, when the task wrote anything.
        """
        for index, raw in writes:
            region = task.accesses[index].region
            received = np.frombuffer(raw, dtype=region.array.dtype)
            np.copyto(
                region.array, received.reshape(region.array.shape), casting="no"
            )
        if not writes:
            return None
        # Snapshot the pre-commit versions: complete_task bumps every write
        # region, and the table's upgrade rule needs both sides of the bump.
        prev_versions = [task.accesses[index].region.version for index, _ in writes]
        return functools.partial(
            self._commit_residency, task, writes, prev_versions, endpoint, chunk.extra
        )

    def _commit_residency(
        self, task, writes, prev_versions, endpoint, dispatch_gens
    ) -> None:
        """Apply one task's committed writes to the residency table.

        The writer's own entry upgrades to the new version (its backing
        holds exactly the bytes it shipped home) when its generation still
        matches the dispatch-time one; overlapping entries elsewhere drop
        and get a worker-side ``drop`` so the worker's arena follows.
        """
        dropped = []
        for (index, _), prev_version in zip(writes, prev_versions):
            region = task.accesses[index].region
            dropped += self._residency.note_write(
                endpoint,
                dispatch_gens.get(region.base_id),
                region.base_id,
                region.byte_interval,
                prev_version,
                region.version,
            )
        self._drop(dropped)

    def _drop(self, dropped: list) -> None:
        """Tell each endpoint which of its ``(endpoint, buffer_id,
        generation)`` residency entries were dropped."""
        drops: dict[SocketEndpoint, list[tuple[int, int]]] = {}
        for drop_endpoint, buffer_id, generation in dropped:
            drops.setdefault(drop_endpoint, []).append((buffer_id, generation))
        for drop_endpoint, pairs in drops.items():
            if not drop_endpoint.failed:
                drop_endpoint.send(("drop", tuple(pairs)))

    def _check_liveness(self) -> None:
        """The silence rule: an endpoint that owes an answer
        (:meth:`~repro.runtime.dispatch.ChunkDispatcher.owes`) must not stay
        silent past ``net_timeout_s``."""
        now = time.perf_counter()
        for endpoint in list(self._last_heard):
            # Read live: losing one endpoint hands its work to another.
            silent_for = now - self._last_heard.get(endpoint, now)
            if silent_for > self.timeout and self._dispatcher.owes(endpoint):
                self._lose_endpoint(
                    endpoint,
                    f"heartbeat timeout ({silent_for:.2f}s > "
                    f"net_timeout_s={self.timeout}s with work outstanding)",
                )

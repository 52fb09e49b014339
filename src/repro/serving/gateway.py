"""Multi-tenant serving gateway: the front door of the runtime (DESIGN.md §8).

A :class:`Gateway` turns the single-program Session model into a long-lived
service: many clients connect over TCP (the :mod:`repro.runtime.net_wire`
frame format), each claiming a **tenant** identity, and their task-graph
submissions are multiplexed onto ONE shared long-lived executor pool (any
registered backend).  Three properties make the sharing safe:

* **Isolation** — every tenant owns a private :class:`TenantArena` (its
  buffers, and therefore its dependence regions, are disjoint from every
  other tenant's) and a private ATM engine, so memoization state never
  leaks across tenants.  Each task names its tenant as its owner, and the
  pool — of any kind — runs it against that tenant's engine (a worker
  pool's dispatcher looks it up and commits it in this process).
* **Fairness** — submissions pass through the
  :class:`~repro.serving.admission.AdmissionController`: per-tenant FIFO
  queues drained by weighted deficit round-robin into a bounded global
  pending pool, so a heavy tenant cannot starve a light one.
* **Opt-in sharing** — with ``ServingConfig.shared_tht`` the gateway keeps
  one extra :class:`~repro.atm.tht.THT` tier.  Tenant engines journal their
  commits and a background pump incrementally merges the deltas into the
  shared tier (period :data:`MERGE_INTERVAL_S`, or earlier after
  :data:`MERGE_MIN_COMMITS` journal entries); a tenant-private THT miss then
  probes the shared tier, so tenants that opted in reuse each other's work
  without ever writing into each other's namespaces.  With ``atm.tht_store``
  the shared tier additionally warm-starts from a persistent store
  (``file://`` snapshot or another gateway's ``tcp://`` tier, DESIGN.md §9)
  and the merge pump publishes its incremental deltas back, so the warm
  tier survives gateway restarts.

The shared tier also serves processes outside the gateway: a connection
whose hello says ``store`` is a store client (:class:`~repro.atm.store.
ShardTHTStore`, what ``atm.tht_store="tcp://HOST:PORT"`` opens).  It gets no
tenant, arena or admission entry, only ``fetch`` (the shared tier as one
delta) and ``publish`` (a delta merged in, journaled like a tenant's, so the
merge pump passes it on to the gateway's own store); a gateway without a
shared tier refuses both with ``THTStoreUnavailableError``.

Threading model: the server is a :class:`~repro.runtime.net_server.
FrameServer`, the one the worker daemon uses — an accept thread
and one thread per connection, which runs a plain blocking loop: ``read_frame``
→ ingest (or wait for the tenant's barrier) → ``write_frame``, so a reply is
built, encoded and sent on one thread and a full tenant queue blocks that
tenant's thread only.  Beside them run one dispatch thread (admission pump +
``executor.drain``), one merge-pump thread (shared tier only), plus whatever
the pool backend keeps — for ``threaded`` one long-lived set of
``num_threads`` workers that wait for chunks between drains.  A barrier waits on the
tenant's condition, notified where its ``outstanding`` count reaches 0.  The
pool executes only while a drain is open: work admitted in between waits in
the ready queue, and ``_dispatch_loop`` re-drains for as long as the graph
is unfinished.  Mid-drain admission rides the graph's ``on_complete`` hook —
every task completion frees a pending-pool slot and immediately pumps more
queued work into the live graph, which keeps the pool busy and is what lets
a second wave submitted *while draining* land in the same graph (the
submit-while-draining parity tests drive exactly this seam).

The graph and the dependence tracker hold only live tasks (a finished task
is forgotten), so a gateway that serves for a long time stays flat.
"""

from __future__ import annotations

import itertools
import math
import numbers
import socket
import threading
import time
from collections import deque
from typing import Any, Mapping, Optional

import numpy as np

from repro.atm.engine import build_engine, copy_outputs_from_entry
from repro.atm.store import publish_increment, store_reply, warm_start
from repro.atm.tht import TaskHistoryTable
from repro.common.config import ReproConfig
from repro.common.exceptions import (
    AdmissionError,
    ConfigurationError,
    GatewayError,
    GatewayProtocolError,
    GatewayShutdownError,
    ReproError,
    TenantRejectedError,
    THTStoreUnavailableError,
    WireProtocolError,
)
from repro.runtime.atm_protocol import ATMAction, ATMDecision
from repro.runtime.data import AccessMode
from repro.runtime.executor import build_executor
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.net_server import SHUTDOWN_GRACE_S, FrameServer
from repro.runtime.net_wire import NetBuffer, NetChunk, raw_view, read_frame, write_frame
from repro.runtime.remote_task import ArrayArena, rebuild_task
from repro.runtime.supervision import TaskFailure
from repro.runtime.task import Task, TaskState, TaskType
from repro.serving.admission import AdmissionController

__all__ = [
    "Gateway",
    "SERVING_PROTOCOL_VERSION",
]

#: Bumped on any incompatible change to the gateway message vocabulary.
#: Version 2: submissions carry :class:`~repro.runtime.remote_task.
#: TaskDescriptor` (the descriptor classes moved import path).
#: Version 3: segmented frames (:mod:`repro.runtime.net_wire` version 5).
#: Version 4: the data-only control codec (:mod:`repro.runtime.codec`); one
#: submission message, ``("submit_batch", NetChunk)``.
#: Version 5: a hello with ``store`` opens a THT store connection (``fetch``
#: / ``publish``), whose entries are found by key value.
SERVING_PROTOCOL_VERSION = 5

#: What a store client's connection holds where a tenant's holds its state.
_STORE_CLIENT = "store client"

#: ATM modes a tenant may request at hello time.
_TENANT_ATM_MODES = ("none", "static", "dynamic", "fixed_p")

#: Period of the merge pump: at least this often every tenant engine's
#: journaled delta (``snapshot(reset=True)``) is merged into the shared tier,
#: no drain barrier required.
MERGE_INTERVAL_S = 0.05

#: Size trigger of the merge pump: a tenant engine whose journal holds this
#: many commits is merged at the next tick instead of waiting for the timer.
MERGE_MIN_COMMITS = 64

#: Per-tenant reservoir of completed-task latencies kept for ``stats``
#: replies (p50/p99); bounded so long-lived tenants use constant memory.
RESULT_HISTORY = 1024


class TenantArena(ArrayArena):
    """Persistent per-tenant buffer store.

    Client buffers are shipped whole (one :class:`NetBuffer` with
    ``start == 0`` covering the owning base) on first touch and live here for
    the tenant's lifetime; the server-side copy is authoritative between
    barriers.  The arena's ref-keyed caches make repeated submissions over
    the same client array resolve to the *same* region object — which is
    what gives the shared dependence graph and the ATM key caches a stable
    identity per tenant array.  A tenant buffer always starts at offset 0.
    """

    error = GatewayProtocolError

    def store(self, buffers: "tuple[NetBuffer, ...] | list[NetBuffer]") -> None:
        for buf in buffers:
            if buf.data is None or type(buf.data) is str:
                raise GatewayProtocolError(
                    "the gateway ships tenant buffers whole; cached "
                    "(data=None) and shared-segment NetBuffers are "
                    "worker-protocol forms the serving protocol does not use"
                )
            if buf.start != 0:
                raise GatewayProtocolError(
                    f"tenant buffer {buf.buffer_id!r} shipped a partial span "
                    f"(start={buf.start}); the serving protocol ships whole "
                    f"base buffers"
                )
            if buf.buffer_id in self._held:
                # First ship wins: the server copy is authoritative and the
                # SDK never re-ships a buffer it already registered.
                continue
            # The frame reader's segment is adopted as the backing.
            self._adopt(buf.buffer_id, np.frombuffer(buf.data, dtype=np.uint8))

    def _missing(self, key) -> Exception:
        return GatewayProtocolError(
            f"task references buffer {key!r} that this tenant never shipped"
        )

    def backing_view(self, buffer_id: int):
        """The live backing of one buffer as a frame segment (no copy)."""
        held = self._held.get(buffer_id)
        if held is None:
            raise GatewayProtocolError(
                f"write-back references unknown buffer {buffer_id:#x}"
            )
        return raw_view(held.backing)


class _TenantState:
    """Everything the gateway tracks per tenant."""

    def __init__(
        self,
        name: str,
        weight: float,
        engine,
        share_tht: bool,
    ) -> None:
        self.name = name
        self.weight = weight
        self.engine = engine
        self.share_tht = share_tht
        self.arena = TenantArena()
        self.task_types: dict[str, TaskType] = {}
        self.lock = threading.Lock()
        #: Over ``lock``; notified when ``outstanding`` reaches 0 (barriers).
        self.idle = threading.Condition(self.lock)
        #: The socket of the connection that said hello as this tenant
        #: (``None``: nobody); read and written under the tenants lock.
        self.connection: Optional[socket.socket] = None
        self.submitted = 0
        self.outstanding = 0
        self.executed = 0
        self.memoized = 0
        self.failed = 0
        self.cancelled = 0
        self.shared_hits = 0
        self.failed_ids: set[int] = set()
        self.dirty: set[int] = set()
        self.latencies: deque = deque(maxlen=RESULT_HISTORY)
        self.last_flush = time.monotonic()

    def counters(self, prefix: str = "") -> dict:
        """The task counters of a summary (``prefix="tasks_"``) or ``stats``
        reply; read under ``lock``."""
        counts = {
            "submitted": self.submitted,
            "completed": self.executed + self.memoized,
            "executed": self.executed,
            "memoized": self.memoized,
            "failed": self.failed,
            "cancelled": self.cancelled,
        }
        counters = {prefix + key: value for key, value in counts.items()}
        counters.update(shared_hits=self.shared_hits, outstanding=self.outstanding)
        return counters


class _SharedTierProbe:
    """The engine of a tenant that shares the THT tier.

    The tenant's own engine plus one step of the lookup: a tenant-private
    miss probes the shared tier.  A hit there abandons the tenant-side
    lookup (retiring its IKT registration), copies the stored outputs, and
    reports a ``SKIP`` with ``atm_handled=False`` — the executor then
    completes the task as memoized without any tenant-engine commit, so the
    shared tier accelerates tenants without polluting their private
    statistics or tables.  Everything else is the tenant engine's.
    """

    def __init__(self, engine, shared_tht: TaskHistoryTable) -> None:
        self._engine = engine
        self._shared = shared_tht

    def __getattr__(self, name: str):
        return getattr(self._engine, name)

    def task_ready(self, task: Task, worker_id: int = 0) -> ATMDecision:
        engine = self._engine
        decision = engine.task_ready(task, worker_id)
        key = decision.payload.get("key")
        if decision.action is not ATMAction.EXECUTE or key is None:
            return decision
        entry = self._shared.lookup(key, task.task_type.name)
        if entry is None:
            return decision
        engine.task_abandoned(task, decision)
        try:
            copied = copy_outputs_from_entry(task, entry)
        except Exception:
            # Output layout mismatch (same key, different task surface):
            # execute normally.  The tenant-side lookup was already
            # abandoned, so the engine must not see a task_finished for it.
            return ATMDecision(
                action=ATMAction.EXECUTE,
                hashed_bytes=decision.hashed_bytes,
                p=decision.p,
                atm_handled=False,
            )
        tenant = task.owner
        with tenant.lock:
            tenant.shared_hits += 1
        return ATMDecision(
            action=ATMAction.SKIP,
            hashed_bytes=decision.hashed_bytes,
            copied_bytes=copied,
            p=decision.p,
            atm_handled=False,
        )


class Gateway:
    """The serving front door (see module docstring)."""

    def __init__(self, config: "ReproConfig | dict | str | None" = None) -> None:
        cfg = ReproConfig.coerce(config)
        if cfg.runtime.executor == "simulated":
            raise ConfigurationError(
                "the gateway needs a real executor pool; the simulated "
                "backend models one closed program, not an open-loop service"
            )
        # Tenant failures must quarantine (cancel the tenant's dependent
        # subgraph, report through RunResult.failures) — an aborting pool
        # would let one tenant's bug take down every other tenant's drain.
        cfg = cfg.with_overrides(runtime={"on_task_failure": "quarantine"})
        if cfg.atm.tht_store and not cfg.serving.shared_tht:
            # Nothing else would ever read or write the store.
            raise ConfigurationError("atm.tht_store backs serving.shared_tht, which is off")
        self.config = cfg
        self.serving = cfg.serving
        self._shared_tht = None
        if self.serving.shared_tht:
            # The probe runs where the lookup runs: in this process, on
            # every pool kind.
            self._shared_tht = TaskHistoryTable(cfg.atm)
        # Persistent memoization tier (DESIGN.md §9): the shared tier
        # warm-starts from ``atm.tht_store`` and the merge pump publishes its
        # incremental deltas back, so the warm tier survives gateway restarts
        # and is visible to other gateways/sessions on the same store.
        self._tht_store = None
        if self._shared_tht is not None and cfg.atm.tht_store:
            self._tht_store, _ = warm_start(
                cfg.atm.tht_store, cfg.atm, self._shared_tht,
                "shared tier cold-starts",
            )
            if self._tht_store is not None:
                # Journal only with a store attached, and only from here
                # on: the merge pump publishes exactly the increment each
                # tick and never re-publishes restored entries.
                self._shared_tht.enable_journal()
        self._admission = AdmissionController(
            max_pending=self.serving.max_pending,
            max_tenant_queue=self.serving.max_tenant_queue,
            quantum=self.serving.quantum,
        )
        self._tenants: dict[str, _TenantState] = {}
        self._tenants_lock = threading.Lock()
        self._admit_lock = threading.Lock()
        self._work_cond = threading.Condition()
        self._stop_event = threading.Event()
        self._draining = False
        self._failure_archive: list = []
        self._drain_errors = 0
        #: Task ids are the gateway's, not a graph's: unique across pool
        #: rebuilds, and a task still queued for admission has one.
        self._task_ids = itertools.count()
        self._build_pool()

        self._server: Optional[FrameServer] = None
        self._port: Optional[int] = None
        self._dispatch_thread: Optional[threading.Thread] = None
        self._merge_thread: Optional[threading.Thread] = None

    # -- pool assembly -----------------------------------------------------------
    def _build_pool(self) -> None:
        self._executor = build_executor(self.config.runtime, self.config.simulation)
        self._graph = TaskDependenceGraph(
            on_ready=self._executor.notify_ready,
            on_ready_batch=self._executor.notify_ready_batch,
            on_complete=self._on_task_complete,
            on_born_cancelled=self._executor.notify_born_cancelled,
        )

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> int:
        """Bind, spawn the service threads, and return the listening port."""
        self._server = FrameServer(
            (self.serving.host, self.serving.port), self._serve_connection
        )
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="gateway-dispatch", daemon=True
        )
        self._dispatch_thread.start()
        if self._shared_tht is not None:
            self._merge_thread = threading.Thread(
                target=self._merge_loop, name="gateway-merge", daemon=True
            )
            self._merge_thread.start()
        self._port = int(self._server.serve_in_thread().rsplit(":", 1)[1])
        return self._port

    @property
    def port(self) -> int:
        if self._port is None:
            raise GatewayError("gateway not started")
        return self._port

    def stop(self, grace_s: Optional[float] = None) -> None:
        """Graceful shutdown: drain in-flight work, flush deltas, close.

        New submissions are refused (``GatewayShutdownError``) the moment
        shutdown begins; work already admitted or queued gets up to
        ``grace_s`` (default ``serving.shutdown_grace_s``) to finish, then
        the pool is torn down regardless.  Live connections are ended, not
        waited out: a barrier still parked is answered
        ``GatewayShutdownError``, an idle connection sees EOF.
        """
        if self._stop_event.is_set():
            return
        grace = self.serving.shutdown_grace_s if grace_s is None else grace_s
        self._draining = True
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            if not self._admission.has_queued() and self._graph.all_finished:
                break
            time.sleep(0.01)
        self._stop_event.set()
        self._signal_work()
        if self._server is not None:
            self._server.shutdown()
            # Order matters: with the stop flag up, wake the parked barriers
            # (they reply on their own threads), then end every connection's
            # read side so each loop leaves at its next ``read_frame``.
            with self._tenants_lock:
                tenants = list(self._tenants.values())
            for tenant in tenants:
                with tenant.idle:
                    tenant.idle.notify_all()
            self._server.close_connections()
            self._server.shutdown_gracefully()
        if self._shared_tht is not None:
            self._flush_all_deltas()
        store, self._tht_store = self._tht_store, None
        if store is not None and publish_increment(store, self._shared_tht):
            store.close()
        for thread in (self._dispatch_thread, self._merge_thread):
            if thread is not None:
                thread.join(timeout=SHUTDOWN_GRACE_S)
        self._executor.close()

    def __enter__(self) -> "Gateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- dispatch ----------------------------------------------------------------
    def _signal_work(self) -> None:
        with self._work_cond:
            self._work_cond.notify_all()

    def _pump_admission(self) -> None:
        """Move queued work into the live graph (DRR order).

        ``take()`` + ``add_tasks`` must be one atomic step — two concurrent
        pumps could otherwise interleave their graph insertion and invert a
        tenant's FIFO, breaking its dependence order.  Contended or
        re-entrant pumps (a born-cancelled task's completion hook fires
        *inside* ``add_tasks``) skip instead of blocking; the slot they
        would have filled is picked up by the next completion or the
        dispatch loop's idle tick.
        """
        if not self._admit_lock.acquire(blocking=False):
            return
        try:
            admitted = self._admission.take()
            if admitted:
                self._graph.add_tasks([task for _, task in admitted])
        finally:
            self._admit_lock.release()

    def _dispatch_loop(self) -> None:
        while not self._stop_event.is_set():
            self._pump_admission()
            if not self._graph.all_finished:
                try:
                    self._executor.drain(self._graph)
                except BaseException as exc:
                    self._recover_from_drain_failure(exc)
                continue
            with self._work_cond:
                if self._stop_event.is_set():
                    return
                if self._admission.has_queued() or not self._graph.all_finished:
                    continue
                self._work_cond.wait(timeout=0.1)

    def _recover_from_drain_failure(self, exc: BaseException) -> None:
        """A drain died wholesale (not a quarantined task): rebuild the pool.

        The old pool's failure report is archived (summaries join against
        it) and a fresh executor + graph replace the broken ones.  Every
        task of the broken graph and every task still queued for admission
        is failed against its tenant with a :class:`TaskFailure` naming the
        drain's error, so barriers resolve and the pending pool returns to
        0; nothing of the old graph is admitted into the new one.  A body of
        the dead drain may still run on an abandoned worker, but its result
        reaches no completion hook: only the thread that drains a pool
        completes its tasks, and that is this one.  A task the hook did
        complete before this loop reached it was claimed there
        (:func:`_claim`), and is skipped here.
        """
        self._drain_errors += 1
        reason = f"the pool's drain failed: {type(exc).__name__}: {exc}"
        with self._admit_lock:
            self._failure_archive.extend(self._executor.result().failures)
            admitted = self._graph.pending_tasks()
            doomed = admitted + [task for _, task in self._admission.drop_queued()]
            try:
                self._executor.close()
            except Exception:
                pass
            self._build_pool()
            freed = 0
            for index, task in enumerate(doomed):
                tenant = _claim(task)
                if tenant is None:
                    continue
                freed += index < len(admitted)
                self._failure_archive.append(
                    TaskFailure(task.label, task.task_id, attempts=0, reason=reason)
                )
                with tenant.idle:
                    tenant.failed += 1
                    tenant.failed_ids.add(task.task_id)
                    tenant.outstanding -= 1
                    if tenant.outstanding == 0:
                        tenant.idle.notify_all()
            self._admission.release(freed)

    # -- completion hook ---------------------------------------------------------
    def _on_task_complete(self, task: Task) -> None:
        """Graph ``on_complete``: tenant accounting + mid-drain admission."""
        tenant = _claim(task)
        if tenant is None:
            return  # failed by a drain-failure recovery already
        state = task.state
        with tenant.idle:
            if state is TaskState.FINISHED:
                tenant.executed += 1
            elif state is TaskState.MEMOIZED:
                tenant.memoized += 1
            elif state is TaskState.FAILED:
                tenant.failed += 1
                tenant.failed_ids.add(task.task_id)
            elif state is TaskState.CANCELLED:
                tenant.cancelled += 1
                tenant.failed_ids.add(task.task_id)
            tenant.outstanding -= 1
            tenant.latencies.append(time.monotonic() - task.creation_time)
            idle = tenant.outstanding == 0
            if idle:
                tenant.idle.notify_all()
        self._admission.release(1)
        self._pump_admission()
        if idle:
            self._signal_work()

    # -- shared-tier merge pump --------------------------------------------------
    def _flush_tenant_delta(self, tenant: _TenantState) -> None:
        engine = tenant.engine
        if (
            self._shared_tht is None
            or engine is None
            or not tenant.share_tht
        ):
            return
        if engine.tht.journaled:
            self._shared_tht.merge(engine.tht.snapshot(reset=True))
        tenant.last_flush = time.monotonic()

    def _flush_all_deltas(self) -> None:
        with self._tenants_lock:
            tenants = list(self._tenants.values())
        for tenant in tenants:
            self._flush_tenant_delta(tenant)

    def _merge_loop(self) -> None:
        tick = max(MERGE_INTERVAL_S / 4.0, 0.005)
        while not self._stop_event.wait(tick):
            now = time.monotonic()
            with self._tenants_lock:
                tenants = list(self._tenants.values())
            for tenant in tenants:
                engine = tenant.engine
                if engine is None or not tenant.share_tht:
                    continue
                journaled = engine.tht.journaled
                if journaled >= MERGE_MIN_COMMITS or (
                    journaled and now - tenant.last_flush >= MERGE_INTERVAL_S
                ):
                    self._flush_tenant_delta(tenant)
            # Tenant deltas merged above land in the shared tier's journal
            # (when a store is attached); ship that increment downstream.  A
            # store that fails mid-service is detached — the gateway keeps
            # serving from its in-memory tier.
            store = self._tht_store
            if store is not None and not publish_increment(store, self._shared_tht):
                self._tht_store = None

    # -- tenant management -------------------------------------------------------
    def _register_tenant(self, info: Mapping, sock: socket.socket) -> _TenantState:
        name = info.get("tenant")
        if not name or not isinstance(name, str):
            raise TenantRejectedError("hello carries no tenant name")
        weight = _hello_number(info, "weight", 1.0)
        if weight <= 0:
            raise TenantRejectedError(f"tenant weight must be > 0, got {weight}")
        atm_mode = info.get("atm_mode")
        if atm_mode is None:
            atm_mode = self.config.atm.mode
        if atm_mode not in _TENANT_ATM_MODES:
            raise TenantRejectedError(f"unknown atm_mode {atm_mode!r}")
        atm_p = _hello_number(info, "atm_p", None)
        share = bool(info.get("shared_tht", self._shared_tht is not None))
        if share and self._shared_tht is None:
            share = False  # no shared tier exists; opt-in is a no-op
        with self._tenants_lock:
            tenant = self._tenants.get(name)
            if tenant is not None:
                if tenant.connection is not None and not _hung_up(tenant.connection):
                    raise TenantRejectedError(
                        f"tenant {name!r} already has a live connection"
                    )
                # Reconnection resumes the existing namespace (arena, engine,
                # counters) — the point of a persistent per-tenant ATM tier.
                # A recorded connection whose peer hung up (its own thread
                # has not seen the EOF yet, or the client died without
                # closing) is taken over, not waited for.
                tenant.connection = sock
                return tenant
            overrides = {"mode": atm_mode}
            if atm_p is not None:
                overrides["p"] = atm_p
            engine = build_engine(
                self.config.atm.with_overrides(**overrides), self._executor.max_in_flight
            )
            if share and engine is not None:
                # A sharing tenant journals its commits for the merge pump.
                engine.tht.enable_journal()
                engine = _SharedTierProbe(engine, self._shared_tht)
            tenant = _TenantState(
                name=name, weight=weight, engine=engine, share_tht=share
            )
            tenant.connection = sock
            self._tenants[name] = tenant
        self._admission.register(name, weight)
        return tenant

    # -- request handling (one thread per connection) ----------------------------
    def _serve_connection(self, sock: socket.socket, connection_id: int) -> None:
        """The blocking request/reply loop of one client connection."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        tenant: Optional[_TenantState] = None
        try:
            while True:
                message = read_frame(sock)
                try:
                    reply, tenant = self._handle_message(message, tenant, sock)
                except ReproError as exc:
                    # Any taxonomy error — gateway-specific or from task
                    # validation/decoding — is the client's answer, not a
                    # reason to drop the connection.
                    reply = ("error", type(exc).__name__, str(exc))
                # Encoded and sent here, on the thread that built it: a
                # barrier reply's segments alias the arena, which nothing
                # writes while this tenant has no work outstanding (every
                # backend lands a task's writes before it completes the
                # task, see _barrier_payload) — and only this connection
                # can submit its next write.
                write_frame(sock, reply)
        except OSError:
            pass  # the transport died; the client sees the same breakage
        except Exception as exc:
            # EOF or bytes that are no frame (WireProtocolError), or a bug in
            # a handler: tell the peer why, best effort, and end this one
            # connection (the FrameServer closes the socket).
            wire = isinstance(exc, WireProtocolError)
            name = "WireProtocolError" if wire else "GatewayError"
            try:
                write_frame(sock, ("error", name, f"{type(exc).__name__}: {exc}"))
            except OSError:
                pass
        finally:
            with self._tenants_lock:
                # Unless a returning client already took the session over.
                if isinstance(tenant, _TenantState) and tenant.connection is sock:
                    tenant.connection = None

    def _handle_message(self, message, tenant: Optional[_TenantState], sock: socket.socket):
        """Answer one request: ``(reply tuple, this connection's tenant)``."""
        if not isinstance(message, tuple) or not message:
            raise GatewayProtocolError("messages are non-empty tuples")
        kind = message[0]
        if kind == "hello":
            if tenant is not None:
                raise GatewayProtocolError("duplicate hello on one connection")
            if self._draining:
                raise GatewayShutdownError("gateway is shutting down")
            if len(message) != 2 or not isinstance(message[1], Mapping):
                raise GatewayProtocolError("hello carries one mapping of tenant fields")
            protocol = message[1].get("protocol")
            if protocol != SERVING_PROTOCOL_VERSION:
                raise TenantRejectedError(
                    f"serving protocol mismatch: client speaks {protocol!r}, "
                    f"gateway speaks {SERVING_PROTOCOL_VERSION}"
                )
            if message[1].get("store"):
                return ("hello_ack", {"protocol": SERVING_PROTOCOL_VERSION}), _STORE_CLIENT
            tenant = self._register_tenant(message[1], sock)
            ack = {
                "protocol": SERVING_PROTOCOL_VERSION,
                "tenant": tenant.name,
                "shared_tht": tenant.share_tht,
                "atm": tenant.engine is not None,
                "executor": self.config.runtime.executor,
            }
            return ("hello_ack", ack), tenant
        if tenant is None:
            raise GatewayProtocolError(f"{kind!r} before hello")
        if tenant is _STORE_CLIENT:
            if kind not in ("fetch", "publish"):
                raise GatewayProtocolError(f"a THT store connection may not send {kind!r}")
            if self._shared_tht is None:
                raise THTStoreUnavailableError(
                    "this gateway keeps no shared THT tier (serving.shared_tht is off)"
                )
            return store_reply(self._shared_tht, message), tenant
        if kind == "submit_batch":
            if self._draining:
                raise GatewayShutdownError("gateway is shutting down")
            if len(message) != 2 or not isinstance(message[1], NetChunk):
                raise GatewayProtocolError(f"{kind} carries one chunk of descriptors and buffers")
            return ("ack", self._ingest_submission(tenant, message[1])), tenant
        if kind in ("barrier", "finish"):
            with tenant.idle:
                while tenant.outstanding > 0:
                    if self._stop_event.is_set():
                        raise GatewayShutdownError(
                            f"gateway stopped with {tenant.outstanding} task(s) "
                            f"of tenant {tenant.name!r} outstanding"
                        )
                    tenant.idle.wait()
            summary, dirty = self._barrier_payload(tenant)
            # The connection stays open after finish: clients may still ask
            # for result/stats or submit a fresh wave.  EOF on the socket
            # (client close) is what ends the session loop.
            reply_kind = "finish_ack" if kind == "finish" else "barrier_result"
            return (reply_kind, summary, dirty), tenant
        if kind == "result":
            return ("result_reply", self._tenant_summary(tenant)), tenant
        if kind == "stats":
            return ("stats_reply", self._gateway_stats()), tenant
        raise GatewayProtocolError(f"unknown message type {kind!r}")

    # -- submission path (the connection's thread) --------------------------------
    def _ingest_submission(self, tenant: _TenantState, chunk: NetChunk) -> int:
        tenant.arena.store(chunk.buffers)
        t_submit = time.monotonic()
        tasks = []
        written: set[int] = set()
        for desc in chunk.tasks:
            task = rebuild_task(desc, tenant.arena, tenant.task_types)
            # The tenant is the owner (its engine runs the task's ATM step);
            # the submit time is the latency clock's start.
            task.task_id, task.owner = next(self._task_ids), tenant
            task.creation_time = t_submit
            tasks.append(task)
            for ref, mode_value, _name in desc.accesses:
                if AccessMode(mode_value).writes:
                    written.add(ref[0])
        with tenant.lock:
            tenant.submitted += len(tasks)
            tenant.outstanding += len(tasks)
        try:
            self._admission.enqueue(tenant.name, tasks)
        except AdmissionError:
            with tenant.lock:
                tenant.submitted -= len(tasks)
                tenant.outstanding -= len(tasks)
            raise
        tenant.dirty |= written
        # Deliberately no direct pump here: the dispatch loop (between
        # drains) and the completion hook (inside an open drain) extend the
        # graph.  Whatever they admit after a drain saw all_finished is not
        # lost: it waits in the ready queue, and _dispatch_loop — signalled
        # below — re-drains for as long as the graph is unfinished.
        self._signal_work()
        return len(tasks)

    # -- replies -----------------------------------------------------------------
    def _barrier_payload(self, tenant: _TenantState) -> tuple[dict, list]:
        # Outstanding == 0: no in-flight writes touch this tenant's arena,
        # so the dirty backings are stable to read — on a pool that runs
        # bodies elsewhere too, because `outstanding` falls in the graph's
        # completion hook and the chunk dispatcher lands a task's writes in
        # the arena (`_write_back`: network result bytes, process-pool
        # segment regions) before it completes the task.  Flushing the delta
        # here makes a finished tenant's commits visible to shared-tier
        # peers immediately instead of a merge-interval later.
        self._flush_tenant_delta(tenant)
        summary = self._tenant_summary(tenant)
        with tenant.lock:
            dirty_ids = sorted(tenant.dirty)
            tenant.dirty.clear()
        dirty = [
            (buffer_id, tenant.arena.backing_view(buffer_id))
            for buffer_id in dirty_ids
        ]
        return summary, dirty

    def _tenant_summary(self, tenant: _TenantState) -> dict:
        with tenant.lock:
            failed_ids = set(tenant.failed_ids)
            summary = {"tenant": tenant.name, **tenant.counters("tasks_")}
        # A failed task's TaskFailure is recorded inside the graph transition
        # that made it terminal, so every id counted above has its report.
        summary["failures"] = [
            f for f in self._all_failures() if f.task_id in failed_ids
        ]
        return summary

    def _all_failures(self) -> list:
        return self._failure_archive + list(self._executor.result().failures)

    def _gateway_stats(self) -> dict:
        result = self._executor.result()
        stats: dict[str, Any] = {
            "admission": self._admission.snapshot(),
            "drain_errors": self._drain_errors,
            "pool": {
                "executor": self.config.runtime.executor,
                "tasks_completed": result.tasks_completed,
                "tasks_executed": result.tasks_executed,
                "tasks_memoized": result.tasks_memoized,
                "tasks_failed": result.tasks_failed,
                "tasks_cancelled": result.tasks_cancelled,
                # High-water mark of the pool's ready queue (one per pool:
                # a pool rebuilt after a failed drain starts from 0).
                "max_depth": self._executor.scheduler.stats.max_depth,
            },
            "tenants": {},
        }
        with self._tenants_lock:
            tenants = list(self._tenants.values())
        for state in tenants:
            with state.lock:
                latencies = sorted(state.latencies)
                entry = {**state.counters(), "weight": state.weight}
            entry["latency_p50_s"] = _percentile(latencies, 0.50)
            entry["latency_p99_s"] = _percentile(latencies, 0.99)
            stats["tenants"][state.name] = entry
        return stats


def _claim(task: Task) -> Optional[_TenantState]:
    """Take ``task``'s tenant off the task: the first caller gets it and
    counts the task, any later one gets ``None``.  Every caller runs on the
    dispatch thread — every pool fires the completion hook on the thread
    that drains it, and the drain-failure recovery runs between drains —
    so a plain read-and-clear is the whole arbitration."""
    tenant, task.owner = task.owner, None
    return tenant


def _hung_up(sock: socket.socket) -> bool:
    """Whether ``sock``'s peer is gone (EOF, reset) or the socket is closed:
    a non-blocking peek, so nothing its own thread will read is consumed."""
    try:
        return sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) == b""
    except BlockingIOError:
        return False  # open and quiet: a live connection
    except OSError:
        return True


def _hello_number(info: Mapping, key: str, default: Optional[float]) -> Optional[float]:
    """A numeric hello field as a float (``default`` when absent)."""
    value = info.get(key)
    if value is None:
        return default
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise TenantRejectedError(
            f"hello field {key!r} must be a finite number, got {value!r}"
        )
    return float(value)


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return float(sorted_values[index])

"""Synchronous client SDK for the serving gateway.

:class:`GatewayClient` mirrors the Session submission surface —
``submit`` / ``submit_batch`` / ``wait_all`` / ``finish`` / ``result`` — so
an application's ``build(runtime)`` runs unchanged against a remote gateway:

    with GatewayClient(host, port, tenant="alice") as client:
        app.build(client)
        result = client.finish()
        checksum = app.output_checksum()

Buffer model (server-authoritative): the first time a submission touches an
array, the client ships the array's *whole owning base buffer* to the
gateway; afterwards only byte-exact refs travel.
The gateway's copy is authoritative between barriers — host-side writes to
a shipped array are NOT observed by the server.  At every barrier the
gateway returns the bytes of each buffer its tasks wrote and the client
copies them back over the local arrays, so ``app.output()`` reads the same
bytes a local Session run would produce.
"""

from __future__ import annotations

import socket
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.common import exceptions as _exceptions
from repro.common.exceptions import (
    GatewayError,
    GatewayProtocolError,
    RuntimeStateError,
)
from repro.runtime.data import DataAccess
from repro.runtime.executor import RunResult
from repro.runtime.net_wire import ChunkEncoder, NetBuffer, NetChunk, request, span_view
from repro.runtime.remote_task import describe_task
from repro.runtime.task import TaskType
from repro.serving.gateway import SERVING_PROTOCOL_VERSION

__all__ = ["GatewayClient"]

def _error_class(name: str) -> type:
    """Resolve an error-reply class name against the unified taxonomy.

    Anything unknown (a future gateway speaking a newer taxonomy) degrades
    to the :class:`GatewayError` base rather than failing to raise.
    """
    cls = getattr(_exceptions, name, None)
    if isinstance(cls, type) and issubclass(cls, _exceptions.ReproError):
        return cls
    return GatewayError


class GatewayClient:
    """One tenant's connection to a :class:`~repro.serving.gateway.Gateway`."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        weight: float = 1.0,
        atm_mode: Optional[str] = None,
        atm_p: Optional[float] = None,
        shared_tht: Optional[bool] = None,
        connect_timeout_s: float = 10.0,
    ) -> None:
        self.tenant = tenant
        self._sock = socket.create_connection((host, port), timeout=connect_timeout_s)
        self._sock.settimeout(None)
        #: id(base) -> base ndarray of every buffer already shipped.
        self._ledger: dict[int, np.ndarray] = {}
        self._submitted = 0
        self._last_summary: Optional[dict] = None
        self._closed = False
        hello = {
            "protocol": SERVING_PROTOCOL_VERSION,
            "tenant": tenant,
            "weight": weight,
        }
        if atm_mode is not None:
            hello["atm_mode"] = atm_mode
        if atm_p is not None:
            hello["atm_p"] = atm_p
        if shared_tht is not None:
            hello["shared_tht"] = shared_tht
        try:
            reply = self._request(("hello", hello))
        except BaseException:
            self._sock.close()
            raise
        self.server_info: dict = reply[1]

    # -- wire helpers ------------------------------------------------------------
    def _request(self, message: tuple) -> tuple:
        if self._closed:
            raise RuntimeStateError("gateway client already closed")
        reply = request(self._sock, message)
        if isinstance(reply, tuple) and reply and reply[0] == "error":
            _, class_name, text = reply
            raise _error_class(class_name)(text)
        return reply

    # -- task encoding -----------------------------------------------------------
    def _encode(self, specs: Sequence[tuple]) -> NetChunk:
        """Describe ``(task_type, function, accesses, args, kwargs)`` specs.

        Returns the descriptors with, as the buffer table, the whole owning
        buffers they touch that the gateway has not seen yet (holding a base
        in the ledger keeps its id stable and marks it as shipped).
        """
        encoder = ChunkEncoder()
        descs = []
        for task_type, function, accesses, args, kwargs in specs:
            task_id = self._submitted
            self._submitted += 1
            descs.append(
                describe_task(
                    task_id, task_id, task_type,
                    getattr(function, "__wrapped__", function),
                    accesses, tuple(args), dict(kwargs or {}), encoder.ref,
                )
            )
        ship = []
        for buffer_id, (base, _start, _end) in encoder.spans().items():
            if buffer_id not in self._ledger:
                self._ledger[buffer_id] = base
                ship.append(
                    NetBuffer(buffer_id, 0, span_view(base, 0, base.nbytes))
                )
        return NetChunk(0, tuple(ship), tuple(descs))

    # -- Session-compatible surface ----------------------------------------------
    def submit(
        self,
        task_type: TaskType,
        function: Callable,
        accesses: Sequence[DataAccess],
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ) -> int:
        """Ship one task; returns the client-side submission index."""
        return self.submit_batch([(task_type, function, accesses, args, kwargs)])[0]

    def submit_batch(
        self, specs: "Sequence[Sequence] | Sequence[Mapping]"
    ) -> list[int]:
        """Ship many tasks in one frame (one ``ack`` round-trip)."""
        normalised = []
        for spec in specs:
            if isinstance(spec, Mapping):
                normalised.append((
                    spec["task_type"], spec["function"], spec["accesses"],
                    spec.get("args", ()), spec.get("kwargs"),
                ))
            else:
                normalised.append((
                    spec[0], spec[1], spec[2],
                    spec[3] if len(spec) > 3 else (),
                    spec[4] if len(spec) > 4 else None,
                ))
        chunk = self._encode(normalised)
        self._request(("submit_batch", chunk))
        return [desc.task_id for desc in chunk.tasks]

    def wait_all(self) -> dict:
        """Barrier: block until every submitted task is terminal.

        Applies the gateway's write-backs to the local arrays and returns
        the tenant summary dict (also retrievable as :meth:`result`).
        """
        reply = self._request(("barrier",))
        _, summary, dirty = reply
        self._apply_writebacks(dirty)
        self._last_summary = summary
        return summary

    def _apply_writebacks(self, dirty: Sequence[tuple]) -> None:
        """Validate every write-back of a reply, then land them all."""
        landings = []
        for buffer_id, data in dirty:
            base = self._ledger.get(buffer_id)
            if base is None:
                raise GatewayError(
                    f"write-back for unknown buffer {buffer_id:#x}"
                )
            received = np.frombuffer(data, dtype=np.uint8)
            if received.nbytes != base.nbytes:
                raise GatewayProtocolError(
                    f"write-back for buffer {buffer_id:#x} carries "
                    f"{received.nbytes} bytes for a {base.nbytes}-byte buffer"
                )
            landings.append((base.reshape(-1).view(np.uint8), received))
        for flat, received in landings:
            np.copyto(flat, received)

    def finish(self) -> RunResult:
        """Barrier + final summary as a :class:`RunResult`; keeps the
        connection open (``close`` ends it)."""
        reply = self._request(("finish",))
        _, summary, dirty = reply
        self._apply_writebacks(dirty)
        self._last_summary = summary
        return self._to_run_result(summary)

    def result(self) -> RunResult:
        """Current tenant accounting (no barrier) as a :class:`RunResult`."""
        reply = self._request(("result",))
        summary = reply[1]
        self._last_summary = summary
        return self._to_run_result(summary)

    def stats(self) -> dict:
        """Gateway-wide statistics (admission, pool, per-tenant latency)."""
        return self._request(("stats",))[1]

    @staticmethod
    def _to_run_result(summary: dict) -> RunResult:
        result = RunResult(
            tasks_completed=summary.get("tasks_completed", 0),
            tasks_executed=summary.get("tasks_executed", 0),
            tasks_memoized=summary.get("tasks_memoized", 0),
            tasks_failed=summary.get("tasks_failed", 0),
            tasks_cancelled=summary.get("tasks_cancelled", 0),
            lost_deltas=summary.get("lost_deltas", 0),
            failures=list(summary.get("failures", ())),
        )
        result.extra["tenant"] = summary.get("tenant")
        result.extra["shared_hits"] = summary.get("shared_hits", 0)
        result.extra["tasks_submitted"] = summary.get("tasks_submitted", 0)
        return result

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

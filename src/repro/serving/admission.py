"""Fair-share admission control for the serving gateway (DESIGN.md §8).

The gateway multiplexes many tenants onto one shared executor pool.  Two
mechanisms keep that sharing fair and bounded, following the heavy-traffic
processor-sharing model (Lambert & Simatos, arXiv:1102.5620) and the
Puppetmaster bounded-scheduling-pool pattern:

* a **bounded global pending pool** — at most ``max_pending`` admitted tasks
  may be in flight (handed to the executor but not yet terminal) across all
  tenants, so the shared scheduler's working set stays constant no matter
  how many clients connect; and
* **weighted deficit round-robin** over the per-tenant FIFO queues — each
  scheduling visit grants a tenant ``quantum * weight`` credits, one credit
  admits one task, and unused credit carries over while the tenant stays
  backlogged, so a heavy tenant cannot starve a light one (the fairness
  ratio the serving bench gates on) while per-tenant submission order — the
  order the dependence system relies on — is never reordered.

The controller is a passive, thread-safe data structure: connection handlers
``enqueue`` (blocking on per-tenant backpressure), the gateway's dispatch
path calls :meth:`take` to move queued work into the pending pool, and the
completion hook calls :meth:`release` as tasks turn terminal.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Optional

from repro.common.exceptions import AdmissionError, RuntimeStateError

__all__ = ["AdmissionController"]


class _TenantQueue:
    """One tenant's FIFO backlog plus its deficit-round-robin credit."""

    __slots__ = ("name", "weight", "items", "deficit", "admitted", "enqueued")

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.weight = weight
        self.items: deque = deque()
        self.deficit = 0.0
        self.admitted = 0
        self.enqueued = 0


class AdmissionController:
    """Bounded pending pool + weighted deficit round-robin (module docstring)."""

    def __init__(
        self,
        max_pending: int,
        max_tenant_queue: int,
        quantum: int,
    ) -> None:
        if max_pending < 1 or max_tenant_queue < 1 or quantum < 1:
            raise AdmissionError(
                "max_pending, max_tenant_queue and quantum must all be >= 1"
            )
        self.max_pending = max_pending
        self.max_tenant_queue = max_tenant_queue
        self.quantum = quantum
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._queues: dict[str, _TenantQueue] = {}
        self._rotation: deque[str] = deque()
        self._pending = 0

    # -- tenant lifecycle -------------------------------------------------------
    def register(self, tenant: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise AdmissionError(f"tenant weight must be > 0, got {weight}")
        with self._lock:
            if tenant in self._queues:
                raise AdmissionError(f"tenant {tenant!r} is already registered")
            self._queues[tenant] = _TenantQueue(tenant, weight)
            self._rotation.append(tenant)

    def unregister(self, tenant: str) -> None:
        """Drop a tenant's queue; queued work must already be drained."""
        with self._lock:
            queue = self._queues.get(tenant)
            if queue is None:
                return
            if queue.items:
                raise RuntimeStateError(
                    f"tenant {tenant!r} still has {len(queue.items)} queued "
                    f"tasks; drain before unregistering"
                )
            del self._queues[tenant]
            self._rotation.remove(tenant)

    # -- producer side ----------------------------------------------------------
    def enqueue(
        self, tenant: str, items: list, timeout: Optional[float] = None
    ) -> int:
        """Append ``items`` to the tenant's FIFO, blocking on backpressure.

        A batch larger than the whole per-tenant queue capacity can never be
        admitted by waiting, so it raises :class:`AdmissionError` immediately;
        an over-budget-but-feasible batch blocks until earlier work drains
        (or ``timeout`` expires, which also raises).
        """
        n = len(items)
        if n == 0:
            return 0
        if n > self.max_tenant_queue:
            raise AdmissionError(
                f"batch of {n} tasks exceeds the per-tenant queue capacity "
                f"of {self.max_tenant_queue}; split the submission"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._space:
            queue = self._queues.get(tenant)
            if queue is None:
                raise AdmissionError(f"tenant {tenant!r} is not registered")
            while len(queue.items) + n > self.max_tenant_queue:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise AdmissionError(
                            f"tenant {tenant!r}: queue full "
                            f"({len(queue.items)}/{self.max_tenant_queue}) and "
                            f"backpressure wait timed out"
                        )
                self._space.wait(remaining)
                if tenant not in self._queues:
                    raise AdmissionError(f"tenant {tenant!r} was unregistered")
            queue.items.extend(items)
            queue.enqueued += n
        return n

    # -- consumer side ----------------------------------------------------------
    def take(self) -> list[tuple[str, Any]]:
        """Admit queued work into the pending pool by weighted DRR.

        Returns ``(tenant, item)`` pairs — FIFO within each tenant, credit-
        interleaved across tenants — and counts every returned item against
        the pending pool.  Callers must serialise ``take()`` + downstream
        submission so per-tenant order survives concurrent pumping.
        """
        admitted: list[tuple[str, Any]] = []
        with self._lock:
            budget = self.max_pending - self._pending
            while budget > 0:
                progressed = False
                backlogged = False
                for _ in range(len(self._rotation)):
                    name = self._rotation[0]
                    self._rotation.rotate(-1)
                    queue = self._queues[name]
                    if not queue.items:
                        # Classic DRR: an idle tenant's credit does not bank.
                        queue.deficit = 0.0
                        continue
                    backlogged = True
                    if queue.deficit < 1.0:
                        per_round = self.quantum * queue.weight
                        rounds = math.ceil((1.0 - queue.deficit) / per_round)
                        queue.deficit += rounds * per_round
                    n = min(len(queue.items), int(queue.deficit), budget)
                    if n <= 0:
                        continue
                    for _ in range(n):
                        admitted.append((name, queue.items.popleft()))
                    queue.deficit -= n
                    queue.admitted += n
                    if not queue.items:
                        queue.deficit = 0.0
                    budget -= n
                    progressed = True
                    if budget <= 0:
                        break
                if not backlogged or not progressed:
                    break
            if admitted:
                self._pending += len(admitted)
                self._space.notify_all()
        return admitted

    def drop_queued(self) -> list[tuple[str, Any]]:
        """Remove and return every queued ``(tenant, item)`` pair (the
        gateway's drain-failure recovery fails them)."""
        with self._lock:
            dropped = [
                (name, item)
                for name, queue in self._queues.items()
                for item in queue.items
            ]
            for queue in self._queues.values():
                queue.items.clear()
                queue.deficit = 0.0
            self._space.notify_all()
        return dropped

    def release(self, n: int = 1) -> None:
        """Return ``n`` pending-pool slots (tasks turned terminal)."""
        with self._lock:
            self._pending = max(0, self._pending - n)

    # -- introspection ----------------------------------------------------------
    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    def queued(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is not None:
                queue = self._queues.get(tenant)
                return len(queue.items) if queue is not None else 0
            return sum(len(q.items) for q in self._queues.values())

    def has_queued(self) -> bool:
        with self._lock:
            return any(q.items for q in self._queues.values())

    def snapshot(self) -> dict:
        """Counters for ``stats`` replies and the serving bench."""
        with self._lock:
            return {
                "pending": self._pending,
                "max_pending": self.max_pending,
                "tenants": {
                    name: {
                        "queued": len(q.items),
                        "enqueued": q.enqueued,
                        "admitted": q.admitted,
                        "weight": q.weight,
                    }
                    for name, q in self._queues.items()
                },
            }

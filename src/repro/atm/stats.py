"""ATM statistics: reuse, provenance, memory overhead.

The paper reports three derived quantities this module supports:

* **Reuse** — the percentage of memoized tasks (Section IV-C), broken down by
  how they were satisfied (THT hit, IKT hit, training hit).
* **Redundancy provenance** — for every reuse event, which producer task
  generated the reused result; the cumulative distribution over normalized
  producer task ids is Figure 9.
* **Memory overhead** — THT + IKT + stored shuffles relative to the
  application footprint (Table III).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["ATMStats"]


@dataclass(frozen=True)
class ReuseEvent:
    """One memoized task: who produced the reused entry and who consumed it."""

    producer_index: int
    consumer_index: int
    source: str  # "tht", "ikt" or "training"
    task_type: str


@dataclass
class ATMStats:
    """Thread-safe counters and event log for one engine instance."""

    tasks_seen: int = 0
    eligible_tasks: int = 0
    tht_hits: int = 0
    ikt_hits: int = 0
    misses: int = 0
    training_hits: int = 0
    blacklisted_skips: int = 0
    commits: int = 0
    hashed_bytes: int = 0
    copied_bytes: int = 0
    #: Output bytes of THT hits that were already in place (not moved).
    elided_bytes: int = 0
    stored_bytes: int = 0
    key_cache_hits: int = 0
    key_cache_misses: int = 0
    digest_cache_hits: int = 0
    digest_cache_misses: int = 0
    shuffle_evictions: int = 0
    reuse_events: list[ReuseEvent] = field(default_factory=list)
    training_errors: list[float] = field(default_factory=list)
    per_type: dict[str, dict[str, int]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- recording -----------------------------------------------------------
    def _type_bucket(self, task_type: str) -> dict[str, int]:
        bucket = self.per_type.get(task_type)
        if bucket is None:
            bucket = {"seen": 0, "tht_hits": 0, "ikt_hits": 0, "misses": 0,
                      "training_hits": 0, "blacklisted": 0}
            self.per_type[task_type] = bucket
        return bucket

    def record_seen(self, task_type: str, eligible: bool) -> None:
        with self._lock:
            self.tasks_seen += 1
            if eligible:
                self.eligible_tasks += 1
            self._type_bucket(task_type)["seen"] += 1

    def record_blacklisted(self, task_type: str) -> None:
        with self._lock:
            self.blacklisted_skips += 1
            self._type_bucket(task_type)["blacklisted"] += 1

    def record_hash(self, nbytes: int) -> None:
        with self._lock:
            self.hashed_bytes += nbytes

    def record_tht_hit(
        self, task_type: str, producer_index: int, consumer_index: int,
        copied: int, elided: int,
    ) -> None:
        with self._lock:
            self.tht_hits += 1
            self.copied_bytes += copied
            self.elided_bytes += elided
            self._type_bucket(task_type)["tht_hits"] += 1
            self.reuse_events.append(
                ReuseEvent(producer_index, consumer_index, "tht", task_type)
            )

    def record_ikt_hit(
        self, task_type: str, producer_index: int, consumer_index: int, copied: int
    ) -> None:
        with self._lock:
            self.ikt_hits += 1
            self.copied_bytes += copied
            self._type_bucket(task_type)["ikt_hits"] += 1
            self.reuse_events.append(
                ReuseEvent(producer_index, consumer_index, "ikt", task_type)
            )

    def record_miss(self, task_type: str) -> None:
        with self._lock:
            self.misses += 1
            self._type_bucket(task_type)["misses"] += 1

    def record_training_hit(self, task_type: str, tau: float) -> None:
        with self._lock:
            self.training_hits += 1
            self.training_errors.append(tau)
            self._type_bucket(task_type)["training_hits"] += 1

    def record_commit(self, stored: int) -> None:
        with self._lock:
            self.commits += 1
            self.stored_bytes += stored

    def record_key_cache(self, hit: bool) -> None:
        """Whole-key cache outcome of one key computation."""
        with self._lock:
            if hit:
                self.key_cache_hits += 1
            else:
                self.key_cache_misses += 1

    def record_digest_cache(self, hit: bool) -> None:
        """Per-region sample/digest cache outcome inside one key computation."""
        with self._lock:
            if hit:
                self.digest_cache_hits += 1
            else:
                self.digest_cache_misses += 1

    def record_shuffle_eviction(self) -> None:
        """One shuffle record dropped by the keygen LRU bound."""
        with self._lock:
            self.shuffle_evictions += 1

    # -- derived quantities ----------------------------------------------------
    @property
    def memoized_tasks(self) -> int:
        """Tasks whose execution was avoided (THT + IKT hits)."""
        return self.tht_hits + self.ikt_hits

    def reuse_percentage(self, total_tasks: int | None = None) -> float:
        """Percentage of memoized tasks over ``total_tasks`` (default: seen)."""
        denominator = total_tasks if total_tasks else self.tasks_seen
        if not denominator:
            return 0.0
        return 100.0 * self.memoized_tasks / denominator

    def memory_overhead_bytes(self, tht_bytes: int, ikt_bytes: int, shuffle_bytes: int) -> int:
        return tht_bytes + ikt_bytes + shuffle_bytes

    def memory_overhead_percent(
        self, application_bytes: int, tht_bytes: int, ikt_bytes: int, shuffle_bytes: int
    ) -> float:
        """Table III: ATM memory relative to the application footprint."""
        if application_bytes <= 0:
            return 0.0
        total = self.memory_overhead_bytes(tht_bytes, ikt_bytes, shuffle_bytes)
        return 100.0 * total / application_bytes

    def snapshot(self) -> dict:
        """Plain-dict summary used by the harness and by tests."""
        with self._lock:
            return {
                "tasks_seen": self.tasks_seen,
                "eligible_tasks": self.eligible_tasks,
                "tht_hits": self.tht_hits,
                "ikt_hits": self.ikt_hits,
                "misses": self.misses,
                "training_hits": self.training_hits,
                "blacklisted_skips": self.blacklisted_skips,
                "commits": self.commits,
                "hashed_bytes": self.hashed_bytes,
                "copied_bytes": self.copied_bytes,
                "elided_bytes": self.elided_bytes,
                "stored_bytes": self.stored_bytes,
                "key_cache_hits": self.key_cache_hits,
                "key_cache_misses": self.key_cache_misses,
                "digest_cache_hits": self.digest_cache_hits,
                "digest_cache_misses": self.digest_cache_misses,
                "shuffle_evictions": self.shuffle_evictions,
                "memoized_tasks": self.tht_hits + self.ikt_hits,
                "per_type": {k: dict(v) for k, v in self.per_type.items()},
                "reuse_events": [
                    (event.producer_index, event.consumer_index, event.source)
                    for event in self.reuse_events
                ],
                "reuse_event_types": [event.task_type for event in self.reuse_events],
                "training_errors": list(self.training_errors),
            }

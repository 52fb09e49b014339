"""The ATM memoization engine (paper Figure 1).

The engine implements the runtime's
:class:`~repro.runtime.atm_protocol.MemoizationEngineProtocol`:

``task_ready``
    Invoked when a worker pulls a task from the ready queue.  The engine
    computes the hash key from the (sampled) inputs, probes the THT, then the
    IKT, and tells the executor whether to execute, skip (outputs already
    copied from the THT) or defer (an identical task is in flight).

``task_finished``
    Invoked when the task's processing completes.  Executed tasks commit
    their outputs to the THT, retire their IKT entry and satisfy any
    postponed output-copy petitions registered by deferred consumers, which
    the returned :class:`ATMCommitInfo` names for the caller to complete.
    Training hits additionally measure the Chebyshev error against the stored
    outputs and feed it to the Dynamic-ATM trainer.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from repro.common.config import ATMConfig
from repro.common.error_metrics import combined_chebyshev_error
from repro.common.exceptions import MemoizationError
from repro.atm.ikt import InFlightKeyTable
from repro.atm.keygen import HashKeyGenerator
from repro.atm.policy import ATMPolicy, StaticATMPolicy, make_policy
from repro.atm.stats import ATMStats
from repro.atm.tht import TaskHistoryTable, THTEntry
from repro.runtime.atm_protocol import ATMAction, ATMCommitInfo, ATMDecision
from repro.runtime.task import Task

__all__ = ["ATMEngine", "build_engine", "copy_outputs_from_entry"]


class ATMEngine:
    """Approximate Task Memoization engine."""

    def __init__(
        self,
        config: Optional[ATMConfig] = None,
        policy: Optional[ATMPolicy] = None,
        num_threads: int = 8,
    ) -> None:
        self.config = config or ATMConfig()
        self.policy = policy or StaticATMPolicy(self.config)
        self.stats = ATMStats()
        # Policies carry their own (possibly overridden) config copy; the THT
        # geometry always comes from the engine-level config.
        self.keygen = HashKeyGenerator(self.policy.config, stats=self.stats)
        self.tht = TaskHistoryTable(self.config)
        self.ikt = InFlightKeyTable(max_entries=max(num_threads, 1)) if self.config.use_ikt else None
        self._petitions: dict[int, list[Task]] = {}
        self._petition_lock = threading.Lock()

    def is_training(self, task: Task) -> bool:
        """Whether ``task``'s type is still in its training phase."""
        return self.policy.is_training(task)

    # -- protocol: lookup ----------------------------------------------------------
    def task_ready(self, task: Task, worker_id: int = 0) -> ATMDecision:
        eligible = task.task_type.atm_eligible
        self.stats.record_seen(task.task_type.name, eligible)
        if not eligible:
            return ATMDecision(action=ATMAction.EXECUTE, atm_handled=False)
        if self.policy.is_blacklisted(task):
            self.stats.record_blacklisted(task.task_type.name)
            return ATMDecision(action=ATMAction.EXECUTE, atm_handled=False)

        p = self.policy.sampling_fraction(task)
        key = self.keygen.compute(task, p)
        self.stats.record_hash(key.sampled_bytes)
        training = self.policy.is_training(task)

        entry = self.tht.lookup(key, task.task_type.name)
        if entry is not None:
            if training:
                # Run the task anyway; the error is measured at task_finished.
                return ATMDecision(
                    action=ATMAction.EXECUTE_AND_TRAIN,
                    hashed_bytes=key.sampled_bytes,
                    p=p,
                    atm_handled=True,
                    payload={"key": key, "entry": entry, "ikt_registered": False},
                )
            copied = copy_outputs_from_entry(task, entry)
            self.stats.record_tht_hit(
                task.task_type.name, entry.producer_index, task.creation_index,
                copied, entry.stored_bytes - copied,
            )
            return ATMDecision(
                action=ATMAction.SKIP,
                hashed_bytes=key.sampled_bytes,
                copied_bytes=copied,
                p=p,
                atm_handled=True,
                payload={"key": key},
            )

        if self.ikt is not None and not training:
            # One step with the petition: a producer that retires between
            # the lookup and the append would never serve this consumer.
            with self._petition_lock:
                producer = self.ikt.lookup(key, task.task_type.name)
                if producer is task:
                    producer = None
                if producer is not None:
                    self._petitions.setdefault(producer.task_id, []).append(task)
            if producer is not None:
                self.stats.record_ikt_hit(
                    task.task_type.name,
                    producer.creation_index,
                    task.creation_index,
                    task.output_bytes,
                )
                return ATMDecision(
                    action=ATMAction.DEFER,
                    hashed_bytes=key.sampled_bytes,
                    copied_bytes=task.output_bytes,
                    p=p,
                    waiting_on=producer,
                    atm_handled=True,
                    payload={"key": key},
                )

        # Full miss: the task will execute; register it as in flight.
        self.stats.record_miss(task.task_type.name)
        registered = False
        if self.ikt is not None:
            registered = self.ikt.register(key, task.task_type.name, task)
        return ATMDecision(
            action=ATMAction.EXECUTE,
            hashed_bytes=key.sampled_bytes,
            p=p,
            atm_handled=True,
            payload={"key": key, "ikt_registered": registered},
        )

    # -- protocol: commit ----------------------------------------------------------
    def task_finished(
        self, task: Task, decision: ATMDecision, executed: bool, worker_id: int = 0
    ) -> ATMCommitInfo:
        if not decision.atm_handled:
            return ATMCommitInfo()
        action = decision.action
        if action == ATMAction.SKIP or action == ATMAction.DEFER:
            # SKIP already copied outputs in task_ready; DEFER completion is
            # handled when the producer commits.
            return ATMCommitInfo()
        if not executed:
            raise MemoizationError(
                f"task {task.label} reported as not executed but decision was {action}"
            )

        key = decision.payload.get("key")
        if key is None:
            raise MemoizationError(f"missing hash key for task {task.label}")

        if action == ATMAction.EXECUTE_AND_TRAIN:
            entry: THTEntry = decision.payload["entry"]
            tau = self._measure_training_error(task, entry)
            self.stats.record_training_hit(task.task_type.name, tau)
            self.policy.record_training_outcome(task, tau)

        # Commit the (fresh) outputs to the THT.
        snapshots = [access.region.snapshot() for access in task.outputs]
        committed = self.tht.insert(
            key, task.task_type.name, snapshots, producer_index=task.creation_index
        )
        self.stats.record_commit(committed.stored_bytes)

        # Retire the in-flight entry and satisfy postponed consumers; the
        # caller completes them.
        with self._petition_lock:
            if decision.payload.get("ikt_registered") and self.ikt is not None:
                self.ikt.retire(key, task.task_type.name, task)
            waiters = tuple(self._petitions.pop(task.task_id, ()))
        forwarded = sum(copy_outputs_from_entry(waiter, committed) for waiter in waiters)
        return ATMCommitInfo(
            stored_bytes=committed.stored_bytes,
            forwarded_bytes=forwarded,
            deferred=waiters,
        )

    def task_abandoned(self, task: Task, decision: ATMDecision) -> list[Task]:
        """Release engine state for a task that will never commit.

        Called by executor supervision when a task fails terminally (see
        DESIGN.md §7): retires the in-flight IKT registration so future
        identical tasks do not defer on a dead producer, and returns any
        already-deferred consumers — the outputs they were waiting for will
        never be produced, so the executor re-executes them directly.
        """
        if not decision.atm_handled:
            return []
        key = decision.payload.get("key")
        with self._petition_lock:
            if (
                key is not None
                and decision.payload.get("ikt_registered")
                and self.ikt is not None
            ):
                self.ikt.retire(key, task.task_type.name, task)
            return self._petitions.pop(task.task_id, [])

    # -- helpers ---------------------------------------------------------------------
    @staticmethod
    def _measure_training_error(task: Task, entry: THTEntry) -> float:
        """Chebyshev error between the freshly computed and stored outputs."""
        pairs = []
        for access, stored in zip(task.outputs, entry.outputs):
            fresh = np.asarray(access.region.array)
            pairs.append((fresh, stored.reshape(fresh.shape)))
        return combined_chebyshev_error(pairs)

    # -- reporting -------------------------------------------------------------------
    def memory_bytes(self) -> dict[str, int]:
        """ATM memory footprint breakdown (Table III)."""
        tht_bytes = self.tht.memory_bytes()
        ikt_bytes = self.ikt.memory_bytes() if self.ikt is not None else 0
        shuffle_bytes = self.keygen.shuffle_memory_bytes()
        key_cache_bytes = self.keygen.cache_info()["cache_bytes"]
        return {
            "tht": tht_bytes,
            "ikt": ikt_bytes,
            "shuffles": shuffle_bytes,
            "key_cache": key_cache_bytes,
            "total": tht_bytes + ikt_bytes + shuffle_bytes + key_cache_bytes,
        }

    def memory_overhead_percent(self, application_bytes: int) -> float:
        parts = self.memory_bytes()
        return self.stats.memory_overhead_percent(
            application_bytes, parts["tht"], parts["ikt"], parts["shuffles"]
        )

    def describe(self) -> str:
        return (
            f"ATMEngine(policy={self.policy.describe()}, "
            f"buckets=2^{self.config.tht_bucket_bits}, M={self.config.tht_bucket_capacity}, "
            f"ikt={'on' if self.ikt is not None else 'off'})"
        )


def copy_outputs_from_entry(task: Task, entry: THTEntry) -> int:
    """``copyOuts()``: leave the stored outputs in the task's output regions.

    The one place THT outputs reach task regions.  An output whose region is
    still tagged as holding that very output of that very entry
    (:meth:`DataRegion.holds` — the previous hit put it there and no
    overlapping write has committed since) is already in place and is not
    copied; the rest are overwritten.  Returns the bytes moved
    (``entry.stored_bytes`` minus that is what was elided) and names
    ``entry`` on the task, so an in-process ``complete_task`` tags the
    regions with this placement.
    """
    outputs = task.outputs
    if len(outputs) != len(entry.outputs):
        raise MemoizationError(
            f"output arity mismatch for {task.label}: task has {len(outputs)} "
            f"outputs, THT entry has {len(entry.outputs)}"
        )
    copied = 0
    for index, (access, stored) in enumerate(zip(outputs, entry.outputs)):
        if access.region.array.size != stored.size:
            raise MemoizationError(
                f"output size mismatch for {task.label}: {access.region.shape} "
                f"vs stored {stored.shape}"
            )
        if not access.region.holds(entry, index):
            access.region.copy_from(stored)
            copied += int(stored.nbytes)
    task.memo_source = entry
    return copied


def build_engine(config: ATMConfig, num_threads: int) -> Optional[ATMEngine]:
    """The one assembly path: ``ATMConfig`` -> policy -> :class:`ATMEngine`.

    ``config.mode`` names the policy in the registry (``"none"`` installs no
    engine) and ``num_threads`` sizes the in-flight key table (the
    executor's ``max_in_flight``).  The Session and a gateway tenant both
    come through here.
    """
    if config.mode == "none":
        return None
    policy = make_policy(config.mode, config)
    return ATMEngine(config=config, policy=policy, num_threads=num_threads)

"""The remote-task core: what a shipped task is and how a worker runs it.

Every backend that executes task bodies away from the parent's graph — the
process pool over shared memory, network endpoints over sockets, a gateway
tenant's namespace — moves the same five things (DESIGN.md §4.6):

* a :class:`TaskDescriptor` — function by reference, array payloads swapped
  for serializable refs by :func:`describe_task` (the array→ref function is
  the only thing a backend supplies);
* an :class:`ArrayArena` — rebuilds byte-exact views and regions from those
  refs with identity-preserving caches; a concrete arena only says where a
  ref's backing bytes live (a shared segment, a shipped span, a tenant
  buffer);
* :func:`rebuild_task` — descriptor + arena → a runnable :class:`Task`;
* :func:`run_descriptor` — the worker half of the paper's Figure 1 step
  (eligibility gate → ``task_ready`` → run or copy stored outputs → bump
  write versions → ``task_finished``) against a per-worker engine replica;
* the replica's recipe — the parent engine's ``ATMConfig``
  (:func:`worker_engine_config`), which the worker hands to the one
  engine-assembly path; its ``snapshot(reset=True)`` deltas merge back at
  the drain barrier.

and speaks one protocol around them: :class:`RemoteWorker` is the one
worker loop and :meth:`RemoteWorker.replies` the one reply sequence; a
transport (a queue and a pipe, a framed socket) only carries those tuples
to :meth:`repro.runtime.dispatch.ChunkDispatcher.reply`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.common.config import ATMConfig
from repro.common.exceptions import RuntimeStateError
from repro.runtime.atm_protocol import EXECUTE_DECISION
from repro.runtime.data import AccessMode, DataAccess, DataRegion
from repro.runtime.task import Task, TaskState, TaskType

__all__ = [
    "TaskTypeSpec",
    "TaskDescriptor",
    "worker_engine_config",
    "build_worker_engine",
    "map_arrays",
    "describe_task",
    "rebuild_task",
    "run_descriptor",
    "ArrayArena",
    "RemoteWorker",
]


@dataclass(frozen=True)
class TaskTypeSpec:
    """Reduced, picklable description of a :class:`TaskType`.

    Cost models are deliberately dropped: they are only used by the
    simulator, and applications routinely define them as (unpicklable)
    lambdas.
    """

    name: str
    memoizable: bool
    tau_max: Optional[float]
    l_training: Optional[int]
    deterministic: bool

    @classmethod
    def of(cls, task_type: TaskType) -> "TaskTypeSpec":
        return cls(
            name=task_type.name,
            memoizable=task_type.memoizable,
            tau_max=task_type.tau_max,
            l_training=task_type.l_training,
            deterministic=task_type.deterministic,
        )

    def build(self) -> TaskType:
        return TaskType(
            name=self.name,
            memoizable=self.memoizable,
            tau_max=self.tau_max,
            l_training=self.l_training,
            deterministic=self.deterministic,
        )


@dataclass(frozen=True)
class TaskDescriptor:
    """Everything a worker needs to rebuild and run one task.

    ``accesses`` entries are ``(array ref, mode_value, region_name)``;
    ndarray leaves of ``args``/``kwargs`` are replaced by their array ref,
    so worker-side argument arrays alias the rebuilt access regions exactly
    as they alias the parent arrays at home.
    """

    task_id: int
    creation_index: int
    type_spec: TaskTypeSpec
    function: Any
    accesses: tuple[tuple[Any, str, str], ...]
    args: tuple
    kwargs: dict


def worker_engine_config(engine) -> Optional[ATMConfig]:
    """The ``ATMConfig`` that replicates ``engine`` into a remote worker.

    It is the policy's own config (its sampling fraction already folded in)
    under the policy's registry name, with the IKT off: a worker processes
    one task at a time, so an in-flight twin can never exist inside it, and
    cross-worker in-flight tracking would serialise every lookup on one
    lock — the THT delta merge at the barrier recovers the sharing instead.
    """
    if engine is None:
        return None
    policy = getattr(engine, "policy", None)
    config = getattr(engine, "config", None)
    if policy is None or config is None:
        raise RuntimeStateError(
            "worker-replicated backends require an ATMEngine-compatible "
            "engine (with .policy and .config) or engine=None; custom "
            "in-process engines cannot be replicated into workers"
        )
    # Policies built through the registry carry their registered name —
    # the faithful recipe for plugin policies, whose class-level ``mode``
    # attribute is whatever builtin they subclass.  Hand-assembled policy
    # instances fall back to that class attribute.  Plugin policies
    # require the plugin module to be imported (or the start method to be
    # fork) wherever the worker runs.
    mode = getattr(policy, "registry_name", None) or policy.mode.value
    return policy.config.with_overrides(mode=mode, use_ikt=False)


def build_worker_engine(config: Optional[ATMConfig]):
    """The journaling engine replica one worker runs its tasks against."""
    if config is None:
        return None
    from repro.atm.engine import build_engine

    return build_engine(config, num_threads=1, journal=True)


def map_arrays(value: Any, leaf_type: type, swap: Callable[[Any], Any]) -> Any:
    """Copy a nested args/kwargs payload with every ``leaf_type`` leaf swapped.

    The one tuple/list/dict walk of the descriptor protocol: encoding swaps
    ndarrays for refs, decoding swaps refs for arena views.
    """
    if isinstance(value, leaf_type):
        return swap(value)
    if isinstance(value, tuple):
        return tuple(map_arrays(v, leaf_type, swap) for v in value)
    if isinstance(value, list):
        return [map_arrays(v, leaf_type, swap) for v in value]
    if isinstance(value, dict):
        return {k: map_arrays(v, leaf_type, swap) for k, v in value.items()}
    return value


def describe_task(
    task_id: int,
    creation_index: int,
    task_type: TaskType,
    function: Callable,
    accesses: Sequence[DataAccess],
    args: tuple,
    kwargs: dict,
    ref: Callable,
) -> TaskDescriptor:
    """Encode one task for shipping.

    ``ref(array, region=None)`` is the backend's array→ref function: a
    shared-segment handle (:meth:`SharedBufferRegistry.array_ref`) or a
    shipped-span handle (:meth:`ChunkEncoder.ref`).
    """
    return TaskDescriptor(
        task_id=task_id,
        creation_index=creation_index,
        type_spec=TaskTypeSpec.of(task_type),
        function=function,
        accesses=tuple(
            (ref(access.region.array, access.region), access.mode.value,
             access.region.name)
            for access in accesses
        ),
        args=map_arrays(args, np.ndarray, ref),
        kwargs=map_arrays(kwargs, np.ndarray, ref),
    )


class ArrayArena:
    """Rebuilds byte-exact array views and regions from serializable refs.

    Views and regions are cached by the ref's fields, so every ref to one
    byte layout resolves to the *same* ndarray / :class:`DataRegion`
    object: aliasing between a task's arguments and its access regions
    survives, and the ATM key caches (keyed on region identity) hit across
    tasks.  Subclasses say where the bytes live (:meth:`_backing`) and,
    when regions need a cross-process version protocol, how to wrap a view
    (:meth:`_region`).
    """

    #: The ref type :func:`rebuild_task` swaps back for views.
    ref_type: type = object
    #: Raised when a ref cannot be materialised.
    error: type = RuntimeStateError

    def __init__(self) -> None:
        self._views: dict[Any, np.ndarray] = {}
        self._regions: dict[Any, DataRegion] = {}

    def _backing(self, ref) -> tuple[Any, int]:
        """``(buffer, base_offset)``: the object exposing the bytes behind
        ``ref`` and the owning-base offset its first byte corresponds to."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _region(self, array: np.ndarray, ref, name: str) -> DataRegion:
        return DataRegion(array, name=name)

    @staticmethod
    def _key(ref) -> tuple:
        # The ref's field values: hashing and comparing a plain tuple stays
        # in C, unlike the ref dataclass's generated __hash__/__eq__ (the
        # lookups run several times per rebuilt task).
        return tuple(vars(ref).values())

    def view(self, ref) -> np.ndarray:
        key = self._key(ref)
        cached = self._views.get(key)
        if cached is not None:
            return cached
        buffer, base_offset = self._backing(ref)
        try:
            array = np.ndarray(
                ref.shape,
                dtype=np.dtype(ref.dtype),
                buffer=buffer,
                offset=ref.offset - base_offset,
                strides=ref.strides,
            )
        except (ValueError, TypeError) as exc:
            raise self.error(f"cannot rebuild array view: {exc}") from exc
        self._views[key] = array
        return array

    def region(self, ref, name: str) -> DataRegion:
        key = self._key(ref)
        cached = self._regions.get(key)
        if cached is None:
            cached = self._regions[key] = self._region(self.view(ref), ref, name)
        return cached


def rebuild_task(
    desc: TaskDescriptor, arena: ArrayArena, task_types: dict[str, TaskType]
) -> Task:
    """Materialise a descriptor as a runnable task over ``arena``'s memory."""
    task_type = task_types.get(desc.type_spec.name)
    if task_type is None:
        task_type = task_types[desc.type_spec.name] = desc.type_spec.build()
    return Task(
        task_type=task_type,
        function=desc.function,
        accesses=[
            DataAccess(arena.region(ref, name), AccessMode(mode_value))
            for ref, mode_value, name in desc.accesses
        ],
        args=map_arrays(desc.args, arena.ref_type, arena.view),
        kwargs=map_arrays(desc.kwargs, arena.ref_type, arena.view),
        task_id=desc.task_id,
        creation_index=desc.creation_index,
    )


def run_descriptor(
    desc: TaskDescriptor,
    arena: ArrayArena,
    engine,
    task_types: dict[str, TaskType],
    worker_id: int,
) -> tuple[str, bool, Task]:
    """Rebuild one task and run the full ATM protocol around it.

    Returns ``(action_value, executed, task)``; a transport without shared
    memory reads the written regions off the returned task.
    """
    task = rebuild_task(desc, arena, task_types)
    # Same eligibility gate as BaseExecutor._process, so per-worker stats
    # merge into the exact totals a single-process engine would have seen.
    if engine is not None and task.task_type.atm_eligible:
        decision = engine.task_ready(task, worker_id)
    else:
        decision = EXECUTE_DECISION
    executed = False
    if not decision.skips_execution:
        task.state = TaskState.RUNNING
        task.run()
        executed = True
        # Commit the writes to the version protocol *before* reporting
        # completion: once the parent releases a successor, anything
        # hashing these bytes must observe the new version.  (The SKIP
        # path bumps through DataRegion.copy_from already.)
        for access in task.accesses:
            if access.writes:
                access.region.bump_version()
    if decision.atm_handled and engine is not None:
        engine.task_finished(task, decision, executed, worker_id)
    return decision.action.value, executed, task


class RemoteWorker:
    """The one remote worker: an engine replica that runs shipped chunks.

    A transport builds one per worker process or connection and supplies
    the arena a chunk's refs resolve in (per call) and ``written`` — how a
    finished task's written regions travel home when no memory is shared
    with the parent (``None``: the bytes are already there).
    """

    def __init__(
        self,
        worker_id: int = 0,
        engine_config: Optional[ATMConfig] = None,
        written: Optional[Callable[[Task], Any]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.engine = build_worker_engine(engine_config)
        self.task_types: dict[str, TaskType] = {}
        self._written = written

    def run_chunk(
        self, descriptors: Iterable[TaskDescriptor], arena: ArrayArena
    ) -> tuple[list[tuple], Optional[tuple[int, str]]]:
        """Run one chunk; returns ``(results, error)``.

        Each result is ``(task_id, action_value, executed)`` plus the
        ``written`` payload when bytes must travel.  ``error`` is
        ``(task_id, traceback_str)`` when a task body raised: the finished
        prefix is in ``results``, the rest of the chunk is dropped.
        """
        results: list[tuple] = []
        for desc in descriptors:
            try:
                action, executed, task = run_descriptor(
                    desc, arena, self.engine, self.task_types, self.worker_id
                )
            except BaseException:
                return results, (desc.task_id, traceback.format_exc())
            payload = () if self._written is None else (self._written(task),)
            results.append((desc.task_id, action, executed, *payload))
        return results, None

    @staticmethod
    def replies(
        chunk_id: int, run: Callable[[], tuple], ack: bool = True
    ) -> Iterator[tuple]:
        """What a worker answers to one chunk, in order; ``run()`` runs it and
        returns :meth:`run_chunk`'s ``(results, error)``.

        ``("ack", chunk_id)`` *before* execution — receipt and start are
        proven independently of task runtime, and the parent ages a chunk
        from it (a transport that sees its workers die may skip it while no
        task budget is set); then ``("result", chunk_id, results)``; then,
        when a body raised, ``("error", chunk_id, task_id, traceback)`` —
        after the completed prefix, so its writes are never lost.  The
        transport sends each reply as it is yielded.
        """
        if ack:
            yield ("ack", chunk_id)
        results, error = run()
        if results or error is None:
            yield ("result", chunk_id, results)
        if error is not None:
            yield ("error", chunk_id, *error)

    def sync(self) -> Optional[dict]:
        """ATM engine delta since the previous barrier (``None`` engineless)."""
        return None if self.engine is None else self.engine.snapshot(reset=True)

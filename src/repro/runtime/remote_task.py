"""The remote-task core: what a shipped task is and how a worker runs it.

Every backend that executes task bodies away from the parent's graph — the
process pool over shared memory, network endpoints over sockets, a gateway
tenant's namespace — moves the same four things (DESIGN.md §4.6):

* a :class:`~repro.runtime.codec.TaskDescriptor` — one fixed-position
  record: the task type's fields inline, the body as ``(module, qualname)``,
  array payloads swapped for plain ``(buffer key, offset, shape, strides,
  dtype)`` refs by :func:`describe_task` (the array→ref function is the only
  thing a backend supplies);
* an :class:`ArrayArena` — rebuilds byte-exact views and regions from those
  refs with identity-preserving caches; a concrete arena only says where a
  ref's backing bytes live (a shared segment, a shipped span, a tenant
  buffer);
* :func:`rebuild_task` — descriptor + arena → a runnable :class:`Task`;
* :func:`run_descriptor` — the worker's step: rebuild the task and run its
  body.  Nothing of the paper's Figure 1 runs here: the parent's
  dispatcher looks the task up in its owner's engine before shipping it
  (a THT or IKT hit never ships) or, while its type trains, as it retires,
  and commits it at its retirement, so one THT, one IKT and one training
  phase serve every worker.

and speaks one protocol around them: :class:`RemoteWorker` runs the
chunks and :meth:`RemoteWorker.replies` is the one reply sequence, which
:func:`~repro.runtime.net_transport.serve_connection` — the one worker loop,
in a thread, a TCP daemon or a process — carries over a framed socket to
:meth:`repro.runtime.dispatch.ChunkDispatcher.reply`.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.common.exceptions import RuntimeStateError, WireProtocolError
from repro.runtime.codec import (
    TaskDescriptor, build, checked_dtype, function_name, plain, ref_key, resolve_function,
)
from repro.runtime.data import AccessMode, DataAccess, DataRegion
from repro.runtime.task import Task, TaskState, TaskType

__all__ = [
    "TaskDescriptor",
    "describe_task",
    "describe_tasks",
    "rebuild_task",
    "ArrayArena",
    "RemoteWorker",
]


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
    shipped-span handle (:meth:`ChunkEncoder.ref`).  Raises
    :class:`WireProtocolError` when the body cannot travel by name and
    ``TypeError`` when an argument cannot travel at all.
    """
    def leaf(array: np.ndarray) -> list:
        return ["r", ref(array)]

    return TaskDescriptor(
        task_id, creation_index, task_type.name, task_type.memoizable,
        task_type.tau_max, task_type.l_training, task_type.deterministic,
        *function_name(function),
        tuple(
            (ref(access.region.array, access.region), access.mode.value,
             access.region._name)
            for access in accesses
        ),
        plain(args, leaf=leaf),
        plain(kwargs, leaf=leaf),
    )


def describe_tasks(tasks: Sequence[Task], ref: Callable, backend: str) -> list[TaskDescriptor]:
    """:func:`describe_task` over a chunk, naming the tasks that cannot travel."""
    try:
        return [
            describe_task(
                task.task_id, task.creation_index, task.task_type, task.function,
                task.accesses, task.args, task.kwargs, ref,
            )
            for task in tasks
        ]
    except (TypeError, WireProtocolError) as exc:
        labels = ", ".join(task.label for task in tasks)
        raise RuntimeStateError(
            f"cannot serialize task(s) [{labels}] for the {backend} backend: {exc}; "
            f"worker backends run module-level functions of application code only"
        ) from exc


class ArrayArena:
    """Rebuilds byte-exact array views and regions from plain refs.

    Views and regions are cached by the ref itself, so every ref to one
    byte layout resolves to the *same* ndarray / :class:`DataRegion`
    object: aliasing between a task's arguments and its access regions
    survives, the ATM key caches (keyed on region identity) hit across
    tasks, and tasks that name one ref in one mode share one access.
    Subclasses fill ``_bases`` from the buffer tables they receive.
    """

    #: Raised when a ref cannot be materialised.
    error: type = RuntimeStateError

    def __init__(self) -> None:
        self._views: dict[Any, np.ndarray] = {}
        self._regions: dict[Any, DataRegion] = {}
        #: buffer key -> (uint8 backing, owning-base offset of its first byte).
        self._bases: dict[Any, tuple[np.ndarray, int]] = {}

    def _backing(self, ref) -> tuple[Any, int]:
        """``(buffer, base_offset)``: the object exposing the bytes behind
        ``ref`` and the owning-base offset its first byte corresponds to."""
        entry = self._bases.get(ref[0])
        if entry is None:
            raise self.error(f"ref names buffer {ref[0]!r}, absent from its buffer table")
        return entry

    def view(self, ref: tuple) -> np.ndarray:
        """The view ``(key, offset, shape, strides, dtype)`` names; an object
        dtype — received bytes read as pointers — is refused."""
        cached = self._views.get(ref)
        if cached is not None:
            return cached
        buffer, base_offset = self._backing(ref)
        _, offset, shape, strides, dtype = ref
        try:
            array = np.ndarray(
                shape, dtype=checked_dtype(dtype), buffer=buffer,
                offset=offset - base_offset, strides=strides,
            )
        except (ValueError, TypeError) as exc:
            raise self.error(f"cannot rebuild array view: {exc}") from exc
        self._views[ref] = array
        return array

    def region(self, ref: tuple, name: str) -> DataRegion:
        cached = self._regions.get(ref)
        if cached is None:
            cached = self._regions[ref] = DataRegion(self.view(ref), name=name)
        return cached


def rebuild_task(
    desc: TaskDescriptor, arena: ArrayArena, task_types: dict[str, TaskType]
) -> Task:
    """Materialise a descriptor as a runnable task over ``arena``'s memory.

    The body is looked up by :func:`~repro.runtime.codec.resolve_function`
    (a name it refuses raises :class:`WireProtocolError`); a record of any
    other shape raises the arena's error.
    """
    try:
        (task_id, creation_index, name, memoizable, tau_max, l_training,
         deterministic, module, qualname, refs, args, kwargs) = desc
        task_type = task_types.get(name)
        if task_type is None:
            task_type = task_types[name] = TaskType(
                name=name, memoizable=memoizable, tau_max=tau_max,
                l_training=l_training, deterministic=deterministic,
            )
        accesses = tuple(
            arena.region(ref_key(ref), region_name).access(AccessMode(mode_value))
            for ref, mode_value, region_name in refs
        )

        def leaf(tagged: list) -> np.ndarray:
            return arena.view(ref_key(tagged[1]))

        # A task's arguments reference no frame segment: ``take`` is None.
        return Task(
            task_type=task_type,
            function=resolve_function(module, qualname),
            accesses=accesses,
            args=build(args, None, leaf),
            kwargs=build(kwargs, None, leaf),
            task_id=task_id,
            creation_index=creation_index,
        )
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise arena.error(f"malformed task descriptor: {type(exc).__name__}: {exc}") from None


def run_descriptor(
    desc: TaskDescriptor, arena: ArrayArena, task_types: dict[str, TaskType]
) -> Task:
    """Rebuild one task and run its body.  The parent commits the task —
    bumping the write-versions there — when it retires; supervision
    (retries, timeouts, quarantine) stays with the parent's dispatcher,
    which reads a raising body off the worker's error reply.

    Returns the task; a transport without shared memory reads the written
    regions off it.
    """
    task = rebuild_task(desc, arena, task_types)
    task.state = TaskState.RUNNING
    task.run()
    return task


class RemoteWorker:
    """The one remote worker: runs the bodies of shipped chunks.

    :func:`~repro.runtime.net_transport.serve_connection` builds one per
    connection and supplies the arena a chunk's refs resolve in (per call)
    and ``written`` — how a finished task's written regions travel home
    when no memory is shared with the parent (``None``: the bytes are
    already there).
    """

    def __init__(
        self,
        worker_id: int = 0,
        written: Optional[Callable[[Task], Any]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.task_types: dict[str, TaskType] = {}
        self._written = written

    def run_chunk(
        self, descriptors: Sequence[TaskDescriptor], arena: ArrayArena
    ) -> tuple[list[tuple], Optional[tuple[int, str]]]:
        """Run one chunk; returns ``(results, error)``.

        Each result is ``(task_id,)`` plus the ``written`` payload when
        bytes must travel.  ``error`` is ``(task_id, traceback_str)`` when a
        task body raised: the finished prefix is in ``results``, the rest of
        the chunk is dropped.
        """
        results: list[tuple] = []
        for desc in descriptors:
            try:
                task = run_descriptor(desc, arena, self.task_types)
            except BaseException:
                return results, (desc.task_id, traceback.format_exc())
            payload = () if self._written is None else (self._written(task),)
            results.append((desc.task_id, *payload))
        return results, None

    @staticmethod
    def replies(chunk_id: int, run: Callable[[], tuple]) -> Iterator[tuple]:
        """What a worker answers to one chunk, in order; ``run()`` runs it and
        returns :meth:`run_chunk`'s ``(results, error)``.

        ``("ack", chunk_id)`` *before* execution — receipt and start are
        proven independently of task runtime: the parent ages a chunk from
        it, and charges a lost worker's acknowledged chunk alone; then
        ``("result", chunk_id, results)``; then, when a body raised,
        ``("error", chunk_id, task_id, traceback)`` — after the completed
        prefix, so its writes are never lost.  The transport sends each
        reply as it is yielded.
        """
        yield ("ack", chunk_id)
        results, error = run()
        if results or error is None:
            yield ("result", chunk_id, results)
        if error is not None:
            yield ("error", chunk_id, *error)

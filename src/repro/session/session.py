"""The Session facade: one declarative entry point for a whole run.

A :class:`Session` owns the assembly of every moving part the paper's
programming model assumes — the memoization engine (policy + THT + IKT), the
execution backend, the ready-queue scheduler and the task dependence graph —
from a single :class:`~repro.common.config.ReproConfig` tree, and exposes
the OmpSs-style task-declaration surface on top:

>>> import numpy as np
>>> from repro.session import Session, In, Out
>>> with Session(executor="serial") as s:
...     @s.task(memoizable=True)
...     def saxpy(x: In, y: Out, a):
...         y[:] = a * x
...     x = np.arange(4, dtype=np.float64); y = np.zeros(4)
...     _ = saxpy(x, y, 2.0)
...     _ = s.wait_all()
>>> y.tolist()
[0.0, 2.0, 4.0, 6.0]

Data accesses are declared either by annotating parameters with ``In`` /
``Out`` / ``InOut`` (as above) or explicitly by parameter name
(``@s.task(ins=("x",), outs=("y",))``); the runtime derives the dependence
edges and the ATM engine derives the hash-key inputs from the same
declaration, exactly like an OmpSs ``depend`` clause.  Backends, schedulers
and ATM policies are selected by registry name (``executor="process"``,
``policy="dynamic"``), so plugged-in backends work here without changes
(:mod:`repro.common.registry`).
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.common.config import ReproConfig
from repro.common.exceptions import (
    ConfigurationError,
    RuntimeStateError,
    TaskDefinitionError,
)
from repro.runtime.data import DataAccess, In, InOut, Out
from repro.runtime.executor import BaseExecutor, RunResult, build_executor
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.task import Task, TaskType

__all__ = ["Session"]

#: Annotation markers accepted for access inference, by bare name (string
#: annotations appear when the task module uses ``from __future__ import
#: annotations``).
_ACCESS_MARKERS: dict[str, Callable] = {"In": In, "Out": Out, "InOut": InOut}


def _marker_for(annotation: Any) -> Optional[Callable]:
    """Map a parameter annotation to In/Out/InOut, else ``None``."""
    if annotation in (In, Out, InOut):
        return annotation
    if isinstance(annotation, str):
        return _ACCESS_MARKERS.get(annotation.split(".")[-1].strip())
    return None


class _TaskDeclaration:
    """Resolved access declaration of one ``@session.task`` function."""

    def __init__(
        self,
        fn: Callable,
        ins: Sequence[str] | str,
        outs: Sequence[str] | str,
        inouts: Sequence[str] | str,
    ) -> None:
        self.signature = inspect.signature(fn)
        modes: dict[str, Callable] = {}
        for names, factory, label in (
            (ins, In, "ins"),
            (outs, Out, "outs"),
            (inouts, InOut, "inouts"),
        ):
            if isinstance(names, str):
                names = (names,)
            for param in names:
                if param not in self.signature.parameters:
                    raise TaskDefinitionError(
                        f"{label}: {fn.__name__}() has no parameter {param!r}"
                    )
                if param in modes:
                    raise TaskDefinitionError(
                        f"parameter {param!r} of {fn.__name__}() is declared "
                        f"in more than one access clause"
                    )
                modes[param] = factory
        annotations = getattr(fn, "__annotations__", {})
        for param, annotation in annotations.items():
            if param == "return":
                continue
            factory = _marker_for(annotation)
            if factory is None:
                continue
            if param in modes and modes[param] is not factory:
                raise TaskDefinitionError(
                    f"parameter {param!r} of {fn.__name__}() has conflicting "
                    f"access declarations (annotation vs ins/outs/inouts)"
                )
            modes.setdefault(param, factory)
        if not modes:
            raise TaskDefinitionError(
                f"task {fn.__name__}() declares no data accesses; annotate "
                f"parameters with In/Out/InOut or pass ins=/outs=/inouts="
            )
        # Accesses in parameter order, matching a hand-written accesses list.
        self.modes = {
            name: modes[name]
            for name in self.signature.parameters
            if name in modes
        }
        # Fast re-submission path: iterative apps call the same task type
        # thousands of times with all-positional arguments, and
        # ``Signature.bind`` dominates that path.  When every parameter is
        # plain positional-or-keyword, a fully positional call maps each
        # declared access to a fixed argument index.
        parameters = list(self.signature.parameters.values())
        self._positional_ok = all(
            p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters
        )
        index_of = {p.name: i for i, p in enumerate(parameters)}
        self._positional_plan = [
            (index_of[name], factory, name) for name, factory in self.modes.items()
        ]
        self._n_params = len(parameters)

    def build_accesses(self, args: tuple, kwargs: dict) -> list[DataAccess]:
        if self._positional_ok and not kwargs and len(args) == self._n_params:
            return [
                factory(args[index], name=name)
                for index, factory, name in self._positional_plan
            ]
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return [
            factory(bound.arguments[param], name=param)
            for param, factory in self.modes.items()
        ]


class Session:
    """Declarative front door to the runtime + ATM + executor assembly.

    Parameters
    ----------
    config:
        A :class:`ReproConfig`, a nested dict, a ``.toml``/``.json`` path or
        ``None`` (all defaults).
    executor:
        Registry name overriding ``config.runtime.executor`` — or an already
        constructed :class:`BaseExecutor` for full manual control.
    scheduler:
        Registry name overriding ``config.runtime.scheduler``.
    policy:
        Registry name overriding ``config.atm.mode`` — or an
        :class:`~repro.atm.policy.ATMPolicy` instance.
    engine:
        An explicit memoization engine, bypassing policy assembly (used by
        harnesses that pre-build engines; ``None`` + ``mode == "none"`` runs
        without memoization).
    cores / p / tracing:
        Shorthand overrides for ``runtime.num_threads``, ``atm.p`` and
        ``runtime.enable_tracing``.

    Lifecycle: ``submit``/task calls are allowed until :meth:`finish`;
    :meth:`wait_all` is the intermediate barrier; leaving a ``with`` block
    calls :meth:`finish` (or, on an in-flight exception, :meth:`close`) so
    executor resources — worker pools, shared-memory segments — are released
    on every path.

    When ``atm.tht_store`` names a ``file://`` snapshot or ``tcp://`` cache
    shard, the session warm-starts its THT from the store on open (falling
    back to a cold table, with a ``RuntimeWarning``, if the store is corrupt
    or unreachable — ``Session.warm_started`` reports which happened) and
    publishes the run's new commits back on :meth:`finish`.
    """

    def __init__(
        self,
        config: "ReproConfig | Mapping | str | Path | None" = None,
        *,
        executor: "str | BaseExecutor | None" = None,
        scheduler: Optional[str] = None,
        policy: Any = None,
        engine: Any = None,
        cores: Optional[int] = None,
        p: Optional[float] = None,
        tracing: Optional[bool] = None,
    ) -> None:
        cfg = ReproConfig.coerce(config)
        runtime_overrides: dict[str, Any] = {}
        atm_overrides: dict[str, Any] = {}
        if isinstance(executor, str):
            runtime_overrides["executor"] = executor
        if scheduler is not None:
            runtime_overrides["scheduler"] = scheduler
        if cores is not None:
            runtime_overrides["num_threads"] = cores
        if tracing is not None:
            runtime_overrides["enable_tracing"] = tracing
        if isinstance(policy, str):
            atm_overrides["mode"] = policy
        if p is not None:
            atm_overrides["p"] = p
        if runtime_overrides or atm_overrides:
            cfg = cfg.with_overrides(runtime=runtime_overrides, atm=atm_overrides)
        self.config = cfg
        if engine is not None and (policy is not None or p is not None):
            # A pre-built engine carries its policy and sampling fraction;
            # silently ignoring the overrides would misreport the run.
            raise ConfigurationError(
                "policy=/p= overrides do not apply to a pre-built engine"
            )
        if policy == "fixed_p" and p is None:
            # Via the kwarg path an omitted p would silently fall back to the
            # config default (1.0 = exact memoization); a declarative config
            # tree states atm.p explicitly instead.
            raise ConfigurationError(
                "policy='fixed_p' requires an explicit p= override"
            )

        if executor is not None and not isinstance(executor, str):
            if runtime_overrides:
                # cores=/scheduler=/tracing= describe how to *build* a
                # backend; they cannot retrofit an already-built instance,
                # and silently ignoring them would misreport the run.
                raise ConfigurationError(
                    f"{', '.join(sorted(runtime_overrides))}: runtime "
                    f"overrides do not apply to a pre-built executor instance"
                )
            self.executor: BaseExecutor = executor
            if executor.engine is not None:
                # The instance already carries an engine; a *different*
                # explicit engine/policy would silently lose either the run's
                # behaviour or its statistics — reject the ambiguity.
                if (
                    (engine is not None and engine is not executor.engine)
                    or policy is not None
                    or p is not None
                ):
                    raise ConfigurationError(
                        "the executor instance already carries an engine; "
                        "pass engine=/policy=/p= only with engine-less "
                        "executors"
                    )
                self.engine = executor.engine
            else:
                self.engine = self._assemble_engine(
                    cfg, policy, engine, num_threads=executor.config.num_threads
                )
                self._reject_dangling_p(p)
                if self.engine is not None:
                    executor.engine = self.engine
        else:
            self.engine = self._assemble_engine(
                cfg, policy, engine, num_threads=cfg.runtime.num_threads
            )
            # Checked before build_executor so a config error never abandons
            # a freshly spawned worker pool.
            self._reject_dangling_p(p)
            self.executor = build_executor(
                cfg.runtime, engine=self.engine, sim_config=cfg.simulation
            )
        self.graph = TaskDependenceGraph(
            on_ready=self.executor.notify_ready,
            on_ready_batch=self.executor.notify_ready_batch,
            on_born_cancelled=self.executor.notify_born_cancelled,
        )
        # Persistent memoization tier (DESIGN.md §9): warm-start the THT from
        # the configured store and flush this run's commits on finish().
        self._tht_store = None
        self.warm_started = False
        if cfg.atm.tht_store:
            if self.engine is None:
                # The executor (and a possible worker pool) already exists —
                # release it on the error path.
                self.executor.close()
                raise ConfigurationError(
                    "atm.tht_store requires a memoization engine (set "
                    "atm.mode or pass policy=)"
                )
            from repro.atm.store import warm_start

            self._tht_store, restored = warm_start(
                cfg.atm.tht_store, cfg.atm, self.engine.tht
            )
            if self._tht_store is not None:
                self.warm_started = restored > 0
                # Journal from here on: warm-started entries are never
                # re-published by this session's flush.
                self.engine.enable_delta_snapshots()
        self._closed = False
        self._drained = False
        self._drain_aborted = ""  # exception class name once a drain fails
        self._submitted = 0
        self._batch_buffer: Optional[list[Task]] = None

    def _reject_dangling_p(self, p: Optional[float]) -> None:
        if p is not None and self.engine is None:
            raise ConfigurationError(
                "p= has no effect without an ATM policy (pass policy= or set "
                "atm.mode in the config)"
            )

    @staticmethod
    def _assemble_engine(cfg: ReproConfig, policy: Any, engine: Any, num_threads: int):
        """Build the memoization engine from policy/config declarations.

        ``num_threads`` sizes the in-flight key table; it comes from the
        executor that will actually run the tasks.
        """
        if engine is not None:
            return engine
        # Imported here: the ATM layer itself programs against the runtime,
        # so the engine assembly must not be a static dependency of the
        # runtime's import graph.
        from repro.atm.engine import ATMEngine, build_engine
        from repro.atm.policy import ATMPolicy

        if isinstance(policy, ATMPolicy):
            return ATMEngine(
                config=policy.config, policy=policy, num_threads=num_threads
            )
        return build_engine(cfg.atm, num_threads)

    # -- program construction ---------------------------------------------------
    def submit(
        self,
        task_type: TaskType,
        function: Callable,
        accesses: Sequence[DataAccess],
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ) -> Task:
        """Create a task and hand it to the dependence system.

        Inside a :meth:`batch` block the task is buffered and handed to the
        graph in one batched submission when the block exits.
        """
        if self._closed:
            raise RuntimeStateError(
                "session already finished: no further tasks can be submitted"
            )
        task = Task(
            task_type=task_type,
            function=function,
            accesses=list(accesses),
            args=tuple(args),
            kwargs=dict(kwargs or {}),
            task_id=self._submitted,
        )
        self._submitted += 1
        if self._batch_buffer is not None:
            self._batch_buffer.append(task)
        else:
            self.graph.add_task(task)
        return task

    def submit_batch(self, specs: "Sequence[Sequence] | Sequence[Mapping]") -> list[Task]:
        """Submit many tasks under one graph-lock acquisition.

        Each spec is either a tuple ``(task_type, function, accesses[, args[,
        kwargs]])`` or a mapping with the same keys as :meth:`submit`.
        Dependence edges, task ids and ready order are identical to calling
        :meth:`submit` once per spec; only the per-task locking, ready-queue
        handoff and notification overhead is amortised across the batch
        (see PERFORMANCE.md "Submission fast path").
        """
        if self._closed:
            raise RuntimeStateError(
                "session already finished: no further tasks can be submitted"
            )
        tasks: list[Task] = []
        for spec in specs:
            if isinstance(spec, Mapping):
                task_type = spec["task_type"]
                function = spec["function"]
                accesses = spec["accesses"]
                args = spec.get("args", ())
                kwargs = spec.get("kwargs")
            else:
                task_type, function, accesses = spec[0], spec[1], spec[2]
                args = spec[3] if len(spec) > 3 else ()
                kwargs = spec[4] if len(spec) > 4 else None
            tasks.append(Task(
                task_type=task_type,
                function=function,
                accesses=list(accesses),
                args=tuple(args),
                kwargs=dict(kwargs or {}),
                task_id=self._submitted,
            ))
            self._submitted += 1
        if self._batch_buffer is not None:
            self._batch_buffer.extend(tasks)
        else:
            self.graph.add_tasks(tasks)
        return tasks

    @contextmanager
    def batch(self):
        """Buffer ``@s.task`` calls / :meth:`submit` into one batched handoff.

        >>> import numpy as np
        >>> from repro.session import Session, In, Out
        >>> with Session(executor="serial") as s:
        ...     @s.task(memoizable=False)
        ...     def scale(x: In, y: Out):
        ...         y[:] = 2 * x
        ...     xs = [np.ones(4) for _ in range(8)]
        ...     ys = [np.zeros(4) for _ in range(8)]
        ...     with s.batch():
        ...         for x, y in zip(xs, ys):
        ...             _ = scale(x, y)
        ...     _ = s.wait_all()
        >>> float(ys[0][0])
        2.0

        Tasks submitted inside the block reach the dependence graph when the
        block exits (one lock acquisition, one batched ready notification).
        If the block raises, the buffered tasks are discarded.  Nesting is
        not supported.
        """
        if self._batch_buffer is not None:
            raise RuntimeStateError("session batch blocks cannot be nested")
        buffer: list[Task] = []
        self._batch_buffer = buffer
        try:
            yield self
        except BaseException:
            # Discard: half-built iterations must not enter the graph.
            self._submitted -= len(buffer)
            raise
        finally:
            self._batch_buffer = None
        self.graph.add_tasks(buffer)

    def task(
        self,
        fn: Optional[Callable] = None,
        *,
        ins: Sequence[str] | str = (),
        outs: Sequence[str] | str = (),
        inouts: Sequence[str] | str = (),
        name: Optional[str] = None,
        memoizable: bool = False,
        cost_model: Optional[Callable] = None,
        tau_max: Optional[float] = None,
        l_training: Optional[int] = None,
    ) -> Callable:
        """Declare a task type: the Python analogue of an OmpSs pragma.

        The decorated function's calls submit tasks into this session; data
        accesses come from ``In``/``Out``/``InOut`` parameter annotations
        and/or the explicit ``ins=``/``outs=``/``inouts=`` parameter-name
        clauses.  ``memoizable=True`` is the programmer opt-in the paper
        requires (Section III-E); ``cost_model``/``tau_max``/``l_training``
        forward to the :class:`~repro.runtime.task.TaskType`.

        The created task type is exposed as ``fn.task_type`` and the raw
        body as ``fn.__wrapped__`` (call it to run without submitting).
        """

        def decorate(function: Callable) -> Callable:
            declaration = _TaskDeclaration(function, ins, outs, inouts)
            type_kwargs: dict[str, Any] = {}
            if cost_model is not None:
                type_kwargs["cost_model"] = cost_model
            task_type = TaskType(
                name=name or function.__name__,
                memoizable=memoizable,
                tau_max=tau_max,
                l_training=l_training,
                **type_kwargs,
            )

            @functools.wraps(function)
            def wrapper(*args, **kwargs) -> Task:
                accesses = declaration.build_accesses(args, kwargs)
                return self.submit(
                    task_type, function, accesses=accesses, args=args, kwargs=kwargs
                )

            wrapper.task_type = task_type  # type: ignore[attr-defined]
            wrapper.declaration = declaration  # type: ignore[attr-defined]
            return wrapper

        if fn is not None:
            return decorate(fn)
        return decorate

    # -- barriers and lifecycle ---------------------------------------------------
    def wait_all(self) -> RunResult:
        """Barrier: run every submitted task to completion (``taskwait``)."""
        if self._closed:
            raise RuntimeStateError(
                "session already finished: wait_all() is not available after "
                "finish()/close()"
            )
        if self._drain_aborted:
            # An aborted drain leaves unfinished tasks the scheduler will
            # never hand out again; re-draining would starve or hang.  The
            # partial counters in ``result`` stay readable; only close()
            # (or leaving the ``with`` block) remains.
            raise RuntimeStateError(
                "a previous drain aborted "
                f"({self._drain_aborted}); the session cannot drain again — "
                "read Session.result for the failure records and close"
            )
        try:
            result = self.executor.drain(self.graph)
        except Exception as exc:
            self._drain_aborted = type(exc).__name__
            raise
        finally:
            # Even a failing drain ran the barrier: partial counters in
            # Session.result stay readable for error reporting.
            self._drained = True
        return result

    def finish(self) -> RunResult:
        """Final barrier; afterwards the session rejects new submissions.

        Executor-held resources (the process backend's worker pool and
        shared-memory segments) are released even when the drain raises; the
        returned result stays valid after the release.
        """
        if self._closed:
            raise RuntimeStateError("session already finished")
        try:
            return self.wait_all()
        finally:
            self._closed = True
            try:
                # Entries committed before a failed drain are still valid
                # memoizations — publish what completed on every path.
                store, self._tht_store = self._tht_store, None
                if store is not None:
                    from repro.atm.store import publish_increment

                    if publish_increment(store, self.engine.tht):
                        store.close()
            finally:
                self.executor.close()

    def close(self) -> None:
        """Release executor resources without draining (error-path teardown).

        The THT store is released *without* publishing: an error-path
        teardown must not flush a half-drained delta over a good snapshot.
        """
        self._closed = True
        store, self._tht_store = self._tht_store, None
        if store is not None:
            store.close()
        self.executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._closed:
            return
        if exc_type is None and not self._drain_aborted:
            self.finish()
        else:
            # An exception is unwinding (or an earlier drain already aborted
            # and the caller handled it): do not try to drain, but never
            # leak the worker pool / shared segments either.
            self.close()

    # -- introspection ------------------------------------------------------------
    @property
    def task_count(self) -> int:
        return self.graph.task_count

    @property
    def result(self) -> RunResult:
        """Aggregate result of the drains run so far.

        Raises :class:`RuntimeStateError` until a barrier has actually run —
        reading stats from a session that never drained is a bug, not an
        empty result.
        """
        if not self._drained:
            raise RuntimeStateError(
                "no result yet: run wait_all() or finish() before reading "
                "Session.result"
            )
        return self.executor.result()

    @property
    def stats(self) -> dict:
        """ATM statistics snapshot (empty when no engine is installed)."""
        if self.engine is None or not hasattr(self.engine, "stats"):
            return {}
        return self.engine.stats.snapshot()

    def describe(self) -> str:
        engine = "none"
        if self.engine is not None:
            policy = getattr(self.engine, "policy", None)
            engine = policy.describe() if policy is not None else "custom"
        return (
            f"Session(executor={type(self.executor).__name__}, "
            f"scheduler={self.config.runtime.scheduler!r}, "
            f"cores={self.config.runtime.num_threads}, atm={engine})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()

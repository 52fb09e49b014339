"""Experiment runner shared by every figure and table generator.

An :class:`ExperimentSpec` names a benchmark, a workload scale, an ATM
configuration (mode, sampling fraction, IKT on/off, THT geometry), the number
of simulated cores and the executor kind.  :func:`run_benchmark` executes it
and returns an :class:`ExperimentResult` with the simulated (or wall-clock)
time, the reuse statistics, the program correctness against a cached no-ATM
reference run, the ATM memory overhead and, optionally, the execution trace.

The spec is a thin *view* over the Session API's unified config tree: it
adds the three experiment-only coordinates (``benchmark``, ``scale`` and the
workload ``seed``) on top of
a :class:`~repro.session.ReproConfig`, and :meth:`ExperimentSpec.to_config`
is the bridge.  All execution goes through
:class:`~repro.session.Session` — the runner performs no engine/executor
wiring of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.apps import make_benchmark
from repro.apps.base import BenchmarkApp, WorkloadScale
from repro.common.config import ATMConfig, RuntimeConfig, SimulationConfig
from repro.common.exceptions import ConfigurationError, EvaluationError
from repro.runtime.trace import TraceRecorder
from repro.session import ReproConfig, Session

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "run_benchmark",
    "run_reference",
    "clear_reference_cache",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark execution under one ATM configuration.

    A flat, hashable view over :class:`~repro.session.ReproConfig` plus the
    experiment coordinates (benchmark, scale, seed); figure generators sweep these
    specs and :func:`run_benchmark` lowers each one to a Session run.
    """

    benchmark: str
    scale: str = "small"
    mode: str = "none"              # any registered policy name
    p: Optional[float] = None        # required for fixed_p
    cores: int = 8
    use_ikt: bool = True
    tht_bucket_bits: int = 8
    tht_bucket_capacity: int = 128
    executor: str = "simulated"      # any registered executor name
    enable_tracing: bool = False
    seed: int = 2017

    def atm_enabled(self) -> bool:
        return self.mode != "none"

    def to_config(self) -> ReproConfig:
        """Lower this spec to the unified Session config tree."""
        if self.mode == "fixed_p" and self.p is None:
            raise EvaluationError("fixed_p experiments require an explicit p")
        try:
            return ReproConfig(
                runtime=RuntimeConfig(
                    num_threads=self.cores,
                    executor=self.executor,
                    enable_tracing=self.enable_tracing,
                ),
                atm=ATMConfig(
                    mode=self.mode,
                    p=self.p if self.p is not None else 1.0,
                    use_ikt=self.use_ikt,
                    tht_bucket_bits=self.tht_bucket_bits,
                    tht_bucket_capacity=self.tht_bucket_capacity,
                ),
                simulation=SimulationConfig(),
            )
        except ConfigurationError as exc:
            raise EvaluationError(f"invalid experiment spec: {exc}") from exc

    @classmethod
    def from_config(
        cls, config: ReproConfig, benchmark: str, scale: str = "small", **extra
    ) -> "ExperimentSpec":
        """Project a Session config tree back onto the flat spec view.

        Inverse of :meth:`to_config` up to ``p``-canonicalisation: the tree
        stores the effective sampling fraction, so ``p`` is reconstructed
        only for ``fixed_p`` specs (the other modes ignore it and keep the
        spec default ``None``).
        """
        return cls(
            benchmark=benchmark,
            scale=scale,
            mode=config.atm.mode,
            p=config.atm.p if config.atm.mode == "fixed_p" else None,
            cores=config.runtime.num_threads,
            use_ikt=config.atm.use_ikt,
            tht_bucket_bits=config.atm.tht_bucket_bits,
            tht_bucket_capacity=config.atm.tht_bucket_capacity,
            executor=config.runtime.executor,
            enable_tracing=config.runtime.enable_tracing,
            **extra,
        )


@dataclass
class ExperimentResult:
    """Measured outcome of one experiment."""

    spec: ExperimentSpec
    elapsed: float
    time_unit: str
    output: np.ndarray
    correctness: float
    relative_error: float
    tasks_completed: int
    tasks_executed: int
    tasks_memoized: int
    tasks_deferred: int
    reuse_percent: float
    memoized_type_reuse_percent: float
    chosen_p: Optional[float]
    atm_stats: dict = field(default_factory=dict)
    memory_overhead_percent: float = 0.0
    trace: Optional[TraceRecorder] = None
    baseline_elapsed: Optional[float] = None
    app: Optional[BenchmarkApp] = None

    @property
    def speedup(self) -> float:
        """Speedup vs the cached no-ATM baseline at the same core count."""
        if not self.baseline_elapsed or self.elapsed <= 0:
            return 1.0
        return self.baseline_elapsed / self.elapsed


# Reference (no-ATM) runs are cached per (benchmark, scale, cores, executor,
# seed) so figure generators do not repeat them for every configuration.
_REFERENCE_CACHE: dict[tuple, tuple[np.ndarray, float]] = {}


def clear_reference_cache() -> None:
    _REFERENCE_CACHE.clear()


def run_reference(
    benchmark: str,
    scale: str = "small",
    cores: int = 8,
    executor: str = "simulated",
    seed: int = 2017,
) -> tuple[np.ndarray, float]:
    """Run (or fetch from cache) the no-ATM baseline for a configuration.

    Returns ``(reference_output, baseline_elapsed)``.
    """
    key = (benchmark, scale, cores, executor, seed)
    if key not in _REFERENCE_CACHE:
        spec = ExperimentSpec(
            benchmark=benchmark, scale=scale, mode="none", cores=cores,
            executor=executor, seed=seed,
        )
        result = _run(spec, reference=None)
        _REFERENCE_CACHE[key] = (result.output, result.elapsed)
    return _REFERENCE_CACHE[key]


def run_benchmark(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment, resolving its baseline reference automatically."""
    reference = run_reference(
        spec.benchmark, spec.scale, spec.cores, spec.executor, spec.seed
    )
    return _run(spec, reference=reference)


def _run(
    spec: ExperimentSpec,
    reference: Optional[tuple[np.ndarray, float]],
) -> ExperimentResult:
    app = make_benchmark(spec.benchmark, scale=WorkloadScale.coerce(spec.scale), seed=spec.seed)
    with Session(spec.to_config()) as session:
        app.run(session)
        run_result = session.result
    engine = session.engine
    output = app.output()

    if reference is None:
        correctness = 100.0
        relative_error = 0.0
        baseline_elapsed = None
    else:
        reference_output, baseline_elapsed = reference
        correctness = app.correctness(reference_output)
        relative_error = app.relative_error(reference_output)

    chosen_p: Optional[float] = None
    stats_snapshot: dict = {}
    memoized_type_reuse = 0.0
    memory_overhead = 0.0
    if engine is not None:
        stats_snapshot = engine.stats.snapshot()
        chosen_p = engine.policy.chosen_p(app.info.memoized_task_type)
        type_seen = (
            stats_snapshot["per_type"]
            .get(app.info.memoized_task_type, {})
            .get("seen", 0)
        )
        if type_seen:
            memoized_type_reuse = 100.0 * stats_snapshot["memoized_tasks"] / type_seen
        memory_overhead = engine.memory_overhead_percent(app.application_bytes())

    return ExperimentResult(
        spec=spec,
        elapsed=run_result.elapsed,
        time_unit=run_result.time_unit,
        output=output,
        correctness=correctness,
        relative_error=relative_error,
        tasks_completed=run_result.tasks_completed,
        tasks_executed=run_result.tasks_executed,
        tasks_memoized=run_result.tasks_memoized,
        tasks_deferred=run_result.tasks_deferred,
        reuse_percent=100.0 * run_result.reuse_fraction,
        memoized_type_reuse_percent=memoized_type_reuse,
        chosen_p=chosen_p,
        atm_stats=stats_snapshot,
        memory_overhead_percent=memory_overhead,
        trace=run_result.trace if spec.enable_tracing else None,
        baseline_elapsed=reference[1] if reference else None,
        app=app,
    )


def geometric_mean(values: list[float]) -> float:
    """Geometric mean used for the ``geomean`` column of Figures 3, 4 and 6."""
    arr = np.asarray([v for v in values if v > 0], dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(arr))))

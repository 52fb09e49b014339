"""Oracle configurations (paper Figures 3-6).

The paper's Oracle (100 %) and Oracle (95 %) bars are obtained with offline
profiling: for each benchmark, the smallest constant sampling fraction ``p``
that keeps the final program correctness at 100 % (respectively >= 95 %) is
selected, and the benchmark is re-run with that fixed ``p``.

:func:`find_oracle` reproduces this sweep over the paper's 16-step ladder
``p = 2^-15, 2^-14, ..., 1`` (Section III-D), returning the chosen ``p`` and
the corresponding run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.config import P_LADDER
from repro.evaluation.runner import ExperimentResult, ExperimentSpec, run_benchmark

__all__ = ["find_oracle"]


@dataclass
class OracleResult:
    """Outcome of the offline oracle sweep for one benchmark."""

    benchmark: str
    min_correctness: float
    chosen_p: float
    result: ExperimentResult
    sweep: list[tuple[float, float]]  # (p, correctness) pairs explored

    @property
    def speedup(self) -> float:
        return self.result.speedup

    @property
    def correctness(self) -> float:
        return self.result.correctness


def find_oracle(
    benchmark: str,
    min_correctness: float = 95.0,
    scale: str = "small",
    cores: int = 8,
    use_ikt: bool = True,
    seed: int = 2017,
    ladder: Optional[tuple[float, ...]] = None,
) -> OracleResult:
    """Offline profiling sweep: smallest ``p`` meeting ``min_correctness``.

    The sweep walks the ladder from the smallest fraction upwards and stops
    at the first configuration whose final correctness meets the target,
    exactly like the paper's offline profiling; ``p = 1`` always satisfies
    100 % correctness, so the sweep always terminates with a valid result.
    """
    explored: list[tuple[float, float]] = []
    chosen: Optional[ExperimentResult] = None
    chosen_p = 1.0
    for p in ladder or P_LADDER:
        spec = ExperimentSpec(
            benchmark=benchmark,
            scale=scale,
            mode="fixed_p",
            p=p,
            cores=cores,
            use_ikt=use_ikt,
            seed=seed,
        )
        result = run_benchmark(spec)
        explored.append((p, result.correctness))
        if result.correctness >= min_correctness:
            chosen = result
            chosen_p = p
            break
    if chosen is None:  # pragma: no cover - p=1.0 always reaches 100 %
        chosen_p = 1.0
        chosen = run_benchmark(
            ExperimentSpec(
                benchmark=benchmark, scale=scale, mode="fixed_p", p=1.0,
                cores=cores, use_ikt=use_ikt, seed=seed,
            )
        )
    return OracleResult(
        benchmark=benchmark,
        min_correctness=min_correctness,
        chosen_p=chosen_p,
        result=chosen,
        sweep=explored,
    )

"""Execution tracing.

The paper analyses ATM behaviour with Paraver traces (Figures 7 and 8): one
timeline per core, coloured by thread state (task execution, ATM hash-key
computation, ATM memoization copy, task creation, idle), plus a timeline of
the number of ready tasks in the runtime (Figure 8b/8d).

The :class:`TraceRecorder` collects the same information from either executor:
state intervals ``(core, state, t_start, t_end, task_label)`` and ready-queue
depth samples ``(t, depth)``.  Helper methods aggregate per-state time and
render a coarse ASCII timeline so the figures can be inspected in a terminal.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

__all__ = ["CoreState", "TraceRecorder", "render_ascii_trace"]


class CoreState(enum.Enum):
    """Per-core states, matching the legend of Figures 7 and 8."""

    IDLE = "idle"
    TASK_EXECUTION = "task_execution"
    TASK_CREATION = "task_creation"
    ATM_HASH = "atm_hash"
    ATM_MEMOIZATION = "atm_memoization"
    RUNTIME_OVERHEAD = "runtime_overhead"


@dataclass(frozen=True)
class StateInterval:
    """One coloured segment of a core timeline."""

    core: int
    state: CoreState
    start: float
    end: float
    task_label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceRecorder:
    """Thread-safe collector of state intervals and ready-queue samples."""

    enabled: bool = True
    intervals: list[StateInterval] = field(default_factory=list)
    ready_samples: list[tuple[float, int]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(
        self,
        core: int,
        state: CoreState,
        start: float,
        end: float,
        task_label: str = "",
    ) -> None:
        if not self.enabled or end <= start:
            return
        with self._lock:
            self.intervals.append(StateInterval(core, state, start, end, task_label))

    def sample_ready(self, time: float, depth: int) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.ready_samples.append((time, depth))

    # -- aggregation ----------------------------------------------------------
    def cores(self) -> list[int]:
        with self._lock:
            return sorted({interval.core for interval in self.intervals})

    def span(self) -> tuple[float, float]:
        """Earliest start and latest end across all intervals."""
        with self._lock:
            if not self.intervals:
                return (0.0, 0.0)
            return (
                min(i.start for i in self.intervals),
                max(i.end for i in self.intervals),
            )

    def mean_state_duration(self, state: CoreState) -> float:
        """Mean duration of intervals of one state (used for Fig. 7 analysis)."""
        with self._lock:
            matching = [i.duration for i in self.intervals if i.state == state]
        if not matching:
            return 0.0
        return sum(matching) / len(matching)

    def ready_depth_series(self) -> list[tuple[float, int]]:
        with self._lock:
            return sorted(self.ready_samples)

    def max_ready_depth(self) -> int:
        with self._lock:
            if not self.ready_samples:
                return 0
            return max(depth for _, depth in self.ready_samples)

    def clear(self) -> None:
        with self._lock:
            self.intervals.clear()
            self.ready_samples.clear()


_STATE_CHARS = {
    CoreState.IDLE: ".",
    CoreState.TASK_EXECUTION: "T",
    CoreState.TASK_CREATION: "C",
    CoreState.ATM_HASH: "H",
    CoreState.ATM_MEMOIZATION: "M",
    CoreState.RUNTIME_OVERHEAD: "o",
}


def render_ascii_trace(trace: TraceRecorder, width: int = 100) -> str:
    """Render the trace as one text row per core (``T``ask, ``H``ash,
    ``M``emoization copy, ``C``reation, ``.`` idle), like a coarse Paraver
    view.  The dominant state of each time bucket wins the character.
    """
    start, end = trace.span()
    if end <= start:
        return "(empty trace)"
    cores = trace.cores()
    scale = width / (end - start)
    lines = []
    for core in cores:
        occupancy: list[dict[CoreState, float]] = [dict() for _ in range(width)]
        for interval in trace.intervals:
            if interval.core != core:
                continue
            first = int((interval.start - start) * scale)
            last = max(first, min(width - 1, int((interval.end - start) * scale)))
            for bucket in range(first, last + 1):
                occupancy[bucket][interval.state] = (
                    occupancy[bucket].get(interval.state, 0.0) + interval.duration
                )
        chars = []
        for bucket in occupancy:
            if not bucket:
                chars.append(_STATE_CHARS[CoreState.IDLE])
            else:
                dominant = max(bucket.items(), key=lambda kv: kv[1])[0]
                chars.append(_STATE_CHARS[dominant])
        lines.append(f"core {core:2d} |{''.join(chars)}|")
    legend = "legend: T=task H=hash M=memoization-copy C=creation .=idle"
    return "\n".join(lines + [legend])

"""Seeded open-loop traffic generation for the serving gateway.

Serving benchmarks and soak tests need *open-loop* load: request arrival
times are drawn up front from a seeded process (the offered load does not
slow down because the gateway is slow — the property that makes saturation
and fairness measurable), then replayed against a submission surface.

Two arrival processes are provided:

* ``"poisson"`` — independent exponential gaps at ``rate_hz`` (the classic
  open-loop model);
* ``"burst"``  — groups of ``burst_size`` simultaneous arrivals with the
  gaps between groups scaled so the long-run rate is still ``rate_hz``
  (stress for the admission controller's bounded pending pool).

The module also hosts module-level task bodies that the runtime tests
submit to every pool kind — the same rule as :mod:`repro.testing.faults`: the
process/network pools look task functions up by name, so nothing here may
be a closure or a lambda.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.common.exceptions import WorkloadError

__all__ = [
    "SERVED_APPS",
    "Request",
    "arrival_times",
    "make_plan",
    "replay",
    "fill_block",
    "accumulate_block",
]

#: The six evaluated applications (registry names) a traffic plan cycles
#: over.  Kept as literals so importing this module never pulls the apps
#: package into workers that only need the task bodies below.
SERVED_APPS = (
    "blackscholes",
    "gauss-seidel",
    "jacobi",
    "kmeans",
    "lu",
    "swaptions",
)


# -- arrival processes ----------------------------------------------------------
def arrival_times(
    n: int,
    rate_hz: float,
    process: str = "poisson",
    seed: int = 0,
    burst_size: int = 8,
) -> np.ndarray:
    """``n`` seeded arrival offsets (seconds, ascending, starting near 0)."""
    if n < 0:
        raise WorkloadError(f"n must be >= 0, got {n}")
    if rate_hz <= 0:
        raise WorkloadError(f"rate_hz must be > 0, got {rate_hz}")
    rng = np.random.default_rng(seed)
    if process == "poisson":
        gaps = rng.exponential(scale=1.0 / rate_hz, size=n)
        return np.cumsum(gaps)
    if process == "burst":
        if burst_size < 1:
            raise WorkloadError(f"burst_size must be >= 1, got {burst_size}")
        n_groups = (n + burst_size - 1) // burst_size
        group_gaps = rng.exponential(scale=burst_size / rate_hz, size=n_groups)
        group_at = np.cumsum(group_gaps)
        return np.repeat(group_at, burst_size)[:n]
    raise WorkloadError(
        f"unknown arrival process {process!r} (use 'poisson' or 'burst')"
    )


@dataclass(frozen=True)
class Request:
    """One planned submission: when, which app, and its workload seed."""

    at_s: float
    app: str
    seed: int


def make_plan(
    n: int,
    rate_hz: float,
    process: str = "poisson",
    seed: int = 0,
    apps: Sequence[str] = SERVED_APPS,
    burst_size: int = 8,
) -> list[Request]:
    """A seeded open-loop plan cycling round-robin over ``apps``.

    Per-request workload seeds are derived from the plan seed, so two plans
    with the same arguments are byte-identical — the bench's reproducibility
    contract.
    """
    if not apps:
        raise WorkloadError("apps must be non-empty")
    offsets = arrival_times(
        n, rate_hz, process=process, seed=seed, burst_size=burst_size
    )
    return [
        Request(
            at_s=float(offsets[i]),
            app=apps[i % len(apps)],
            seed=seed * 1_000_003 + i,
        )
        for i in range(n)
    ]


def replay(
    plan: Sequence[Request],
    dispatch: Callable[[Request], None],
    speed: float = 1.0,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> list[float]:
    """Open-loop replay: dispatch each request at its planned offset.

    Sleeps until each arrival time (scaled by ``1/speed``) and calls
    ``dispatch(request)``; a slow dispatcher makes subsequent requests
    *late*, never *fewer* — that is the open-loop property.  Returns the
    actual dispatch offsets for lateness diagnostics.
    """
    if speed <= 0:
        raise WorkloadError(f"speed must be > 0, got {speed}")
    t0 = clock()
    dispatched: list[float] = []
    for request in plan:
        target = request.at_s / speed
        delay = target - (clock() - t0)
        if delay > 0:
            sleep(delay)
        dispatch(request)
        dispatched.append(clock() - t0)
    return dispatched


# -- task bodies (module-level: they travel by name) ----------------------------
def fill_block(out: np.ndarray, value: float) -> None:
    """out = value (wave-1 body of the submit-while-draining tests)."""
    out[:] = value


def accumulate_block(src: np.ndarray, acc: np.ndarray) -> None:
    """acc += src (wave-2 body: depends on wave 1 through src)."""
    acc += src

#!/usr/bin/env python
"""How far each reused output is from the one its task would have computed.

    python scripts/reuse_error.py [--scale small] [--seed 2017]

Runs jacobi under dynamic ATM on the serial backend.  In this process it
wraps ``repro.atm.engine.copy_outputs_from_entry``, the one place THT
outputs reach task regions: before the copy it snapshots the task's
written regions, runs ``task.run()`` and keeps the executed bytes, then
restores the snapshot and copies as before.  The program therefore computes
what it computes unprobed, and every reuse is paired with the output its
task would have executed.

Per sweep it prints the number of reuses, the max and median Chebyshev
relative error (paper Eq. 1) of the copied output against the executed
one, and how many reuses exceed ``tau_max``; the last line is the program's Euclidean relative error against an
ATM-off run, the figure ``tau_max`` bounds.  No runtime code changes.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from unittest import mock

import numpy as np

from repro.apps.registry import make_benchmark
from repro.atm import engine as atm_engine
from repro.common.error_metrics import chebyshev_relative_error
from repro.evaluation.runner import ExperimentSpec
from repro.session import Session

BENCHMARK = "jacobi"


def run(scale: str, seed: int, mode: str, probe: bool = False):
    """Run jacobi once on serial; returns ``(app, result, per-sweep errors)``.

    With ``probe`` each THT reuse appends its Chebyshev error to the list
    of the sweep (the ``wait_all`` barrier) it happened in.
    """
    app = make_benchmark(BENCHMARK, scale=scale, seed=seed)
    spec = ExperimentSpec(benchmark=BENCHMARK, scale=scale, mode=mode, cores=1,
                          executor="serial", seed=seed)
    sweeps: list[list[float]] = [[]]
    copy = atm_engine.copy_outputs_from_entry

    def probed_copy(task, entry):
        written = [access.region.array for access in task.accesses if access.writes]
        before = [array.copy() for array in written]
        task.run()
        executed = [output.region.array.copy() for output in task.outputs]
        for array, saved in zip(written, before):
            array[...] = saved
        sweeps[-1].append(max(
            chebyshev_relative_error(ran, stored)
            for ran, stored in zip(executed, entry.outputs)
        ))
        return copy(task, entry)

    with Session(spec.to_config()) as session:
        barrier = session.wait_all

        def counted_barrier():
            result = barrier()
            sweeps.append([])
            return result

        session.wait_all = counted_barrier
        with (mock.patch.object(atm_engine, "copy_outputs_from_entry", probed_copy)
              if probe else contextlib.nullcontext()):
            app.run(session)
    return app, session.result, sweeps[: app.iterations]


def report(scale: str = "small", seed: int = 2017) -> list[str]:
    """The probe's table as text lines."""
    reference, _, _ = run(scale, seed, "none")
    app, _, sweeps = run(scale, seed, "dynamic", probe=True)
    lines = [
        f"{BENCHMARK} {scale}, dynamic ATM, serial, seed {seed} "
        f"(tau_max {app.info.tau_max})",
        f"{'sweep':>5} {'reuses':>7} {'max_err':>10} {'median_err':>10} {'over_tau':>8}",
    ]
    for index, errors in enumerate(sweeps, start=1):
        if errors:
            worst, median = f"{max(errors):.2e}", f"{float(np.median(errors)):.2e}"
        else:
            worst = median = "-"
        over = sum(error > app.info.tau_max for error in errors)
        lines.append(f"{index:>5} {len(errors):>7} {worst:>10} {median:>10} {over:>8}")
    error = app.relative_error(reference.output())
    lines.append(f"program: {sum(map(len, sweeps))} reuses, "
                 f"relative error {error:.2e}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="small")
    parser.add_argument("--seed", type=int, default=2017)
    args = parser.parse_args(argv)
    print("\n".join(report(args.scale, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

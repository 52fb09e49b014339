#!/usr/bin/env python3
"""Quickstart: memoize your own tasks with ATM through the Session API.

This example builds a tiny task-parallel program with the public API:

1. open a :class:`repro.session.Session` from a declarative
   :class:`repro.session.ReproConfig` (backend and ATM policy are selected
   by registry name — no engine/executor wiring);
2. declare a task type with ``@s.task`` and ``In``/``Out`` parameter
   annotations (the Python analogue of OmpSs pragma clauses);
3. run it once without ATM and once with Static ATM on the discrete-event
   multicore simulator;
4. print the reuse the Task History Table found and the resulting speedup.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import numpy as np

from repro.session import In, Out, ReproConfig, Session

#: One declarative config tree describes the whole run; ``atm.mode`` is
#: swapped between "none" and "static" below.  The same tree could come from
#: a TOML/JSON file (ReproConfig.from_file); environment overrides are
#: layered on top below, so e.g.
#: ``REPRO_RUNTIME_EXECUTOR=network python examples/quickstart.py`` runs the
#: identical program on network loopback workers — backend selection is pure
#: configuration (DESIGN.md §6).
BASE_CONFIG = {
    "runtime": {"executor": "simulated", "num_threads": 8},
    "atm": {"mode": "none"},
}


# The task body lives at module level: the process/network backends ship
# functions by (module, qualname), not by value.  ``@s.task`` binds it to a concrete session inside run().
def matvec(matrix: In, vector: In, result: Out) -> None:
    result[:] = matrix @ vector


def make_workload(n_tasks: int = 64, n_unique: int = 8, size: int = 128):
    """An intentionally redundant workload: many identical (matrix, vector)
    pairs — exactly the situation ATM exploits."""
    rng = np.random.default_rng(0)
    unique_matrices = [rng.standard_normal((size, size)) for _ in range(n_unique)]
    unique_vectors = [rng.standard_normal(size) for _ in range(n_unique)]
    matrices = [unique_matrices[i % n_unique] for i in range(n_tasks)]
    vectors = [unique_vectors[i % n_unique] for i in range(n_tasks)]
    results = [np.zeros(size) for _ in range(n_tasks)]
    return matrices, vectors, results


def run(mode: str):
    """Run the program under one ATM mode; return (time, results, session)."""
    matrices, vectors, results = make_workload()
    # Environment variables override the base tree (REPRO_RUNTIME_EXECUTOR,
    # REPRO_RUNTIME_NET_ENDPOINTS, ...): any registered backend is reachable
    # without touching this file.  The mode comparison below stays in code.
    config = ReproConfig.from_env(
        base=ReproConfig.from_dict(BASE_CONFIG)
    ).with_overrides(atm={"mode": mode})
    with Session(config) as s:
        # One annotated function = one task type.  `memoizable=True` is the
        # opt-in the paper requires from the programmer (Section III-E); the
        # In/Out annotations replace a separate accesses lambda.
        submit_matvec = s.task(
            memoizable=True, cost_model=lambda task: 0.01 * task.input_bytes
        )(matvec)

        # Batched submission: every call inside the block is buffered and
        # handed to the dependence graph in one batch (one lock acquisition,
        # one ready-queue handoff) — the fast path for iterative apps that
        # submit a whole sweep at a time (PERFORMANCE.md "Submission fast
        # path").  Dependences and results are identical to per-call submits.
        with s.batch():
            for matrix, vector, result in zip(matrices, vectors, results):
                submit_matvec(matrix, vector, result)
    return s.result.elapsed, results, s


def main() -> None:
    baseline_time, baseline_results, baseline_session = run(mode="none")
    atm_time, atm_results, session = run(mode="static")

    assert all(np.allclose(a, b) for a, b in zip(baseline_results, atm_results)), \
        "Static ATM must never change results"

    stats = session.stats
    unit = baseline_session.result.time_unit  # "us" simulated, "s" wall-clock
    print("Quickstart: task memoization with ATM")
    print(f"  backend                    : {session.config.runtime.executor}")
    print(f"  time without ATM           : {baseline_time:10.4g} {unit}")
    print(f"  time with ATM              : {atm_time:10.4g} {unit}")
    print(f"  speedup                    : {baseline_time / atm_time:10.2f}x")
    print(f"  tasks seen                 : {stats['tasks_seen']:10d}")
    print(f"  THT hits                   : {stats['tht_hits']:10d}")
    print(f"  IKT (in-flight) hits       : {stats['ikt_hits']:10d}")
    print(f"  reuse                      : {session.engine.stats.reuse_percentage():10.1f} %")
    print("  results identical to the non-memoized run: yes")


if __name__ == "__main__":
    main()

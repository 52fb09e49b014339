"""A pool run is a function of its configuration, at the ``small`` scale.

Dynamic ATM on two workers with chunks of eight — threads, processes or
network endpoints: tasks retire in dispatch order and a training task is
looked up as it retires, so three runs of one program give one output and
one count tuple, whichever worker answers first.  Jacobi and lu are the two
programs whose process runs once varied (and lu's threaded runs: trained 64,
then 67).  Outside tier-1 (``-m determinism``, ``make determinism``): about
30 s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import make_benchmark
from repro.common.hashing import hash_bytes
from repro.session import ReproConfig, Session

pytestmark = pytest.mark.determinism


def run_small(benchmark: str, executor: str) -> tuple[str, tuple]:
    """One dynamic-ATM run at ``small`` on 2 workers × chunks of 8; returns
    its output checksum and its counts."""
    app = make_benchmark(benchmark, scale="small")
    cfg = ReproConfig().with_overrides(
        runtime={"executor": executor, "num_threads": 2, "mp_chunk_size": 8},
        atm={"mode": "dynamic"},
    )
    with Session(cfg) as session:
        app.run(session)
    result = session.result
    out = np.ascontiguousarray(np.asarray(app.output(), dtype=np.float64))
    return f"{hash_bytes(out):016x}", (
        result.tasks_executed, result.tasks_memoized, result.tasks_deferred,
        result.tasks_trained,
    )


@pytest.mark.parametrize("executor", ["threaded", "process", "network"])
@pytest.mark.parametrize("bench_name", ["jacobi", "lu"])
def test_three_small_runs_give_one_output_and_one_count_tuple(bench_name, executor):
    runs = [run_small(bench_name, executor) for _ in range(3)]
    assert len({checksum for checksum, _ in runs}) == 1, runs
    assert len({counts for _, counts in runs}) == 1, runs

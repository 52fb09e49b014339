"""Tests for the experiment runner and the oracle sweep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.exceptions import EvaluationError
from repro.common.hashing import hash_bytes
from repro.evaluation.oracle import find_oracle
from repro.evaluation.runner import (
    ExperimentSpec,
    clear_reference_cache,
    geometric_mean,
    run_benchmark,
    run_reference,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_reference_cache()
    yield
    clear_reference_cache()


class TestRunner:
    def test_reference_is_cached(self):
        first = run_reference("swaptions", scale="tiny", cores=2)
        second = run_reference("swaptions", scale="tiny", cores=2)
        assert first[1] == second[1]
        assert np.array_equal(first[0], second[0])

    def test_no_atm_run_has_no_stats(self):
        result = run_benchmark(ExperimentSpec(benchmark="swaptions", scale="tiny", mode="none", cores=2))
        assert result.atm_stats == {}
        assert result.speedup == pytest.approx(1.0, rel=0.02)

    def test_static_run_reports_speedup_and_correctness(self):
        result = run_benchmark(
            ExperimentSpec(benchmark="blackscholes", scale="tiny", mode="static", cores=4)
        )
        assert result.correctness == pytest.approx(100.0)
        assert result.speedup > 1.5
        assert result.tasks_memoized > 0
        assert result.memory_overhead_percent > 0.0

    def test_dynamic_run_reports_chosen_p(self):
        result = run_benchmark(
            ExperimentSpec(benchmark="blackscholes", scale="tiny", mode="dynamic", cores=4)
        )
        assert result.chosen_p is None or 0 < result.chosen_p <= 1.0
        assert "reuse_events" in result.atm_stats

    def test_fixed_p_run(self):
        result = run_benchmark(
            ExperimentSpec(benchmark="swaptions", scale="tiny", mode="fixed_p", p=1.0, cores=2)
        )
        assert result.correctness == pytest.approx(100.0)

    def test_tracing_spec_returns_trace(self):
        result = run_benchmark(
            ExperimentSpec(benchmark="swaptions", scale="tiny", mode="static", cores=2,
                           enable_tracing=True)
        )
        assert result.trace is not None
        assert result.trace.intervals

    def test_serial_executor_spec(self):
        result = run_benchmark(
            ExperimentSpec(benchmark="swaptions", scale="tiny", mode="static", cores=1,
                           executor="serial")
        )
        assert result.time_unit == "s"

    def test_unknown_executor_rejected(self):
        with pytest.raises(EvaluationError):
            run_benchmark(ExperimentSpec(benchmark="swaptions", scale="tiny", executor="gpu"))

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([2.0, 0.0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("spec", [
        ExperimentSpec(benchmark="blackscholes"),
        ExperimentSpec(benchmark="kmeans", scale="tiny", mode="static", cores=2),
        ExperimentSpec(benchmark="swaptions", mode="fixed_p", p=0.25,
                       executor="serial", cores=4, seed=7),
        ExperimentSpec(benchmark="jacobi", mode="dynamic", use_ikt=False,
                       tht_bucket_bits=4, enable_tracing=True),
    ])
    def test_spec_round_trips_through_session_config(self, spec):
        # ExperimentSpec is a thin view over ReproConfig: projecting the
        # lowered tree back must reproduce the spec (p is reconstructed for
        # fixed_p only; the other modes ignore it).  The workload seed is an
        # experiment coordinate, like the benchmark and the scale.
        rebuilt = ExperimentSpec.from_config(
            spec.to_config(), spec.benchmark, spec.scale, seed=spec.seed
        )
        assert rebuilt == spec
        assert hash(rebuilt) == hash(spec)

    @pytest.mark.parametrize("mode", ["none", "static", "dynamic"])
    @pytest.mark.parametrize("app, golden", [
        ("blackscholes", "59d70d86ede6a560"),
        ("kmeans", "e7981aa4a9ac8c0f"),
    ])
    def test_tiny_outputs_keep_their_golden_checksum(self, app, golden, mode):
        # Seed 2017, tiny scale, simulated 8 cores: these outputs have been
        # bit-identical under every ATM mode since the first generation of
        # the repository; a change that moves them changed program semantics.
        result = run_benchmark(ExperimentSpec(
            benchmark=app, scale="tiny", mode=mode, cores=8,
            executor="simulated",
        ))
        output = np.ascontiguousarray(np.asarray(result.output, dtype=np.float64))
        assert f"{hash_bytes(output):016x}" == golden
        if mode == "none":
            # ATM-off runs must never pay key-cache costs.
            assert (result.atm_stats or {}).get("key_cache_hits", 0) == 0

    def test_fixed_p_without_p_rejected(self):
        with pytest.raises(EvaluationError, match="explicit p"):
            ExperimentSpec(benchmark="swaptions", mode="fixed_p").to_config()


class TestOracle:
    def test_oracle_meets_correctness_target(self):
        oracle = find_oracle("blackscholes", min_correctness=95.0, scale="tiny", cores=4)
        assert oracle.correctness >= 95.0
        assert 0 < oracle.chosen_p <= 1.0
        assert oracle.sweep[-1][0] == oracle.chosen_p

    def test_oracle_100_is_at_least_as_conservative_as_95(self):
        o95 = find_oracle("blackscholes", min_correctness=95.0, scale="tiny", cores=4)
        o100 = find_oracle("blackscholes", min_correctness=100.0, scale="tiny", cores=4)
        assert o100.chosen_p >= o95.chosen_p
        assert o100.correctness == pytest.approx(100.0)

    def test_oracle_with_restricted_ladder(self):
        oracle = find_oracle(
            "swaptions", min_correctness=95.0, scale="tiny", cores=2, ladder=(0.5, 1.0)
        )
        assert oracle.chosen_p in (0.5, 1.0)

"""Tests for configuration objects."""

from __future__ import annotations

import pytest

from repro.common.config import ATMConfig, MIN_P, P_LADDER, RuntimeConfig, SimulationConfig
from repro.common.exceptions import ConfigurationError


class TestPLadder:
    def test_has_16_steps(self):
        assert len(P_LADDER) == 16

    def test_starts_at_2_pow_minus_15(self):
        assert P_LADDER[0] == MIN_P == 2.0 ** -15

    def test_ends_at_one(self):
        assert P_LADDER[-1] == 1.0

    def test_each_step_doubles(self):
        for smaller, larger in zip(P_LADDER, P_LADDER[1:]):
            assert larger == pytest.approx(2 * smaller)


class TestATMConfig:
    def test_defaults_valid(self):
        config = ATMConfig()
        assert config.n_buckets == 256

    def test_bucket_bits_bounds(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(tht_bucket_bits=-1)
        with pytest.raises(ConfigurationError):
            ATMConfig(tht_bucket_bits=25)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(tht_bucket_capacity=0)

    def test_p_range(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(p=0.0)
        with pytest.raises(ConfigurationError):
            ATMConfig(p=1.5)

    def test_tau_max_nonnegative(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(tau_max=-0.1)

    def test_l_training_positive(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(l_training=0)

    def test_hash_function_validated(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(hash_function="md5")

    def test_with_overrides_returns_new_validated_copy(self):
        base = ATMConfig()
        derived = base.with_overrides(p=0.5)
        assert derived.p == 0.5
        assert base.p == 1.0
        with pytest.raises(ConfigurationError):
            base.with_overrides(p=-1.0)


class TestRuntimeConfig:
    def test_defaults(self):
        assert RuntimeConfig().num_threads == 8

    def test_thread_count_positive(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(num_threads=0)

    def test_scheduler_validated(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(scheduler="round_robin")

    @pytest.mark.parametrize("section, removed", [
        ("runtime", "max_ready_tasks"),
        ("runtime", "net_timeout_grace_s"),
        ("atm", "key_pipeline"),
    ])
    def test_removed_fields_are_rejected_by_name(self, section, removed):
        # The runtime two had no reader (the grace is
        # supervision.TIMEOUT_GRACE) and there is one key pipeline: a stale
        # config naming them must fail loudly, not be ignored.
        from repro.session import ReproConfig

        with pytest.raises(ConfigurationError, match=removed):
            ReproConfig.from_dict({section: {removed: 1}})

    def test_with_overrides(self):
        assert RuntimeConfig().with_overrides(num_threads=2).num_threads == 2


class TestSimulationConfig:
    def test_defaults_valid(self):
        SimulationConfig()

    @pytest.mark.parametrize("field", ["copy_bandwidth", "hash_bandwidth", "creation_throughput"])
    def test_bandwidths_positive(self, field):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**{field: 0.0})

    @pytest.mark.parametrize(
        "field",
        ["task_overhead", "tht_lookup_overhead", "ikt_lookup_overhead", "memory_contention_factor"],
    )
    def test_overheads_nonnegative(self, field):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**{field: -0.1})

    def test_with_overrides(self):
        assert SimulationConfig().with_overrides(task_overhead=1.5).task_overhead == 1.5

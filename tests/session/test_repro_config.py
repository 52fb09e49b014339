"""Round-trip and validation tests for the unified ReproConfig tree."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    ATMConfig,
    RuntimeConfig,
    ServingConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.session import ReproConfig


class TestDictRoundTrip:
    def test_default_round_trips(self):
        cfg = ReproConfig()
        assert ReproConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_dict_fills_defaults(self):
        cfg = ReproConfig.from_dict({"runtime": {"num_threads": 3}})
        assert cfg.runtime.num_threads == 3
        assert cfg.atm == ATMConfig()
        assert cfg.simulation == SimulationConfig()

    def test_unknown_section_raises(self):
        with pytest.raises(ConfigurationError, match="scheduler_pool"):
            ReproConfig.from_dict({"scheduler_pool": {}})

    def test_unknown_field_names_the_field(self):
        with pytest.raises(ConfigurationError, match=r"runtime\.num_thread"):
            ReproConfig.from_dict({"runtime": {"num_thread": 4}})
        with pytest.raises(ConfigurationError, match=r"atm\.bucket_bits"):
            ReproConfig.from_dict({"atm": {"bucket_bits": 4}})
        with pytest.raises(ConfigurationError, match=r"simulation\.bandwidth"):
            ReproConfig.from_dict({"simulation": {"bandwidth": 1.0}})

    def test_invalid_value_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="num_threads"):
            ReproConfig.from_dict({"runtime": {"num_threads": 0}})
        with pytest.raises(ConfigurationError, match="executor"):
            ReproConfig.from_dict({"runtime": {"executor": "gpu"}})
        with pytest.raises(ConfigurationError, match="mode"):
            ReproConfig.from_dict({"atm": {"mode": "telepathic"}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            ReproConfig.from_dict([("runtime", {})])
        with pytest.raises(ConfigurationError, match="runtime"):
            ReproConfig.from_dict({"runtime": 7})


# Strategies drawing random *valid* leaf configs for the property tests.
runtime_configs = st.builds(
    RuntimeConfig,
    num_threads=st.integers(min_value=1, max_value=64),
    executor=st.sampled_from(["serial", "threaded", "process", "simulated"]),
    enable_tracing=st.booleans(),
    mp_chunk_size=st.integers(min_value=1, max_value=64),
    net_endpoints=st.sampled_from(
        ["loopback", "loopback:3", "127.0.0.1:9101", "a:1,b:2,c:3"]
    ),
    net_timeout_s=st.floats(min_value=0.001, max_value=600.0, allow_nan=False),
    net_max_retries=st.integers(min_value=0, max_value=16),
    net_residency=st.booleans(),
    task_timeout_s=st.none() | st.floats(min_value=0.001, max_value=600.0, allow_nan=False),
    task_max_retries=st.integers(min_value=0, max_value=16),
    retry_backoff_s=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    drain_timeout_s=st.floats(min_value=0.001, max_value=3600.0, allow_nan=False),
    on_task_failure=st.sampled_from(["abort", "quarantine"]),
)

atm_configs = st.builds(
    ATMConfig,
    mode=st.sampled_from(["none", "static", "dynamic", "fixed_p"]),
    tht_bucket_bits=st.integers(min_value=0, max_value=24),
    tht_bucket_capacity=st.integers(min_value=1, max_value=256),
    use_ikt=st.booleans(),
    p=st.sampled_from([2.0 ** -15, 2.0 ** -8, 0.25, 0.5, 1.0]),
    tau_max=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    l_training=st.integers(min_value=1, max_value=100),
    type_aware=st.booleans(),
    hash_function=st.sampled_from(["numpy", "lookup3", "one_at_a_time"]),
    hash_seed=st.integers(min_value=0, max_value=2**32 - 1),
    key_cache_budget_bytes=st.integers(min_value=0, max_value=1 << 30),
    shuffle_cache_entries=st.integers(min_value=1, max_value=4096),
)

simulation_configs = st.builds(
    SimulationConfig,
    copy_bandwidth=st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
    hash_bandwidth=st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
    task_overhead=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    creation_throughput=st.floats(min_value=0.001, max_value=1e4, allow_nan=False),
    memory_contention_factor=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)

repro_configs = st.builds(
    ReproConfig,
    runtime=runtime_configs,
    atm=atm_configs,
    simulation=simulation_configs,
)


class TestPropertyRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(cfg=repro_configs)
    def test_dict_round_trip(self, cfg):
        assert ReproConfig.from_dict(cfg.to_dict()) == cfg

    @settings(max_examples=40, deadline=None)
    @given(cfg=repro_configs)
    def test_env_round_trip(self, cfg):
        assert ReproConfig.from_env(cfg.to_env()) == cfg

    @settings(max_examples=25, deadline=None)
    @given(cfg=repro_configs)
    def test_file_round_trip(self, cfg, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("cfg")
        for suffix in ("toml", "json"):
            path = tmp_path / f"cfg.{suffix}"
            cfg.to_file(path)
            assert ReproConfig.from_file(path) == cfg


class TestFileRoundTrip:
    @pytest.mark.parametrize("suffix", ["toml", "json"])
    def test_non_default_round_trips(self, tmp_path, suffix):
        cfg = ReproConfig.from_dict({
            "runtime": {"executor": "network", "num_threads": 5,
                        "net_endpoints": "10.0.0.1:9101,10.0.0.2:9101",
                        "net_timeout_s": 2.5, "net_max_retries": 5},
            "atm": {"mode": "dynamic", "p": 0.25, "hash_function": "lookup3"},
            "simulation": {"copy_bandwidth": 123.5},
        })
        path = tmp_path / f"run.{suffix}"
        cfg.to_file(path)
        assert ReproConfig.from_file(path) == cfg

    def test_unknown_suffix_rejected(self, tmp_path):
        cfg = ReproConfig()
        with pytest.raises(ConfigurationError, match="yaml"):
            cfg.to_file(tmp_path / "run.yaml")
        (tmp_path / "run.yaml").write_text("{}")
        with pytest.raises(ConfigurationError, match="yaml"):
            ReproConfig.from_file(tmp_path / "run.yaml")

    def test_invalid_toml_reports_path(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("[runtime\nnum_threads = 2")
        with pytest.raises(ConfigurationError, match="broken.toml"):
            ReproConfig.from_file(path)

    def test_unknown_field_in_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"runtime": {"threads": 2}}')
        with pytest.raises(ConfigurationError, match=r"runtime\.threads"):
            ReproConfig.from_file(path)


class TestSupervisionKnobs:
    """The PR-6 supervision knobs flow through every exchange format."""

    KNOBS = {
        "task_timeout_s": 1.5,
        "task_max_retries": 3,
        "retry_backoff_s": 0.25,
        "drain_timeout_s": 42.0,
        "on_task_failure": "quarantine",
    }

    @pytest.mark.parametrize("suffix", ["toml", "json"])
    def test_file_round_trip(self, tmp_path, suffix):
        cfg = ReproConfig.from_dict({"runtime": dict(self.KNOBS)})
        path = tmp_path / f"run.{suffix}"
        cfg.to_file(path)
        loaded = ReproConfig.from_file(path)
        for name, value in self.KNOBS.items():
            assert getattr(loaded.runtime, name) == value

    def test_env_round_trip_including_disabled_timeout(self):
        cfg = ReproConfig.from_dict({"runtime": dict(self.KNOBS)})
        assert ReproConfig.from_env(cfg.to_env()) == cfg
        # task_timeout_s=None (the default: no per-task budget) survives too.
        assert ReproConfig.from_env(ReproConfig().to_env()) == ReproConfig()
        parsed = ReproConfig.from_env({"REPRO_RUNTIME_TASK_TIMEOUT_S": "none"})
        assert parsed.runtime.task_timeout_s is None

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ConfigurationError, match="task_timeout_s"):
            RuntimeConfig(task_timeout_s=0.0)
        with pytest.raises(ConfigurationError, match="task_max_retries"):
            RuntimeConfig(task_max_retries=-1)
        with pytest.raises(ConfigurationError, match="retry_backoff_s"):
            RuntimeConfig(retry_backoff_s=-0.1)
        with pytest.raises(ConfigurationError, match="drain_timeout_s"):
            RuntimeConfig(drain_timeout_s=0.0)
        with pytest.raises(ConfigurationError, match="on_task_failure"):
            RuntimeConfig(on_task_failure="retry-forever")


class TestResidencyKnobs:
    """The PR-7 network residency knobs flow through every exchange format."""

    KNOBS = {"net_residency": False}

    @pytest.mark.parametrize("suffix", ["toml", "json"])
    def test_file_round_trip(self, tmp_path, suffix):
        cfg = ReproConfig.from_dict({"runtime": dict(self.KNOBS)})
        path = tmp_path / f"run.{suffix}"
        cfg.to_file(path)
        loaded = ReproConfig.from_file(path)
        for name, value in self.KNOBS.items():
            assert getattr(loaded.runtime, name) == value

    def test_dict_and_env_round_trip(self):
        cfg = ReproConfig.from_dict({"runtime": dict(self.KNOBS)})
        assert ReproConfig.from_dict(cfg.to_dict()) == cfg
        assert ReproConfig.from_env(cfg.to_env()) == cfg
        parsed = ReproConfig.from_env({"REPRO_RUNTIME_NET_RESIDENCY": "false"})
        assert parsed.runtime.net_residency is False

    def test_defaults(self):
        cfg = RuntimeConfig()
        assert cfg.net_residency is True


class TestServingConfig:
    """The PR-8 serving-gateway section flows through every exchange format."""

    KNOBS = {
        "host": "0.0.0.0",
        "port": 9201,
        "max_pending": 64,
        "max_tenant_queue": 512,
        "quantum": 16,
        "shared_tht": True,
        "shutdown_grace_s": 2.5,
    }

    @pytest.mark.parametrize("suffix", ["toml", "json"])
    def test_file_round_trip(self, tmp_path, suffix):
        cfg = ReproConfig.from_dict({"serving": dict(self.KNOBS)})
        path = tmp_path / f"serve.{suffix}"
        cfg.to_file(path)
        loaded = ReproConfig.from_file(path)
        for name, value in self.KNOBS.items():
            assert getattr(loaded.serving, name) == value

    def test_dict_and_env_round_trip(self):
        cfg = ReproConfig.from_dict({"serving": dict(self.KNOBS)})
        assert ReproConfig.from_dict(cfg.to_dict()) == cfg
        assert ReproConfig.from_env(cfg.to_env()) == cfg
        parsed = ReproConfig.from_env({
            "REPRO_SERVING_SHARED_THT": "true",
            "REPRO_SERVING_MAX_PENDING": "128",
        })
        assert parsed.serving.shared_tht is True
        assert parsed.serving.max_pending == 128

    def test_defaults(self):
        cfg = ServingConfig()
        assert cfg.host == "127.0.0.1"
        assert cfg.port == 0
        assert cfg.max_pending == 256
        assert cfg.shared_tht is False

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ConfigurationError, match="port"):
            ServingConfig(port=70000)
        with pytest.raises(ConfigurationError, match="max_pending"):
            ServingConfig(max_pending=0)
        with pytest.raises(ConfigurationError, match="max_tenant_queue"):
            ServingConfig(max_tenant_queue=0)
        with pytest.raises(ConfigurationError, match="quantum"):
            ServingConfig(quantum=0)
        with pytest.raises(ConfigurationError, match="host"):
            ServingConfig(host="  ")


class TestEnv:
    def test_reads_prefixed_variables_over_base(self):
        env = {
            "REPRO_RUNTIME_NUM_THREADS": "6",
            "REPRO_RUNTIME_EXECUTOR": "threaded",
            "REPRO_ATM_MODE": "static",
            "REPRO_ATM_USE_IKT": "false",
            "REPRO_SIMULATION_COPY_BANDWIDTH": "99.5",
            "UNRELATED": "ignored",
        }
        cfg = ReproConfig.from_env(env)
        assert cfg.runtime.num_threads == 6
        assert cfg.runtime.executor == "threaded"
        assert cfg.atm.mode == "static"
        assert cfg.atm.use_ikt is False
        assert cfg.simulation.copy_bandwidth == 99.5

    def test_optional_fields_parse_none(self):
        cfg = ReproConfig.from_env({"REPRO_RUNTIME_TASK_TIMEOUT_S": "none"})
        assert cfg.runtime.task_timeout_s is None
        cfg = ReproConfig.from_env({"REPRO_RUNTIME_TASK_TIMEOUT_S": "4"})
        assert cfg.runtime.task_timeout_s == 4.0

    def test_typo_raises_instead_of_silently_ignoring(self):
        with pytest.raises(ConfigurationError, match="NUM_THREAD"):
            ReproConfig.from_env({"REPRO_RUNTIME_NUM_THREAD": "6"})
        with pytest.raises(ConfigurationError, match="RUNTIM"):
            ReproConfig.from_env({"REPRO_RUNTIM_NUM_THREADS": "6"})

    def test_unparsable_value_names_field(self):
        with pytest.raises(ConfigurationError, match=r"runtime\.num_threads"):
            ReproConfig.from_env({"REPRO_RUNTIME_NUM_THREADS": "many"})
        with pytest.raises(ConfigurationError, match=r"atm\.use_ikt"):
            ReproConfig.from_env({"REPRO_ATM_USE_IKT": "maybe"})

    def test_base_config_preserved(self):
        base = ReproConfig.from_dict({"atm": {"mode": "dynamic", "tau_max": 0.2}})
        cfg = ReproConfig.from_env({"REPRO_RUNTIME_NUM_THREADS": "2"}, base=base)
        assert cfg.atm.mode == "dynamic"
        assert cfg.atm.tau_max == 0.2
        assert cfg.runtime.num_threads == 2


class TestOverridesAndCoerce:
    def test_with_overrides(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "simulated"}, atm={"mode": "static"}
        )
        assert cfg.runtime.executor == "simulated"
        assert cfg.atm.mode == "static"
        # original untouched
        assert ReproConfig().runtime.executor == "serial"

    def test_with_overrides_unknown_section(self):
        with pytest.raises(ConfigurationError, match="engine"):
            ReproConfig().with_overrides(engine={"p": 0.5})

    def test_coerce_accepts_config_dict_path_none(self, tmp_path):
        cfg = ReproConfig()
        assert ReproConfig.coerce(cfg) is cfg
        assert ReproConfig.coerce(None) == ReproConfig()
        assert ReproConfig.coerce({"runtime": {"num_threads": 2}}).runtime.num_threads == 2
        path = tmp_path / "c.json"
        cfg.to_file(path)
        assert ReproConfig.coerce(path) == cfg
        assert ReproConfig.coerce(str(path)) == cfg
        with pytest.raises(ConfigurationError):
            ReproConfig.coerce(42)

    def test_sub_configs_still_validate_on_replace(self):
        cfg = ReproConfig()
        with pytest.raises(ConfigurationError):
            dataclasses.replace(cfg.runtime, num_threads=0)

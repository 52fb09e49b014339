"""Shared low-level substrates: hashing, error metrics, dtypes, config, rng."""

from repro.common.hashing import (
    HashKey,
    jenkins_lookup3,
    jenkins_one_at_a_time,
    hash_bytes,
    hash_views,
)
from repro.common.error_metrics import (
    chebyshev_relative_error,
    euclidean_relative_error,
    correctness_percent,
    lu_residual_error,
)
from repro.common.config import ATMConfig, RuntimeConfig, SimulationConfig
from repro.common.dtypes import TypeDescriptor, describe_array, significance_order

__all__ = [
    "HashKey",
    "jenkins_lookup3",
    "jenkins_one_at_a_time",
    "hash_bytes",
    "hash_views",
    "chebyshev_relative_error",
    "euclidean_relative_error",
    "correctness_percent",
    "lu_residual_error",
    "ATMConfig",
    "RuntimeConfig",
    "SimulationConfig",
    "TypeDescriptor",
    "describe_array",
    "significance_order",
]

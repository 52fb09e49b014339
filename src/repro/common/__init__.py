"""Shared low-level substrates: hashing, error metrics, dtypes, config, rng."""

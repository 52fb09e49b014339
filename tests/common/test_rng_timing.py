"""Tests for the deterministic RNG helpers (the timing half of this file left
with ``repro.common.timing``, which nothing read)."""

from __future__ import annotations

from repro.common.rng import derive_seed, generator_for


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        assert 0 <= derive_seed(123, "x", "y") < 2 ** 64


class TestGeneratorFor:
    def test_same_path_same_stream(self):
        a = generator_for(7, "workload").random(5)
        b = generator_for(7, "workload").random(5)
        assert (a == b).all()

    def test_different_paths_differ(self):
        a = generator_for(7, "one").random(5)
        b = generator_for(7, "two").random(5)
        assert not (a == b).all()


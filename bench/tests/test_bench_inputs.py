"""Inputs are a pure function of (sizes, seed)."""

import pytest

from bench.workloads import WORKLOADS, build, input_digest


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOADS[name]
    first = input_digest(build(workload, 7, smoke=True))
    assert first == input_digest(build(workload, 7, smoke=True))
    assert first != input_digest(build(workload, 8, smoke=True))


def test_every_pattern_is_loaded_in_the_first_pass():
    # The executed-task count of memo_hot must not depend on the seed.
    for seed in range(5):
        data = build(WORKLOADS["memo_hot"], seed, smoke=True)
        assert set(data.assign[0]) == set(range(data.sizes["patterns"]))


def test_full_sizes_stay_within_the_resident_budget():
    from bench.workloads import resident_bytes

    for workload in WORKLOADS.values():
        assert resident_bytes(build(workload, 1)) <= 256 << 20, workload.name

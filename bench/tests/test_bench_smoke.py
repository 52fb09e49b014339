"""End to end at --smoke sizes: the whole suite, the contract line, the refusal."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import metrics
from bench.workloads import WORKLOADS

REPO = Path(__file__).resolve().parents[2]
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+$")


def _bench(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "result.json"
    done = _bench("--smoke", "--reps", "1", "--trace", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done, json.loads(out.read_text())


def test_smoke_suite_runs_all_seven_and_verifies(suite):
    done, result = suite
    assert list(result["workloads"]) == list(WORKLOADS)
    assert result["comparable"] is False and "NOT for comparison" in done.stdout
    assert set(result["host"]) >= {"nproc", "machine", "python", "numpy"}
    for name, record in result["workloads"].items():
        assert record["correct"] and record["failed"] == 0, name
        assert record["end_to_end"]["fail_rate"]["median"] == 0.0
        limit = metrics.REL_ERROR_LIMIT.get(name, 0.0)
        assert record["end_to_end"]["rel_error"]["median"] <= limit
        assert record["sizes"] == WORKLOADS[name].smoke


def test_emitted_names_are_exactly_the_declared_ones(suite):
    done, result = suite
    units = {m.name: m.unit for m in metrics.END_TO_END}
    layers = {e["name"]: e["unit"] for e in DECLARED["per_layer"]}
    for name, record in result["workloads"].items():
        expected = {m.name for m in metrics.END_TO_END
                    if m.workloads is None or name in m.workloads}
        assert set(record["end_to_end"]) == expected, name
        for metric, entry in record["end_to_end"].items():
            assert NAME.match(metric) and entry["unit"] == units[metric]
            assert metric in done.stdout
        assert {m: e["unit"] for m, e in record["per_layer"].items()} == layers, name
    # Layers a workload bypasses read exactly 0; the ones it stresses do not.
    hot = result["workloads"]["memo_hot"]["per_layer"]
    assert hot["mp.chunks"]["value"] == 0 and hot["net.chunks"]["value"] == 0
    assert hot["keygen.self_s"]["value"] > 0 and hot["tht.hit_ratio"]["value"] > 0.9
    assert result["workloads"]["memo_cold"]["per_layer"]["tht.evictions"]["value"] > 0
    approx = result["workloads"]["memo_approx"]["per_layer"]
    assert 0 < approx["policy.chosen_p"]["value"] < 1
    assert result["workloads"]["dispatch_process"]["per_layer"]["mp.chunks"]["value"] > 0
    assert result["workloads"]["dispatch_network"]["per_layer"]["residency.hit_ratio"]["value"] > 0
    gateway = result["workloads"]["gateway_tenants"]
    assert gateway["per_layer"]["client.submit_calls"]["value"] > 0
    assert gateway["end_to_end"]["req_p50_ms"]["median"] > 0


def test_contract_line_end_to_end_and_traced():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _bench("--workload", "memo_hot", "--seed", "9", "--seconds", "0.2",
                      "--reps", "1", "--trace", trace, "--smoke")
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [e["name"] for e in DECLARED[section]]
        for entry, declared in zip(line["metrics"].values(), DECLARED[section]):
            assert set(entry) == {"value", "unit"} and entry["unit"] == declared["unit"]
            assert isinstance(entry["value"], (int, float))
        if section == "end_to_end":
            assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_refuses_without_the_system_under_test(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "memo_hot", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""BENCHMARK.json and the metric tables declare the same names, within the
limits the benchmark contract sets."""

import json
import re
from pathlib import Path

from bench import metrics
from bench.layers import TARGETS
from bench.workloads import WORKLOADS

DECLARED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_keys_and_limits():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["bench"]
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    for entry in DECLARED["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in DECLARED["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in DECLARED["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    setup = [e for e in DECLARED["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in DECLARED["end_to_end"])


def test_names_are_well_formed_unique_and_have_units():
    entries = DECLARED["workloads"] + DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")


def test_manifest_matches_the_tables():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in DECLARED["workloads"])
    table = {m.name: m for m in metrics.END_TO_END}
    assert [e["name"] for e in DECLARED["end_to_end"]] == list(metrics.DRIVER_GATED)
    for entry in DECLARED["end_to_end"]:
        declared = table[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            declared.unit, declared.better, declared.bound)
    assert [(e["name"], e["unit"], e["better"]) for e in DECLARED["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in metrics.PER_LAYER]
    # The workload-specific end-to-end metrics ride in per_layer.
    layer_names = {layer.name for layer in metrics.PER_LAYER}
    assert set(table) - set(metrics.DRIVER_GATED) <= layer_names


def test_every_layer_names_what_it_should_move():
    known = set(WORKLOADS) | {"all", "memo_*"}
    for layer in metrics.PER_LAYER:
        assert layer.on in known and layer.moves


def test_traced_seams_resolve():
    import importlib

    for module_name, attribute, *_ in TARGETS:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner)

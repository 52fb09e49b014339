"""``scripts/bench_pair.py``'s summary: the verdict column and the exit rule,
on synthetic runs (no benchmark is run)."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


@pytest.fixture
def bench_pair(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    module = importlib.import_module("bench_pair")
    yield module
    sys.modules.pop("bench_pair", None)
    sys.modules.pop("ref_worktree", None)


def _declared() -> list[dict]:
    with open(SCRIPTS.parent / "BENCHMARK.json") as handle:
        return json.load(handle)["end_to_end"]


def _runs(wall: list[float], rss: float = 60.0) -> list[dict]:
    return [
        {"wall_s": w, "tasks_per_s": 1000.0 / w, "peak_rss_mb": rss, "setup_s": 0.3}
        for w in wall
    ]


def _verdicts(output: str) -> dict[str, str]:
    rows = [line.split() for line in output.splitlines() if line.startswith("  ")]
    return {row[0]: row[-1] for row in rows[1:]}


def test_a_clear_gain_reads_better_and_exits_clean(bench_pair, capsys):
    ref = _runs([0.68, 0.69, 0.70, 0.67, 0.68, 0.71, 0.69, 0.68, 0.70, 0.69])
    new = _runs([0.50, 0.51, 0.50, 0.49, 0.52, 0.50, 0.51, 0.50, 0.49, 0.50])
    assert bench_pair.summarise("w", _declared(), ref, new) == 0
    verdicts = _verdicts(capsys.readouterr().out)
    assert verdicts == {"wall_s": "better", "tasks_per_s": "better",
                        "peak_rss_mb": "same", "setup_s": "same"}


def test_a_regression_reads_worse_and_is_counted(bench_pair, capsys):
    ref = _runs([0.50, 0.51, 0.50, 0.49, 0.52, 0.50], rss=60.0)
    new = _runs([0.50, 0.51, 0.50, 0.49, 0.52, 0.50], rss=70.0)
    assert bench_pair.summarise("w", _declared(), ref, new) == 1
    assert _verdicts(capsys.readouterr().out)["peak_rss_mb"] == "worse"


def test_noise_wider_than_the_bound_reads_unresolved(bench_pair, capsys):
    ref = _runs([0.5, 1.0, 0.4, 1.2, 0.6, 0.9])
    new = _runs([0.8, 1.4, 0.5, 1.6, 0.9, 1.3])
    assert bench_pair.summarise("w", _declared(), ref, new) == 0
    assert _verdicts(capsys.readouterr().out)["wall_s"] == "unresolved"

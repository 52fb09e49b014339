"""``scripts/reuse_error.py`` at ``tiny``: the probe measures every reuse and
leaves the program's bytes as an unprobed run leaves them."""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def test_the_probe_pairs_every_reuse_and_changes_no_output(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    reuse_error = importlib.import_module("reuse_error")
    try:
        app, result, sweeps = reuse_error.run("tiny", 2017, "dynamic", probe=True)
        plain, plain_result, _ = reuse_error.run("tiny", 2017, "dynamic")
    finally:
        sys.modules.pop("reuse_error", None)
    assert len(sweeps) == app.iterations
    errors = [error for sweep in sweeps for error in sweep]
    assert len(errors) == result.tasks_memoized == plain_result.tasks_memoized > 0
    assert all(math.isfinite(error) and error >= 0.0 for error in errors)
    assert np.array_equal(app.output(), plain.output())

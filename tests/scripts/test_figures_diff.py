"""``scripts/figures_diff.py``'s comparison, on given text (no figure is run)."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def test_equal_outputs_diff_to_nothing_and_a_changed_line_is_named(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    figures_diff = importlib.import_module("figures_diff")
    try:
        before = "==== fig3 ====\nblackscholes | 1.60\n"
        assert figures_diff.diff(before, before, "v1") == []
        lines = figures_diff.diff(before, before.replace("1.60", "1.61"), "v1")
        assert lines[:2] == ["--- v1", "+++ tree"]
        assert "-blackscholes | 1.60" in lines and "+blackscholes | 1.61" in lines
    finally:
        sys.modules.pop("figures_diff", None)
        sys.modules.pop("ref_worktree", None)

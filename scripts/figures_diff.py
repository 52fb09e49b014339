#!/usr/bin/env python
"""The paper's figures at a reference commit against the working tree.

    python scripts/figures_diff.py [REF]      (make figures-diff [REF=...])

``REF`` (default ``HEAD~1``) is checked out into a temporary ``git worktree``
and ``python -m repro.evaluation all --scale tiny`` (what ``make figures``
prints) runs there and in the working tree, one after the other.  Prints each side's line count, sha256 and wall time, then a unified
diff of the two outputs; the exit status is 1 when they differ.  Comparing
two checkouts on one host needs no committed digest, which another numpy
build could break; a change that re-baselines the figures on purpose is
expected to differ, so this is a check to run, not a CI gate.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

from ref_worktree import REPO_ROOT, ref_worktree


def figures(tree: Path) -> tuple[str, float]:
    """The text ``python -m repro.evaluation all`` prints in ``tree``, and
    its wall time in seconds."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro.evaluation", "all", "--scale", "tiny"],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"figures_diff: `python -m repro.evaluation all` failed in {tree} "
            f"(exit {done.returncode}):\n{done.stderr[-2000:]}"
        )
    return done.stdout, time.perf_counter() - start


def diff(before: str, after: str, ref: str) -> list[str]:
    """Unified diff lines of the two outputs (none when they are equal)."""
    return list(difflib.unified_diff(
        before.splitlines(), after.splitlines(), fromfile=ref, tofile="tree", lineterm="",
    ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD~1",
                        help="commit, tag or branch to compare against (default HEAD~1)")
    args = parser.parse_args(argv)

    with ref_worktree(args.ref, "figures_diff_") as scratch:
        before, before_s = figures(scratch / "ref")
    after, after_s = figures(REPO_ROOT)
    for side, text, seconds in ((args.ref, before, before_s), ("tree", after, after_s)):
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"{side[:12]:<12} {len(text.splitlines()):>5} lines  sha256 {digest}  {seconds:.1f} s")
    lines = diff(before, after, args.ref)
    print("\n".join(lines) if lines else "no difference")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

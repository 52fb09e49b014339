#!/usr/bin/env python
"""Paired benchmark runs: a reference commit against the working tree.

    python scripts/bench_pair.py REF --workload W [--workload W2] [--pairs N]

What ``bench/README.md`` asks of any change that claims a gain, in one
command: ``REF`` is checked out into a temporary ``git worktree``, then
``python -m bench --workload W`` runs alternately on it and on the working
tree ``N`` times (the side that goes first alternates too, so a slow phase
of the host does not always land on the same side).  Every pair is printed
as it completes; the summary gives, per end-to-end metric of
``BENCHMARK.json``, both medians, the reference's interquartile distance,
the median of the per-pair ratios and how many pairs the working tree won.

A gain may be claimed when the working tree wins at least nine tenths of the
pairs and the medians differ by more than the reference's interquartile
distance; a metric whose own spread exceeds its bound is unresolved, not
unchanged.  Each side runs the ``bench/`` of its own checkout: compare only
commits whose ``bench/`` is identical.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_bench(tree: Path, workload: str, out: Path) -> dict[str, float]:
    """One ``python -m bench --workload W`` in ``tree``; its end-to-end values."""
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--out", str(out)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"bench_pair: `python -m bench --workload {workload}` failed in {tree} "
            f"(exit {done.returncode}):\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if not record["correct"] or record["failed"]:
        raise SystemExit(f"bench_pair: {workload} in {tree}: outputs wrong or operations failed")
    return {name: entry["value"] for name, entry in record["metrics"].items()}


def quartile_distance(values: list[float]) -> float:
    if len(values) < 4:
        return max(values) - min(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(workload: str, metrics: list[dict], ref_runs: list[dict], new_runs: list[dict]) -> None:
    print(f"\n{workload}: {len(ref_runs)} pairs, reference -> working tree")
    print(f"  {'metric':<14}{'ref median':>12}{'ref IQD':>10}{'new median':>12}"
          f"{'median ratio':>14}{'new wins':>10}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        ref = [run[name] for run in ref_runs]
        new = [run[name] for run in new_runs]
        ratios = [n / r for r, n in zip(ref, new) if r]
        wins = sum((n < r) if lower else (n > r) for r, n in zip(ref, new))
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        print(f"  {name:<14}{statistics.median(ref):>12.4g}{quartile_distance(ref):>10.3g}"
              f"{statistics.median(new):>12.4g}{ratio:>14}{wins:>7}/{len(ref)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="commit, tag or branch to compare the working tree against")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of runs per workload (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["end_to_end"]

    scratch = Path(tempfile.mkdtemp(prefix="bench_pair_"))
    ref_tree = scratch / "ref"
    git = ["git", "-C", str(REPO_ROOT)]
    subprocess.run(git + ["worktree", "add", "--detach", str(ref_tree), args.ref], check=True)
    try:
        trees = {"ref": ref_tree, "new": REPO_ROOT}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"ref": [], "new": []}
            for pair in range(args.pairs):
                order = ("ref", "new") if pair % 2 == 0 else ("new", "ref")
                for side in order:
                    runs[side].append(
                        run_bench(trees[side], workload, scratch / f"{side}.json"))
                ref, new = runs["ref"][-1], runs["new"][-1]
                print(f"{workload} pair {pair + 1}/{args.pairs} ({order[0]} first): " + "  ".join(
                    f"{m['name']} {ref[m['name']]:.4g} -> {new[m['name']]:.4g}"
                    for m in metrics), flush=True)
            summarise(workload, metrics, runs["ref"], runs["new"])
    finally:
        subprocess.run(git + ["worktree", "remove", "--force", str(ref_tree)], check=False)
        subprocess.run(git + ["worktree", "prune"], check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Paired benchmark runs: a reference commit against the working tree.

    python scripts/bench_pair.py REF --workload W [--workload W2] [--pairs N]
        [--seed N] [--layers net_wire.encode_s,kernel.busy_s [--trace-pairs 3]]

What ``bench/README.md`` asks of any change that claims a gain, in one
command: ``REF`` is checked out into a temporary ``git worktree``, then
``python -m bench --workload W`` runs alternately on it and on the working
tree ``N`` times (the side that goes first alternates too, so a slow phase
of the host does not always land on the same side); ``--seed`` is forwarded
to both sides, for the second input seed a claimed gain must also hold on.
Every pair is printed as it completes; the summary gives, per end-to-end metric of
``BENCHMARK.json``, both medians, the reference's interquartile distance,
the median of the per-pair ratios, how many pairs the working tree won and
the verdict of ``python -m bench compare`` on the two sides' medians and
spreads (``same``, ``better``, ``worse`` or ``unresolved``); the exit status
is 1 when any metric reads ``worse``.  With ``--layers`` a few more
alternating pairs run afterwards with ``--trace 1`` and the named per-layer
metrics of both sides are printed run by run: the ledger that has to explain
an end-to-end gain.

A gain may be claimed when the working tree wins at least nine tenths of the
pairs and the medians differ by more than the reference's interquartile
distance; a metric whose own spread exceeds its bound is unresolved, not
unchanged.  Each side runs the ``bench/`` of its own checkout: compare only
commits whose ``bench/`` is identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from ref_worktree import REPO_ROOT, ref_worktree

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))  # the verdict rule lives in bench/

from bench import compare, metrics as bench_metrics  # noqa: E402


def run_bench(tree: Path, workload: str, out: Path, trace: bool = False,
              seed: int | None = None) -> dict[str, float]:
    """One ``python -m bench --workload W`` in ``tree``; the metrics it prints
    (end to end, or with ``trace`` the per-layer ledger of a traced run)."""
    command = [sys.executable, "-m", "bench", "--workload", workload, "--out", str(out),
               "--trace", str(int(trace))]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
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


def summarise(workload: str, metrics: list[dict], ref_runs: list[dict],
              new_runs: list[dict]) -> int:
    """Print the summary table; the number of metrics whose verdict is ``worse``."""
    rules = {rule.name: rule for rule in bench_metrics.END_TO_END}
    print(f"\n{workload}: {len(ref_runs)} pairs, reference -> working tree")
    print(f"  {'metric':<14}{'ref median':>12}{'ref IQD':>10}{'new median':>12}"
          f"{'median ratio':>14}{'new wins':>10}  verdict")
    worse = 0
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        ref = [run[name] for run in ref_runs]
        new = [run[name] for run in new_runs]
        ratios = [n / r for r, n in zip(ref, new) if r]
        wins = sum((n < r) if lower else (n > r) for r, n in zip(ref, new))
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        verdict, _ = compare.verdict(
            rules[name],
            {"median": statistics.median(ref), "spread": bench_metrics.spread(ref)},
            {"median": statistics.median(new), "spread": bench_metrics.spread(new)},
        )
        worse += verdict == "worse"
        print(f"  {name:<14}{statistics.median(ref):>12.4g}{quartile_distance(ref):>10.3g}"
              f"{statistics.median(new):>12.4g}{ratio:>14}{wins:>7}/{len(ref)}  {verdict}")
    return worse


def paired_runs(trees: dict[str, Path], workload: str, scratch: Path, pairs: int,
                names: list[str], trace: bool = False,
                seed: int | None = None) -> dict[str, list[dict]]:
    """Alternating runs of both trees (the side that goes first alternates
    too); prints each pair's ``names`` as it completes, returns every run."""
    runs: dict[str, list[dict]] = {"ref": [], "new": []}
    for pair in range(pairs):
        order = ("ref", "new") if pair % 2 == 0 else ("new", "ref")
        for side in order:
            runs[side].append(
                run_bench(trees[side], workload, scratch / f"{side}.json", trace, seed))
        ref, new = runs["ref"][-1], runs["new"][-1]
        print(f"{workload} {'traced ' if trace else ''}pair {pair + 1}/{pairs} "
              f"({order[0]} first): "
              + "  ".join(f"{name} {ref[name]:.4g} -> {new[name]:.4g}" for name in names),
              flush=True)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="commit, tag or branch to compare the working tree against")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of runs per workload (default 10)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed forwarded to `python -m bench --seed` on both "
                             "sides (default: the benchmark's own)")
    parser.add_argument("--layers", default="",
                        help="comma-separated per-layer metrics to print from traced pairs")
    parser.add_argument("--trace-pairs", type=int, default=3,
                        help="traced pairs per workload when --layers is given (default 3)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.trace_pairs < 1:
        parser.error("--pairs and --trace-pairs must be at least 1")
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    metrics = declared["end_to_end"]
    layers = [name for name in args.layers.split(",") if name]
    unknown = set(layers) - {entry["name"] for entry in declared["per_layer"]}
    if unknown:
        parser.error(f"--layers names no per-layer metric of BENCHMARK.json: {sorted(unknown)}")

    worse = 0
    with ref_worktree(args.ref, "bench_pair_") as scratch:
        trees = {"ref": scratch / "ref", "new": REPO_ROOT}
        for workload in args.workload:
            runs = paired_runs(trees, workload, scratch, args.pairs,
                               [metric["name"] for metric in metrics], seed=args.seed)
            worse += summarise(workload, metrics, runs["ref"], runs["new"])
            if layers:
                traced = paired_runs(trees, workload, scratch, args.trace_pairs, layers,
                                     trace=True, seed=args.seed)
                print(f"  {'layer':<28}{'ref median':>12}{'new median':>12}")
                for name in layers:
                    ref, new = (statistics.median(run[name] for run in traced[side])
                                for side in ("ref", "new"))
                    print(f"  {name:<28}{ref:>12.4g}{new:>12.4g}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

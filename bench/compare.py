"""``python -m bench compare A.json B.json``: one verdict per (metric, workload).

A is the base, B the candidate.  A change counts only against the metric's
bound (``bench.metrics.END_TO_END``); where either file's own run-to-run
spread is wider than the change being judged, the verdict is ``unresolved``
rather than ``same`` or ``worse`` — noise is reported as noise.
"""

from __future__ import annotations

import json
import sys

from bench import metrics

__all__ = ["verdict", "compare_files"]

HOST_KEYS = ("nproc", "machine", "python", "numpy")


def verdict(metric: metrics.EndToEnd, base: dict, new: dict) -> tuple[str, float]:
    """``(verdict, change)``: change is relative to the base median, positive
    when the candidate is worse (absolute when the base is 0)."""
    old, cur = base["median"], new["median"]
    worse_by = (cur - old) if metric.better == "lower" else (old - cur)
    scale = abs(old)
    tolerance = max(metric.bound * scale, metric.floor)
    noise = max(base.get("spread", 0.0), new.get("spread", 0.0)) * scale
    change = worse_by / scale if scale else worse_by
    if worse_by > tolerance:
        return ("worse" if worse_by > noise else "unresolved"), change
    if worse_by < -tolerance:
        return ("better" if -worse_by > noise else "unresolved"), change
    return ("same" if noise <= tolerance else "unresolved"), change


def compare_files(path_a: str, path_b: str, force: bool = False) -> int:
    """Print the verdict table; 0 when nothing is worse or unresolved."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    differing = [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]
    if differing and not force:
        print("bench compare: refusing to compare across hosts; these differ: "
              + ", ".join(f"{k} ({a['host'].get(k)} vs {b['host'].get(k)})"
                          for k in differing) + " (--force overrides)", file=sys.stderr)
        return 2
    if not (a.get("comparable") and b.get("comparable")):
        print("bench compare: note: at least one file is a --smoke result; its "
              "numbers are not for comparison", file=sys.stderr)
    print(f"base {path_a} (seed {a['seed']}, {a['reps']} runs, load {a['loadavg_1m']})  "
          f"candidate {path_b} (seed {b['seed']}, {b['reps']} runs, load {b['loadavg_1m']})")
    print(f"{'workload':<18}{'metric':<16}{'verdict':<12}{'change':>10}  "
          f"{'base':>12} -> {'candidate':<12}{'bound':>8}")
    bad = 0
    for name, base_record in a["workloads"].items():
        new_record = b["workloads"].get(name)
        if new_record is None:
            continue
        for metric in metrics.END_TO_END:
            base = base_record["end_to_end"].get(metric.name)
            new = new_record["end_to_end"].get(metric.name)
            if base is None or new is None:
                continue
            result, change = verdict(metric, base, new)
            bad += result in ("worse", "unresolved")
            shown = f"{100 * change:+.1f}%" if base["median"] else f"{change:+.3g}"
            bound = f"{100 * metric.bound:.0f}%" if metric.bound else f"{metric.floor:g}"
            print(f"{name:<18}{metric.name:<16}{result:<12}{shown:>10}  "
                  f"{base['median']:>12.5g} -> {new['median']:<12.5g}{bound:>8}")
        for key in ("checksum", "input_digest", "tasks"):
            if a["seed"] == b["seed"] and base_record.get(key) != new_record.get(key) \
                    and name not in metrics.REL_ERROR_LIMIT:
                bad += 1
                print(f"{name:<18}{key:<16}{'differs':<12}")
    return 1 if bad else 0

#!/usr/bin/env python
"""Perf regression harness CLI.

Runs the microbenchmark suite (keygen, THT probe, dependence analysis,
simulator drain) plus a tiny-scale end-to-end figure run, and writes the
machine-readable ``BENCH_<n>.json`` at the repo root so every PR has a perf
trajectory to regress against.  Every end-to-end and backend-comparison run
is constructed through the Session API (``repro.session``) — the harness
performs no executor/engine wiring of its own.

Usage::

    python scripts/bench.py                 # full suite -> BENCH_<n>.json
    python scripts/bench.py --quick         # reduced rounds (CI smoke)
    python scripts/bench.py --check         # also run tier-1 tests + the
                                            # keygen-equivalence suite and
                                            # fail on any regression
    python scripts/bench.py --profile dependences
                                            # cProfile one micro suite and
                                            # dump the top-20 cumulative
                                            # entries (hot-path triage)
    make bench / make bench-check           # the same, via the Makefile

Exit status is non-zero when a gated perf threshold or (with ``--check``)
any test fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def run_tests(check_args: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [sys.executable, "-m", "pytest", "-x", "-q", *check_args]
    print(f"$ {' '.join(command)}", flush=True)
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


#: Suites selectable with ``--profile``: name -> (module, callable, kwargs).
PROFILE_SUITES = {
    "keygen": ("repro.perf.micro", "bench_keygen", {}),
    "tht": ("repro.perf.micro", "bench_tht_probe", {}),
    "dependences": ("repro.perf.micro", "bench_dependences", {}),
    "submission": ("repro.perf.micro", "bench_submission", {}),
    "simulator": ("repro.perf.micro", "bench_simulator_drain", {}),
    "endtoend": ("repro.perf.endtoend", "bench_end_to_end", {}),
    "net_residency": (
        "repro.perf.net_residency", "bench_net_residency", {"rounds": 1}
    ),
    "serving": ("repro.perf.serving", "bench_serving", {"quick": True}),
    "tht_warm": ("repro.perf.tht_warm", "bench_tht_warm", {"quick": True}),
}


def run_profile(suite: str) -> int:
    """cProfile one suite and print the top-20 cumulative entries."""
    import cProfile
    import importlib
    import pstats

    module_name, function_name, kwargs = PROFILE_SUITES[suite]
    function = getattr(importlib.import_module(module_name), function_name)
    profile = cProfile.Profile()
    profile.enable()
    result = function(**kwargs)
    profile.disable()
    del result
    stats = pstats.Stats(profile)
    stats.sort_stats("cumulative").print_stats(20)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_<id>.json at the repo root)",
    )
    parser.add_argument(
        "--bench-id", type=int, default=10,
        help="report generation number (default 10)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="previous BENCH_<n>.json to gate against (default: "
             "BENCH_<id-1>.json at the repo root, when it exists)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced rounds / sizes for a fast smoke run",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run tier-1 tests and the keygen-equivalence suite first; "
             "fail if they fail or a perf threshold regresses",
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILE_SUITES), default=None,
        metavar="SUITE",
        help="instead of writing a report, run one suite under cProfile and "
             f"print the top-20 cumulative entries ({', '.join(sorted(PROFILE_SUITES))})",
    )
    args = parser.parse_args(argv)

    if args.profile:
        return run_profile(args.profile)

    if args.check:
        status = run_tests(["tests"])
        if status != 0:
            print("bench --check: tier-1 tests FAILED", file=sys.stderr)
            return status
        status = run_tests(["tests/atm/test_keygen_equivalence.py", "-q"])
        if status != 0:
            print("bench --check: keygen equivalence suite FAILED", file=sys.stderr)
            return status

    from repro.perf.report import (
        build_report,
        check_report,
        compare_to_baseline,
        write_report,
    )

    report = build_report(bench_id=args.bench_id, quick=args.quick)
    out = Path(args.out) if args.out else REPO_ROOT / f"BENCH_{args.bench_id}.json"
    write_report(report, out)

    keygen = report["micro"]["keygen"]
    print(f"wrote {out}")
    print(f"  keygen headline speedup : {keygen['headline_speedup']}x "
          f"(threshold {report['checks']['thresholds']['keygen_speedup_multi_input']}x)")
    print(f"  shuffle memory reduction: {keygen['shuffle_memory']['reduction']}x "
          f"(threshold {report['checks']['thresholds']['shuffle_memory_reduction']}x)")
    for case in keygen["cases"]:
        print(f"    {case['name']:32} new {case['new_us']:9.2f}us  "
              f"ref {case['ref_us']:9.2f}us  {case['speedup']:6.2f}x")
    dependences = report["micro"]["dependences"]
    print(f"  dependence submission   : {dependences['submit_us_per_task']}us/task "
          f"({dependences['tasks_per_sec']:.0f} tasks/s, threshold "
          f"{report['checks']['thresholds']['submission_tasks_per_sec']:.0f}/s)")
    for case in report["micro"]["submission"]["cases"]:
        print(f"    submit {case['shape']:22} batch {case['batch']:3}  "
              f"{case['submit_us_per_task']:8.3f}us  "
              f"{case['tasks_per_sec']:10.1f} tasks/s")
    recovery = report["micro"]["fault_recovery"]
    print(f"  fault recovery (kill 1/{recovery['workers']} workers): "
          f"healthy {recovery['healthy_wall_s']:.3f}s  "
          f"faulty {recovery['faulty_wall_s']:.3f}s  "
          f"overhead {recovery['recovery_overhead_s']:.3f}s  "
          f"respawns {recovery['respawns']}")
    for run in report["endtoend"]:
        print(f"  e2e {run['benchmark']:13} {run['mode']:8} "
              f"wall {run['wall_s']:7.3f}s  reuse {run['reuse_percent']:6.2f}%  "
              f"checksum {run['output_checksum']}")
    backend = report.get("process_backend", {})
    for row in backend.get("rows", []):
        limited = (
            f" (hardware-limited: {backend.get('cpu_count')} CPU(s) "
            f"< {backend.get('workers')} workers)"
            if backend.get("hardware_limited") else ""
        )
        print(f"  backend {row['benchmark']:13} serial {row['serial_s']:6.3f}s  "
              f"threaded{row['workers']} {row['threaded_s']:6.3f}s  "
              f"process{row['workers']} {row['process_s']:6.3f}s  "
              f"network{row['workers']} {row['network_s']:6.3f}s  "
              f"p/t speedup {row['speedup_process_vs_threaded']:.2f}x  "
              f"net disp {row['net_dispatch_overhead_ms_per_task']:.3f}ms/task"
              f"{limited}")

    residency = report.get("net_residency", {})
    for row in residency.get("rows", []):
        flag = "on " if row["residency"] else "off"
        print(f"  net-residency {row['transport']:8} {flag} "
              f"wall {row['wall_s']:7.3f}s  "
              f"disp {row['net_dispatch_overhead_ms_per_task']:7.3f}ms/task  "
              f"payload {row['payload_bytes'] / 1e6:8.2f}MB  "
              f"hits {row['residency_hits']:4}  "
              f"{'OK' if row['checksum_matches_serial'] else 'CHECKSUM MISMATCH'}")
    if residency:
        tcp_note = "" if residency.get("tcp") else (
            " (tcp rows skipped: hardware-limited host)"
        )
        print(f"  net-residency improvement: "
              f"{residency['improvement_dispatch_overhead']}x dispatch overhead "
              f"(threshold "
              f"{report['checks']['thresholds']['net_residency_improvement']}x), "
              f"{residency['payload_reduction']}x payload{tcp_note}")

    serving = report.get("serving", {})
    if serving:
        throughput = serving["throughput"]
        fairness = serving["fairness"]
        overhead = serving["overhead"]
        print(f"  serving gateway ({serving['executor']}x{serving['workers']}, "
              f"pending {serving['max_pending']}, quantum {serving['quantum']}): "
              f"{throughput['gateway_tasks_per_sec']:.1f} tasks/s  "
              f"p50 {throughput['latency_p50_s'] * 1e3:.2f}ms  "
              f"p99 {throughput['latency_p99_s'] * 1e3:.2f}ms")
        print(f"  serving fairness @ {fairness['backlog_ratio']}:1 backlog: "
              f"ratio {fairness['fairness_ratio']} "
              f"(light {fairness['light_completed']} vs heavy "
              f"{fairness['heavy_completed_at_light_finish']}, threshold "
              f"{report['checks']['thresholds']['serving_fairness_ratio']})")
        print(f"  serving overhead vs local Session: "
              f"{overhead['gateway_overhead_ratio']}x "
              f"(gateway {overhead['gateway_wall_s']:.3f}s, "
              f"session {overhead['session_wall_s']:.3f}s; recorded, not gated)")

    tht_warm = report.get("tht_warm", {})
    for row in tht_warm.get("rows", []):
        print(f"  tht-store {row['benchmark']:13} {row['store']:4} "
              f"{row['phase']:4} wall {row['wall_s']:7.3f}s  "
              f"hits {row['tht_hits']:5}/{row['tht_hits'] + row['tht_misses']:5} "
              f"({row['tht_hit_rate_percent']:6.2f}%)  "
              f"reuse {row['reuse_percent']:6.2f}%  "
              f"{'OK' if row['checksum_matches_serial'] else 'CHECKSUM MISMATCH'}")
    if tht_warm:
        print(f"  tht-store warm hit rate: {tht_warm['warm_hit_rate_percent']}% "
              f"(threshold "
              f"{report['checks']['thresholds']['tht_warm_hit_rate_percent']}%; "
              f"cold max {tht_warm['cold_hit_rate_percent']}%), "
              f"checksums "
              f"{'bit-identical' if tht_warm['checksums_identical'] else 'DIVERGED'}")

    failures = check_report(report)
    baseline_path = (
        Path(args.baseline) if args.baseline
        else REPO_ROOT / f"BENCH_{args.bench_id - 1}.json"
    )
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        baseline_failures = compare_to_baseline(report, baseline)
        failures += baseline_failures
        print(f"  baseline gate vs {baseline_path.name}: "
              f"{'FAILED' if baseline_failures else 'checksums + throughput held'}")
    if failures:
        for failure in failures:
            print(f"bench: FAIL {failure}", file=sys.stderr)
        return 1
    print("bench: all perf thresholds met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

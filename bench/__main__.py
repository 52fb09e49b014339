"""``python -m bench``: run the benchmark, or compare two result files.

    python -m bench [--workload W]... [--seed N] [--seconds S] [--reps R]
                    [--trace [0|1]] [--smoke] [--out FILE]
    python -m bench compare A.json B.json [--force]

With exactly one ``--workload`` the last line of standard output is the JSON
object the ``BENCHMARK.json`` contract describes (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run(args) -> int:
    if not (REPO / "src" / "repro").is_dir():
        print("bench: the system under test (src/repro) is not in this checkout; "
              "nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    from bench import runner
    from bench.workloads import WORKLOADS

    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)
    single = len(names) == 1
    reps = args.reps or (1 if single else 3)
    if trace and single:
        # One contract run has to fit a traced pass too: measure for half.
        seconds = seconds / 2
    runner.OUT.mkdir(exist_ok=True)
    result = {
        "schema": 1, "host": runner.host_block(),
        "loadavg_1m": os.getloadavg()[0], "seed": args.seed, "reps": reps,
        "seconds": seconds, "smoke": args.smoke, "comparable": not args.smoke,
        "workloads": {},
    }
    if args.smoke:
        print("bench: --smoke sizes: these numbers are NOT for comparison")
    try:
        for name in names:
            record = runner.run_workload(
                name, seed=args.seed, seconds=seconds, reps=reps, trace=trace,
                smoke=args.smoke, rounds=2 if args.smoke else 0,
            )
            result["workloads"][name] = record
            runner.print_record(name, record)
    except runner.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else runner.OUT / "result.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"\nresult file: {out}")
    correct = all(r["correct"] for r in result["workloads"].values())
    if single:
        print(runner.driver_line(result["workloads"][names[0]], trace, declared))
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("base")
        parser.add_argument("candidate")
        parser.add_argument("--force", action="store_true",
                            help="compare even when the recorded hosts differ")
        args = parser.parse_args(argv[1:])
        from bench.compare import compare_files

        return compare_files(args.base, args.candidate, args.force)
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable; default all seven)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--reps", type=int, default=None,
                        help="measured runs per workload (default 3; 1 when a "
                             "single --workload is given)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also run the traced pass and print the per-layer ledger")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two rounds: a self-test, not a measurement")
    parser.add_argument("--out", help="result file (default bench/out/result.json)")
    return _run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

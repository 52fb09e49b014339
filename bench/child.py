"""One (workload, role) in a fresh process: ``python -m bench.child``.

Roles
-----
``reference``  serial, ATM off, same seed: writes the output array the other
               roles verify against, and times itself (``reference.wall_s``).
``measured``   tracing off: rounds of *generate -> open -> timed program ->
               verify* until ``--seconds`` have passed (or ``--rounds`` ran).
``traced``     one round with ``bench.trace`` installed: writes the spans file
               and reduces it to the per-layer ledger.

The last line of standard output is one JSON object; the parent
(``bench.runner``) aggregates it.  A fresh process per role keeps caches, GC
state and ``ru_maxrss`` from leaking between workloads.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path


#: Duration of one calibration slice on the quiet reference host.
CALIBRATION_REFERENCE_S = 0.0037


def _calibration_slice() -> float:
    """A fixed mix of interpreter work and a NumPy kernel, timed."""
    import numpy as np

    block = _calibration_slice.__dict__.setdefault(
        "block", np.random.default_rng(0).uniform(1.0, 2.0, 32768))
    out = np.empty_like(block)
    t0 = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(12000):
        table[i & 1023] = i
        total += table[i & 511]
    for _ in range(12):
        np.sin(block, out=out)
    return time.perf_counter() - t0


def host_speed() -> float:
    """How fast this CPU runs right now, as a share of its quiet speed.

    The shared reference host runs 10-60 % slower for seconds to minutes at a
    time (a fixed compute loop shows it; its CPU time grows with its wall
    time, so this is slower execution, not descheduling), and whole runs land
    in such a phase: no statistic over the rounds of one run removes it.
    Timing the same fixed slice right before a system is opened and right
    after it is closed measures the factor where it applies; the minimum of
    five slices ignores short bursts and keeps the slow drift.  Only
    meaningful when the workload runs on the CPU this loop runs on, i.e. when
    the child is pinned.
    """
    return CALIBRATION_REFERENCE_S / min(_calibration_slice() for _ in range(5))


def _checksum(array) -> str:
    return hashlib.blake2b(array.view("uint8"), digest_size=16).hexdigest()


def _peak_rss_mb() -> float:
    """``ru_maxrss`` (KiB on Linux) of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _round(workload, config, seed: int, smoke: bool, reference=None, run=None,
           local: bool = False):
    """Generate, open, run the timed program once, close, verify.

    Returns ``(outcome, data)``; ``reference`` is a callable returning the
    expected output array, ``run`` replaces the front's own ``run`` (tracing).
    """
    from bench import workloads
    from bench.metrics import rel_error

    gc.collect()
    speed = host_speed() if workload.pin_cpu else 1.0
    t0 = time.perf_counter()
    data = workloads.build(workload, seed, smoke)
    front = workloads.open_front(workload, config, local)
    setup_s = time.perf_counter() - t0
    try:
        outcome = (run or type(front).run)(front, data)
        outcome["blocking_thread"] = getattr(front, "blocking_thread", None)
    finally:
        front.close()
    if workload.pin_cpu:
        speed = (speed + host_speed()) / 2
    # Memory is read before verification allocates its own copies of the output.
    outcome.update(setup_s=setup_s, tasks=data.task_count, peak_rss_mb=_peak_rss_mb(),
                   host_speed=speed)
    if reference is not None:
        output, expected = workloads.output_array(data), reference()
        outcome["checksum"] = _checksum(output)
        outcome["rel_error"] = rel_error(output, expected)
        outcome["bit_identical"] = outcome["checksum"] == _checksum(expected)
    return outcome, data


def _warm_up(workload) -> None:
    """Throw-away smoke-size run: lazy imports, code paths, allocator."""
    _round(workload, workload.config, seed=0, smoke=True)


def reference_role(workload, args) -> dict:
    import numpy as np
    from bench import workloads

    outcome, data = _round(workload, workloads.REFERENCE_CONFIG, args.seed, args.smoke,
                           local=True)
    output = workloads.output_array(data)
    np.save(Path(args.scratch) / "reference.npy", output)
    result = {k: outcome[k] for k in ("wall_s", "host_speed", "tasks", "completed",
                                      "failed", "cancelled")}
    result.update(
        checksum=_checksum(output), input_digest=workloads.input_digest(data),
        resident_mb=workloads.resident_bytes(data) / (1 << 20),
    )
    if workload.family == "gateway":
        # What the gateway's overhead is measured against: the same two
        # programs on a local threaded Session.
        local, _ = _round(workload, workload.config, args.seed, args.smoke, local=True)
        result["local_threaded_wall_s"] = local["wall_s"] * local["host_speed"]
    return result


def _reference_loader(args):
    """The reference output, loaded on first use: the first round's memory
    reading must not include it."""
    import numpy as np

    return functools.cache(lambda: np.load(Path(args.scratch) / "reference.npy"))


def measured_role(workload, args) -> dict:
    _warm_up(workload)
    startup_s = time.time() - args.spawned_at
    reference = _reference_loader(args)
    rounds = []
    t_start = time.perf_counter()
    while True:
        rounds.append(_round(workload, workload.config, args.seed, args.smoke, reference)[0])
        if args.rounds and len(rounds) >= args.rounds:
            break
        if not args.rounds and time.perf_counter() - t_start >= args.seconds:
            break
    # Counters are identical round to round on a fixed seed; keep the last.
    for outcome in rounds[:-1]:
        outcome.pop("counters", None)
    # Memory is the first round's reading: the allocator keeps some of every
    # round's garbage, so a later one would grow with the number of rounds
    # that happened to fit into --seconds.
    return {"startup_s": startup_s, "rounds": rounds,
            "peak_rss_mb": rounds[0]["peak_rss_mb"]}


def traced_role(workload, args) -> dict:
    from bench import layers, trace

    _warm_up(workload)
    reference = _reference_loader(args)
    # The round the traced one is compared with, seconds apart in one process:
    # against a run of another child the ratio would mostly show the host.
    plain, _ = _round(workload, workload.config, args.seed, args.smoke, reference)
    tracer = trace.Tracer()
    missing = tracer.install(layers.TARGETS)
    if missing:
        tracer.uninstall()
        raise SystemExit(f"bench: traced seams no longer resolve: {missing}")
    try:
        outcome, _ = _round(
            workload, workload.config, args.seed, args.smoke, reference,
            run=lambda front, data: tracer.wrap(type(front).run, layers.ROOT)(front, data),
        )
    finally:
        tracer.uninstall()
    spans = tracer.export()
    trace.write_spans(spans, args.spans)
    blocking_id = outcome.pop("blocking_thread") or threading.get_ident()
    blocking = max(
        (i for i, t in enumerate(spans["threads"]) if t["id"] == blocking_id),
        default=None,
    )
    outcome["layers"] = layers.ledger(
        trace.reduce_spans(spans, layers.ROOT), tracer.probes, blocking, outcome,
        open_s=outcome["setup_s"], traced_wall_s=outcome["wall_s"],
    )
    outcome.pop("counters", None)
    outcome["untraced_wall_s"] = plain["wall_s"] * plain["host_speed"]
    return outcome


ROLES = {"reference": reference_role, "measured": measured_role, "traced": traced_role}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--role", required=True, choices=sorted(ROLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=time.time())
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if workload.pin_cpu and hasattr(os, "sched_setaffinity"):
        # One CPU for the child and its threads.  The in-process pools are
        # GIL-bound; spread over the two cores of a shared host their
        # hand-offs (futex wake-ups, preempted lock holders) cost anything
        # from nothing to 5x depending on where the kernel and the neighbours
        # put them: graph_fine drains in 0.4 s on one core and 2.2 s on two,
        # and flips between rounds.  Parallel speed-up is not what this
        # benchmark measures; the work the runtime does per task is.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = ROLES[args.role](workload, args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Parent side: spawn the role children, check for leaks, aggregate, report.

One *run* of a workload is one ``measured`` child: ``--seconds`` of rounds,
each a fresh generate -> open -> timed program -> verify.  A run reports one
value per metric; ``--reps`` runs give the median, min/max and spread that
``python -m bench`` prints and ``compare`` judges.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import metrics

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUT = BENCH_DIR / "out"

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170.0
#: How long helpers of an exited child may take to end before they count as leaks.
LEAK_GRACE_S = 2.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a bad result)."""


def host_block() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "system": platform.system(), "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- children ---------------------------------------------------------------------------
def _session_members(session_id: int) -> list[int]:
    """Live processes of a child's session (its leaked workers, if any)."""
    members = []
    for entry in Path("/proc").iterdir() if Path("/proc").is_dir() else ():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session_id and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _shm_segments() -> set[str]:
    """Python-owned shared-memory segments (the process backend's buffers)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(("psm_", "sem.mp-"))}
    except OSError:
        return set()


def spawn(role: str, workload: str, seed: int, scratch: Path, *, seconds: float = 0.0,
          rounds: int = 0, smoke: bool = False, spans: Path | None = None) -> dict:
    """Run one role child to completion; returns its result plus ``leaks``."""
    command = [
        sys.executable, "-m", "bench.child", "--workload", workload, "--role", role,
        "--seed", str(seed), "--seconds", str(seconds), "--rounds", str(rounds),
        "--scratch", str(scratch), "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    shm_before = _shm_segments()
    child = subprocess.Popen(
        command, cwd=REPO, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        # multiprocessing's resource tracker ends a moment after the child;
        # whatever is alive in the child's session after a grace period is a
        # leaked worker (or the timed-out child itself).  Stop it and wait, so
        # that nothing we started outlives us.
        grace = time.time() + LEAK_GRACE_S
        while child.poll() is not None and _session_members(child.pid) \
                and time.time() < grace:
            time.sleep(0.02)
        leaked = [pid for pid in _session_members(child.pid) if pid != child.pid]
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        child.wait()
        deadline = time.time() + 5.0
        while _session_members(child.pid) and time.time() < deadline:
            time.sleep(0.05)
    if child.returncode != 0:
        raise BenchError(f"{workload}/{role} child exited with {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["leaks"] = {
        "processes": len(leaked),
        "shm_segments": sorted(_shm_segments() - shm_before),
    }
    return result


# -- aggregation ------------------------------------------------------------------------
def _failed_ops(outcome: dict) -> int:
    """Operations of one round that did not succeed (lost tasks included)."""
    ended = outcome["completed"] + outcome["failed"] + outcome["cancelled"]
    lost = max(outcome["tasks"] - ended, 0)
    return outcome["failed"] + outcome["cancelled"] + outcome["raised"] + lost


def _verified(workload: str, outcome: dict) -> bool:
    limit = metrics.REL_ERROR_LIMIT.get(workload)
    if limit is None:
        return bool(outcome["bit_identical"]) and outcome["rel_error"] == 0.0
    return outcome["rel_error"] <= limit


def _problems(workload: str, rounds: list, leaks: dict) -> list[tuple[int, str]]:
    """What went wrong, as ``(failed operations, text)`` pairs (empty when
    nothing did): failed tasks and raised requests, outputs that differ from
    the reference, leaked workers and shared-memory segments."""
    found = []
    for number, outcome in enumerate(rounds, 1):
        if _failed_ops(outcome):
            found.append((
                _failed_ops(outcome),
                f"round {number}: {_failed_ops(outcome)} of {outcome['tasks']} operations "
                f"failed, were cancelled, raised or got lost"
                + "".join(f"; {text}" for text in outcome.get("raised_text", ()))))
        if not _verified(workload, outcome):
            found.append((1, f"round {number}: output differs from the reference "
                             f"(rel_error {outcome['rel_error']:.3g})"))
    if leaks["processes"]:
        found.append((leaks["processes"],
                      f"{leaks['processes']} worker process(es) outlived the child"))
    if leaks["shm_segments"]:
        found.append((len(leaks["shm_segments"]),
                      f"leaked /dev/shm segments: {leaks['shm_segments']}"))
    return found


def run_values(workload: str, run: dict) -> dict:
    """The end-to-end values of one measured run (one value per metric)."""
    rounds = run["rounds"]
    last = rounds[-1]
    # Times are scaled to the host's quiet speed where that could be measured
    # (child.host_speed; the factor is 1 for an unpinned child).
    wall = metrics.low_quartile([r["wall_s"] * r["host_speed"] for r in rounds])
    attempted = sum(r["tasks"] for r in rounds)
    problems = _problems(workload, rounds, run["leaks"])
    failed = sum(count for count, _ in problems)
    values = {
        "setup_s": run["startup_s"] + statistics.median(r["setup_s"] for r in rounds),
        "wall_s": wall,
        "tasks_per_s": last["tasks"] / wall,
        "peak_rss_mb": run["peak_rss_mb"],
        "rel_error": max(r["rel_error"] for r in rounds),
        "fail_rate": failed / attempted,
    }
    if workload in metrics.MEMO:
        values["reuse_fraction"] = (last["memoized"] + last["deferred"]) / last["completed"]
        values["atm_mem_mb"] = last["atm_mem_bytes"] / (1 << 20)
    notes = {"rounds": len(rounds), "attempted": attempted, "failed": failed,
             "round_wall_s": [r["wall_s"] for r in rounds],
             "round_host_speed": [r["host_speed"] for r in rounds],
             "problems": [text for _, text in problems]}
    if workload in metrics.GATEWAY:
        samples = [ms * r["host_speed"] for r in rounds for ms in r["req_ms"]]
        values["req_p50_ms"] = statistics.median(samples)
        percentile, values["req_p99_ms"] = metrics.tail_percentile(samples)
        notes.update(req_samples=len(samples), req_tail_percentile=percentile)
    return {"values": values, "notes": notes, "correct": failed == 0}


def layer_values(workload: str, reference: dict, run: dict, traced: dict) -> dict:
    """Every per-layer metric of one traced run (0 where a layer is untouched)."""
    e2e = run_values(workload, run)["values"]
    last = run["rounds"][-1]
    values = {layer.name: 0.0 for layer in metrics.PER_LAYER}
    values.update(traced["layers"])
    for name in ("reuse_fraction", "atm_mem_mb", "rel_error", "fail_rate",
                 "req_p50_ms", "req_p99_ms"):
        values[name] = e2e.get(name, 0.0)
    reference_wall = reference["wall_s"] * reference["host_speed"]
    values["reference.wall_s"] = reference_wall
    values["trace.overhead_ratio"] = (
        traced["wall_s"] * traced["host_speed"] / traced["untraced_wall_s"])
    per_task_us = 1e6 * (e2e["wall_s"] - reference_wall) / last["tasks"]
    if workload in metrics.MEMO:
        values["atm.speedup_vs_none"] = reference_wall / e2e["wall_s"]
    if workload == "dispatch_process":
        values["mp.dispatch_us_per_task"] = per_task_us
    if workload == "dispatch_network":
        values["net.dispatch_us_per_task"] = per_task_us
    if workload in metrics.GATEWAY:
        values["gateway.bulk_req_p50_ms"] = statistics.median(
            ms * r["host_speed"] for r in run["rounds"] for ms in r["bulk_req_ms"])
        values["gateway.overhead_ratio"] = e2e["wall_s"] / reference["local_threaded_wall_s"]
    return values


def summarize(samples: list[float], unit: str) -> dict:
    return {
        "unit": unit, "median": statistics.median(samples), "min": min(samples),
        "max": max(samples), "n": len(samples), "spread": metrics.spread(samples),
        "samples": samples,
    }


def run_workload(name: str, *, seed: int, seconds: float, reps: int, trace: bool,
                 smoke: bool, rounds: int = 0) -> dict:
    """Reference, ``reps`` measured runs and (optionally) one traced run."""
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    scratch = OUT / f"scratch-{os.getpid()}-{name}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        reference = spawn("reference", name, seed, scratch, smoke=smoke)
        runs = []
        for rep in range(reps):
            runs.append(spawn("measured", name, seed, scratch, seconds=seconds,
                              rounds=rounds, smoke=smoke))
            print(f"  {name}: run {rep + 1}/{reps} "
                  f"({len(runs[-1]['rounds'])} rounds)", file=sys.stderr)
        traced = None
        if trace:
            traced = spawn("traced", name, seed, scratch, smoke=smoke,
                           spans=OUT / f"{name}.spans.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    per_run = [run_values(name, run) for run in runs]
    units = {m.name: m.unit for m in metrics.END_TO_END}
    record = {
        "why": workload.why,
        "sizes": workload.smoke if smoke else workload.sizes,
        "tasks": runs[0]["rounds"][0]["tasks"],
        "input_digest": reference["input_digest"],
        "checksum": runs[-1]["rounds"][-1]["checksum"],
        "reference_checksum": reference["checksum"],
        "resident_mb": reference["resident_mb"],
        "correct": all(r["correct"] for r in per_run),
        "attempted": sum(r["notes"]["attempted"] for r in per_run),
        "failed": sum(r["notes"]["failed"] for r in per_run),
        "notes": dict(per_run[-1]["notes"], problems=[
            f"run {number}, {text}" for number, r in enumerate(per_run, 1)
            for text in r["notes"]["problems"]]),
        "round_wall_s": [r["notes"]["round_wall_s"] for r in per_run],
        "round_host_speed": [r["notes"]["round_host_speed"] for r in per_run],
        "end_to_end": {
            metric: summarize([r["values"][metric] for r in per_run], units[metric])
            for metric in per_run[0]["values"]
        },
    }
    if traced is not None:
        layer_units = {layer.name: layer.unit for layer in metrics.PER_LAYER}
        values = layer_values(name, reference, runs[-1], traced)
        record["per_layer"] = {
            metric: {"value": value, "unit": layer_units[metric]}
            for metric, value in values.items()
        }
        problems = _problems(name, [traced], traced["leaks"])
        record["notes"]["problems"] += [f"traced pass, {text}" for _, text in problems]
        record["correct"] = record["correct"] and not problems
        record["failed"] += sum(count for count, _ in problems)
        record["attempted"] += traced["tasks"]
    return record


# -- reporting --------------------------------------------------------------------------
def _number(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or float(value).is_integer():
        return f"{value:,.0f}"
    return f"{value:.4g}"


def print_record(name: str, record: dict) -> None:
    state = "verified" if record["correct"] else "FAILED VERIFICATION"
    print(f"\n{name}: {record['tasks']} tasks/round, {record['notes']['rounds']} "
          f"rounds in the last run, {state} "
          f"(checksum {record['checksum'][:12]}, resident {record['resident_mb']:.0f} MB)")
    print(f"  {'end-to-end':<16}{'unit':<9}{'median':>12}{'min':>12}{'max':>12}"
          f"{'runs':>6}{'spread':>9}")
    for metric, s in record["end_to_end"].items():
        extra = ""
        if metric == "req_p99_ms":
            extra = (f"  (p{record['notes']['req_tail_percentile']:.4g} of "
                     f"{record['notes']['req_samples']} requests)")
        print(f"  {metric:<16}{s['unit']:<9}{_number(s['median']):>12}"
              f"{_number(s['min']):>12}{_number(s['max']):>12}{s['n']:>6}"
              f"{100 * s['spread']:>8.1f}%{extra}")
    for text in record["notes"]["problems"]:
        print(f"  PROBLEM: {text}")
    if "per_layer" in record:
        moves = {layer.name: (layer.moves, layer.on) for layer in metrics.PER_LAYER}
        print(f"  {'per-layer':<32}{'value':>12} {'unit':<7}should move")
        for metric, entry in record["per_layer"].items():
            what, where = moves[metric]
            print(f"  {metric:<32}{_number(entry['value']):>12} {entry['unit']:<7}"
                  f"{what} on {where}")


def driver_line(record: dict, trace: bool, declared: dict) -> str:
    """The one JSON object the benchmark contract asks for on the last line."""
    if trace:
        chosen = {e["name"]: record["per_layer"][e["name"]] for e in declared["per_layer"]}
    else:
        chosen = {
            e["name"]: {"value": record["end_to_end"][e["name"]]["median"], "unit": e["unit"]}
            for e in declared["end_to_end"]
        }
    return json.dumps({
        "correct": bool(record["correct"]), "attempted": int(record["attempted"]),
        "failed": int(record["failed"]), "metrics": chosen,
    })

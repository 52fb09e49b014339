"""The seven workloads: frozen sizes, seeded input generators and programs.

A workload is a *program family* (``blocks``, ``stencil``, ``relax`` or the
two-tenant ``gateway`` mix of ``relax`` requests), a ``ReproConfig`` override
tree and a size table.  Inputs are a pure function of ``(sizes, seed)``; the
program under test receives only the generated arrays.  Everything here goes
through the public ``repro.session`` / ``repro.serving`` surface.

The sizes are frozen: changing one changes what every recorded number means,
so it is a benchmark change of its own (re-measure the baseline after it).
``SMOKE`` sizes exist for the self-tests only; their numbers are not
comparable with anything.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.runtime.data import DataRegion, In, Out
from repro.runtime.task import TaskType
from repro.session import ReproConfig, Session

from bench import kernels

__all__ = ["WORKERS", "WORKLOADS", "Workload", "build", "open_front", "REFERENCE_CONFIG"]

#: Worker threads / loopback endpoints / client connections.  Fixed (the
#: reference host has two cores) so a run means the same on every host.
WORKERS = 2

#: Serial, ATM off: the reference every output is verified against.
REFERENCE_CONFIG = {"runtime": {"executor": "serial"}, "atm": {"mode": "none"}}

NOOP = TaskType("bench_noop")
LOAD = TaskType("bench_load")
STEP = TaskType("bench_step", memoizable=True)
STEP2 = TaskType("bench_step2", memoizable=True)
STENCIL = TaskType("bench_stencil3")
RELAX = TaskType("bench_relax")


def _regions(arrays):
    """Regions are built once, at generation time: applications keep their
    block handles, and per-submit ``DataRegion`` construction would otherwise
    dominate the fine-grained workloads' generator time."""
    return [DataRegion(array) for array in arrays]


class Blocks:
    """``blocks`` program: ``passes`` sweeps of one memoizable task per block.

    Every ``reload_every``-th pass first re-``load``s each block (an ``Out``
    task, so the block's write-version moves and its key must be re-hashed);
    the passes in between re-read the blocks unchanged (key-cache path).
    Block contents are ``pattern[k] + offset``: ``offset_scale = 0`` makes
    exact content twins, a large scale makes every load unique, a tiny scale
    makes twins that differ in their low mantissa bytes only.
    """

    def __init__(self, sizes: dict, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.sizes = sizes
        blocks, n = sizes["blocks"], sizes["block_bytes"] // 8
        n_patterns = sizes["patterns"]
        self.reloads = -(-sizes["passes"] // sizes["reload_every"])
        self.patterns = [rng.uniform(1.0, 2.0, n) for _ in range(n_patterns)]
        self.coef = [rng.uniform(0.5, 1.5, n) for _ in range(sizes["coef_blocks"])]
        # Every pattern appears in the first load, so the executed-task count
        # of an exact-memoization run is the pattern count on every seed.
        first = np.concatenate(
            [np.arange(n_patterns), rng.integers(0, n_patterns, blocks - n_patterns)]
        )
        rng.shuffle(first)
        later = rng.integers(0, n_patterns, (self.reloads - 1, blocks))
        self.assign = np.vstack([first[None, :], later])
        # Distinct multipliers per (reload, block): no two loads coincide
        # whenever offset_scale is non-zero.
        unique = 1.0 + rng.permutation(self.reloads * blocks).reshape(self.reloads, blocks)
        self.offsets = unique * sizes["offset_scale"]
        self.state = [np.zeros(n) for _ in range(blocks)]
        self.out = [np.zeros(n) for _ in range(blocks)]
        self.state_regions = _regions(self.state)
        self.out_regions = _regions(self.out)
        self.coef_regions = _regions(self.coef)
        self.task_count = (self.reloads + sizes["passes"]) * blocks

    def inputs(self):
        return self.patterns + self.coef + [self.assign, self.offsets]

    def outputs(self):
        return self.out

    def run(self, front) -> None:
        sizes = self.sizes
        submit = front.submit
        load, step, step2 = kernels.load, kernels.step, kernels.step2
        n_coef = len(self.coef)
        for sweep in range(sizes["passes"]):
            if sweep % sizes["reload_every"] == 0:
                reload = sweep // sizes["reload_every"]
                for b, (dst, region) in enumerate(zip(self.state, self.state_regions)):
                    submit(
                        LOAD, load, [Out(region)],
                        (dst, self.patterns[self.assign[reload, b]],
                         float(self.offsets[reload, b])),
                    )
            for b, (src, dst) in enumerate(zip(self.state, self.out)):
                if n_coef:
                    c = b % n_coef
                    submit(
                        STEP2, step2,
                        [In(self.coef_regions[c]), In(self.state_regions[b]),
                         Out(self.out_regions[b])],
                        (self.coef[c], src, dst),
                    )
                else:
                    submit(
                        STEP, step,
                        [In(self.state_regions[b]), Out(self.out_regions[b])],
                        (src, dst),
                    )


class Stencil:
    """Ping-pong three-point stencil over ``rows`` tiny rows (periodic)."""

    def __init__(self, sizes: dict, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.sizes = sizes
        rows, n = sizes["rows"], sizes["row_bytes"] // 8
        self.grids = [rng.uniform(0.0, 1.0, (rows, n)), np.zeros((rows, n))]
        self.initial = self.grids[0].copy()
        self.rows = [[grid[i] for i in range(rows)] for grid in self.grids]
        self.regions = [_regions(rows_) for rows_ in self.rows]
        self.task_count = rows * sizes["sweeps"]

    def inputs(self):
        return [self.initial]

    def outputs(self):
        return self.grids

    def run(self, front) -> None:
        submit = front.submit
        body = kernels.stencil3
        count = self.sizes["rows"]
        for sweep in range(self.sizes["sweeps"]):
            src, dst = sweep % 2, 1 - sweep % 2
            rows, regions = self.rows[src], self.regions[src]
            out_rows, out_regions = self.rows[dst], self.regions[dst]
            for i in range(count):
                left, right = i - 1, (i + 1) % count
                submit(
                    STENCIL, body,
                    [In(regions[left]), In(regions[i]), In(regions[right]),
                     Out(out_regions[i])],
                    (rows[left], rows[i], rows[right], out_rows[i]),
                )


class Relax:
    """``relax`` program: ``iterations`` ping-pong sweeps over state blocks,
    each reading a shared read-only coefficient block and ending in a barrier.

    With ``batch`` set, one iteration is one request: a single
    ``submit_batch`` followed by the barrier (the gateway tenants' shape).
    """

    def __init__(self, sizes: dict, seed: int, batch: bool = False) -> None:
        rng = np.random.default_rng(seed)
        self.sizes = sizes
        self.batch = batch
        blocks, n = sizes["blocks"], sizes["block_bytes"] // 8
        self.state = [
            [rng.uniform(0.0, 1.0, n) for _ in range(blocks)],
            [np.zeros(n) for _ in range(blocks)],
        ]
        self.initial = [block.copy() for block in self.state[0]]
        self.coef = [rng.uniform(0.0, 1.0, n) for _ in range(sizes["coef_blocks"])]
        self.regions = [_regions(side) for side in self.state]
        self.coef_regions = _regions(self.coef)
        self.task_count = blocks * sizes["iterations"]

    def inputs(self):
        return self.initial + self.coef

    def outputs(self):
        return self.state[0] + self.state[1]

    def run(self, front, latencies=None) -> None:
        body = kernels.relax
        n_coef = len(self.coef)
        for iteration in range(self.sizes["iterations"]):
            src, dst = iteration % 2, 1 - iteration % 2
            specs = [
                (
                    RELAX, body,
                    [In(self.regions[src][b]), In(self.coef_regions[b % n_coef]),
                     Out(self.regions[dst][b])],
                    (self.state[src][b], self.coef[b % n_coef], self.state[dst][b]),
                )
                for b in range(self.sizes["blocks"])
            ]
            t0 = time.perf_counter()
            if self.batch:
                front.submit_batch(specs)
            else:
                for spec in specs:
                    front.submit(*spec)
            front.wait_all()
            if latencies is not None:
                latencies.append(time.perf_counter() - t0)


class Tenants:
    """Two closed-loop tenants, each a ``Relax`` program of batched requests."""

    NAMES = ("interactive", "bulk")

    def __init__(self, sizes: dict, seed: int) -> None:
        self.sizes = sizes
        self.tenants = {
            name: Relax(sizes[name], seed * 2 + index, batch=True)
            for index, name in enumerate(self.NAMES)
        }
        self.task_count = sum(t.task_count for t in self.tenants.values())

    def inputs(self):
        return [a for name in self.NAMES for a in self.tenants[name].inputs()]

    def outputs(self):
        return [a for name in self.NAMES for a in self.tenants[name].outputs()]

    def run(self, front) -> None:
        """Reference form: both tenants' programs on one local Session."""
        for name in self.NAMES:
            self.tenants[name].run(front)


FAMILIES = {"blocks": Blocks, "stencil": Stencil, "relax": Relax, "gateway": Tenants}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    config: dict
    sizes: dict
    smoke: dict
    #: Keep the child and everything it spawns on one CPU (see ``child.main``).
    pin_cpu: bool = True


def _blocks_sizes(smoke: bool = False, **overrides) -> dict:
    sizes = {
        "blocks": 128, "block_bytes": 256 << 10, "patterns": 4, "passes": 28,
        "reload_every": 4, "offset_scale": 0.0, "coef_blocks": 0,
    }
    if smoke:
        sizes.update(blocks=16, block_bytes=16 << 10, patterns=2, passes=4)
    sizes.update(overrides)
    return sizes


_RELAX_SIZES = {"blocks": 64, "block_bytes": 256 << 10, "coef_blocks": 8, "iterations": 24}
_RELAX_SMOKE = {"blocks": 8, "block_bytes": 16 << 10, "coef_blocks": 2, "iterations": 3}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "memo_hot",
            "97% content twins on serial static ATM: keygen, THT hit path and "
            "output copy do the work, graph and dispatch almost none",
            "blocks",
            {"runtime": {"executor": "serial"}, "atm": {"mode": "static"}},
            _blocks_sizes(),
            _blocks_sizes(smoke=True),
        ),
        Workload(
            "memo_cold",
            "no content repeats and a shrunk THT: key-cache misses, inserts, "
            "FIFO evictions and zero hits, ATM as pure overhead",
            "blocks",
            {
                "runtime": {"executor": "serial"},
                "atm": {"mode": "static", "tht_bucket_bits": 6, "tht_bucket_capacity": 4},
            },
            _blocks_sizes(passes=6, reload_every=1, offset_scale=2.0 ** -20),
            _blocks_sizes(smoke=True, passes=24, reload_every=1, offset_scale=2.0 ** -20),
        ),
        Workload(
            "memo_approx",
            "two-input tasks whose twins differ in low mantissa bytes on dynamic "
            "ATM: the only p<1 run (type-aware sampling, training, error bound)",
            "blocks",
            {
                "runtime": {"executor": "serial"},
                "atm": {"mode": "dynamic", "tau_max": 0.01, "l_training": 15},
            },
            _blocks_sizes(passes=24, offset_scale=2.0 ** -40, coef_blocks=8),
            _blocks_sizes(smoke=True, passes=8, offset_scale=2.0 ** -40, coef_blocks=2),
        ),
        Workload(
            "graph_fine",
            "tens of thousands of 64-byte stencil tasks on the threaded backend: "
            "submit, dependences, graph, scheduler and drain loop are the cost",
            "stencil",
            {"runtime": {"executor": "threaded", "num_threads": WORKERS}},
            {"rows": 256, "row_bytes": 64, "sweeps": 120},
            {"rows": 32, "row_bytes": 64, "sweeps": 6},
        ),
        Workload(
            "dispatch_process",
            "relax iterations on a process worker: descriptor encode, queue IPC "
            "and shared-memory copy-in/out around a 0.25 ms kernel",
            "relax",
            # One worker beside the dispatching parent: with two, three busy
            # processes compete for the reference host's two cores and every
            # slow phase of a neighbour shows twice (run-to-run spread 11-22 %
            # against 7-14 %).  The parent-side dispatch path is the same.
            {"runtime": {"executor": "process", "num_threads": 1}},
            _RELAX_SIZES,
            _RELAX_SMOKE,
            pin_cpu=False,
        ),
        Workload(
            "dispatch_network",
            "the same relax program over loopback network endpoints with "
            "residency: stale state re-ships beside resident coefficient blocks",
            "relax",
            {
                "runtime": {
                    "executor": "network", "num_threads": WORKERS,
                    "net_endpoints": f"loopback:{WORKERS}", "net_residency": True,
                }
            },
            _RELAX_SIZES,
            _RELAX_SMOKE,
        ),
        Workload(
            "gateway_tenants",
            "closed-loop interactive (4-task) and bulk (32-task) tenants through "
            "the gateway: client encode, wire, fair-share admission, write-back",
            "gateway",
            {"runtime": {"executor": "threaded", "num_threads": WORKERS}},
            {
                "interactive": {"blocks": 4, "block_bytes": 32 << 10, "coef_blocks": 2,
                                "iterations": 320},
                "bulk": {"blocks": 32, "block_bytes": 32 << 10, "coef_blocks": 2,
                         "iterations": 60},
            },
            {
                "interactive": {"blocks": 4, "block_bytes": 8 << 10, "coef_blocks": 2,
                                "iterations": 6},
                "bulk": {"blocks": 16, "block_bytes": 8 << 10, "coef_blocks": 2,
                         "iterations": 2},
            },
        ),
    )
}


def build(workload: Workload, seed: int, smoke: bool = False):
    """Generate the workload's inputs and program from ``seed``."""
    return FAMILIES[workload.family](workload.smoke if smoke else workload.sizes, seed)


def input_digest(data) -> str:
    """Digest of every generated input array (same seed => same digest)."""
    digest = hashlib.blake2b(digest_size=16)
    for array in data.inputs():
        digest.update(np.ascontiguousarray(array).view(np.uint8).reshape(-1))
    return digest.hexdigest()


def output_array(data) -> np.ndarray:
    return np.concatenate([np.asarray(a).reshape(-1) for a in data.outputs()])


def resident_bytes(data) -> int:
    """Bytes of the arrays a workload keeps resident (inputs + outputs)."""
    seen: dict[int, int] = {}
    for array in list(data.inputs()) + list(data.outputs()):
        base = array if array.base is None else array.base
        seen[id(base)] = int(np.asarray(base).nbytes)
    return sum(seen.values())


# -- fronts: the opened system a program is submitted to -----------------------------
def _result_counts(result, warm_tasks: int) -> dict:
    """Task counts of a drained front, minus the warm-up wave."""
    return {
        "completed": result.tasks_completed - warm_tasks,
        "executed": result.tasks_executed - warm_tasks,
        "memoized": result.tasks_memoized,
        "deferred": result.tasks_deferred,
        "trained": result.tasks_trained,
        "failed": result.tasks_failed,
        "cancelled": result.tasks_cancelled,
    }


class SessionFront:
    """One ``Session`` with its pool spawned by a wave of no-op tasks."""

    def __init__(self, config: dict) -> None:
        self.session = Session(ReproConfig.from_dict(config))
        self.warm_tasks = 2 * WORKERS
        scratch = [np.zeros(8) for _ in range(self.warm_tasks)]
        try:
            for array in scratch:
                self.session.submit(NOOP, kernels.noop, [Out(array)], (array,))
            self.session.wait_all()
        except BaseException:
            self.session.close()
            raise

    def run(self, data) -> dict:
        """Timed region: first real submit -> ``finish()`` returned."""
        session = self.session
        t0 = time.perf_counter()
        data.run(session)
        result = session.finish()
        wall = time.perf_counter() - t0
        outcome = _result_counts(result, self.warm_tasks)
        outcome.update(wall_s=wall, raised=0)
        memory = result.extra.get("atm_memory_bytes")
        outcome["atm_mem_bytes"] = memory["total"] if memory else 0
        outcome["counters"] = self._counters(result)
        return outcome

    def _counters(self, result) -> dict:
        """The counters the system already exposes, read after the run."""
        session = self.session
        counters = {
            "edges": session.graph.edge_count,
            "max_depth": session.executor.scheduler.stats.max_depth,
            "stats": {
                k: v for k, v in session.stats.items()
                if isinstance(v, (int, float))
            },
            "keygen_cache": result.extra.get("keygen_cache", {}),
            "process_backend": result.extra.get("process_backend", {}),
            "network_backend": {
                k: v for k, v in result.extra.get("network_backend", {}).items()
                if isinstance(v, (int, float, dict))
            },
        }
        engine = session.engine
        if engine is not None:
            counters["tht"] = {
                "hits": engine.tht.hits, "misses": engine.tht.misses,
                "evictions": engine.tht.evictions, "entries": len(engine.tht),
            }
            if engine.ikt is not None:
                counters["ikt"] = {"hits": engine.ikt.hits}
            chosen = [
                engine.policy.chosen_p(task_type.name) for task_type in (STEP, STEP2)
                if session.stats.get("per_type", {}).get(task_type.name)
            ]
            counters["chosen_p"] = next((p for p in chosen if p is not None), 0.0)
        return counters

    def close(self) -> None:
        self.session.close()


class GatewayFront:
    """An in-process ``Gateway`` plus one connected client per tenant."""

    def __init__(self, config: dict) -> None:
        from repro.serving import Gateway, GatewayClient

        self.gateway = Gateway(ReproConfig.from_dict(config))
        self.clients: dict = {}
        try:
            port = self.gateway.start()
            for name in Tenants.NAMES:
                client = GatewayClient("127.0.0.1", port, tenant=name, weight=1.0)
                self.clients[name] = client
                scratch = np.zeros(8)
                client.submit(NOOP, kernels.noop, [Out(scratch)], (scratch,))
                client.wait_all()
        except BaseException:
            self.close()
            raise

    def run(self, data) -> dict:
        latencies = {name: [] for name in Tenants.NAMES}
        results: dict = {}
        raised: list[BaseException] = []
        #: The thread whose waiting a request latency is made of (for the trace).
        self.blocking_thread = None

        client_threads: list[int] = []

        def tenant_loop(name: str) -> None:
            client_threads.append(threading.get_ident())
            if name == Tenants.NAMES[0]:
                self.blocking_thread = threading.get_ident()
            try:
                data.tenants[name].run(self.clients[name], latencies[name])
                results[name] = self.clients[name].finish()
            except Exception as exc:  # a raised request is a counted failure
                raised.append(exc)

        threads = [
            threading.Thread(target=tenant_loop, args=(name,), name=f"tenant-{name}")
            for name in Tenants.NAMES
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        outcome = {
            key: sum(getattr(r, f"tasks_{key}", 0) for r in results.values())
            for key in ("completed", "executed", "memoized", "failed", "cancelled")
        }
        # One warm-up task per tenant was completed before the timed region.
        outcome["completed"] -= len(results)
        outcome["executed"] -= len(results)
        outcome.update(
            deferred=0, trained=0, wall_s=wall, raised=len(raised), atm_mem_bytes=0,
            client_threads=client_threads,
            raised_text=[f"{type(e).__name__}: {e}" for e in raised],
            req_ms=[1e3 * s for s in latencies["interactive"]],
            bulk_req_ms=[1e3 * s for s in latencies["bulk"]],
        )
        outcome["counters"] = {"gateway": self._stats()} if not raised else {}
        return outcome

    def _stats(self) -> dict:
        stats = self.clients["interactive"].stats()
        return {
            "tenants": {
                name: {k: v for k, v in entry.items() if isinstance(v, (int, float))}
                for name, entry in stats["tenants"].items()
            },
        }

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        self.gateway.stop()


def open_front(workload: Workload, config: dict, local: bool = False):
    """Open the system under test; everything done here is set-up time.

    ``local`` runs a gateway workload's two programs on a plain ``Session``
    instead (the reference, and the base of ``gateway.overhead_ratio``).
    """
    if workload.family == "gateway" and not local:
        return GatewayFront(config)
    return SessionFront(config)

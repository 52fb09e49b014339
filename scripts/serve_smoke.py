#!/usr/bin/env python
"""Serving-gateway smoke: concurrent tenants, bit-identity, ATM tiers.

The one-command acceptance check for the serving front door (DESIGN.md §8),
run by ``make serve-smoke`` and the CI serving step.  Three phases against
in-process gateways on real loopback TCP:

1. **Isolation** — two concurrent tenants each run all six evaluated
   applications through one gateway on a shared threaded pool, shared THT
   tier off.  Every output must be bit-identical to a serial local
   ``Session`` run of the same app, no task may fail, and no tenant may see
   a shared-tier hit (namespaces are isolated).
2. **Shared tier** — gateway restarted with ``serving.shared_tht`` on and a
   static ATM mode; a second tenant replaying the first tenant's app must
   reuse published results (``shared_hits > 0``) and still produce
   bit-identical output.
3. **The tier as a store** — a Session on ``atm.tht_store="tcp://<gateway>"``
   publishes its run into the gateway's shared tier at ``finish``; a fresh
   Session on the same URL must warm-start from it, reuse it and produce
   output bit-identical to the serial run.

Exit status is non-zero on any divergence.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.apps.registry import make_benchmark  # noqa: E402
from repro.serving import Gateway, GatewayClient  # noqa: E402
from repro.session import ReproConfig, Session  # noqa: E402
from repro.testing.traffic import SERVED_APPS  # noqa: E402

TENANTS = 2


def serial_reference(scale: str = "tiny") -> dict[str, np.ndarray]:
    out = {}
    for name in SERVED_APPS:
        app = make_benchmark(name, scale=scale)
        with Session(ReproConfig()) as session:
            app.build(session)
        out[name] = np.asarray(app.output(), dtype=np.float64).copy()
    return out


def phase_isolation(reference: dict[str, np.ndarray]) -> list[str]:
    """Concurrent tenants x six apps, shared tier off: bit-identity."""
    cfg = ReproConfig().with_overrides(
        runtime={"executor": "threaded", "num_threads": 2}
    )
    problems: list[str] = []
    lock = threading.Lock()

    def tenant_body(gateway: Gateway, tenant: str) -> None:
        try:
            with GatewayClient("127.0.0.1", gateway.port,
                               tenant=tenant) as client:
                for name in SERVED_APPS:
                    app = make_benchmark(name, scale="tiny")
                    app.build(client)
                    summary = client.wait_all()
                    out = np.asarray(app.output(), dtype=np.float64)
                    with lock:
                        if summary["tasks_failed"] or summary["tasks_cancelled"]:
                            problems.append(
                                f"{tenant}/{name}: failures "
                                f"{summary['failures']}"
                            )
                        elif not np.array_equal(out, reference[name]):
                            problems.append(
                                f"{tenant}/{name}: output diverged from the "
                                f"serial Session run"
                            )
                result = client.finish()
                if result.extra["shared_hits"]:
                    with lock:
                        problems.append(
                            f"{tenant}: {result.extra['shared_hits']} shared "
                            f"hits with the shared tier off"
                        )
        except Exception as exc:
            with lock:
                problems.append(f"{tenant}: {exc!r}")

    with Gateway(cfg) as gateway:
        threads = [
            threading.Thread(target=tenant_body,
                             args=(gateway, f"smoke-{i}"))
            for i in range(TENANTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            if thread.is_alive():
                problems.append(f"{thread.name}: tenant did not finish")
    return problems


def phase_shared_tier(reference: dict[str, np.ndarray]) -> list[str]:
    """Second tenant must reuse the first's published results."""
    cfg = ReproConfig().with_overrides(
        runtime={"executor": "serial"},
        atm={"mode": "static"},
        serving={"shared_tht": True},
    )
    problems: list[str] = []
    app_name = "blackscholes"

    def run(gateway: Gateway, tenant: str):
        app = make_benchmark(app_name, scale="tiny")
        with GatewayClient("127.0.0.1", gateway.port, tenant=tenant,
                           atm_mode="static", shared_tht=True) as client:
            app.build(client)
            result = client.finish()
        return result, np.asarray(app.output(), dtype=np.float64).copy()

    with Gateway(cfg) as gateway:
        first, out_first = run(gateway, "warm-a")
        second, out_second = run(gateway, "warm-b")
    for tenant, result in (("warm-a", first), ("warm-b", second)):
        if result.tasks_failed or result.tasks_cancelled:
            problems.append(f"{tenant}: failures {result.failures}")
    if second.extra["shared_hits"] <= 0:
        problems.append(
            f"warm-b: expected shared-tier hits, got "
            f"{second.extra['shared_hits']}"
        )
    if second.tasks_executed >= first.tasks_executed:
        problems.append(
            f"warm-b executed {second.tasks_executed} tasks, not fewer than "
            f"warm-a's {first.tasks_executed} despite the shared tier"
        )
    for tenant, out in (("warm-a", out_first), ("warm-b", out_second)):
        if not np.array_equal(out, reference[app_name]):
            problems.append(
                f"{tenant}: output diverged from the serial Session run"
            )
    return problems


def phase_tier_as_store(reference: dict[str, np.ndarray]) -> list[str]:
    """Sessions on ``tcp://<gateway>``: one publishes, a fresh one reuses."""
    cfg = ReproConfig().with_overrides(
        runtime={"executor": "serial"}, serving={"shared_tht": True}
    )
    problems: list[str] = []
    app_name = "blackscholes"
    with Gateway(cfg) as gateway:
        session_cfg = {"atm": {"mode": "static",
                               "tht_store": f"tcp://127.0.0.1:{gateway.port}"}}
        for run in ("publisher", "warm"):
            app = make_benchmark(app_name, scale="tiny")
            with Session(session_cfg, executor="serial") as session:
                app.run(session)
            out = np.asarray(app.output(), dtype=np.float64)
            if run == "warm" and not (session.warm_started and session.stats["tht_hits"]):
                problems.append(
                    f"store session: warm_started={session.warm_started}, "
                    f"{session.stats['tht_hits']} THT hits after the publisher's run"
                )
            if not np.array_equal(out, reference[app_name]):
                problems.append(
                    f"store session ({run}): output diverged from the serial Session run"
                )
    return problems


def main() -> int:
    print(f"serve-smoke: serial reference over {len(SERVED_APPS)} apps...",
          flush=True)
    reference = serial_reference()

    print(f"serve-smoke: phase 1 — {TENANTS} concurrent tenants x "
          f"{len(SERVED_APPS)} apps, shared tier off...", flush=True)
    problems = phase_isolation(reference)
    print("serve-smoke: phase 2 — shared THT tier reuse...", flush=True)
    problems += phase_shared_tier(reference)
    print("serve-smoke: phase 3 — the shared tier as a tcp:// THT store...",
          flush=True)
    problems += phase_tier_as_store(reference)

    if problems:
        for problem in problems:
            print(f"serve-smoke: FAIL {problem}", file=sys.stderr)
        return 1
    print(f"serve-smoke: OK — {TENANTS * len(SERVED_APPS)} tenant/app runs "
          f"bit-identical to serial, namespaces isolated, shared tier reuses, "
          f"and serves Sessions as a tcp:// store")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

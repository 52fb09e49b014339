"""Multi-client gateway soak: concurrent tenants under open-loop traffic.

Excluded from tier-1 (the ``serving`` marker): these tests run a threaded
pool with several genuinely concurrent TCP clients replaying seeded traffic
plans, which is seconds of wall-clock, not milliseconds.  Run with
``pytest -m serving`` (the CI serving tier / ``make serve-smoke`` path).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.apps.registry import make_benchmark
from repro.serving import Gateway, GatewayClient
from repro.session import ReproConfig, Session
from repro.testing.traffic import make_plan, replay

pytestmark = pytest.mark.serving


def serial_checksums(apps, scale="tiny") -> dict:
    out = {}
    for name in apps:
        app = make_benchmark(name, scale=scale)
        with Session(ReproConfig()) as session:
            app.run(session)
        out[name] = np.asarray(app.output(), dtype=np.float64).copy()
    return out


class TestConcurrentTenants:
    def test_six_apps_from_concurrent_tenants_match_serial(self):
        """Every app, two tenants each, all connections live at once."""
        apps = ("blackscholes", "gauss-seidel", "jacobi",
                "kmeans", "lu", "swaptions")
        reference = serial_checksums(apps)
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "threaded", "num_threads": 2}
        )
        failures: list[str] = []
        outputs: dict[str, np.ndarray] = {}

        def tenant_body(gateway, tenant, app_name):
            try:
                app = make_benchmark(app_name, scale="tiny")
                with GatewayClient("127.0.0.1", gateway.port,
                                   tenant=tenant) as client:
                    app.build(client)
                    result = client.finish()
                if result.tasks_failed or result.tasks_cancelled:
                    failures.append(f"{tenant}: {result.failures}")
                outputs[tenant] = np.asarray(
                    app.output(), dtype=np.float64
                ).copy()
            except Exception as exc:  # surfaced after join
                failures.append(f"{tenant}: {exc!r}")

        with Gateway(cfg) as gateway:
            threads = [
                threading.Thread(
                    target=tenant_body,
                    args=(gateway, f"{app}-{i}", app),
                )
                for app in apps
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not failures, failures
        for tenant, out in outputs.items():
            app = tenant.rsplit("-", 1)[0]
            assert np.array_equal(out, reference[app]), (
                f"{tenant}: output diverged from the serial Session run"
            )

    def test_open_loop_traffic_plan_drains_cleanly(self):
        """Replay a seeded Poisson plan of app submissions as one tenant."""
        plan = make_plan(6, rate_hz=50.0, seed=11)
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "threaded", "num_threads": 2}
        )
        with Gateway(cfg) as gateway:
            with GatewayClient("127.0.0.1", gateway.port,
                               tenant="traffic") as client:
                submitted = []

                def dispatch(request):
                    app = make_benchmark(request.app, scale="tiny")
                    app.build(client)
                    submitted.append(app)

                replay(plan, dispatch, speed=10.0)
                result = client.finish()
        assert len(submitted) == 6
        assert result.tasks_failed == 0
        assert result.extra["tasks_submitted"] == result.tasks_completed

    def test_fairness_under_asymmetric_load(self):
        """A heavy tenant's backlog must not starve a light tenant."""
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "threaded", "num_threads": 2},
            serving={"max_pending": 32, "quantum": 8},
        )
        done_at: dict[str, float] = {}
        barrier = threading.Barrier(2)

        def tenant_body(gateway, tenant, n_apps):
            import time as _time

            apps = [make_benchmark("jacobi", scale="tiny")
                    for _ in range(n_apps)]
            with GatewayClient("127.0.0.1", gateway.port,
                               tenant=tenant) as client:
                barrier.wait(timeout=30)
                for app in apps:
                    app.build(client)
                client.finish()
                done_at[tenant] = _time.monotonic()

        with Gateway(cfg) as gateway:
            threads = [
                threading.Thread(target=tenant_body,
                                 args=(gateway, "heavy", 8)),
                threading.Thread(target=tenant_body,
                                 args=(gateway, "light", 1)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert set(done_at) == {"heavy", "light"}
        # DRR interleaves admissions, so the light tenant's single app
        # cannot be queued behind the heavy tenant's entire 8x backlog.
        assert done_at["light"] <= done_at["heavy"]

"""Fast in-process gateway tests (tier-1): serial pool, loopback TCP.

The heavier concurrent/threaded soak lives in ``test_serving_soak.py``
behind the ``serving`` marker; everything here runs the serial pool (a few
scenarios on threaded, process and network pools aside) so the whole file
stays in the tier-1 time budget.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.apps.registry import make_benchmark
from repro.common.exceptions import (
    ConfigurationError,
    GatewayProtocolError,
    GatewayShutdownError,
    TaskDefinitionError,
    TenantRejectedError,
    WireProtocolError,
)
from repro.runtime.data import In, InOut, Out
from repro.runtime.net_wire import read_frame, write_frame
from repro.runtime.task import TaskType
from repro.serving import Gateway, GatewayClient
from repro.serving.gateway import SERVING_PROTOCOL_VERSION
from repro.session import ReproConfig, Session
from repro.testing.faults import wedge_body
from repro.testing.traffic import accumulate_block, fill_block

FILL = TaskType("serve_fill", memoizable=False)
ACC = TaskType("serve_acc", memoizable=False)


def boom_body(arr: np.ndarray) -> None:
    raise ValueError("deliberate serving-test failure")


def add_five(src: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = src + 5


@pytest.fixture(scope="module")
def gateway():
    cfg = ReproConfig().with_overrides(runtime={"executor": "serial"})
    gw = Gateway(cfg)
    gw.start()
    yield gw
    gw.stop()


def connect(gateway: Gateway, tenant: str, **kwargs) -> GatewayClient:
    return GatewayClient(
        "127.0.0.1", gateway.port, tenant=tenant, **kwargs
    )


class TestEndToEnd:
    def test_submit_barrier_writeback(self, gateway):
        blocks = [np.zeros(8) for _ in range(3)]
        acc = np.zeros(8)
        with connect(gateway, "e2e-basic") as client:
            for i, block in enumerate(blocks):
                client.submit(FILL, fill_block, accesses=[Out(block)],
                              args=(block, float(i + 1)))
            for block in blocks:
                client.submit(ACC, accumulate_block,
                              accesses=[In(block), InOut(acc)],
                              args=(block, acc))
            summary = client.wait_all()
            assert summary["tasks_completed"] == 6
            assert summary["tasks_failed"] == 0
        for i, block in enumerate(blocks):
            assert np.all(block == i + 1), "write-back missed a filled block"
        assert np.all(acc == 1 + 2 + 3)

    def test_multiple_waves_reuse_shipped_buffers(self, gateway):
        data = np.zeros(4)
        acc = np.zeros(4)
        with connect(gateway, "e2e-waves") as client:
            client.submit(FILL, fill_block, accesses=[Out(data)],
                          args=(data, 2.0))
            client.wait_all()
            assert np.all(data == 2.0)
            # Second wave: only refs travel; the gateway's arena copy is
            # authoritative and already holds the first wave's writes.
            client.submit(ACC, accumulate_block,
                          accesses=[In(data), InOut(acc)], args=(data, acc))
            result = client.finish()
        assert np.all(acc == 2.0)
        assert result.tasks_completed == 2
        assert result.extra["tenant"] == "e2e-waves"

    def test_benchmark_matches_local_session(self, gateway):
        remote = make_benchmark("jacobi", scale="tiny")
        with connect(gateway, "e2e-jacobi") as client:
            remote.build(client)
            result = client.finish()
        local = make_benchmark("jacobi", scale="tiny")
        with Session(ReproConfig()) as session:
            local.run(session)
        assert np.array_equal(remote.output(), local.output())
        assert result.tasks_completed == session.result.tasks_completed

    def test_result_and_stats_surfaces(self, gateway):
        data = np.zeros(4)
        with connect(gateway, "e2e-stats") as client:
            client.submit(FILL, fill_block, accesses=[Out(data)],
                          args=(data, 1.0))
            client.wait_all()
            result = client.result()
            stats = client.stats()
        assert result.tasks_completed == 1
        assert result.extra["tasks_submitted"] == 1
        assert stats["pool"]["executor"] == "serial"
        entry = stats["tenants"]["e2e-stats"]
        assert entry["completed"] == 1
        assert entry["latency_p50_s"] >= 0.0
        assert entry["latency_p99_s"] >= entry["latency_p50_s"]
        assert "pending" in stats["admission"]

    def test_stats_report_the_pool_ready_queue_high_water_mark(self):
        gw = Gateway(ReproConfig().with_overrides(runtime={"executor": "serial"}))
        gw.start()
        try:
            blocks = [np.zeros(4) for _ in range(8)]
            with connect(gw, "e2e-depth") as client:
                assert client.stats()["pool"]["max_depth"] == 0
                client.submit_batch([
                    (FILL, fill_block, [Out(block)], (block, 1.0)) for block in blocks
                ])
                client.wait_all()
                depth = client.stats()["pool"]["max_depth"]
        finally:
            gw.stop()
        # Eight independent tasks: at least one queued, never more than eight.
        assert 1 <= depth <= len(blocks)

    def test_reconnect_resumes_tenant_namespace(self, gateway):
        data = np.zeros(4)
        acc = np.zeros(4)
        with connect(gateway, "e2e-reconnect") as client:
            client.submit(FILL, fill_block, accesses=[Out(data)],
                          args=(data, 3.0))
            client.wait_all()
        with connect(gateway, "e2e-reconnect") as client:
            before = client.result()
            assert before.extra["tasks_submitted"] == 1  # counters survived
            client.submit(ACC, accumulate_block,
                          accesses=[In(data), InOut(acc)], args=(data, acc))
            after = client.finish()
        assert after.extra["tasks_submitted"] == 2
        assert np.all(acc == 3.0)

    def test_a_returning_tenant_is_never_refused(self, gateway):
        """The gateway forgets a connection on that connection's own thread,
        after its read saw the EOF; a client that closes and says hello
        again at once overtakes that.  The hello takes the hung-up
        connection's session over instead of being rejected."""
        with connect(gateway, "e2e-returning") as client:
            assert client.result().extra["tasks_submitted"] == 0
        for _ in range(200):
            connect(gateway, "e2e-returning").close()
        with connect(gateway, "e2e-returning") as client:
            assert client.result().extra["tasks_submitted"] == 0

    def test_a_tenant_whose_client_died_without_closing_may_return(self, gateway):
        lost = connect(gateway, "e2e-lost-client")
        lost._sock.shutdown(socket.SHUT_WR)  # the gateway's read side sees EOF
        try:
            with connect(gateway, "e2e-lost-client") as client:
                assert client.result().extra["tasks_submitted"] == 0
        finally:
            lost.close()


class TestProcessPool:
    """A pool whose workers share no memory with the gateway: a task's
    writes are in the tenant's arena before its completion can wake the
    tenant's barrier (``ProcessExecutor._write_back`` precedes
    ``graph.complete_task``), while another tenant keeps the drain open."""

    def test_barrier_returns_a_finished_tenants_bytes_while_the_drain_is_open(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "process", "num_threads": 2, "mp_chunk_size": 1}
        )
        sleeper = TaskType("serve_sleep", memoizable=False)
        long_s = 1.5
        b_src = np.arange(4.0)
        b_short, b_long = np.zeros(4), np.zeros(4)
        a_src = np.arange(4.0)
        a_dst = np.zeros(4)
        with Gateway(cfg) as gw:
            with connect(gw, "pool-a") as a, connect(gw, "pool-b") as b:
                # B's short task frees a worker (and an admission pump) for
                # A's task; B's long one keeps the drain open past A's barrier.
                b.submit_batch([
                    (sleeper, wedge_body, [In(b_src), Out(b_short)], (0.1, b_src, b_short)),
                    (sleeper, wedge_body, [In(b_src), Out(b_long)], (long_s, b_src, b_long)),
                ])
                t0 = time.monotonic()
                a.submit(TaskType("serve_add5", memoizable=False), add_five,
                         accesses=[In(a_src), Out(a_dst)], args=(a_src, a_dst))
                a.wait_all()
                waited = time.monotonic() - t0
                b_completed = b.result().tasks_completed
                assert np.array_equal(a_dst, [5.0, 6.0, 7.0, 8.0])
                assert b_completed < 2 and waited < long_s, (
                    "the scenario needs B's long task to outlive A's barrier"
                )
                b.wait_all()
        assert np.array_equal(b_short, b_src ** 2)
        assert np.array_equal(b_long, b_src ** 2)


class TestFailureSurfacing:
    def test_failure_and_cancellation_reach_the_client(self, gateway):
        data = np.zeros(4)
        dep = np.zeros(4)
        with connect(gateway, "fail-report") as client:
            client.submit(TaskType("serve_boom", memoizable=False), boom_body,
                          accesses=[InOut(data)], args=(data,))
            client.submit(ACC, accumulate_block,
                          accesses=[In(data), InOut(dep)], args=(data, dep))
            result = client.finish()
        assert result.tasks_failed == 1
        assert result.tasks_cancelled == 1  # quarantined dependent
        assert result.tasks_completed == 0
        assert len(result.failures) >= 1
        failure = result.failures[0]
        assert "deliberate serving-test failure" in failure.reason
        assert failure.error == "TaskFailedError"

    def test_task_submitted_after_the_failure_is_counted_and_named(self, gateway):
        data = np.zeros(4)
        dep = np.zeros(4)
        with connect(gateway, "fail-late") as client:
            client.submit(TaskType("serve_boom", memoizable=False), boom_body,
                          accesses=[InOut(data)], args=(data,))
            client.wait_all()
            pool_before = client.stats()["pool"]["tasks_cancelled"]
            client.submit(ACC, accumulate_block,
                          accesses=[In(data), InOut(dep)], args=(data, dep))
            result = client.finish()
            pool_after = client.stats()["pool"]["tasks_cancelled"]
        assert (result.tasks_failed, result.tasks_cancelled) == (1, 1)
        assert pool_after == pool_before + 1  # born cancelled, still counted
        (failure,) = result.failures
        assert len(failure.cancelled) == 1  # the report names the late task

    def test_failures_are_per_tenant(self, gateway):
        ok = np.zeros(4)
        with connect(gateway, "fail-peer") as client:
            client.submit(FILL, fill_block, accesses=[Out(ok)],
                          args=(ok, 1.0))
            result = client.finish()
        assert result.tasks_failed == 0
        assert result.failures == []  # the other tenant's failure is not ours

    def test_a_failed_drain_fails_admitted_and_queued_work_and_frees_the_pool(self):
        """A drain that dies wholesale (the pool's failure, not a task's)
        fails the tasks of the broken graph and every task still queued for
        admission, each with a report naming the drain's error; the pending
        pool empties and the next wave runs on the rebuilt pool.  (Queued
        tasks used to stay queued, enter the new graph unaccounted and hold
        their pending slots for good: the next wave never returned.)"""
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "serial"}, serving={"max_pending": 4}
        )
        first_wave = [np.zeros(4) for _ in range(20)]
        second_wave = [np.zeros(4) for _ in range(8)]

        def broken_drain(graph):
            raise RuntimeError("injected drain failure")

        with Gateway(cfg) as gw:
            gw._executor.drain = broken_drain  # the rebuilt pool drains normally
            with connect(gw, "drain-fail") as client:
                client._sock.settimeout(10.0)  # a hang fails instead of blocking
                client.submit_batch(
                    [(FILL, fill_block, [InOut(b)], (b, 1.0)) for b in first_wave]
                )
                first = client.finish()
                assert (gw._admission.pending, gw._admission.queued()) == (0, 0)
                client.submit_batch(
                    [(FILL, fill_block, [InOut(b)], (b, 2.0)) for b in second_wave]
                )
                second = client.finish()
        assert (first.tasks_failed, first.tasks_completed) == (20, 0)
        assert len({failure.task_id for failure in first.failures}) == 20
        for failure in first.failures:
            assert "RuntimeError: injected drain failure" in failure.reason
        assert (second.tasks_failed, second.tasks_completed) == (20, 8)
        assert not any(b.any() for b in first_wave)
        assert all(np.all(b == 2.0) for b in second_wave)

    def test_a_task_the_dead_drain_finishes_during_recovery_is_counted_once(self):
        """A worker of a drain that died may still finish a task after the
        recovery read the broken graph: the task is counted once, as
        completed, and the recovery still fails every other task and frees
        exactly the slots it claimed.  (A recovery that reads the tenant
        off a task its completion already took dies, leaving the rest of
        the wave unfailed and the dispatch loop dead.)"""
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "serial"}, serving={"max_pending": 4}
        )
        first_wave = [np.zeros(4) for _ in range(20)]
        later = np.zeros(4)

        def broken_drain(graph):
            raise RuntimeError("injected drain failure")

        with Gateway(cfg) as gw:
            broken, old_graph = gw._executor, gw._graph
            broken.drain = broken_drain
            close = broken.close

            def close_while_a_stuck_worker_finishes():
                # Between the recovery's read of the graph and its claims.
                old_graph.complete_task(old_graph.pending_tasks()[0])
                close()

            broken.close = close_while_a_stuck_worker_finishes
            with connect(gw, "drain-race") as client:
                client._sock.settimeout(10.0)  # a hang fails instead of blocking
                client.submit_batch(
                    [(FILL, fill_block, [InOut(b)], (b, 1.0)) for b in first_wave]
                )
                first = client.finish()
                assert (gw._admission.pending, gw._admission.queued()) == (0, 0)
                client.submit(FILL, fill_block, accesses=[InOut(later)], args=(later, 2.0))
                second = client.finish()
            assert gw._drain_errors == 1
        assert (first.tasks_failed, first.tasks_completed) == (19, 1)
        assert len({failure.task_id for failure in first.failures}) == 19
        assert (second.tasks_failed, second.tasks_completed) == (19, 2)
        assert np.all(later == 2.0)


class TestProtocolErrors:
    def test_submit_before_hello(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
            write_frame(sock, ("result",))
            reply = read_frame(sock)
            assert reply[0] == "error"
            assert reply[1] == "GatewayProtocolError"
            assert "before hello" in reply[2]

    def test_unknown_message_type_keeps_connection_usable(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
            write_frame(sock, ("hello", {
                "protocol": SERVING_PROTOCOL_VERSION, "tenant": "proto-live",
            }))
            assert read_frame(sock)[0] == "hello_ack"
            write_frame(sock, ("frobnicate",))
            reply = read_frame(sock)
            assert reply[:2] == ("error", "GatewayProtocolError")
            write_frame(sock, ("result",))  # the error did not kill the loop
            assert read_frame(sock)[0] == "result_reply"

    def test_duplicate_hello_rejected(self, gateway):
        hello = ("hello", {
            "protocol": SERVING_PROTOCOL_VERSION, "tenant": "proto-dup",
        })
        with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
            write_frame(sock, hello)
            assert read_frame(sock)[0] == "hello_ack"
            write_frame(sock, hello)
            assert read_frame(sock)[:2] == ("error", "GatewayProtocolError")

    def test_protocol_version_mismatch(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
            write_frame(sock, ("hello", {"protocol": 999, "tenant": "x"}))
            reply = read_frame(sock)
            assert reply[:2] == ("error", "TenantRejectedError")
            assert "protocol mismatch" in reply[2]

    def test_client_raises_typed_errors(self, gateway):
        with pytest.raises(TenantRejectedError, match="weight"):
            connect(gateway, "proto-weight", weight=-1.0)

    def test_invalid_task_definition_is_an_error_reply(self, gateway):
        data = np.zeros(4)
        with connect(gateway, "proto-baddef") as client:
            with pytest.raises(TaskDefinitionError, match="conflicting"):
                client.submit(ACC, accumulate_block,
                              accesses=[In(data), InOut(data)],
                              args=(data, data))
            # The rejection answered the request; the connection (and the
            # tenant's accounting) are still live.
            client.submit(FILL, fill_block, accesses=[Out(data)],
                          args=(data, 1.0))
            result = client.finish()
        assert result.tasks_completed == 1
        assert result.extra["tasks_submitted"] == 1  # the bad one rolled back

    @pytest.mark.parametrize("trim", [3, -3], ids=["short", "long"])
    def test_wrong_sized_writeback_is_a_protocol_error(self, gateway, monkeypatch, trim):
        """A write-back that does not fit its buffer must not be broadcast
        into it (or escape as a raw ``ValueError``)."""
        from repro.runtime.net_wire import raw_view
        from repro.serving.gateway import TenantArena

        def wrong_size(self, buffer_id):
            backing = self._bases[buffer_id]
            resized = backing[:-trim] if trim > 0 else np.concatenate([backing, backing[:-trim]])
            return raw_view(resized)

        monkeypatch.setattr(TenantArena, "backing_view", wrong_size)
        data = np.zeros(8)
        with connect(gateway, f"proto-writeback-{trim}") as client:
            client.submit(FILL, fill_block, accesses=[Out(data)], args=(data, 5.0))
            with pytest.raises(GatewayProtocolError, match="for a 64-byte buffer"):
                client.wait_all()
        assert not data.any(), "a malformed write-back landed"

    def test_second_live_connection_for_same_tenant_rejected(self, gateway):
        with connect(gateway, "proto-single"):
            with pytest.raises(TenantRejectedError, match="live connection"):
                connect(gateway, "proto-single")

    def test_draining_gateway_refuses_new_tenants(self, gateway):
        gateway._draining = True
        try:
            with pytest.raises(GatewayShutdownError):
                connect(gateway, "late-arrival")
        finally:
            gateway._draining = False


HELLO_FIELDS = {"protocol": SERVING_PROTOCOL_VERSION}


class TestMalformedRequests:
    """Hostile or malformed input ends in a named error reply, never in a
    traceback: the connection stays usable after a bad message, dies alone
    after bytes that are no frame or a handler bug."""

    @pytest.mark.parametrize("bad", [
        ("submit",),
        ("submit", 7),
        ("submit", 7, ()),
        ("submit", None, None),
        ("submit_batch", 7, None),
        ("submit_batch", (7,), ()),
        ("submit_batch", (), (7,)),
        ("submit_batch", (), (), "extra"),
    ], ids=["submit-bare", "submit-no-buffers", "submit-int-desc", "submit-nones",
            "batch-int-none", "batch-int-desc", "batch-int-buffer", "batch-extra-field"])
    def test_malformed_submission_is_rejected_and_leaves_nothing(
        self, gateway, capfd, request, bad
    ):
        data = np.zeros(4)
        tenant = f"malformed-{request.node.callspec.id}"
        with connect(gateway, tenant) as client, connect(gateway, tenant + "-peer") as peer:
            write_frame(client._sock, bad)
            reply = read_frame(client._sock)
            assert reply[:2] == ("error", "GatewayProtocolError"), reply
            state = gateway._tenants[tenant]
            assert state.outstanding == 0 and state.submitted == 0
            assert gateway._admission.queued(tenant) == 0
            # The same connection then serves a correct submit + barrier ...
            client.submit(FILL, fill_block, accesses=[Out(data)], args=(data, 4.0))
            assert client.wait_all()["tasks_completed"] == 1
            # ... and the other tenant never noticed.
            assert peer.result().tasks_failed == 0
        assert np.all(data == 4.0)
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("bad", [
        ("hello",),
        ("hello", 5),
        ("hello", HELLO_FIELDS, "extra"),
        ("hello", {**HELLO_FIELDS, "tenant": "bad-hello", "weight": "heavy"}),
        ("hello", {**HELLO_FIELDS, "tenant": "bad-hello", "weight": float("nan")}),
        ("hello", {**HELLO_FIELDS, "tenant": "bad-hello", "atm_p": [0.5]}),
        ("hello", {**HELLO_FIELDS, "tenant": ["bad-hello"]}),
    ], ids=["no-fields", "not-a-mapping", "extra-field", "weight-str", "weight-nan",
            "atm_p-list", "tenant-list"])
    def test_malformed_hello_is_rejected_and_a_good_one_follows(self, gateway, capfd, bad):
        with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
            write_frame(sock, bad)
            reply = read_frame(sock)
            assert reply[0] == "error"
            assert reply[1] in ("GatewayProtocolError", "TenantRejectedError"), reply
            assert "bad-hello" not in gateway._tenants
            write_frame(sock, ("hello", {**HELLO_FIELDS, "tenant": "good-hello"}))
            assert read_frame(sock)[0] == "hello_ack"
            write_frame(sock, ("barrier",))
            assert read_frame(sock)[0] == "barrier_result"
        assert "Traceback" not in capfd.readouterr().err

    def test_bytes_that_are_no_frame_get_a_named_error_and_a_close(self, gateway, capfd):
        with connect(gateway, "no-frame-peer") as peer:
            with socket.create_connection(("127.0.0.1", gateway.port)) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                reply = read_frame(sock)
                assert reply[:2] == ("error", "WireProtocolError")
                assert "bad frame magic" in reply[2]
                try:  # ... and the gateway hung up (the unread rest of
                    assert sock.recv(1) == b""  # the request makes it a reset)
                except ConnectionResetError:
                    pass
            assert peer.result().tasks_failed == 0
        assert "Traceback" not in capfd.readouterr().err

    def test_a_handler_bug_is_a_gateway_error_reply_that_closes_one_connection(
        self, gateway, capfd, monkeypatch
    ):
        def broken(self, tenant):
            raise RuntimeError("deliberate handler bug")

        with connect(gateway, "bug-peer") as peer, connect(gateway, "bug-victim") as victim:
            healthy = Gateway._tenant_summary
            monkeypatch.setattr(Gateway, "_tenant_summary", broken)
            write_frame(victim._sock, ("result",))
            reply = read_frame(victim._sock)
            assert reply[:2] == ("error", "GatewayError")
            assert "deliberate handler bug" in reply[2]
            with pytest.raises(WireProtocolError, match="connection closed"):
                read_frame(victim._sock)
            monkeypatch.setattr(Gateway, "_tenant_summary", healthy)
            assert peer.result().tasks_failed == 0
        # The tenant itself is intact: it may reconnect.
        with connect(gateway, "bug-victim") as again:
            assert again.result().extra["tasks_submitted"] == 0
        assert "Traceback" not in capfd.readouterr().err


class TestAtmNamespaces:
    """Per-tenant ATM isolation and the opt-in shared THT tier."""

    def run_app(self, gw, tenant, shared=None):
        app = make_benchmark("blackscholes", scale="tiny")
        kwargs = {} if shared is None else {"shared_tht": shared}
        with GatewayClient("127.0.0.1", gw.port, tenant=tenant,
                           atm_mode="static", **kwargs) as client:
            app.build(client)
            result = client.finish()
        return result, app.output().copy()

    @staticmethod
    def local_output() -> np.ndarray:
        app = make_benchmark("blackscholes", scale="tiny")
        with Session(executor="serial") as session:
            app.run(session)
        return app.output().copy()

    @pytest.mark.parametrize("pool", ["serial", "threaded", "process", "network"])
    def test_isolated_namespaces_show_no_cross_tenant_reuse(self, pool):
        """Tenants memoize on every pool kind, each in its own namespace."""
        cfg = ReproConfig().with_overrides(
            runtime={"executor": pool, "num_threads": 1}, atm={"mode": "static"}
        )
        with Gateway(cfg) as gw:
            first, out_first = self.run_app(gw, "iso-a")
            second, out_second = self.run_app(gw, "iso-b")
        # Without the shared tier the second tenant starts cold: identical
        # accounting to the first run and zero shared hits.
        for result in (first, second):
            counts = result.tasks_executed, result.tasks_memoized, result.extra["shared_hits"]
            assert counts == (12, 132, 0)
        local = self.local_output()
        assert np.array_equal(out_first, local) and np.array_equal(out_second, local)

    def test_concurrent_tenants_memoize_on_a_two_worker_process_pool(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "process", "num_threads": 2}, atm={"mode": "static"}
        )
        runs: dict = {}
        with Gateway(cfg) as gw:
            threads = [
                threading.Thread(
                    target=lambda name=name: runs.__setitem__(name, self.run_app(gw, name))
                )
                for name in ("proc-a", "proc-b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert sorted(runs) == ["proc-a", "proc-b"]
        local = self.local_output()
        for result, out in runs.values():
            assert result.tasks_executed + result.tasks_memoized == 144
            assert result.tasks_memoized > 0 and result.extra["shared_hits"] == 0
            assert np.array_equal(out, local)

    def test_shared_tier_serves_a_process_pool(self):
        """The shared-tier probe runs where the lookup runs — in the
        gateway, also for a worker pool: tenant B hits what tenant A's
        flush published to the shared tier."""
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "process", "num_threads": 2},
            atm={"mode": "static"},
            serving={"shared_tht": True},
        )
        with Gateway(cfg) as gw:
            first, out_first = self.run_app(gw, "proc-share-a", shared=True)
            second, out_second = self.run_app(gw, "proc-share-b", shared=True)
        assert first.extra["shared_hits"] == 0
        assert second.extra["shared_hits"] > 0
        assert second.tasks_executed < first.tasks_executed
        assert np.array_equal(out_first, out_second)
        assert np.array_equal(out_first, self.local_output())

    def test_shared_tier_lets_second_tenant_reuse(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "serial"},
            atm={"mode": "static"},
            serving={"shared_tht": True},
        )
        with Gateway(cfg) as gw:
            first, out_first = self.run_app(gw, "share-a", shared=True)
            second, out_second = self.run_app(gw, "share-b", shared=True)
        assert first.extra["shared_hits"] == 0  # nothing to reuse yet
        assert second.extra["shared_hits"] > 0
        assert second.tasks_memoized >= first.tasks_memoized
        assert second.tasks_executed < first.tasks_executed
        assert np.array_equal(out_first, out_second)

    def test_shared_tier_opt_out_per_tenant(self):
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "serial"},
            atm={"mode": "static"},
            serving={"shared_tht": True},
        )
        with Gateway(cfg) as gw:
            self.run_app(gw, "optout-a", shared=True)
            second, _ = self.run_app(gw, "optout-b", shared=False)
        assert second.extra["shared_hits"] == 0


class TestPersistentSharedTier:
    """The shared tier backed by ``atm.tht_store`` (DESIGN.md §9)."""

    def run_app(self, gw, tenant):
        app = make_benchmark("blackscholes", scale="tiny")
        with GatewayClient("127.0.0.1", gw.port, tenant=tenant,
                           atm_mode="static", shared_tht=True) as client:
            app.build(client)
            result = client.finish()
        return result, app.output().copy()

    def store_config(self, url):
        return ReproConfig().with_overrides(
            runtime={"executor": "serial"},
            atm={"mode": "static", "tht_store": url},
            serving={"shared_tht": True},
        )

    def test_shared_tier_survives_gateway_restart(self, tmp_path):
        url = f"file://{tmp_path / 'shared.tht'}"
        cfg = self.store_config(url)
        with Gateway(cfg) as gw:
            first, out_first = self.run_app(gw, "persist-a")
        assert first.extra["shared_hits"] == 0
        # A brand-new gateway on the same store starts with a warm shared
        # tier: the very first tenant reuses the previous campaign's work.
        with Gateway(cfg) as gw:
            second, out_second = self.run_app(gw, "persist-b")
        assert second.extra["shared_hits"] > 0
        assert np.array_equal(out_first, out_second)

    def test_gateway_publishes_to_shard_sessions_can_reuse(self, tmp_path):
        """A Session on ``tcp://<gateway>`` warm-starts from what the
        gateway's tenants put in its shared tier, and a tenant reuses what
        such a Session published."""
        url = f"file://{tmp_path / 'tier.tht'}"
        with Gateway(self.store_config(url)) as gw:
            first, out_first = self.run_app(gw, "tier-pub")
            session_config = {"atm": {"mode": "static", "tht_store": f"tcp://127.0.0.1:{gw.port}"}}
            app = make_benchmark("blackscholes", scale="tiny")
            with Session(session_config, executor="serial") as session:
                app.run(session)
                assert session.warm_started
                assert session.stats["tht_hits"] > 0
            assert np.array_equal(app.output(), out_first)
        # The reverse direction, on a fresh gateway whose tier is cold: the
        # Session's publish at finish lands in it and serves the next tenant.
        with Gateway(self.store_config(None)) as gw:
            session_config = {"atm": {"mode": "static", "tht_store": f"tcp://127.0.0.1:{gw.port}"}}
            with Session(session_config, executor="serial") as session:
                make_benchmark("blackscholes", scale="tiny").run(session)
                assert not session.warm_started
            second, out_second = self.run_app(gw, "tier-sub")
        assert first.extra["shared_hits"] == 0
        assert second.extra["shared_hits"] > 0
        assert second.tasks_executed < first.tasks_executed
        assert np.array_equal(out_first, out_second)

    def test_unavailable_store_degrades_to_in_memory_tier(self):
        cfg = self.store_config("tcp://127.0.0.1:1")
        with pytest.warns(RuntimeWarning, match="unavailable"):
            gw = Gateway(cfg)
        with gw:
            self.run_app(gw, "degraded-a")
            second, _ = self.run_app(gw, "degraded-b")
        assert second.extra["shared_hits"] > 0  # in-memory sharing still works


class TestGatewayConfig:
    def test_rejects_simulated_pool(self):
        cfg = ReproConfig().with_overrides(runtime={"executor": "simulated"})
        with pytest.raises(ConfigurationError, match="simulated"):
            Gateway(cfg)

    def test_a_store_without_the_shared_tier_is_refused(self, tmp_path):
        """As a Session without an engine refuses one: the store backs the
        shared tier, and nothing else would ever write it."""
        store = tmp_path / "tier.tht"
        cfg = ReproConfig().with_overrides(
            runtime={"executor": "serial"},
            atm={"mode": "static", "tht_store": f"file://{store}"},
        )
        with pytest.raises(ConfigurationError, match="serving.shared_tht"):
            Gateway(cfg)
        assert not store.exists()

    def test_port_zero_binds_ephemeral(self):
        with Gateway(ReproConfig()) as gw:
            assert gw.port > 0

"""Tests for the Session facade: assembly, task declaration, registries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import DynamicATMPolicy, FixedPPolicy, StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig
from repro.common.exceptions import (
    ConfigurationError,
    DrainAbortedError,
    RuntimeStateError,
    TaskDefinitionError,
)
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.mp_executor import ProcessExecutor
from repro.runtime.simulator import SimulatedExecutor
from repro.runtime.task import TaskType
from repro.session import (
    EXECUTORS,
    POLICIES,
    In,
    InOut,
    Out,
    ReproConfig,
    Session,
)


class TestAssembly:
    def test_default_session_is_serial_without_atm(self):
        s = Session()
        assert isinstance(s.executor, SerialExecutor)
        assert s.engine is None

    def test_executor_name_resolved_via_registry(self):
        assert isinstance(Session(executor="threaded").executor, ThreadedExecutor)
        assert isinstance(Session(executor="simulated").executor, SimulatedExecutor)
        process = Session(executor="process", cores=2)
        try:
            assert isinstance(process.executor, ProcessExecutor)
        finally:
            process.close()

    def test_unknown_executor_name_raises(self):
        with pytest.raises(ConfigurationError, match="warp"):
            Session(executor="warp")

    def test_policy_name_builds_engine(self):
        static = Session(policy="static")
        assert isinstance(static.engine, ATMEngine)
        assert isinstance(static.engine.policy, StaticATMPolicy)
        dynamic = Session(policy="dynamic")
        assert isinstance(dynamic.engine.policy, DynamicATMPolicy)
        fixed = Session(policy="fixed_p", p=0.25)
        assert isinstance(fixed.engine.policy, FixedPPolicy)
        assert fixed.engine.policy.config.p == 0.25

    def test_config_tree_drives_assembly(self):
        cfg = ReproConfig.from_dict({
            "runtime": {"executor": "simulated", "num_threads": 4},
            "atm": {"mode": "static", "tht_bucket_bits": 4},
        })
        s = Session(cfg)
        assert isinstance(s.executor, SimulatedExecutor)
        assert s.engine.tht.config.tht_bucket_bits == 4
        assert s.config.runtime.num_threads == 4

    def test_simulation_config_reaches_simulator(self):
        cfg = ReproConfig.from_dict({
            "runtime": {"executor": "simulated"},
            "simulation": {"copy_bandwidth": 1234.0},
        })
        s = Session(cfg)
        assert s.executor.sim.copy_bandwidth == 1234.0

    def test_explicit_executor_instance_and_engine_install(self):
        config = ATMConfig()
        engine = ATMEngine(config=config, policy=StaticATMPolicy(config))
        executor = SerialExecutor(config=RuntimeConfig(num_threads=1))
        s = Session(executor=executor, engine=engine)
        assert s.executor is executor
        assert s.engine is engine and not hasattr(executor, "engine")

    def test_policy_instance_accepted(self):
        policy = FixedPPolicy(0.5, ATMConfig())
        s = Session(policy=policy)
        assert s.engine.policy is policy

    def test_fixed_p_kwarg_requires_explicit_p(self):
        with pytest.raises(ConfigurationError, match="explicit p"):
            Session(policy="fixed_p")
        # the declarative path states atm.p explicitly instead
        s = Session({"atm": {"mode": "fixed_p", "p": 0.125}})
        assert s.engine.policy.config.p == 0.125

    def test_dangling_p_without_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="no effect"):
            Session(p=0.25)
        with pytest.raises(ConfigurationError, match="no effect"):
            Session(executor=SerialExecutor(config=RuntimeConfig(num_threads=1)),
                    p=0.25)

    def test_builtin_name_cannot_be_shadowed_without_replace(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            POLICIES.register("static", lambda config: StaticATMPolicy(config))

    def test_executor_instance_rejects_runtime_overrides(self):
        executor = ThreadedExecutor(config=RuntimeConfig(num_threads=2))
        with pytest.raises(ConfigurationError, match="num_threads"):
            Session(executor=executor, cores=8)

    def test_scheduler_is_not_a_session_argument(self):
        # The one ready queue is the FIFO; there is nothing to choose.
        with pytest.raises(TypeError, match="scheduler"):
            Session(scheduler="fifo")

    def test_engine_sized_from_executor_instance_threads(self):
        executor = ThreadedExecutor(config=RuntimeConfig(num_threads=3))
        s = Session(executor=executor, engine=None, policy=None,
                    config={"atm": {"mode": "static"}})
        assert s.engine.ikt.max_entries == 3

    def test_from_config_classmethod(self):
        s = Session({"runtime": {"num_threads": 2}}, policy="static")
        assert s.config.runtime.num_threads == 2
        assert isinstance(s.engine.policy, StaticATMPolicy)

    def test_describe_mentions_backend_and_policy(self):
        text = Session(executor="simulated", policy="static").describe()
        assert "SimulatedExecutor" in text and "static" in text

    def test_explicit_engine_rejects_policy_and_p_overrides(self):
        config = ATMConfig()
        engine = ATMEngine(config=config, policy=StaticATMPolicy(config))
        with pytest.raises(ConfigurationError, match="pre-built engine"):
            Session(engine=engine, policy="dynamic")
        with pytest.raises(ConfigurationError, match="pre-built engine"):
            Session(engine=engine, p=0.25)


class TestTaskDecorator:
    def test_annotation_inference(self):
        with Session() as s:
            @s.task
            def scale(src: In, dst: Out, factor):
                dst[:] = factor * src

            a, b = np.arange(3.0), np.zeros(3)
            submitted = scale(a, b, 3.0)
            assert submitted.task_type.name == "scale"
            s.wait_all()
        assert b.tolist() == [0.0, 3.0, 6.0]

    def test_string_annotations_from_future_import(self):
        # This module has `from __future__ import annotations`, so the
        # markers arrive as strings — inference must still work.
        with Session() as s:
            @s.task
            def bump(data: InOut):
                data += 1

            arr = np.zeros(2)
            bump(arr)
        assert arr.tolist() == [1.0, 1.0]

    def test_explicit_parameter_name_clauses(self):
        with Session() as s:
            @s.task(ins=("src",), outs=("dst",))
            def copy(src, dst):
                dst[:] = src

            a, b = np.ones(4), np.zeros(4)
            copy(a, b)
        assert b.tolist() == a.tolist()

    def test_clauses_and_annotations_merge(self):
        with Session() as s:
            @s.task(ins=("lhs",))
            def add(lhs, rhs: In, out: Out):
                out[:] = lhs + rhs

            out = np.zeros(2)
            add(np.ones(2), np.ones(2), out)
        assert out.tolist() == [2.0, 2.0]

    def test_memoizable_flag_and_type_options(self):
        s = Session()

        @s.task(memoizable=True, name="kernel", tau_max=0.5, l_training=3)
        def kernel(x: In, y: Out):
            y[:] = x

        tt = kernel.task_type
        assert isinstance(tt, TaskType)
        assert tt.memoizable and tt.name == "kernel"
        assert tt.tau_max == 0.5 and tt.l_training == 3

    def test_memoization_via_session_task(self):
        cfg = {"runtime": {"executor": "serial", "num_threads": 1},
               "atm": {"mode": "static"}}
        with Session(cfg) as s:
            @s.task(memoizable=True)
            def square(src: In, dst: Out):
                dst[:] = src ** 2

            src = np.arange(8.0)
            outs = [np.zeros(8) for _ in range(4)]
            for dst in outs:
                square(src, dst)
        result = s.result
        assert result.tasks_completed == 4
        assert result.tasks_memoized == 3  # identical repeats hit the THT
        assert all(o.tolist() == (src ** 2).tolist() for o in outs)

    def test_unknown_parameter_name_rejected(self):
        s = Session()
        with pytest.raises(TaskDefinitionError, match="ghost"):
            @s.task(ins=("ghost",))
            def fn(x):
                return x

    def test_conflicting_declarations_rejected(self):
        s = Session()
        with pytest.raises(TaskDefinitionError, match="more than one"):
            @s.task(ins=("x",), outs=("x",))
            def fn(x):
                return x

        with pytest.raises(TaskDefinitionError, match="conflicting"):
            @s.task(ins=("y",))
            def gn(y: Out):
                return y

    def test_no_accesses_rejected(self):
        s = Session()
        with pytest.raises(TaskDefinitionError, match="no data accesses"):
            @s.task
            def fn(x, y):
                return x + y

    def test_wrapped_body_callable_directly(self):
        s = Session()

        @s.task
        def double(src: In, dst: Out):
            dst[:] = 2 * src

        a, b = np.ones(2), np.zeros(2)
        double.__wrapped__(a, b)  # direct call: no submission
        assert b.tolist() == [2.0, 2.0]
        assert s.task_count == 0


def _double_body(src, dst):
    """Module-level body for the process-backend pickling test."""
    dst[:] = 2 * src


#: qualname '<lambda>' — resolvability must be proven at dispatch time, not
#: by pattern-matching on '<locals>' (a worker dying at unpickle would hang
#: the drain instead of raising).
_module_lambda = lambda src, dst: dst.__setitem__(slice(None), src)


class TestProcessBackendTasks:
    def test_decorated_task_body_survives_pickling(self):
        # @s.task rebinds the module-level name to the submitting wrapper;
        # the _TaskBody proxy must keep the body picklable for the process
        # backend (regression: "not the same object as ...").
        with Session(executor="process", cores=2) as s:
            double = s.task(_double_body, ins=("src",), outs=("dst",))
            a = np.arange(64.0)
            outs = [np.zeros(64) for _ in range(4)]
            for dst in outs:
                double(a, dst)
        assert s.result.tasks_completed == 4
        assert all(o.tolist() == (2 * a).tolist() for o in outs)

    def test_local_task_body_fails_with_explanatory_error(self):
        with pytest.raises(RuntimeStateError, match="picklable|module-level"):
            with Session(executor="process", cores=2) as s:
                @s.task
                def local_fn(src: In, dst: Out):
                    dst[:] = src

                local_fn(np.arange(4.0), np.zeros(4))
                s.wait_all()

    def test_module_level_lambda_fails_at_dispatch_not_in_worker(self):
        with pytest.raises(RuntimeStateError, match="picklable|module-level"):
            with Session(executor="process", cores=2) as s:
                wrapped = s.task(_module_lambda, ins=("src",), outs=("dst",))
                wrapped(np.arange(4.0), np.zeros(4))
                s.wait_all()


class TestLifecycle:
    def test_result_before_barrier_raises(self):
        s = Session()
        with pytest.raises(RuntimeStateError, match="wait_all"):
            s.result

    def test_wait_all_then_result(self):
        s = Session()
        s.submit(TaskType("t"), lambda d: None, accesses=[Out(np.zeros(1))],
                 args=(np.zeros(1),))
        r = s.wait_all()
        assert s.result is r or s.result.tasks_completed == r.tasks_completed

    def test_submit_after_finish_raises(self):
        s = Session()
        s.finish()
        with pytest.raises(RuntimeStateError, match="finished"):
            s.submit(TaskType("t2"), lambda: None, accesses=[Out(np.zeros(1))])
        with pytest.raises(RuntimeStateError, match="finished"):
            s.wait_all()
        with pytest.raises(RuntimeStateError, match="finished"):
            s.finish()

    def test_context_manager_finishes(self):
        data = np.zeros(1)
        with Session() as s:
            @s.task
            def set_one(d: Out):
                d[0] = 1.0
            set_one(data)
        assert data[0] == 1.0
        assert s.result.tasks_completed == 1

    def test_context_manager_closes_on_error_without_drain(self):
        ran = []
        with pytest.raises(RuntimeError, match="boom"):
            with Session() as s:
                @s.task
                def record(d: Out):
                    ran.append(True)
                record(np.zeros(1))
                raise RuntimeError("boom")
        assert ran == []          # error path never drained the graph
        with pytest.raises(RuntimeStateError):
            s.wait_all()          # and the session is closed

    def test_close_idempotent(self):
        s = Session()
        s.close()
        s.close()

    def test_result_readable_after_failing_finish(self):
        # DESIGN.md §6: finish() closes the executor even when the drain
        # raises, and Session.result stays readable afterwards.
        s = Session()

        def explode():
            raise ValueError("task failure")

        s.submit(TaskType("explode"), explode, accesses=[Out(np.zeros(1))])
        with pytest.raises(DrainAbortedError, match="task failure") as excinfo:
            s.finish()
        # The original body exception rides along as the cause.
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert s.result.tasks_completed == 0  # partial counters, no raise
        assert [f.label for f in s.result.failures] == ["explode#0"]

    def test_caught_abort_poisons_session_but_exits_cleanly(self):
        # A caller that catches the DrainAbortedError inside the ``with``
        # block must not trigger a second drain on the poisoned graph at
        # __exit__ (serial would starve, threaded would hang until the
        # drain deadline): the session closes quietly instead, and an
        # explicit re-drain raises a named error pointing at the abort.
        with Session() as s:

            def explode():
                raise ValueError("task failure")

            s.submit(TaskType("explode"), explode, accesses=[Out(np.zeros(1))])
            with pytest.raises(DrainAbortedError):
                s.wait_all()
            with pytest.raises(RuntimeStateError, match="previous drain aborted"):
                s.wait_all()
        assert s._closed  # __exit__ closed without re-draining
        assert [f.label for f in s.result.failures] == ["explode#0"]


class TestRegistries:
    def test_register_executor_extends_config_validation(self):
        calls = []

        def factory(config, sim_config):
            calls.append(config.executor)
            return SerialExecutor(config=config)

        EXECUTORS.register("loopback", factory)
        try:
            assert "loopback" in EXECUTORS.names()
            # valid both as a Session argument and as a plain config value
            cfg = ReproConfig.from_dict({"runtime": {"executor": "loopback"}})
            with Session(cfg) as s:
                @s.task
                def touch(d: Out):
                    d[0] = 7.0
                data = np.zeros(1)
                touch(data)
            assert data[0] == 7.0
            assert calls == ["loopback"]
        finally:
            EXECUTORS.unregister("loopback")
        with pytest.raises(ConfigurationError):
            RuntimeConfig(executor="loopback")

    def test_register_policy_becomes_valid_mode(self):
        POLICIES.register("static2", lambda config: StaticATMPolicy(config))
        try:
            s = Session({"atm": {"mode": "static2"}})
            assert isinstance(s.engine.policy, StaticATMPolicy)
        finally:
            POLICIES.unregister("static2")
        with pytest.raises(ConfigurationError):
            ATMConfig(mode="static2")

    def test_two_argument_policy_factory_is_a_named_configuration_error(self):
        # The contract was factory(config, p) until PR 19; a plugin still
        # written that way must hear what changed, not a bare TypeError.
        POLICIES.register("old_style", lambda config, p: StaticATMPolicy(config))
        try:
            with pytest.raises(ConfigurationError, match=r"'old_style'.*factory\(config\)"):
                Session({"atm": {"mode": "old_style"}})
        finally:
            POLICIES.unregister("old_style")

    def test_duplicate_registration_rejected(self):
        POLICIES.register("dup", lambda config: StaticATMPolicy(config))
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                POLICIES.register("dup", lambda config: StaticATMPolicy(config))
        finally:
            POLICIES.unregister("dup")

    def test_builtins_cannot_be_unregistered(self):
        with pytest.raises(ConfigurationError, match="builtin"):
            EXECUTORS.unregister("serial")

    def test_plugin_policy_serves_a_worker_pool(self):
        # The parent looks every task up, so a plugin policy governs a
        # process pool as it does a serial run — not the builtin class it
        # subclasses.
        from tests.conftest import SQUARE_TYPE, square_body

        class NeverMemoize(StaticATMPolicy):
            def is_blacklisted(self, task):
                return True

        POLICIES.register("never_memoize", lambda config: NeverMemoize(config))
        try:
            cfg = {"atm": {"mode": "never_memoize"},
                   "runtime": {"executor": "process", "num_threads": 1}}
            with Session(cfg) as s:
                src = np.full(8, 2.0)
                for _ in range(3):
                    dst = np.zeros(8)
                    s.submit(SQUARE_TYPE, square_body, accesses=[In(src), Out(dst)],
                             args=(src, dst))
                result = s.wait_all()
        finally:
            POLICIES.unregister("never_memoize")
        assert (result.tasks_executed, result.tasks_memoized) == (3, 0)
        assert s.engine.stats.snapshot()["blacklisted_skips"] == 3

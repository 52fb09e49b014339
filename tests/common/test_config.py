"""Tests for configuration objects."""

from __future__ import annotations

import ast
import dataclasses
import os
import pickle
import re
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import LISTENERS, exchange

import repro
from repro.atm.store import FileTHTStore
from repro.atm.tht import THTEntry
from repro.common.config import (
    ATMConfig,
    MIN_P,
    P_LADDER,
    ReproConfig,
    RuntimeConfig,
    ServingConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError, THTStoreError, WireProtocolError
from repro.runtime import net_wire
from repro.runtime.codec import NetChunk, TaskDescriptor, resolve_function
from repro.serving.gateway import SERVING_PROTOCOL_VERSION


class TestPLadder:
    def test_has_16_steps(self):
        assert len(P_LADDER) == 16

    def test_starts_at_2_pow_minus_15(self):
        assert P_LADDER[0] == MIN_P == 2.0 ** -15

    def test_ends_at_one(self):
        assert P_LADDER[-1] == 1.0

    def test_each_step_doubles(self):
        for smaller, larger in zip(P_LADDER, P_LADDER[1:]):
            assert larger == pytest.approx(2 * smaller)


class TestATMConfig:
    def test_defaults_valid(self):
        config = ATMConfig()
        assert config.n_buckets == 256

    def test_bucket_bits_bounds(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(tht_bucket_bits=-1)
        with pytest.raises(ConfigurationError):
            ATMConfig(tht_bucket_bits=25)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(tht_bucket_capacity=0)

    def test_p_range(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(p=0.0)
        with pytest.raises(ConfigurationError):
            ATMConfig(p=1.5)

    def test_tau_max_nonnegative(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(tau_max=-0.1)

    def test_l_training_positive(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(l_training=0)

    def test_hash_function_validated(self):
        with pytest.raises(ConfigurationError):
            ATMConfig(hash_function="md5")

    def test_with_overrides_returns_new_validated_copy(self):
        base = ATMConfig()
        derived = base.with_overrides(p=0.5)
        assert derived.p == 0.5
        assert base.p == 1.0
        with pytest.raises(ConfigurationError):
            base.with_overrides(p=-1.0)


class TestRuntimeConfig:
    def test_defaults(self):
        assert RuntimeConfig().num_threads == 8

    def test_thread_count_positive(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(num_threads=0)

    @pytest.mark.parametrize("section, removed", [
        ("runtime", "max_ready_tasks"),
        ("runtime", "net_timeout_grace_s"),
        ("atm", "key_pipeline"),
        ("atm", "p_initial"),
        ("atm", "track_unstable_outputs"),
        ("atm", "key_cache"),
        ("atm", "tht_store_compact_frames"),
        ("runtime", "mp_workers"),
        ("runtime", "mp_start_method"),
        ("runtime", "net_residency_budget_bytes"),
        ("serving", "default_weight"),
        ("serving", "merge_min_commits"),
        ("serving", "result_history"),
        ("runtime", "scheduler"),
        ("serving", "merge_interval_s"),
    ])
    def test_removed_fields_are_rejected_by_name(self, section, removed, tmp_path):
        # The first runtime two had no reader (the grace is
        # supervision.TIMEOUT_GRACE), there is one key pipeline, and the rest
        # became constants beside their reader or selected a path nothing
        # ran: a stale config naming any of them must fail loudly from every
        # exchange format, not be ignored.
        with pytest.raises(ConfigurationError, match=removed):
            ReproConfig.from_dict({section: {removed: 1}})
        path = tmp_path / "stale.toml"
        path.write_text(f"[{section}]\n{removed} = 1\n")
        with pytest.raises(ConfigurationError, match=removed):
            ReproConfig.from_file(path)
        # e.g. REPRO_RUNTIME_MP_WORKERS=1
        with pytest.raises(ConfigurationError, match=f"{section}.{removed}"):
            ReproConfig.from_env({f"REPRO_{section}_{removed}".upper(): "1"})

    def test_with_overrides(self):
        assert RuntimeConfig().with_overrides(num_threads=2).num_threads == 2


class TestSimulationConfig:
    def test_defaults_valid(self):
        SimulationConfig()

    @pytest.mark.parametrize("field", ["copy_bandwidth", "hash_bandwidth", "creation_throughput"])
    def test_bandwidths_positive(self, field):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**{field: 0.0})

    @pytest.mark.parametrize(
        "field",
        ["task_overhead", "tht_lookup_overhead", "ikt_lookup_overhead", "memory_contention_factor"],
    )
    def test_overheads_nonnegative(self, field):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**{field: -0.1})

    def test_with_overrides(self):
        assert SimulationConfig().with_overrides(task_overhead=1.5).task_overhead == 1.5


class TestEveryKnobEarnsItsPlace:
    """The configuration surface is a visible diff: a new field changes the
    count below, and a field nothing reads cannot stay."""

    def test_the_tree_has_41_leaf_fields(self):
        sizes = {s: len(fields) for s, fields in ReproConfig().to_dict().items()}
        assert sizes == {"runtime": 13, "atm": 14, "simulation": 7, "serving": 7}

    def test_every_field_has_a_reader_outside_the_config_module(self):
        package = Path(repro.__file__).parent
        readers = "\n".join(
            path.read_text()
            for path in package.rglob("*.py")
            if path != package / "common" / "config.py"
        )
        unread = [
            f"{section.__name__}.{field.name}"
            for section in (ATMConfig, RuntimeConfig, ServingConfig, SimulationConfig)
            for field in dataclasses.fields(section)
            if not re.search(rf"\.{field.name}\b", readers)
        ]
        assert unread == []


class TestEveryExportEarnsItsPlace:
    """An ``__all__`` name is public surface only while something reads it:
    a ``.py`` file under src/, tests/, bench/, scripts/ or examples/ other
    than the defining module and its package ``__init__``."""

    def test_every_exported_name_has_a_reader(self):
        root = Path(__file__).resolve().parents[2]
        words = {
            path: set(re.findall(r"\w+", path.read_text()))
            for folder in ("src", "tests", "bench", "scripts", "examples")
            for path in (root / folder).rglob("*.py")
        }
        unread = []
        for module in sorted((root / "src").rglob("*.py")):
            for node in ast.parse(module.read_text()).body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets
                ):
                    own = {module, module.parent / "__init__.py"}
                    unread += [
                        f"{module.relative_to(root)}:{name}"
                        for name in ast.literal_eval(node.value)
                        if not any(name in found for path, found in words.items() if path not in own)
                    ]
        assert unread == []


class TestOneServerModel:
    """Every daemon serves on ``FrameServer`` threads; the wire has the
    readers its two drivers need and no more."""

    def test_no_module_under_src_imports_asyncio(self):
        package = Path(repro.__file__).parent
        importers = [
            str(path.relative_to(package))
            for path in package.rglob("*.py")
            if re.search(r"^\s*(import|from)\s+asyncio\b", path.read_text(), re.M)
        ]
        assert importers == []

    def test_net_wire_exports_exactly_its_three_readers(self):
        from repro.runtime import net_wire

        readers = {
            name for name in net_wire.__all__
            if re.match(r"(read|decode|iter)_", name)
        }
        assert readers == {"read_frame", "decode_frame", "iter_frames"}


#: Created by :class:`_Sentinel`'s pickle when it is loaded; no reader may.
SENTINEL = Path(os.environ.get("TMPDIR", "/tmp")) / f"atm-unpickled-{os.getpid()}"


class _Sentinel:
    def __reduce__(self):
        return (open, (str(SENTINEL), "w"))


def framed(control: bytes) -> bytes:
    """A well-framed, correctly checksummed frame around ``control``."""
    counts = net_wire._ENTRY.pack(len(control), 0)
    crc = zlib.crc32(control, zlib.crc32(counts))
    return net_wire._HEADER.pack(net_wire.MAGIC, crc, len(control), 0) + control


def replies(address: tuple[str, int], raw: bytes) -> list:
    """Every frame the listener sent back to ``raw`` before it closed."""
    return list(net_wire.iter_frames(exchange(address, raw)))


class TestNothingIsUnpickled:
    """No byte from a socket, a store file or a process pipe is unpickled:
    the control codec builds data only, and task bodies resolve by name
    under the wire's rules."""

    HOSTILE = framed(pickle.dumps(("hello", _Sentinel()), protocol=5))

    def test_no_module_under_src_imports_pickle(self):
        package = Path(repro.__file__).parent
        users = [
            str(path.relative_to(package))
            for path in package.rglob("*.py")
            if re.search(r"^\s*(import|from)\s+(c?pickle|marshal)\b|PickleBuffer",
                         path.read_text(), re.M)
        ]
        assert users == []

    @pytest.mark.parametrize("kind", LISTENERS)
    def test_a_pickled_frame_is_refused_unread_by_every_listener(self, kind, live_listener):
        answers = replies(live_listener(kind), self.HOSTILE)
        assert not SENTINEL.exists()
        for reply in answers:
            assert reply[0] == "error" and "is a pickle" in reply[-1], reply

    def test_a_pickled_store_file_is_refused_unread_and_left_alone(self, tmp_path):
        path = tmp_path / "hostile.tht"
        path.write_bytes(self.HOSTILE)
        store = FileTHTStore(path)
        with pytest.raises(THTStoreError, match="is a pickle"):
            store.load()
        with pytest.raises(THTStoreError, match="is a pickle"):
            store.publish({"entries": [THTEntry(1, 1.0, "t", [np.zeros(2)], 0)]})
        assert not SENTINEL.exists()
        assert path.read_bytes() == self.HOSTILE

    BODIES = [
        ("os", "system"),
        ("builtins", "eval"),
        ("subprocess", "call"),
        ("repro.runtime.task", "TaskType"),          # a class
        ("repro.session.session", "Session.submit"),  # a method
        ("repro.common.config", "<lambda>"),
        ("numpy", "add"),                             # site-packages
    ]

    @pytest.mark.parametrize("module, qualname", BODIES)
    def test_a_task_body_outside_application_functions_is_refused(self, module, qualname):
        with pytest.raises(WireProtocolError, match="refused"):
            resolve_function(module, qualname)

    @staticmethod
    def descriptor(module: str, qualname: str) -> TaskDescriptor:
        return TaskDescriptor(1, 1, "hostile", False, None, None, True,
                              module, qualname, (), ["("], {})

    @pytest.mark.parametrize("module, qualname", BODIES)
    def test_a_peer_naming_such_a_body_gets_a_named_error(self, module, qualname,
                                                          live_listener):
        chunk = NetChunk(1, (), (self.descriptor(module, qualname),))
        hello = ("hello", {"protocol": net_wire.PROTOCOL_VERSION, "engine": None})
        worker = replies(live_listener("net_worker"), b"".join(
            bytes(net_wire.encode_frame(m)) for m in (hello, ("chunk", chunk), ("shutdown",))
        ))
        assert [r[0] for r in worker] == ["hello_ack", "ack", "error"]
        assert f"WireProtocolError: task body {module!r}.{qualname!r} refused" in worker[2][3]
        tenant = ("hello", {"protocol": SERVING_PROTOCOL_VERSION, "tenant": "hostile"})
        gateway = replies(live_listener("gateway"), b"".join(
            bytes(net_wire.encode_frame(m)) for m in (tenant, ("submit_batch", chunk))
        ))
        assert gateway[1][:2] == ("error", "WireProtocolError")
        assert "refused" in gateway[1][2]


class TestNoBarrierSweep:
    """The process backend moves bytes per chunk and per result
    (``_send`` / ``_write_back``): no whole-registry pass on the barrier."""

    def test_process_drain_moves_no_bytes_itself(self):
        import inspect

        from repro.runtime.mp_executor import ProcessExecutor

        drain = inspect.getsource(ProcessExecutor.drain)
        assert "copy_in" not in drain and "copy_out" not in drain

    def test_no_per_drain_written_slot_set_under_src(self):
        package = Path(repro.__file__).parent
        holders = [
            str(path.relative_to(package))
            for path in package.rglob("*.py")
            if "_written_slots" in path.read_text()
        ]
        assert holders == []


class TestOneRemoteWorkerProtocol:
    """One worker loop, one reply vocabulary and one wedge rule under the
    process and network backends: a second copy of either shows up here."""

    @staticmethod
    def sources() -> dict[str, str]:
        package = Path(repro.__file__).parent
        return {
            str(path.relative_to(package)): path.read_text()
            for path in package.rglob("*.py")
        }

    def test_run_descriptor_has_one_caller(self):
        calls = [
            f"{name}: {line.strip()}"
            for name, text in self.sources().items()
            for line in text.splitlines()
            if re.search(r"\brun_descriptor\(", line) and not line.startswith("def ")
        ]
        assert len(calls) == 1 and calls[0].startswith("runtime/remote_task.py"), calls

    def test_only_the_dispatcher_reads_the_timeout_grace(self):
        readers = [
            name for name, text in self.sources().items()
            if "TIMEOUT_GRACE" in text and name != "runtime/supervision.py"  # its home
        ]
        assert readers == ["runtime/dispatch.py"]

    def test_the_process_backend_speaks_the_network_vocabulary(self):
        text = self.sources()["runtime/mp_executor.py"]
        assert re.findall(r"""["'](tasks|start|done|wedged)["']""", text) == []
        assert "run_descriptor" not in text and "snapshot(" not in text

    def test_no_multiprocessing_queue_pipe_or_wait_under_src(self):
        """Worker processes are reached over socketpairs (a stdlib ``queue``
        is an in-process inbox, not a transport)."""
        pattern = re.compile(
            r"multiprocessing\.(connection|queues)\b|\bconnection\.wait\b|\bPipe\(|"
            r"\b(?!queue\b|queue_module\b)\w+\.(Simple|Joinable)?Queue\("
        )
        users = [
            f"{name}: {match.group(0)}"
            for name, text in self.sources().items()
            for match in pattern.finditer(text)
        ]
        assert users == []

    def test_serve_connection_is_the_only_worker_loop(self):
        """Loopback threads, the TCP daemon and process workers all run it:
        it alone builds a worker and sends its replies."""
        sources = self.sources()
        loops = [
            f"{name}: {line.strip()}"
            for name, text in sources.items()
            for line in text.splitlines()
            if re.search(r"\bRemoteWorker\(|\.replies\(", line)
        ]
        assert {line.split(":")[0] for line in loops} == {"runtime/net_transport.py"}, loops
        assert not any("_worker_main" in text for text in sources.values())

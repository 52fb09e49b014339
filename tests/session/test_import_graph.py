"""What ``import repro`` loads: the front door, not every backend.

Each check runs in a fresh interpreter, since this test process has long
since imported everything.  The package ``__init__``s re-export only the
three front doors (``repro``, ``repro.session``, ``repro.serving``); the
process, network and simulated backends and the ATM layer load by registry
name when a Session asks for them (DESIGN.md §1).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

#: Nothing a serial or threaded ATM-off Session needs.
ABSENT_PACKAGES = ("repro.atm", "repro.serving", "repro.evaluation", "repro.apps", "repro.testing")
ABSENT_RUNTIME = tuple(
    f"repro.runtime.{name}" for name in (
        "mp_executor", "shm", "dispatch", "remote_task", "codec", "net_wire",
        "net_transport", "net_executor", "net_server", "residency", "simulator",
    )
)
ABSENT_STDLIB = ("multiprocessing", "socket", "subprocess")

#: Where the task body comes from: defined in the script (in-process
#: backends), or importable by name in a worker (the remote backends).
BODIES = {
    "local": "def square_body(src, dst):\n    dst[:] = src ** 2\n",
    "faults": "from repro.testing.faults import square_body\n",
    "probe": "from test_import_graph import engine_loaded as square_body\n",
    "atm_probe": "from test_import_graph import atm_loaded as square_body\n",
}

#: What one ``square_body`` task leaves in ``dst``.
SQUARES = [float(i * i) for i in range(8)]

#: Runs one task on a Session; ``{executor}`` and ``{mode}`` are filled in.
RUN_ONE = """
import numpy as np
from repro.runtime.data import In, Out
from repro.runtime.task import TaskType
from repro.session import Session
s = Session(executor={executor!r}, cores=2, policy={mode!r})
src = np.arange(8, dtype=np.float64); dst = np.zeros(8)
s.submit(TaskType("square", memoizable=True), square_body, [In(src), Out(dst)], (src, dst))
s.finish()
print(json.dumps(dst.tolist()))
"""


def engine_loaded(src, dst):
    """Task body: ``dst`` reads 1 where the running process has imported
    the ATM engine, else 0."""
    dst[:] = float("repro.atm.engine" in sys.modules)


def atm_modules(modules) -> list[str]:
    """The modules of the ATM layer among ``modules``."""
    return [name for name in modules if name == "repro.atm" or name.startswith("repro.atm.")]


def atm_loaded(src, dst):
    """Task body: ``dst`` reads 1 where the running process has imported
    any module of the ATM layer, else 0."""
    dst[:] = float(bool(atm_modules(sys.modules)))


def run_script(body: str) -> list[str]:
    """Stdout lines of a fresh interpreter after ``import repro`` + ``body``;
    the last one lists ``sys.modules``."""
    script = "import json, sys\nimport repro\n" + body + (
        "\nprint(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def loaded_after(body: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after ``import repro`` + ``body``."""
    return json.loads(run_script(body)[-1])


def run_one(executor: str, mode: str = "none", body: str = "local") -> str:
    """A script body that runs one task of ``BODIES[body]`` on ``executor``."""
    return BODIES[body] + RUN_ONE.format(executor=executor, mode=mode)


def unexpected(modules: list[str]) -> list[str]:
    return [
        name for name in modules
        if name.startswith(tuple(p + "." for p in ABSENT_PACKAGES))
        or name in ABSENT_PACKAGES + ABSENT_RUNTIME + ABSENT_STDLIB
    ]


class TestFrontDoor:
    def test_import_repro_loads_no_backend_and_no_atm(self):
        assert unexpected(loaded_after("")) == []

    def test_atm_off_serial_and_threaded_sessions_stay_small(self):
        *outputs, modules = run_script(run_one("serial") + run_one("threaded"))
        assert [json.loads(line) for line in outputs] == [SQUARES, SQUARES]
        assert unexpected(json.loads(modules)) == []

    def test_a_static_session_loads_the_atm_layer(self):
        modules = loaded_after(run_one("serial", mode="static"))
        assert {"repro.atm.engine", "repro.atm.policy"} <= set(modules)

    @pytest.mark.parametrize("executor, module", [
        ("process", "repro.runtime.mp_executor"),
        ("network", "repro.runtime.net_executor"),
        ("simulated", "repro.runtime.simulator"),
    ])
    def test_other_backends_build_by_registry_name(self, executor, module):
        *_, output, modules = run_script(run_one(executor, body="faults"))
        assert json.loads(output) == SQUARES
        assert module in json.loads(modules)

    def test_an_atm_off_process_worker_imports_no_engine(self):
        # The task runs in the forked worker: its dst reads what it loaded.
        worker = json.loads(run_script(run_one("process", body="probe"))[-2])
        assert worker == [0.0] * 8

    def test_the_wire_codec_loads_no_atm(self):
        # Workers carry no THT entries: the codec knows no record of them.
        assert atm_modules(loaded_after("import repro.runtime.codec")) == []

    def test_an_atm_off_process_parent_loads_no_atm(self):
        *_, output, modules = run_script(run_one("process", body="faults"))
        assert json.loads(output) == SQUARES
        assert atm_modules(json.loads(modules)) == []

    def test_a_process_session_loads_no_multiprocessing_queue_or_lock(self):
        # Its workers are reached over socketpairs: no queue, pipe or lock.
        *_, output, modules = run_script(run_one("process", body="faults"))
        assert json.loads(output) == SQUARES
        loaded = set(json.loads(modules))
        assert loaded & {"multiprocessing.queues", "multiprocessing.synchronize"} == set()

    def test_an_atm_off_process_worker_loads_no_atm(self):
        worker = json.loads(run_script(run_one("process", body="atm_probe"))[-2])
        assert worker == [0.0] * 8

    def test_registry_names_are_unchanged(self):
        from repro.session import EXECUTORS, POLICIES

        assert EXECUTORS.names() == ("serial", "threaded", "process", "simulated", "network")
        assert POLICIES.names() == ("none", "static", "dynamic", "fixed_p")

    def test_package_inits_re_export_only_the_front_doors(self):
        import repro.serving

        assert sorted(repro.__all__) == sorted(
            ["__version__", "Session", "ReproConfig", "EXECUTORS", "POLICIES"]
        )
        assert sorted(repro.serving.__all__) == ["Gateway", "GatewayClient"]
        for package in ("common", "runtime", "atm", "apps", "evaluation", "testing"):
            init = SRC / "repro" / package / "__init__.py"
            body = ast.parse(init.read_text()).body
            assert [type(node).__name__ for node in body] == ["Expr"], init

"""Tables I, II and III of the paper.

* **Table I** — benchmark descriptions: program input, task-input bytes of
  the memoized task type, element types, memoized task type, number of tasks
  and the output on which correctness is measured.  The measured columns are
  produced by instantiating and running each benchmark at the requested
  scale; the paper's values (native inputs) are shown alongside.
* **Table II** — Dynamic-ATM parameters (``L_training`` and ``tau_max``).
* **Table III** — ATM memory overhead relative to the application footprint,
  measured after a Dynamic-ATM run with the paper's THT geometry, beside the
  run's reuse and what its hits cost: output bytes moved and output bytes
  already in place (elided).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import make_benchmark
from repro.apps.registry import BENCHMARK_NAMES, PAPER_PARAMETERS
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentSpec, run_benchmark

__all__ = [
    "compute_table1", "compute_table2", "compute_table3",
    "report_table1", "report_table2", "report_table3",
]


@dataclass
class Table1Row:
    benchmark: str
    program_input: str
    task_input_bytes: int
    paper_task_input_bytes: int
    task_input_types: str
    memoized_task_type: str
    number_of_tasks: int
    paper_number_of_tasks: int
    correctness_measured_on: str


@dataclass
class Table2Row:
    benchmark: str
    l_training: int
    tau_max_percent: float
    paper_l_training: int
    paper_tau_max_percent: float


@dataclass
class Table3Row:
    benchmark: str
    memory_overhead_percent: float
    paper_memory_overhead_percent: float
    reuse_percent: float
    copied_mb: float
    elided_mb: float


def compute_table1(scale: str = "small", seed: int = 2017) -> list[Table1Row]:
    rows: list[Table1Row] = []
    for benchmark in BENCHMARK_NAMES:
        result = run_benchmark(
            ExperimentSpec(benchmark=benchmark, scale=scale, mode="static", cores=8, seed=seed)
        )
        app = result.app
        info = app.info
        # Task input bytes of the memoized task type: read from one task-type
        # instance of the built graph via the engine statistics (hashed bytes
        # per eligible task at p = 1).
        per_type = result.atm_stats.get("per_type", {}).get(info.memoized_task_type, {})
        seen = max(1, per_type.get("seen", 1))
        task_input_bytes = result.atm_stats.get("hashed_bytes", 0) // seen
        input_types = _input_type_names(app)
        rows.append(
            Table1Row(
                benchmark=benchmark,
                program_input=f"{scale} scale ({info.paper_program_input} in the paper)",
                task_input_bytes=int(task_input_bytes),
                paper_task_input_bytes=info.paper_task_input_bytes,
                task_input_types=input_types,
                memoized_task_type=info.memoized_task_type,
                number_of_tasks=result.tasks_completed,
                paper_number_of_tasks=info.paper_number_of_tasks,
                correctness_measured_on=info.correctness_measured_on,
            )
        )
    return rows


def _input_type_names(app) -> str:
    """Element types of the benchmark's footprint arrays (Table I column)."""
    names: list[str] = []
    for array in app._footprint_arrays():
        name = str(array.dtype)
        if name not in names:
            names.append(name)
    return ", ".join(names)


def compute_table2() -> list[Table2Row]:
    rows: list[Table2Row] = []
    for benchmark in BENCHMARK_NAMES:
        app = make_benchmark(benchmark, scale="tiny")
        paper = PAPER_PARAMETERS[benchmark]
        rows.append(
            Table2Row(
                benchmark=benchmark,
                l_training=app.info.l_training,
                tau_max_percent=100.0 * app.info.tau_max,
                paper_l_training=paper.l_training,
                paper_tau_max_percent=paper.tau_max_percent,
            )
        )
    return rows


def compute_table3(scale: str = "small", seed: int = 2017) -> list[Table3Row]:
    rows: list[Table3Row] = []
    for benchmark in BENCHMARK_NAMES:
        result = run_benchmark(
            ExperimentSpec(benchmark=benchmark, scale=scale, mode="dynamic", cores=8, seed=seed)
        )
        rows.append(
            Table3Row(
                benchmark=benchmark,
                memory_overhead_percent=result.memory_overhead_percent,
                paper_memory_overhead_percent=PAPER_PARAMETERS[benchmark].memory_overhead_percent,
                reuse_percent=result.reuse_percent,
                copied_mb=result.atm_stats.get("copied_bytes", 0) / 2**20,
                elided_mb=result.atm_stats.get("elided_bytes", 0) / 2**20,
            )
        )
    return rows


def report_table1(rows: list[Table1Row]) -> str:
    headers = [
        "benchmark", "program input", "task input bytes", "(paper)",
        "input types", "memoized task type", "#tasks", "(paper)", "correctness on",
    ]
    table = [
        [r.benchmark, r.program_input, r.task_input_bytes, r.paper_task_input_bytes,
         r.task_input_types, r.memoized_task_type, r.number_of_tasks,
         r.paper_number_of_tasks, r.correctness_measured_on]
        for r in rows
    ]
    return format_table(headers, table, title="Table I: benchmark description")


def report_table2(rows: list[Table2Row]) -> str:
    headers = ["benchmark", "L_training", "tau_max (%)", "paper L_training", "paper tau_max (%)"]
    table = [
        [r.benchmark, r.l_training, r.tau_max_percent, r.paper_l_training, r.paper_tau_max_percent]
        for r in rows
    ]
    return format_table(headers, table, title="Table II: Dynamic ATM parameters")


def report_table3(rows: list[Table3Row]) -> str:
    headers = [
        "benchmark", "ATM memory overhead (%)", "paper (%)", "reuse (%)",
        "hit outputs copied (MB)", "in place (MB)",
    ]
    table = [
        [r.benchmark, r.memory_overhead_percent, r.paper_memory_overhead_percent,
         r.reuse_percent, r.copied_mb, r.elided_mb]
        for r in rows
    ]
    return format_table(headers, table, title="Table III: ATM memory overhead vs application footprint")

"""The paper's evaluation (Sections IV-V) as rows of one table.

Every table and figure the paper reports — Tables I-III, Figures 3-9 and the
Section IV-B THT sizing ablation — is one row of :data:`FIGURES`, keyed by
its ``python -m repro.evaluation`` subcommand.  A row is a :class:`Figure`:
the subcommand's help text and the *parts* it prints, in order.  A part is a
literal line, a function of the runs that returns text (a title naming a
measured value, an ASCII trace) or a :class:`Table`.

A table has one row per key — the benchmarks the CLI selects, or a fixed
tuple (a sizing sweep, the states of a trace) — and a tuple of
:class:`Column`\\ s.  A column reads its value from the runs of the row, which
are made on first read and shared by every column that names them.  A run
is one of three kinds:

* :func:`spec` — an :class:`ExperimentSpec` over the CLI's scale, cores and
  seed, with overrides; the row key sets the benchmark (or the swept field);
* :class:`Oracle` — the offline search for the smallest ``p`` meeting a
  correctness target (:func:`repro.evaluation.oracle.find_oracle`);
* :class:`OracleTrace` — a traced run at an oracle's ``p`` (Figure 7's pair).

The paper's own values and the geometric-mean rows are columns like the
measured ones.  :func:`compute` runs a row and returns its parts with every
table filled in (row key -> column key -> value); :func:`render` prints
them.  Adding a figure is adding a row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Optional

import numpy as np

from repro.apps.registry import BENCHMARK_CLASSES, BENCHMARK_NAMES, PAPER_PARAMETERS
from repro.common.config import P_LADDER
from repro.evaluation.oracle import find_oracle
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.runner import ExperimentSpec, geometric_mean, run_benchmark
from repro.runtime.trace import CoreState, render_ascii_trace

__all__ = ["FIGURES", "compute", "render"]


# -- runs -----------------------------------------------------------------------------
@dataclass(frozen=True)
class _Spec:
    overrides: tuple
    axis: Optional[str]

    @property
    def keyed(self) -> bool:
        return self.axis is not None

    def __call__(self, context: "_Context", key: Any):
        fields = {"scale": context.scale, "cores": context.cores, "seed": context.seed}
        if self.axis:
            fields[self.axis] = key
        return run_benchmark(ExperimentSpec(**{**fields, **dict(self.overrides)}))


def spec(axis: Optional[str] = "benchmark", **overrides) -> _Spec:
    """One :class:`ExperimentSpec` run: the CLI's scale, cores and seed, the
    row key as ``axis`` (``None``: the key sets nothing) and ``overrides``."""
    return _Spec(tuple(sorted(overrides.items())), axis)


@dataclass(frozen=True)
class Oracle:
    """Smallest ``p`` of the ladder with at least ``min_correctness`` (of the
    row's benchmark unless ``benchmark`` is given, at the CLI's cores unless
    ``cores`` is)."""

    min_correctness: float
    cores: Optional[int] = None
    benchmark: Optional[str] = None

    @property
    def keyed(self) -> bool:
        return self.benchmark is None

    def __call__(self, context: "_Context", key: Any):
        return find_oracle(
            self.benchmark or key, min_correctness=self.min_correctness,
            scale=context.scale, cores=self.cores or context.cores, seed=context.seed,
        )


@dataclass(frozen=True)
class OracleTrace:
    """A traced ``fixed_p`` run at the ``p`` the ``oracle`` chose."""

    oracle: Oracle
    cores: int

    @property
    def keyed(self) -> bool:
        return self.oracle.benchmark is None

    def __call__(self, context: "_Context", key: Any):
        chosen_p = context.run(self.oracle, key).chosen_p
        return spec(
            axis=None, benchmark=self.oracle.benchmark or key, mode="fixed_p", p=chosen_p,
            cores=self.cores, enable_tracing=True,
        )(context, key)


class _Context:
    """The CLI's coordinates and the runs already made: per run and row key,
    or per run alone for a run the row key does not set (``keyed``)."""

    def __init__(self, scale: str, cores: int, seed: int, benchmarks: tuple) -> None:
        self.scale, self.cores, self.seed = scale, cores, seed
        self.benchmarks = benchmarks
        self._runs: dict = {}

    def run(self, run: Callable, key: Any = None):
        key = key if run.keyed else None
        if (run, key) not in self._runs:
            self._runs[run, key] = run(self, key)
        return self._runs[run, key]


# -- the row model --------------------------------------------------------------------
#: What a column reads: ``value(run, key)``, where ``run(r)`` returns the
#: row's run ``r`` (made on first use) and ``key`` is the row key.
Reader = Callable[[Callable, Any], Any]


@dataclass(frozen=True)
class Column:
    """One column: its header, how to read a cell, and its geomean-row cell
    (``total``: a function of the column's values, or a constant).

    A series column also has ``x``, its point on the series' axis; the
    series of one row are its consecutive columns of one header.  ``name``
    tells apart columns that share a header.
    """

    header: str
    value: Reader
    total: Any = None
    x: Any = None
    name: str = ""

    @property
    def key(self) -> Any:
        """The column's key in a computed table."""
        return self.name or (self.header if self.x is None else (self.header, self.x))


@dataclass(frozen=True)
class Table:
    """Columns over row keys (``None``: the CLI's benchmarks).

    Printed by :func:`~repro.evaluation.reporting.format_table`, or with
    ``series`` as one :func:`~repro.evaluation.reporting.format_series` line
    per row and header (``missing`` replaces the points of a series that has
    an unmeasured one).  ``total`` adds a ``geomean`` row.
    """

    columns: tuple
    rows: Optional[tuple] = None
    title: Optional[str] = None
    float_format: str = "{:.2f}"
    total: bool = False
    series: bool = False
    missing: str = ""


@dataclass(frozen=True)
class Figure:
    """One subcommand: its help text and the parts it prints, in order."""

    help: str
    parts: tuple


class Cells(dict):
    """A computed table: row key -> column key -> value (the geomean row
    under ``"geomean"``), with the table and the columns it was computed for."""

    def __init__(self, table: Table, columns: list) -> None:
        super().__init__()
        self.table, self.columns = table, columns


def compute(
    figure: Figure,
    scale: str = "small",
    cores: int = 8,
    seed: int = 2017,
    benchmarks: tuple = BENCHMARK_NAMES,
    keep: Callable[[Column], bool] = lambda column: True,
) -> list:
    """Run ``figure``: its parts, text as text and every table as
    :class:`Cells`.  ``keep`` selects columns; runs no kept column or text
    part reads are never made."""
    context = _Context(scale, cores, seed, tuple(benchmarks))
    computed: list = []
    for part in figure.parts:
        if isinstance(part, str):
            computed.append(part)
        elif isinstance(part, Table):
            computed.append(_fill(part, context, keep))
        else:
            computed.append(part(lambda run: context.run(run)))
    return computed


def _fill(table: Table, context: _Context, keep: Callable[[Column], bool]) -> Cells:
    cells = Cells(table, [column for column in table.columns if keep(column)])
    for key in context.benchmarks if table.rows is None else table.rows:
        run = lambda r, key=key: context.run(r, key)  # noqa: E731
        cells[key] = {column.key: column.value(run, key) for column in cells.columns}
    if table.total:
        rows = list(cells.values())
        cells["geomean"] = {
            column.key: column.total([row[column.key] for row in rows])
            if callable(column.total) else column.total
            for column in cells.columns
        }
    return cells


def render(parts: list) -> str:
    """The text of computed parts, as the CLI prints it."""
    lines: list[str] = []
    for part in parts:
        if not isinstance(part, Cells):
            lines.append(part)
        elif not part.table.series:
            rows = [[row[column.key] for column in part.columns] for row in part.values()]
            lines.append(format_table(
                [column.header for column in part.columns], rows,
                title=part.table.title, float_format=part.table.float_format,
            ))
        else:
            for key, row in part.items():
                for header, group in itertools.groupby(part.columns, lambda c: c.header):
                    group = list(group)
                    name = f"{key} {header}" if header else str(key)
                    ys = [row[column.key] for column in group]
                    if None in ys:
                        lines.append(f"{name}: {part.table.missing}")
                    else:
                        lines.append(format_series(name, [c.x for c in group], ys))
    return "\n".join(lines)


# -- readers --------------------------------------------------------------------------
def _read(run, attribute: str) -> Reader:
    """The column reads ``attribute`` of the row's ``run``."""
    return lambda row_run, key: getattr(row_run(run), attribute)


def _key(run, key):
    return key


def _paper(attribute: str) -> Reader:
    return lambda run, key: getattr(PAPER_PARAMETERS[key], attribute)


def _info(attribute: str) -> Reader:
    return lambda run, key: getattr(BENCHMARK_CLASSES[key].info, attribute)


def _megabytes(run, name: str) -> Reader:
    return lambda row_run, key: row_run(run).atm_stats.get(name, 0) / 2**20


def _reuse_before(run, x: float) -> Reader:
    """Figure 9: the share of all reuse generated by tasks created before
    normalized task id ``x`` (``None``: the run recorded no reuse)."""
    def value(row_run, key):
        result = row_run(run)
        producers = sorted(p for p, _, _ in result.atm_stats.get("reuse_events", []))
        if not producers or result.tasks_completed <= 1:
            return None
        ids = np.asarray(producers, dtype=np.float64) / (result.tasks_completed - 1)
        return float(np.searchsorted(ids, x, side="right")) / len(producers)
    return value


def _task_input_bytes(run, key):
    """Table I: hashed bytes per task of the memoized type (at ``p = 1``)."""
    result = run(_TABLE1)
    per_type = result.atm_stats.get("per_type", {}).get(result.app.info.memoized_task_type, {})
    return int(result.atm_stats.get("hashed_bytes", 0) // max(1, per_type.get("seen", 1)))


def _input_types(run, key):
    """Table I: the element types of the footprint arrays."""
    return ", ".join(dict.fromkeys(str(a.dtype) for a in run(_TABLE1).app._footprint_arrays()))


def _mean_ready(result) -> float:
    series = result.trace.ready_depth_series()
    return float(np.mean([depth for _, depth in series])) if series else 0.0


def _fig8(read: Callable) -> Reader:
    """Figure 8's rows are its two runs: a cell reads its row's."""
    return lambda run, key: read(run(_FIG8_RUNS[key]))


def _ratio(numerator: Reader, denominator: Reader) -> Reader:
    """``numerator / denominator``; 1.0 when the denominator is not positive."""
    def value(run, key):
        below = denominator(run, key)
        return numerator(run, key) / below if below > 0 else 1.0
    return value


def _mean_state(run) -> Reader:
    return lambda row_run, state: row_run(run).trace.mean_state_duration(state)


def _trace(label: str, run) -> tuple:
    return "", label, lambda row_run: render_ascii_trace(row_run(run).trace)


def _sizing(parameter: str, benchmark: str, values: tuple) -> Table:
    """Section IV-B: dynamic ATM with one THT dimension swept."""
    run = spec(axis=parameter, benchmark=benchmark, mode="dynamic")
    return Table(
        rows=values, title=f"ATM sizing ablation ({benchmark})",
        columns=(
            Column("parameter", lambda run, key: parameter), Column("value", _key),
            Column("speedup", _read(run, "speedup")),
            Column("reuse (%)", _read(run, "memoized_type_reuse_percent")),
            Column("memory overhead (%)", _read(run, "memory_overhead_percent")),
        ),
    )


# -- the rows -------------------------------------------------------------------------
_BENCHMARK = Column("benchmark", _key, total="geomean")
_TABLE1 = spec(mode="static", cores=8)
_TABLE3 = spec(mode="dynamic", cores=8)
_STATIC, _DYNAMIC = spec(mode="static"), spec(mode="dynamic")
_STATIC_THT = spec(mode="static", use_ikt=False)
_DYNAMIC_THT = spec(mode="dynamic", use_ikt=False)
_ORACLE_100, _ORACLE_95 = Oracle(100.0), Oracle(95.0)
_FIG7_ORACLE = Oracle(95.0, cores=8, benchmark="gauss-seidel")
_FIG7_SMALL, _FIG7_LARGE = OracleTrace(_FIG7_ORACLE, 2), OracleTrace(_FIG7_ORACLE, 8)
_FIG8_WITH = spec(axis=None, benchmark="blackscholes", mode="dynamic", enable_tracing=True)
_FIG8_WITHOUT = spec(axis=None, benchmark="blackscholes", mode="none", enable_tracing=True)
_FIG8_RUNS = {"with dynamic ATM": _FIG8_WITH, "without ATM": _FIG8_WITHOUT}
_FIG8_SPEEDUP = _ratio(_read(_FIG8_WITHOUT, "elapsed"), _read(_FIG8_WITH, "elapsed"))
_FIG6_CORES = (1, 2, 4, 8)
_STATE_NAMES = {CoreState.ATM_HASH: "ATM:Hash-key computation",
                CoreState.ATM_MEMOIZATION: "ATM:Task Memoization"}

FIGURES: dict[str, Figure] = {
    "table1": Figure("benchmark description", (Table(
        rows=BENCHMARK_NAMES, title="Table I: benchmark description",
        columns=(
            _BENCHMARK,
            Column("program input", lambda run, key: (
                f"{run(_TABLE1).spec.scale} scale "
                f"({BENCHMARK_CLASSES[key].info.paper_program_input} in the paper)")),
            Column("task input bytes", _task_input_bytes),
            Column("(paper)", _info("paper_task_input_bytes"), name="paper bytes"),
            Column("input types", _input_types),
            Column("memoized task type", _info("memoized_task_type")),
            Column("#tasks", _read(_TABLE1, "tasks_completed")),
            Column("(paper)", _info("paper_number_of_tasks"), name="paper #tasks"),
            Column("correctness on", _info("correctness_measured_on")),
        ),
    ),)),
    "table2": Figure("Dynamic ATM parameters", (Table(
        rows=BENCHMARK_NAMES, title="Table II: Dynamic ATM parameters",
        columns=(
            _BENCHMARK, Column("L_training", _info("l_training")),
            Column("tau_max (%)", lambda run, key: 100.0 * BENCHMARK_CLASSES[key].info.tau_max),
            Column("paper L_training", _paper("l_training")),
            Column("paper tau_max (%)", _paper("tau_max_percent")),
        ),
    ),)),
    "table3": Figure("ATM memory overhead", (Table(
        rows=BENCHMARK_NAMES, title="Table III: ATM memory overhead vs application footprint",
        columns=(
            _BENCHMARK,
            Column("ATM memory overhead (%)", _read(_TABLE3, "memory_overhead_percent")),
            Column("paper (%)", _paper("memory_overhead_percent")),
            Column("reuse (%)", _read(_TABLE3, "reuse_percent")),
            Column("hit outputs copied (MB)", _megabytes(_TABLE3, "copied_bytes")),
            Column("in place (MB)", _megabytes(_TABLE3, "elided_bytes")),
        ),
    ),)),
    "fig3": Figure("speedup of Static/Dynamic ATM and Oracles", (Table(
        title="Figure 3: ATM speedup over the no-ATM baseline (8 cores)", total=True,
        columns=(
            _BENCHMARK,
            Column("static(THT)", _read(_STATIC_THT, "speedup"), geometric_mean),
            Column("dynamic(THT)", _read(_DYNAMIC_THT, "speedup"), geometric_mean),
            Column("static(THT+IKT)", _read(_STATIC, "speedup"), geometric_mean),
            Column("dynamic(THT+IKT)", _read(_DYNAMIC, "speedup"), geometric_mean),
            Column("oracle(100%)", _read(_ORACLE_100, "speedup"), geometric_mean),
            Column("oracle(95%)", _read(_ORACLE_95, "speedup"), geometric_mean),
            Column("paper static", _paper("static_atm_speedup"), 1.4),
            Column("paper dynamic", _paper("dynamic_atm_speedup"), 2.5),
        ),
    ),)),
    "fig4": Figure("final correctness", (Table(
        title="Figure 4: final correctness (%)", total=True,
        columns=(
            _BENCHMARK,
            Column("static ATM", _read(_STATIC, "correctness"), geometric_mean),
            Column("dynamic ATM", _read(_DYNAMIC, "correctness"), geometric_mean),
            Column("oracle(95%)", _read(_ORACLE_95, "correctness"), geometric_mean),
            Column("paper static", _paper("static_correctness"), 100.0),
            Column("paper dynamic", _paper("dynamic_correctness"), 99.3),
        ),
    ),)),
    "fig5": Figure("correctness vs sampling fraction p", (
        "Figure 5: correctness (%) vs fixed sampling fraction p", "",
        Table(series=True, columns=tuple(
            Column("", _read(spec(mode="fixed_p", p=p), "correctness"), x=100.0 * p)
            for p in P_LADDER
        )),
        "",
        Table(float_format="{:.4g}", columns=(
            _BENCHMARK,
            Column("dynamic-ATM chosen p (%)", lambda run, key: (
                100.0 * run(_DYNAMIC).chosen_p if run(_DYNAMIC).chosen_p else None)),
            Column("dynamic correctness (%)", _read(_DYNAMIC, "correctness")),
        )),
    )),
    "fig6": Figure("scalability over 1..8 cores", (
        "Figure 6: speedup vs number of cores (baseline: no-ATM at the same core count)", "",
        Table(series=True, total=True, columns=tuple(
            Column("dynamic-ATM", _read(spec(mode="dynamic", cores=cores), "speedup"),
                   geometric_mean, x=cores)
            for cores in _FIG6_CORES
        ) + tuple(
            Column("oracle(95%)", _read(Oracle(95.0, cores=cores), "speedup"),
                   geometric_mean, x=cores)
            for cores in _FIG6_CORES
        )),
    )),
    "fig7": Figure("Gauss-Seidel execution trace (2 vs 8 cores)", (
        lambda run: (f"Figure 7: gauss-seidel trace, Oracle(95%) "
                     f"p={100 * run(_FIG7_ORACLE).chosen_p:.4g}%"),
        Table(rows=tuple(_STATE_NAMES), float_format="{:.3f}", columns=(
            Column("state", lambda run, state: _STATE_NAMES[state]),
            Column("2 cores (us)", _mean_state(_FIG7_SMALL)),
            Column("8 cores (us)", _mean_state(_FIG7_LARGE)),
            Column("slowdown", _ratio(_mean_state(_FIG7_LARGE), _mean_state(_FIG7_SMALL))),
        )),
        *_trace("--- 2-core trace ---", _FIG7_SMALL),
        *_trace("--- 8-core trace ---", _FIG7_LARGE),
    )),
    "fig8": Figure("Blackscholes ready-task pressure with/without ATM", (
        lambda run: (f"Figure 8: blackscholes ready-task pressure with/without ATM "
                     f"(speedup {_FIG8_SPEEDUP(run, None):.2f}x)"),
        Table(rows=tuple(_FIG8_RUNS), float_format="{:.1f}", columns=(
            Column("configuration", _key),
            Column("mean ready tasks", _fig8(_mean_ready)),
            Column("max ready tasks", _fig8(lambda result: result.trace.max_ready_depth())),
            Column("elapsed (us)", _fig8(attrgetter("elapsed"))),
        )),
        *_trace("--- with dynamic ATM ---", _FIG8_WITH),
        *_trace("--- without ATM ---", _FIG8_WITHOUT),
    )),
    "fig9": Figure("cumulative generated reuse", (
        "Figure 9: cumulative generated reuse vs normalized producer task id", "",
        Table(series=True, missing="no reuse recorded", columns=tuple(
            Column("", _reuse_before(_DYNAMIC, x), x=x)
            for x in np.linspace(0.0, 1.0, 11).tolist()
        )),
    )),
    "ablation": Figure("THT sizing ablation", (
        _sizing("tht_bucket_bits", "blackscholes", (0, 2, 4, 8, 10)), "",
        _sizing("tht_bucket_capacity", "kmeans", (4, 16, 64, 128)),
    )),
}

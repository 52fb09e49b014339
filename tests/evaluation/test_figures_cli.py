"""Tests for the figure table, the reporting helpers and the CLI — and the
paper-shape assertions over what the rows of the figure table produce."""

from __future__ import annotations

import pytest

from repro.apps.registry import BENCHMARK_NAMES
from repro.evaluation.cli import build_parser, main
from repro.evaluation.figures import FIGURES, Cells, Column, Figure, Table, compute, render
from repro.evaluation.oracle import find_oracle
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.runner import clear_reference_cache, geometric_mean

#: Every figure is computed once per module, at the scale and core count the
#: paper-shape assertions below were written for (the paper evaluates 8 cores).
SCALE = "tiny"
CORES = 8
FIG5_LADDER = (2.0 ** -15, 2.0 ** -10, 2.0 ** -6, 2.0 ** -3, 0.5, 1.0)
FIG5_BENCHMARKS = ("blackscholes", "gauss-seidel", "kmeans", "swaptions")
FIG6_BENCHMARKS = ("blackscholes", "gauss-seidel", "kmeans")
FIG6_CORES = (1, 2, 4, 8)


def run(name: str, **kwargs) -> list:
    """The parts of one figure-table row, computed at the test scale."""
    kwargs.setdefault("cores", CORES)
    return compute(FIGURES[name], scale=SCALE, **kwargs)


def tables(parts: list) -> list:
    return [part for part in parts if isinstance(part, Cells)]


def benchmark_rows(cells: Cells) -> dict:
    """A table's rows without its geomean row."""
    return {key: row for key, row in cells.items() if key != "geomean"}


def series(row: dict, header: str = "") -> dict:
    """One series of a row: ``{x: y}``."""
    return {key[1]: value for key, value in row.items() if key[0] == header}


def at(curve: dict, x: float):
    """A series' value at the sample nearest ``x``."""
    return curve[min(curve, key=lambda sample: abs(sample - x))]


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    """The figures share their ATM-off reference runs within this module."""
    clear_reference_cache()
    yield
    clear_reference_cache()


def no_oracles(column: Column) -> bool:
    return "oracle" not in column.header


@pytest.fixture(scope="module")
def fig3_parts():
    return run("fig3", keep=no_oracles)


@pytest.fixture(scope="module")
def fig3_rows(fig3_parts):
    return tables(fig3_parts)[0]


@pytest.fixture(scope="module")
def fig4_rows():
    return tables(run("fig4", keep=no_oracles))[0]


@pytest.fixture(scope="module")
def fig5_parts():
    ladder = {100.0 * p for p in FIG5_LADDER}
    return run("fig5", benchmarks=FIG5_BENCHMARKS,
               keep=lambda column: column.x is None or column.x in ladder)


@pytest.fixture(scope="module")
def fig5_curves(fig5_parts):
    """``{benchmark: ({p: correctness}, dynamic-ATM row)}``."""
    curves, dynamic = tables(fig5_parts)
    return {
        name: ({x / 100.0: y for x, y in series(row).items()}, dynamic[name])
        for name, row in curves.items()
    }


@pytest.fixture(scope="module")
def fig6_series():
    return tables(run("fig6", benchmarks=FIG6_BENCHMARKS,
                      keep=lambda column: column.header == "dynamic-ATM"
                      and column.x in FIG6_CORES))[0]


@pytest.fixture(scope="module")
def fig8_result():
    return tables(run("fig8"))[0]


@pytest.fixture(scope="module")
def fig9_curves():
    return tables(run("fig9", benchmarks=FIG5_BENCHMARKS))[0]


@pytest.fixture(scope="module")
def paper_tables():
    return tuple(tables(run(name))[0] for name in ("table1", "table2", "table3"))


@pytest.fixture(scope="module")
def sizing_sweeps():
    """``(bucket-bits sweep on blackscholes, capacity sweep on kmeans)``."""
    return tuple(tables(run("ablation")))


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        text = format_table(["name", "value"], [["a", 1.234], ["bbbb", None]])
        lines = text.splitlines()
        assert "1.23" in lines[2]
        assert "-" in lines[3]

    def test_format_table_with_title(self):
        assert format_table(["x"], [[1]], title="T").startswith("T\n")

    def test_format_series(self):
        assert format_series("s", [1, 2], [3.0, 4.0]) == "s: (1, 3), (2, 4)"


class TestFigureTable:
    """Every row of the figure table computes and renders (what it reports
    is checked by :class:`TestPaperShape` over the same fixtures)."""

    def test_one_row_per_subcommand(self):
        assert list(FIGURES) == ["table1", "table2", "table3", "fig3", "fig4", "fig5",
                                 "fig6", "fig7", "fig8", "fig9", "ablation"]
        assert all(isinstance(figure, Figure) and figure.help for figure in FIGURES.values())

    def test_fig3_compute_and_render(self, fig3_parts, fig3_rows):
        assert list(benchmark_rows(fig3_rows)) == list(BENCHMARK_NAMES)
        assert all(row["static(THT+IKT)"] > 0 for row in fig3_rows.values())
        # The kept columns only: no oracle was searched.
        assert "oracle(95%)" not in fig3_rows["blackscholes"]
        text = render(fig3_parts)
        assert "geomean" in text and "blackscholes" in text and "oracle" not in text

    def test_geomean_row_reads_every_column(self, fig3_rows):
        geomean = fig3_rows["geomean"]
        assert geomean["benchmark"] == "geomean"
        assert geomean["paper static"] == 1.4 and geomean["paper dynamic"] == 2.5
        assert geomean["static(THT)"] == pytest.approx(
            geometric_mean([row["static(THT)"] for row in benchmark_rows(fig3_rows).values()])
        )

    def test_fig4_compute(self, fig4_rows):
        assert fig4_rows["blackscholes"]["static ATM"] == pytest.approx(100.0)

    def test_fig5_compute_and_render(self, fig5_parts, fig5_curves):
        curve, _ = fig5_curves["blackscholes"]
        assert list(fig5_curves) == list(FIG5_BENCHMARKS)
        assert curve[1.0] == pytest.approx(100.0)
        assert sorted(curve) == sorted(FIG5_LADDER)
        assert "Figure 5" in render(fig5_parts)

    def test_fig6_compute(self, fig6_series):
        for name in FIG6_BENCHMARKS:
            dynamic = series(fig6_series[name], "dynamic-ATM")
            assert list(dynamic) == list(FIG6_CORES)
            assert all(s > 0 for s in dynamic.values())
        assert "geomean" in fig6_series

    def test_fig8_compute(self, fig8_result):
        assert fig8_result["without ATM"]["max ready tasks"] >= 0
        assert fig8_result["with dynamic ATM"]["elapsed (us)"] > 0

    def test_fig9_compute(self, fig9_curves):
        blackscholes = series(fig9_curves["blackscholes"])
        assert at(blackscholes, 1.0) == pytest.approx(1.0)

    def test_a_series_without_its_points_prints_the_missing_text(self):
        table = Table(series=True, rows=("a", "b"), missing="nothing here", columns=(
            Column("", lambda run, key: None if key == "b" else 2.0, x=1),
        ))
        assert render(compute(Figure("probe", ("T", table)))) == "T\na: (1, 2)\nb: nothing here"

    def test_tables_compute_and_render(self, paper_tables):
        t1, t2, t3 = paper_tables
        assert list(t1) == list(BENCHMARK_NAMES)
        assert list(t2) == list(t1)
        # Table I prints two "(paper)" columns, kept apart by name.
        assert t1["kmeans"]["paper bytes"] != t1["kmeans"]["paper #tasks"]
        for cells, title in zip(paper_tables, ("Table I", "Table II", "Table III")):
            assert title in render([cells])

    def test_ablation_sweeps(self, sizing_sweeps):
        bits, capacity = sizing_sweeps
        assert list(bits) == [0, 2, 4, 8, 10]
        assert list(capacity) == [4, 16, 64, 128]
        assert "ablation" in render([bits])


class TestPaperShape:
    """The *shape* of the paper's results (our substrate is a simulator, not
    the authors' Sandy Bridge, so no absolute number is asserted): who wins,
    what never hurts, what stays exact.  These were the assertions of the
    deleted pytest-benchmark harness; the timings it printed were not
    evidence (ROADMAP aim 1) and are gone."""

    def test_fig3_static_winners_and_ikt(self, fig3_rows):
        by_name = benchmark_rows(fig3_rows)
        rows = by_name.values()
        # Exact memoization pays off on average, approximation more so at
        # the scales the paper records (at tiny scale dynamic training
        # overhead can dominate, so only the weaker ordering is asserted).
        assert geometric_mean([r["static(THT+IKT)"] for r in rows]) > 0.9
        assert geometric_mean([r["dynamic(THT+IKT)"] for r in rows]) > 0.9
        # Blackscholes is the biggest static-ATM winner (paper: 5.5x).
        assert max(by_name, key=lambda name: by_name[name]["static(THT+IKT)"]) == "blackscholes"
        assert by_name["blackscholes"]["static(THT+IKT)"] > 2.0
        # Kmeans cannot exploit exact memoization (paper: ~0.9x); Swaptions
        # barely profits from it (paper: 1.07x).
        assert by_name["kmeans"]["static(THT+IKT)"] < 1.05
        assert 0.9 < by_name["swaptions"]["static(THT+IKT)"] < 1.5
        # The IKT never makes things worse (paper: +1.8 % Jacobi, +15 % LU).
        for name, row in by_name.items():
            assert row["static(THT+IKT)"] >= row["static(THT)"] * 0.98, name

    @pytest.mark.parametrize("name", ["blackscholes", "gauss-seidel"])
    def test_fig3_oracle_beats_exact_memoization(self, name):
        # The oracle's tiny sampling fraction removes the hash overhead.
        oracle = find_oracle(name, min_correctness=95.0, scale=SCALE, cores=CORES)
        assert oracle.correctness >= 95.0
        assert oracle.speedup > 1.0

    def test_fig4_correctness_bounds(self, fig4_rows):
        rows = benchmark_rows(fig4_rows)
        for name, row in rows.items():
            # Static ATM is exact memoization: always 100 % (LU's
            # residual-based metric sits epsilon below).
            assert row["static ATM"] >= 99.99, name
            # Dynamic ATM loses at most a few percent (paper: worst case
            # 3.2 %, average 0.7 %); headroom for the scaled-down inputs.
            assert row["dynamic ATM"] >= 90.0, name
        average_loss = 100.0 - sum(r["dynamic ATM"] for r in rows.values()) / len(rows)
        assert average_loss < 5.0

    def test_fig5_correctness_falls_with_p(self, fig5_curves):
        for name, (curve, dynamic) in fig5_curves.items():
            # The right-most point (p = 1) is Static ATM — always 100 %
            # correct — and (close to) the maximum of the curve.
            assert curve[1.0] >= 99.99, name
            assert max(curve.values()) <= curve[1.0] + 1e-6
            # Dynamic ATM's own choice stays accurate (paper: > 96.8 %).
            if dynamic["dynamic correctness (%)"] is not None:
                assert dynamic["dynamic correctness (%)"] >= 90.0, name
        # Shrinking p eventually degrades correctness somewhere (the
        # paper's curves all fall off on the left side of the plot).
        assert [c for c, _ in fig5_curves.values() if c[min(FIG5_LADDER)] < 99.0]

    def test_fig5_dynamic_atm_converges_where_tiny_lets_it(self, fig5_curves):
        # The p dynamic ATM chooses on these tiny, 8-core simulated runs:
        # blackscholes and gauss-seidel leave training; kmeans and swaptions
        # never do at tiny (chosen p "-").  That those two converge too is
        # shown only at --scale small (ROADMAP direction 15's table).
        chosen = {name: dynamic["dynamic-ATM chosen p (%)"]
                  for name, (_, dynamic) in fig5_curves.items()}
        assert chosen == {"blackscholes": 100.0 * 2.0 ** -6, "gauss-seidel": 100.0 * 2.0 ** -4,
                          "kmeans": None, "swaptions": None}

    def test_fig6_advantage_survives_eight_cores(self, fig6_series):
        # Paper: 3.0x at 1 core vs 2.5x at 8 — the advantage does not collapse.
        geomean = series(fig6_series["geomean"], "dynamic-ATM")
        assert geomean[FIG6_CORES[-1]] > 0.45 * geomean[FIG6_CORES[0]]

    def test_fig7_contention_slows_atm_states(self):
        parts = run("fig7")
        (states,) = tables(parts)
        assert "Figure 7" in render(parts)
        hash_row, memo = states.values()
        # Both core counts performed memoization copies, and shared-memory
        # contention makes them no faster at the larger count (paper: ~60 %
        # slower).
        assert memo["2 cores (us)"] > 0.0 and memo[f"{CORES} cores (us)"] > 0.0
        assert memo["slowdown"] >= 0.95
        assert hash_row["slowdown"] >= 0.95

    def test_fig8_atm_lowers_ready_task_pressure(self, fig8_result):
        # ATM makes the run faster and keeps the ready queue emptier: workers
        # memoize tasks faster than the master can create them.
        with_atm, without_atm = fig8_result["with dynamic ATM"], fig8_result["without ATM"]
        assert without_atm["elapsed (us)"] / with_atm["elapsed (us)"] > 1.0
        assert with_atm["mean ready tasks"] <= without_atm["mean ready tasks"] + 1e-9
        assert with_atm["max ready tasks"] <= without_atm["max ready tasks"]

    def test_fig9_reuse_timing(self, fig9_curves):
        by_name = {name: series(row) for name, row in fig9_curves.items()}
        # Reuse was recorded: the curve has its points.
        assert None not in by_name["gauss-seidel"].values()
        # Blackscholes generates a substantial share of its redundancy early
        # (paper: the first iteration's tasks feed all later ones; training
        # shifts some of it right at reduced scales, hence the threshold) ...
        assert at(by_name["blackscholes"], 0.6) > 0.2
        # ... the iterative stencil keeps generating it throughout the run.
        assert at(by_name["gauss-seidel"], 0.5) < 0.98

    def test_tables_match_the_paper(self, paper_tables):
        t1, t2, t3 = paper_tables
        for row in t1.values():
            assert row["task input bytes"] > 0 and row["#tasks"] > 0
        # Table II: L_training and tau_max are the paper's, exactly.
        for row in t2.values():
            assert row["L_training"] == row["paper L_training"]
            assert abs(row["tau_max (%)"] - row["paper tau_max (%)"]) < 1e-9
        # Table III: the order of magnitude of the paper's 3.7 %-21.2 % (the
        # exact value depends on the workload scale).
        for name, row in t3.items():
            assert 0.0 < row["ATM memory overhead (%)"] < 400.0, name

    def test_sizing_ablations_are_monotone(self, sizing_sweeps):
        bits, capacity = sizing_sweeps
        # More buckets never hurt, N = 8 is enough; Kmeans needs a deep THT
        # (M = 128) to hold one entry per point block (paper Section IV-B).
        assert bits[8]["reuse (%)"] >= bits[0]["reuse (%)"] - 1e-9
        assert bits[8]["speedup"] > 0
        assert capacity[128]["reuse (%)"] >= capacity[4]["reuse (%)"] - 1e-9


class TestCLI:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        for command in ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                        "table1", "table2", "table3", "ablation", "all"]:
            args = parser.parse_args([command])
            assert args.command == command

    def test_main_table2_runs_and_writes_output(self, tmp_path, capsys):
        output_file = tmp_path / "table2.txt"
        exit_code = main(["table2", "--output", str(output_file)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table II" in captured.out
        assert "Table II" in output_file.read_text()

    def test_main_fig4_on_one_benchmark(self, capsys):
        exit_code = main([
            "fig4", "--scale", "tiny", "--cores", "2", "--benchmarks", "swaptions",
        ])
        assert exit_code == 0
        assert "swaptions" in capsys.readouterr().out

"""Tests for the figure/table generators, the reporting helpers and the CLI —
and the paper-shape assertions over what the generators produce."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import (
    ablation_sizing,
    fig3_speedup,
    fig4_correctness,
    fig5_sensitivity,
    fig6_scalability,
    fig7_trace,
    fig8_ready_tasks,
    fig9_redundancy,
    tables,
)
from repro.evaluation.cli import build_parser, main
from repro.evaluation.oracle import find_oracle
from repro.evaluation.reporting import format_kv, format_series, format_table
from repro.evaluation.runner import clear_reference_cache, geometric_mean

#: Every figure is computed once per module, at the scale and core count the
#: paper-shape assertions below were written for (the paper evaluates 8 cores).
SCALE = "tiny"
CORES = 8
FIG5_LADDER = (2.0 ** -15, 2.0 ** -10, 2.0 ** -6, 2.0 ** -3, 0.5, 1.0)
FIG5_BENCHMARKS = ("blackscholes", "gauss-seidel", "kmeans", "swaptions")
FIG6_BENCHMARKS = ("blackscholes", "gauss-seidel", "kmeans")
FIG6_CORES = (1, 2, 4, 8)


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    """The figures share their ATM-off reference runs within this module."""
    clear_reference_cache()
    yield
    clear_reference_cache()


@pytest.fixture(scope="module")
def fig3_rows():
    return fig3_speedup.compute(scale=SCALE, cores=CORES, include_oracles=False)


@pytest.fixture(scope="module")
def fig4_rows():
    return fig4_correctness.compute(scale=SCALE, cores=CORES, include_oracle=False)


@pytest.fixture(scope="module")
def fig5_curves():
    return fig5_sensitivity.compute(
        scale=SCALE, cores=CORES, benchmarks=FIG5_BENCHMARKS, ladder=FIG5_LADDER
    )


@pytest.fixture(scope="module")
def fig6_series():
    return fig6_scalability.compute(
        scale=SCALE, core_counts=FIG6_CORES, benchmarks=FIG6_BENCHMARKS,
        include_oracle=False,
    )


@pytest.fixture(scope="module")
def fig8_result():
    return fig8_ready_tasks.compute(benchmark="blackscholes", scale=SCALE, cores=CORES)


@pytest.fixture(scope="module")
def fig9_curves():
    return fig9_redundancy.compute(
        scale=SCALE, cores=CORES, benchmarks=FIG5_BENCHMARKS, mode="dynamic"
    )


@pytest.fixture(scope="module")
def paper_tables():
    return (
        tables.compute_table1(scale=SCALE),
        tables.compute_table2(),
        tables.compute_table3(scale=SCALE),
    )


@pytest.fixture(scope="module")
def sizing_sweeps():
    """``(bucket-bits sweep on blackscholes, capacity sweep on kmeans)``."""
    return (
        ablation_sizing.compute_bucket_bits_sweep(
            benchmark="blackscholes", scale=SCALE, cores=CORES, bits_values=(0, 4, 8)
        ),
        ablation_sizing.compute_capacity_sweep(
            benchmark="kmeans", scale=SCALE, cores=CORES, capacities=(4, 16, 128)
        ),
    )


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

    def test_format_kv(self):
        text = format_kv({"alpha": 1.5, "beta": "x"}, title="K")
        assert text.splitlines()[0] == "K"
        assert "1.500" in text


class TestFigureGenerators:
    """Every generator computes and reports (what it reports is checked by
    :class:`TestPaperShape` over the same fixtures)."""

    def test_fig3_compute_and_report(self, fig3_rows):
        assert len(fig3_rows) == 6
        assert all(row.static_tht_ikt > 0 for row in fig3_rows)
        text = fig3_speedup.report(fig3_rows)
        assert "geomean" in text and "blackscholes" in text

    def test_fig4_compute_and_report(self, fig4_rows):
        by_name = {row.benchmark: row for row in fig4_rows}
        assert by_name["blackscholes"].static_correctness == pytest.approx(100.0)
        assert "Figure 4" in fig4_correctness.report(fig4_rows)

    def test_fig5_compute_and_report(self, fig5_curves):
        curve = fig5_curves[0]
        assert curve.benchmark == "blackscholes"
        assert curve.correctness_at(1.0) == pytest.approx(100.0)
        assert len(curve.p_values) == len(FIG5_LADDER)
        assert "Figure 5" in fig5_sensitivity.report(fig5_curves)
        with pytest.raises(KeyError):
            curve.correctness_at(0.123)

    def test_fig6_compute_and_report(self, fig6_series):
        for entry in fig6_series:
            assert entry.cores == list(FIG6_CORES)
            assert all(s > 0 for s in entry.dynamic_speedup)
        assert "geomean" in fig6_scalability.report(fig6_series)

    def test_fig8_compute_and_report(self, fig8_result):
        assert fig8_result.without_atm_max_ready >= 0
        assert fig8_result.speedup > 0
        assert "Figure 8" in fig8_ready_tasks.report(fig8_result)

    def test_fig9_compute_and_report(self, fig9_curves):
        blackscholes = fig9_curves[0]
        assert blackscholes.benchmark == "blackscholes"
        assert blackscholes.total_reuse_events > 0
        assert blackscholes.reuse_generated_before(1.0) == pytest.approx(1.0)
        assert "Figure 9" in fig9_redundancy.report(fig9_curves)

    def test_fig9_static_mode(self):
        # The shared fixture is the dynamic sweep; exact memoization (no
        # training phase) takes the other branch of compute().
        (curve,) = fig9_redundancy.compute(
            scale=SCALE, cores=4, benchmarks=("blackscholes",), mode="static"
        )
        assert curve.total_reuse_events > 0
        assert curve.reuse_generated_before(1.0) == pytest.approx(1.0)

    def test_tables_compute_and_report(self, paper_tables):
        t1, t2, t3 = paper_tables
        assert len(t1) == 6
        assert "Table I" in tables.report_table1(t1)
        assert {row.benchmark for row in t2} == {row.benchmark for row in t1}
        assert "Table II" in tables.report_table2(t2)
        assert "Table III" in tables.report_table3(t3)

    def test_ablation_sweeps(self, sizing_sweeps):
        bits, capacity = sizing_sweeps
        assert [p.value for p in bits] == [0, 4, 8]
        assert [p.value for p in capacity] == [4, 16, 128]
        assert "ablation" in ablation_sizing.report(bits, "blackscholes")


class TestPaperShape:
    """The *shape* of the paper's results (our substrate is a simulator, not
    the authors' Sandy Bridge, so no absolute number is asserted): who wins,
    what never hurts, what stays exact.  These were the assertions of the
    deleted pytest-benchmark harness; the timings it printed were not
    evidence (ROADMAP aim 1) and are gone."""

    def test_fig3_static_winners_and_ikt(self, fig3_rows):
        by_name = {row.benchmark: row for row in fig3_rows}
        # Exact memoization pays off on average, approximation more so at
        # the scales the paper records (at tiny scale dynamic training
        # overhead can dominate, so only the weaker ordering is asserted).
        assert geometric_mean([r.static_tht_ikt for r in fig3_rows]) > 0.9
        assert geometric_mean([r.dynamic_tht_ikt for r in fig3_rows]) > 0.9
        # Blackscholes is the biggest static-ATM winner (paper: 5.5x).
        assert max(fig3_rows, key=lambda r: r.static_tht_ikt).benchmark == "blackscholes"
        assert by_name["blackscholes"].static_tht_ikt > 2.0
        # Kmeans cannot exploit exact memoization (paper: ~0.9x); Swaptions
        # barely profits from it (paper: 1.07x).
        assert by_name["kmeans"].static_tht_ikt < 1.05
        assert 0.9 < by_name["swaptions"].static_tht_ikt < 1.5
        # The IKT never makes things worse (paper: +1.8 % Jacobi, +15 % LU).
        for row in fig3_rows:
            assert row.static_tht_ikt >= row.static_tht * 0.98, row.benchmark

    @pytest.mark.parametrize("name", ["blackscholes", "gauss-seidel"])
    def test_fig3_oracle_beats_exact_memoization(self, name):
        # The oracle's tiny sampling fraction removes the hash overhead.
        oracle = find_oracle(name, min_correctness=95.0, scale=SCALE, cores=CORES)
        assert oracle.correctness >= 95.0
        assert oracle.speedup > 1.0

    def test_fig4_correctness_bounds(self, fig4_rows):
        for row in fig4_rows:
            # Static ATM is exact memoization: always 100 % (LU's
            # residual-based metric sits epsilon below).
            assert row.static_correctness >= 99.99, row.benchmark
            # Dynamic ATM loses at most a few percent (paper: worst case
            # 3.2 %, average 0.7 %); headroom for the scaled-down inputs.
            assert row.dynamic_correctness >= 90.0, row.benchmark
        average_loss = 100.0 - sum(r.dynamic_correctness for r in fig4_rows) / len(fig4_rows)
        assert average_loss < 5.0

    def test_fig5_correctness_falls_with_p(self, fig5_curves):
        for curve in fig5_curves:
            # The right-most point (p = 1) is Static ATM — always 100 %
            # correct — and (close to) the maximum of the curve.
            assert curve.correctness_at(1.0) >= 99.99, curve.benchmark
            assert max(curve.correctness) <= curve.correctness_at(1.0) + 1e-6
            # Dynamic ATM's own choice stays accurate (paper: > 96.8 %).
            if curve.dynamic_correctness is not None:
                assert curve.dynamic_correctness >= 90.0, curve.benchmark
        # Shrinking p eventually degrades correctness somewhere (the
        # paper's curves all fall off on the left side of the plot).
        assert [c for c in fig5_curves if c.correctness_at(min(FIG5_LADDER)) < 99.0]

    def test_fig6_advantage_survives_eight_cores(self, fig6_series):
        # Paper: 3.0x at 1 core vs 2.5x at 8 — the advantage does not collapse.
        geomean = fig6_scalability.geomean_series(fig6_series)
        assert geomean.dynamic_speedup[-1] > 0.45 * geomean.dynamic_speedup[0]

    def test_fig7_contention_slows_atm_states(self):
        result = fig7_trace.compute(
            benchmark="gauss-seidel", scale=SCALE, cores_small=2, cores_large=CORES
        )
        assert "Figure 7" in fig7_trace.report(result)
        # Both core counts performed memoization copies, and shared-memory
        # contention makes them no faster at the larger count (paper: ~60 %
        # slower).
        assert result.mean_memo_small > 0.0 and result.mean_memo_large > 0.0
        assert result.memoization_slowdown >= 0.95
        assert result.hash_slowdown >= 0.95

    def test_fig8_atm_lowers_ready_task_pressure(self, fig8_result):
        # ATM makes the run faster and keeps the ready queue emptier: workers
        # memoize tasks faster than the master can create them.
        assert fig8_result.speedup > 1.0
        assert fig8_result.with_atm_mean_ready <= fig8_result.without_atm_mean_ready + 1e-9
        assert fig8_result.with_atm_max_ready <= fig8_result.without_atm_max_ready

    def test_fig9_reuse_timing(self, fig9_curves):
        by_name = {curve.benchmark: curve for curve in fig9_curves}
        assert by_name["gauss-seidel"].total_reuse_events > 0
        # Blackscholes generates a substantial share of its redundancy early
        # (paper: the first iteration's tasks feed all later ones; training
        # shifts some of it right at reduced scales, hence the threshold) ...
        assert by_name["blackscholes"].reuse_generated_before(0.6) > 0.2
        # ... the iterative stencil keeps generating it throughout the run.
        assert by_name["gauss-seidel"].reuse_generated_before(0.5) < 0.98

    def test_tables_match_the_paper(self, paper_tables):
        t1, t2, t3 = paper_tables
        for row in t1:
            assert row.task_input_bytes > 0 and row.number_of_tasks > 0
        # Table II: L_training and tau_max are the paper's, exactly.
        for row in t2:
            assert row.l_training == row.paper_l_training
            assert abs(row.tau_max_percent - row.paper_tau_max_percent) < 1e-9
        # Table III: the order of magnitude of the paper's 3.7 %-21.2 % (the
        # exact value depends on the workload scale).
        for row in t3:
            assert 0.0 < row.memory_overhead_percent < 400.0, row.benchmark

    def test_sizing_ablations_are_monotone(self, sizing_sweeps):
        bits, capacity = sizing_sweeps
        # More buckets never hurt, N = 8 is enough; Kmeans needs a deep THT
        # (M = 128) to hold one entry per point block (paper Section IV-B).
        assert bits[-1].reuse_percent >= bits[0].reuse_percent - 1e-9
        assert bits[-1].speedup > 0
        assert capacity[-1].reuse_percent >= capacity[0].reuse_percent - 1e-9


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

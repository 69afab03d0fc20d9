"""Tests for the run_all orchestrator: coverage, filters, timing table.

The expensive path (actually dispatching pytest subprocesses) belongs to
the benchmarks; these tests pin the orchestration logic — most
importantly that ORDER covers *every* benchmark file, so a new
``bench_*.py`` cannot silently fall out of full reproductions again
(bench_refinement_study et al. once did).
"""

from pathlib import Path

from repro.experiments.run_all import (
    BENCH_DIR,
    ORDER,
    TIMING_SENSITIVE,
    Timings,
    select_benchmarks,
)


class TestOrderCoverage:
    def test_order_covers_every_benchmark_file(self):
        on_disk = {p.name for p in Path(BENCH_DIR).glob("bench_*.py")}
        assert on_disk == set(ORDER), (
            "benchmarks/ and run_all.ORDER diverged; add the missing "
            f"file(s) to ORDER: {sorted(on_disk ^ set(ORDER))}")

    def test_order_has_no_duplicates(self):
        assert len(ORDER) == len(set(ORDER))

    def test_previously_omitted_benchmarks_are_back(self):
        for name in ("bench_refinement_study.py",
                     "bench_fuzz_generalization.py",
                     "bench_service_throughput.py",
                     "bench_trace_warmstart.py"):
            assert name in ORDER, name

    def test_timing_sensitive_is_a_subset_of_order(self):
        assert TIMING_SENSITIVE <= set(ORDER)


class TestFilters:
    def test_no_filters_keeps_everything(self):
        assert select_benchmarks(ORDER, [], []) == ORDER

    def test_only_filters_by_substring(self):
        got = select_benchmarks(ORDER, ["table"], [])
        assert got and all("table" in name for name in got)
        assert got == [n for n in ORDER if "table" in n]  # order preserved

    def test_skip_filters_by_substring(self):
        got = select_benchmarks(ORDER, [], ["fuzz"])
        assert got and all("fuzz" not in name for name in got)

    def test_only_and_skip_compose(self):
        got = select_benchmarks(ORDER, ["table"], ["table7"])
        assert "bench_table7_training_times.py" not in got
        assert "bench_table1_operator_mix.py" in got

    def test_multiple_only_patterns_union(self):
        got = select_benchmarks(ORDER, ["fig1", "fig4"], [])
        assert got == ["bench_fig1_error_ratios.py", "bench_fig4_adhoc.py"]


class TestTimings:
    def test_slowest_table_ranks_and_caps(self):
        timings = Timings()
        for i, name in enumerate(ORDER[:8]):
            timings.record(name, float(i))
        table = timings.slowest_table(top=5)
        assert "Slowest 5 benchmarks" in table
        assert ORDER[7] in table   # slowest is present
        assert ORDER[0] not in table  # fastest fell off the table
        assert "7.0" in table

    def test_fewer_benchmarks_than_top(self):
        timings = Timings()
        timings.record("bench_x.py", 2.0)
        table = timings.slowest_table(top=5)
        assert "Slowest 1 benchmarks" in table
        assert "100%" in table


class TestMain:
    def test_main_succeeds_when_nothing_selected(
            self, tmp_path, monkeypatch, capsys):
        """``--only`` matching nothing is a clean dry run."""
        import repro.experiments.run_all as run_all_mod

        monkeypatch.setattr(run_all_mod, "BENCH_DIR", tmp_path / "benchmarks")
        (tmp_path / "benchmarks").mkdir()
        assert run_all_mod.main(["--only", "no_such_benchmark"]) == 0
        assert "0/0 benchmarks succeeded" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == [tmp_path / "benchmarks"]

"""The bench regression gate: ``diff_reports`` and ``bench --compare``.

CI diffs a fresh quick-bench report against the committed baseline; a
benchmark that slowed past the threshold — or silently vanished — must
flip the exit code, not just print a number.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.cli import main
from repro.harness.bench import BENCH_SCHEMA, BenchResult, bench_report, diff_reports


def _report(**ops_per_sec: float) -> dict:
    results = [
        BenchResult(name=name, ops=1000, wall_s=1000.0 / rate)
        for name, rate in ops_per_sec.items()
    ]
    return bench_report(results, name="test", quick=True)


class TestDiffReports:
    def test_no_change_no_regressions(self) -> None:
        before = _report(alpha=100.0, beta=200.0)
        diff = diff_reports(before, before)
        assert diff["regressions"] == {}
        assert diff["missing"] == []
        assert all(factor == pytest.approx(1.0) for factor in diff["speedups"].values())

    def test_slowdown_beyond_threshold_flagged(self) -> None:
        before = _report(alpha=100.0, beta=200.0)
        after = _report(alpha=80.0, beta=199.0)  # alpha -20%, beta noise
        diff = diff_reports(before, after, threshold=0.9)
        assert set(diff["regressions"]) == {"alpha"}
        assert "beta" not in diff["regressions"]

    def test_threshold_is_respected(self) -> None:
        before = _report(alpha=100.0)
        after = _report(alpha=80.0)
        assert diff_reports(before, after, threshold=0.75)["regressions"] == {}
        assert "alpha" in diff_reports(before, after, threshold=0.85)["regressions"]

    def test_missing_benchmark_reported(self) -> None:
        before = _report(alpha=100.0, beta=200.0)
        after = _report(alpha=100.0)
        diff = diff_reports(before, after)
        assert diff["missing"] == ["beta"]

    def test_added_benchmark_does_not_gate(self) -> None:
        before = _report(alpha=100.0)
        after = _report(alpha=100.0, gamma=50.0)
        diff = diff_reports(before, after)
        assert diff["added"] == ["gamma"]
        assert diff["regressions"] == {} and diff["missing"] == []

    def test_rejects_wrong_schema(self) -> None:
        good = _report(alpha=100.0)
        bad = dict(good, schema="other/v9")
        with pytest.raises(ValueError):
            diff_reports(bad, good)
        with pytest.raises(ValueError):
            diff_reports(good, bad)

    def test_rejects_bad_threshold(self) -> None:
        report = _report(alpha=100.0)
        with pytest.raises(ValueError):
            diff_reports(report, report, threshold=0.0)
        with pytest.raises(ValueError):
            diff_reports(report, report, threshold=1.5)

    def test_report_schema_tag(self) -> None:
        assert _report(alpha=1.0)["schema"] == BENCH_SCHEMA


class TestCompareCli:
    def _write(self, path, report) -> str:
        path.write_text(json.dumps(report))
        return str(path)

    def test_identical_reports_exit_zero(self, tmp_path, capsys) -> None:
        path = self._write(tmp_path / "a.json", _report(alpha=100.0))
        assert main(["bench", "--compare", path, path]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys) -> None:
        before = self._write(tmp_path / "a.json", _report(alpha=100.0))
        after = self._write(tmp_path / "b.json", _report(alpha=50.0))
        assert main(["bench", "--compare", before, after]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regressed" in captured.err

    def test_custom_threshold(self, tmp_path) -> None:
        before = self._write(tmp_path / "a.json", _report(alpha=100.0))
        after = self._write(tmp_path / "b.json", _report(alpha=60.0))
        assert main(["bench", "--compare", before, after, "--threshold", "0.5"]) == 0

    def test_missing_benchmark_exits_nonzero(self, tmp_path, capsys) -> None:
        before = self._write(tmp_path / "a.json", _report(alpha=100.0, beta=1.0))
        after = self._write(tmp_path / "b.json", _report(alpha=100.0))
        assert main(["bench", "--compare", before, after]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_unreadable_file_exits_two(self, tmp_path, capsys) -> None:
        good = self._write(tmp_path / "a.json", _report(alpha=100.0))
        assert main(["bench", "--compare", good, str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, tmp_path, capsys) -> None:
        good = self._write(tmp_path / "a.json", _report(alpha=100.0))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bench", "--compare", good, str(bad)]) == 2


class TestRunCli:
    def test_sharded_run_end_to_end(self, capsys) -> None:
        assert main([
            "run", "RWB", "--shards", "3", "--ops", "900", "--keys", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "shards=3" in out
        assert "per shard" in out

    def test_range_partitioner_flag(self, capsys) -> None:
        assert main([
            "run", "WO", "--shards", "2", "--partitioner", "range",
            "--ops", "600", "--keys", "200", "--policy", "udc",
        ]) == 0
        assert "range" in capsys.readouterr().out

    def test_default_workload_is_rwb(self, capsys) -> None:
        assert main(["run", "--shards", "2", "--ops", "600", "--keys", "200"]) == 0
        assert "workload=RWB" in capsys.readouterr().out

    def test_unknown_workload_exits_two(self, capsys) -> None:
        assert main(["run", "NOPE", "--shards", "2"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bad_shard_count_exits_two(self, capsys) -> None:
        assert main(["run", "RWB", "--shards", "0", "--ops", "100"]) == 2

    def test_listed(self, capsys) -> None:
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "run" in out.splitlines()
        assert "shard_scaling" in out


class TestUnknownBenchmark:
    """``--only`` with a bad name: typed error, helpful CLI message."""

    def test_run_bench_raises_typed_error(self) -> None:
        from repro.errors import UnknownBenchmarkError
        from repro.harness.bench import BENCHMARKS, TIER2_BENCHMARKS, run_bench

        with pytest.raises(UnknownBenchmarkError) as excinfo:
            run_bench(names=["bloom_probe", "nope", "also_nope"])
        err = excinfo.value
        assert err.name == "nope"
        assert err.unknown == ("nope", "also_nope")
        assert err.known == tuple(sorted({**BENCHMARKS, **TIER2_BENCHMARKS}))
        assert "paper_scale" in err.known

    def test_is_config_error(self) -> None:
        from repro.errors import ConfigError, UnknownBenchmarkError

        assert issubclass(UnknownBenchmarkError, ConfigError)

    def test_cli_exits_two_with_known_names(self, tmp_path, capsys) -> None:
        assert main(
            ["bench", "--only", "nope", "--bench-out", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert "'nope'" in err
        assert "fillrandom" in err

    def test_cli_creates_missing_bench_out(self, tmp_path) -> None:
        out_dir = tmp_path / "new" / "reports"
        assert main([
            "bench", "--quick", "--only", "bloom_probe", "--bench-name", "t",
            "--bench-out", str(out_dir),
        ]) == 0
        assert (out_dir / "BENCH_t.json").is_file()

    def test_cli_bench_out_file_exits_two_before_running(
        self, tmp_path, capsys
    ) -> None:
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        assert main([
            "bench", "--only", "bloom_probe", "--bench-out", str(not_a_dir),
        ]) == 2
        captured = capsys.readouterr()
        assert "not a directory" in captured.err
        assert "running" not in captured.out


class TestBenchHistory:
    """``bench --history``: the perf-trajectory table over baselines."""

    def _write(self, tmp_path, pr, **ops_per_sec):
        report = _report(**ops_per_sec)
        path = tmp_path / f"BENCH_pr{pr}.json"
        path.write_text(json.dumps(report))
        return str(path)

    def test_table_ordered_by_pr_number(self, tmp_path, capsys) -> None:
        self._write(tmp_path, 10, fillrandom=400.0)
        self._write(tmp_path, 2, fillrandom=100.0)
        self._write(tmp_path, 7, fillrandom=200.0)
        assert main(["bench", "--history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.startswith("| pr")]
        assert [row.split()[1] for row in rows] == ["pr2", "pr7", "pr10"]
        # Trajectory column is relative to the first report's fillrandom.
        assert "4.00x" in rows[-1]
        assert "1.00x" in rows[0]

    def test_missing_benchmark_shows_dash(self, tmp_path, capsys) -> None:
        self._write(tmp_path, 1, fillrandom=100.0)
        self._write(tmp_path, 2, fillrandom=150.0, readrandom=80.0)
        assert main(["bench", "--history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        first_row = next(l for l in out.splitlines() if l.startswith("| pr1 "))
        assert "—" in first_row

    def test_no_reports_exits_two(self, tmp_path, capsys) -> None:
        assert main(["bench", "--history", str(tmp_path)]) == 2
        assert "no BENCH_pr" in capsys.readouterr().err

    def test_unreadable_dir_exits_two(self, tmp_path, capsys) -> None:
        assert main(["bench", "--history", str(tmp_path / "nope")]) == 2

    def test_corrupt_report_skipped(self, tmp_path, capsys) -> None:
        self._write(tmp_path, 1, fillrandom=100.0)
        (tmp_path / "BENCH_pr2.json").write_text("{not json")
        assert main(["bench", "--history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "| pr1 " in out
        assert "| pr2 " not in out


class TestBenchExtras:
    def test_readrandom_reports_block_cache_hit_rate(self) -> None:
        from repro.harness.bench import bench_readrandom

        result = bench_readrandom(quick=True)
        rate = result.extra["block_cache_hit_rate"]
        assert 0.0 <= rate <= 1.0

    def test_paper_scale_ops_env_override(self, monkeypatch) -> None:
        from repro.harness.bench import bench_paper_scale

        monkeypatch.setenv("REPRO_PAPER_SCALE_OPS", "500")
        result = bench_paper_scale()
        assert result.ops == 1_000  # fill + read phases

    def test_udc_vs_ldc_builds_no_deprecated_policy_class(self) -> None:
        # Benchmarks build policies from the registry; a deprecated shim
        # constructor would warn on every run.
        from repro.harness.bench import bench_udc_vs_ldc

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = bench_udc_vs_ldc(quick=True)
        assert result.extra["udc_sim_throughput_ops_s"] > 0
        assert result.extra["ldc_sim_throughput_ops_s"] > 0

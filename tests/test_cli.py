"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_defaults(self):
        """--ops/--keys resolve per subcommand in main(); unset here."""
        args = build_parser().parse_args(["fig08"])
        assert args.experiment == "fig08"
        assert args.ops is None
        assert args.keys is None

    def test_crashtest_args(self):
        args = build_parser().parse_args(
            ["crashtest", "--policy", "ldc", "--every", "25", "--shards", "2"]
        )
        assert args.experiment == "crashtest"
        assert args.policy == "ldc"
        assert args.every == 25
        assert args.shards == 2
        assert args.corrupt == 25

    def test_overrides(self):
        args = build_parser().parse_args(["fig14", "--ops", "500", "--keys", "100"])
        assert args.ops == 500
        assert args.keys == 100


class TestDispatch:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig01", "fig08", "fig15", "tiered"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_covers_every_figure(self):
        expected = {
            "fig01", "tab1", "fig07", "fig08", "fig09", "fig10a", "fig10b",
            "fig10c", "fig11", "fig12ad", "fig12be", "fig12cf", "fig13",
            "fig14", "fig15",
        }
        assert expected <= set(EXPERIMENTS)

    @pytest.mark.parametrize("name", ["tab1", "fig08", "describe"])
    def test_run_tiny(self, capsys, name):
        """Each CLI path runs end-to-end at tiny scale."""
        assert main([name, "--ops", "1200", "--keys", "400"]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_fig13_runs(self, capsys):
        assert main(["fig13", "--ops", "800", "--keys", "300"]) == 0
        assert "bits/key" in capsys.readouterr().out

    def test_counts_runner_path(self, capsys):
        """fig14/fig15 dispatch through the request-count sweep runner."""
        assert main(["fig15", "--ops", "900", "--keys", "300"]) == 0
        out = capsys.readouterr().out
        assert "space MiB" in out and "LDC" in out

    def test_matrix_runner_path(self, capsys):
        assert main(["fig09", "--ops", "900", "--keys", "300"]) == 0
        out = capsys.readouterr().out
        assert "workload" in out and "p99.9" in out


class TestFlashCLI:
    def test_flash_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run",
                "RWB",
                "--flash",
                "--flash-op",
                "0.28",
                "--flash-gc",
                "cost_benefit",
                "--flash-logical-mib",
                "4",
            ]
        )
        assert args.flash
        assert args.flash_op == 0.28
        assert args.flash_gc == "cost_benefit"
        assert args.flash_logical_mib == 4.0
        assert build_parser().parse_args(["crashtest", "--flash"]).flash
        assert not build_parser().parse_args(["run", "RWB"]).flash

    def test_run_flash_tiny(self, capsys):
        assert main(["run", "RWB", "--flash", "--ops", "1500", "--keys", "400"]) == 0
        out = capsys.readouterr().out
        assert "flash:" in out and "OP=" in out
        assert "device write amp" in out
        assert "total write amp" in out
        assert "blocks erased" in out

    def test_fig_device_wa_tiny(self, capsys):
        assert main(["fig_device_wa", "--ops", "1500", "--keys", "400"]) == 0
        out = capsys.readouterr().out
        assert "total WA" in out
        assert "lowest total WA" in out
        assert "ldc" in out and "udc" in out

    def test_fig_device_wa_listed(self, capsys):
        assert main(["list"]) == 0
        assert "fig_device_wa" in capsys.readouterr().out

    def test_explore_flash_tiny(self, capsys):
        assert (
            main(
                [
                    "explore",
                    "--flash",
                    "--policies",
                    "udc,ldc",
                    "--mixes",
                    "RWB",
                    "--ops",
                    "1200",
                    "--keys",
                    "400",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dev WA" in out
        assert "lowest total WA" in out


class TestServeCLI:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "RWB", "--arrival", "onoff", "--rate", "9000",
                "--tenants", "3", "--slo-us", "500", "--queue-depth", "32",
                "--discipline", "priority", "--bg-threads", "2",
            ]
        )
        assert args.experiment == "serve"
        assert args.workload == "RWB"
        assert args.arrival == "onoff"
        assert args.rate == 9000.0
        assert args.tenants == 3
        assert args.slo_us == 500.0
        assert args.queue_depth == 32
        assert args.discipline == "priority"
        assert args.bg_threads == 2

    def test_serve_runs_tiny(self, capsys):
        assert (
            main(
                [
                    "serve", "RWB", "--ops", "1200", "--keys", "400",
                    "--rate", "20000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serve: workload=RWB" in out
        assert "mean wait us" in out
        assert "total p99.9 us" in out
        assert "SLO violation rate" in out

    def test_serve_multi_tenant_reports_per_tenant(self, capsys):
        assert (
            main(
                [
                    "serve", "RWB", "--ops", "1000", "--keys", "300",
                    "--tenants", "2", "--rate", "20000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "per tenant" in out
        assert "t0" in out and "t1" in out

    def test_serve_sharded_runs_tiny(self, capsys):
        assert (
            main(
                [
                    "serve", "RWB", "--ops", "1000", "--keys", "300",
                    "--shards", "2", "--rate", "20000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "aggregate" in out

    def test_serve_closed_arrival_runs(self, capsys):
        assert (
            main(["serve", "RWB", "--ops", "800", "--keys", "300",
                  "--arrival", "closed"])
            == 0
        )
        out = capsys.readouterr().out
        assert "arrival=closed" in out

    def test_serve_unknown_workload_errors(self, capsys):
        assert main(["serve", "NOPE", "--ops", "500", "--keys", "200"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_serve_sharded_rejects_closed(self, capsys):
        assert (
            main(
                [
                    "serve", "RWB", "--ops", "500", "--keys", "200",
                    "--shards", "2", "--arrival", "closed",
                ]
            )
            == 2
        )
        assert "closed" in capsys.readouterr().err

    def test_fig01_open_loop_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01_open_loop" in out
        assert "serve" in out

    def test_fig01_open_loop_runs_tiny(self, capsys):
        assert main(["fig01_open_loop", "--ops", "1500", "--keys", "500"]) == 0
        out = capsys.readouterr().out
        assert "fig01_open_loop" in out
        assert "UDC knee" in out
        assert "open-loop claim" in out


class TestErrorExits:
    """Bad input exits 2 with one line; faults in the program propagate."""

    def test_negative_ops_exits_two(self, capsys):
        assert main(["run", "RWB", "--ops", "-5"]) == 2
        assert "num_operations must be positive" in capsys.readouterr().err

    def test_crashtest_zero_stride_exits_two(self, capsys):
        assert main(["crashtest", "--every", "0", "--ops", "100"]) == 2
        assert "stride must be positive" in capsys.readouterr().err

    def test_serve_bad_queue_depth_exits_two(self, capsys):
        assert main(["serve", "RWB", "--queue-depth", "0", "--ops", "100"]) == 2
        assert "queue capacity" in capsys.readouterr().err

    def test_report_out_missing_parent_fails_before_running(
        self, tmp_path, capsys
    ):
        target = tmp_path / "missing" / "report.md"
        assert main(
            ["explore", "--mixes", "RWB", "--ops", "300", "--keys", "100",
             "--report-out", str(target)]
        ) == 2
        captured = capsys.readouterr()
        assert "--report-out" in captured.err
        assert "does not exist" in captured.err
        assert captured.out == ""

    def test_trace_out_missing_parent_fails_before_running(
        self, tmp_path, capsys
    ):
        target = tmp_path / "missing" / "trace.jsonl"
        assert main(
            ["trace", "WO", "--ops", "300", "--keys", "100",
             "--trace-out", str(target)]
        ) == 2
        captured = capsys.readouterr()
        assert "--trace-out" in captured.err
        assert captured.out == ""

    def test_serve_internal_fault_is_not_reported_as_bad_input(
        self, monkeypatch
    ):
        from repro.serve.queue import QueueStats

        def broken(self, depth):
            raise AssertionError("ledger out of balance")

        monkeypatch.setattr(QueueStats, "check_conservation", broken)
        with pytest.raises(AssertionError, match="ledger out of balance"):
            main(["serve", "RWB", "--ops", "300", "--keys", "100"])

    def test_run_internal_fault_is_not_reported_as_bad_input(
        self, monkeypatch
    ):
        from repro.shard import runner

        def broken(*args, **kwargs):
            raise RuntimeError("invariant failed")

        monkeypatch.setattr(runner, "run_sharded_workload", broken)
        with pytest.raises(RuntimeError, match="invariant failed"):
            main(["run", "RWB", "--ops", "300", "--keys", "100"])

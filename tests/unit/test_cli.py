"""Unit tests for the command-line interface."""

import importlib.util
import time

import pytest

from repro.cli import build_parser, main
from repro.core.registry import ALGORITHMS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_param_arguments_flow_into_params(self):
        args = build_parser().parse_args(["tables", "-C", "50", "-J", "8"])
        assert args.cardinality == 50
        assert args.join_factor == 8

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "9.9"])


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "M_ECA" in out

    def test_figures_single(self, capsys):
        assert main(["figures", "--figure", "6.4"]) == 0
        out = capsys.readouterr().out
        assert "figure-6.4" in out
        assert "figure-6.2" not in out

    def test_figures_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in ("figure-6.2", "figure-6.3", "figure-6.4", "figure-6.5"):
            assert name in out

    def test_figures_with_parameters(self, capsys):
        assert main(["figures", "--figure", "6.5", "-C", "40"]) == 0
        out = capsys.readouterr().out
        # I = ceil(40/20) = 2; I^3 = 8 for RVBest.
        assert " 8" in out

    def test_scenario_list(self, capsys):
        assert main(["scenario", "--list"]) == 0
        assert "example-2" in capsys.readouterr().out

    def test_scenario_bare_defaults_to_list(self, capsys):
        assert main(["scenario"]) == 0
        assert "example-1" in capsys.readouterr().out

    def test_scenario_replay(self, capsys):
        # Example 2's anomaly yields a final state matching no source
        # state at all; Example 3's is a pure convergence failure (the
        # stale view is consistent with ss_0, just never catches up).
        assert main(["scenario", "example-2"]) == 0
        out = capsys.readouterr().out
        assert "correctness:  incorrect" in out

        assert main(["scenario", "example-3"]) == 0
        out = capsys.readouterr().out
        assert "correctness:  consistent" in out
        assert "correct view: []" in out
        assert "final view:   [(1, 3)]" in out

    def test_scenario_with_algorithm_override(self, capsys):
        assert main(["scenario", "example-2", "--algorithm", "eca"]) == 0
        out = capsys.readouterr().out
        assert "strongly consistent" in out

    def test_scenario_unknown_name(self, capsys):
        assert main(["scenario", "example-99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_crossovers(self, capsys):
        assert main(["crossovers"]) == 0
        out = capsys.readouterr().out
        assert "k = 100" in out
        assert "k = 30" in out

    def test_measure_bytes_small(self, capsys):
        assert main(["measure", "--metric", "bytes", "--k", "3", "-C", "20"]) == 0
        assert "Measured B" in capsys.readouterr().out

    def test_measure_io(self, capsys):
        assert main(["measure", "--metric", "io2", "--k", "2", "-C", "20"]) == 0
        assert "Scenario 2" in capsys.readouterr().out

    def test_report_quick_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["report", "--quick", "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "Table 1" in text
        assert "figure-6.5" in text
        assert "worked examples" in text
        assert "correctness audit" in text
        # Every worked example must match the paper in a fresh run.
        assert "False" not in text.split("worked examples")[1].split("E9")[0]

    def test_report_quick_to_stdout(self, capsys):
        assert main(["report", "--quick"]) == 0
        assert "Reproduction report" in capsys.readouterr().out

    def test_staleness(self, capsys):
        assert main(["staleness", "--updates", "6", "--periods", "1", "6",
                     "--batches", "3"]) == 0
        out = capsys.readouterr().out
        assert "ECA (immediate)" in out
        assert "RV s=6" in out
        assert "Batch b=3" in out

    def test_audit_small(self, capsys):
        assert main(["audit", "--workloads", "2", "--updates", "4"]) == 0
        out = capsys.readouterr().out
        assert "eca" in out
        assert "incorrect" not in out.split("basic")[0]  # header intact


class TestObservabilityCli:
    def test_runtime_exports_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        prom_path = tmp_path / "metrics.prom"
        assert main([
            "runtime", "--sources", "1", "--updates", "4", "--seed", "7",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--prom-out", str(prom_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "metrics:" in out
        assert trace_path.exists() and metrics_path.exists() and prom_path.exists()
        import json

        payload = json.loads(metrics_path.read_text())
        assert payload["meta"]["seed"] == 7
        assert "repro_warehouse_events_total" in payload["metrics"]
        assert "# TYPE repro_warehouse_events_total counter" in prom_path.read_text()

    def test_trace_renders_causal_timeline(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "runtime", "--sources", "1", "--updates", "4", "--seed", "7",
            "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "wh.query" in out
        assert "<- causes source.update" in out

    def test_trace_kind_filter_and_limit(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "runtime", "--sources", "1", "--updates", "4", "--seed", "7",
            "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--kind", "query",
                     "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "wh.query" in out
        assert "client.refresh" not in out

    def test_trace_negative_limit_is_a_one_line_error(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text('{"span_id": 1, "name": "a", "start": 0}\n')
        assert main(["trace", str(trace_path), "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --limit must be >= 0, got -1\n"
        assert captured.out == ""

    def test_trace_missing_file_fails_cleanly(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, reason",
        [
            ('{"span_id": 1, "name": "a", "start": 0}\nnot json\n',
             "line 2 is not JSON"),
            ('{"name": "a", "start": 0}\n', "line 1 has no span_id"),
        ],
        ids=["not-json", "no-span-id"],
    )
    def test_trace_malformed_file_fails_cleanly(
        self, content, reason, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(content)
        assert main(["trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot read ") and reason in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestShardedRuntimeCli:
    def test_sharded_run_reports_placement_and_cut_verdict(self, capsys):
        assert main([
            "runtime", "--shards", "2", "--sources", "2", "--updates", "4",
            "--clients", "0", "--seed", "3", "--require-consistent",
        ]) == 0
        out = capsys.readouterr().out
        assert "sharding:           2 shard(s), hash partitioner" in out
        assert "V0->s" in out and "V1->s" in out
        assert "strongly consistent" in out
        assert "shard0" in out and "shard1" in out
        assert "router" not in out and "->wh" not in out

    def test_range_partitioner_and_crash_shard(self, capsys):
        assert main([
            "runtime", "--shards", "2", "--partitioner", "range",
            "--sources", "2", "--updates", "4", "--clients", "0",
            "--seed", "5", "--crash", "--crash-shard", "1",
            "--require-consistent",
        ]) == 0
        out = capsys.readouterr().out
        assert "range partitioner" in out

    def test_require_consistent_fails_non_consistent_runs(self, capsys):
        # The fragmenting transplant reads one query's fragments at
        # different cuts: this run's view holds rows no cut's view does,
        # so the gate must trip.
        assert main([
            "runtime", "--algorithm", "fragmenting-incremental", "--sources", "2",
            "--updates", "4", "--seed", "3", "--require-consistent",
        ]) == 1
        assert "--require-consistent" in capsys.readouterr().err

    def test_an_unsharded_catalog_is_judged_over_cuts(self, capsys):
        # Two views over two autonomous sources: the tagged union may show
        # one source's update before the other's earlier one.  No global
        # order binds two sources, so that is a consistent cut.
        assert main([
            "runtime", "--sources", "2", "--updates", "4", "--seed", "3",
            "--require-consistent",
        ]) == 0
        assert "consistency:        strongly consistent" in capsys.readouterr().out

    def test_shards_reject_spanning_algorithms(self, capsys):
        assert main([
            "runtime", "--shards", "2", "--algorithm", "multi-stored-copies",
        ]) == 2
        assert "cannot be partitioned" in capsys.readouterr().err

    def test_rejected_combination_is_a_one_line_error(self, capsys):
        assert main(["runtime", "--crash-shard", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: crash_shard=1 requires shards=")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    def test_wire_codec_composes_with_shards(self, capsys):
        assert main([
            "runtime", "--shards", "2", "--wire-codec", "frame",
            "--require-consistent",
        ]) == 0
        assert "sharding:           2 shard(s)" in capsys.readouterr().out

    def test_sharded_prometheus_series_carry_the_shard_label(
        self, tmp_path, capsys
    ):
        prom_path = tmp_path / "metrics.prom"
        assert main([
            "runtime", "--shards", "2", "--sources", "2", "--updates", "4",
            "--clients", "0", "--seed", "3", "--prom-out", str(prom_path),
        ]) == 0
        capsys.readouterr()
        assert 'shard="0"' in prom_path.read_text()


class TestRuntimeConfigurationErrors:
    """A bad flag value is one ``error:`` line and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--crash", "--crash-mode", "event"], 'mode="event" requires at='),
            (["--crash", "--max-crashes", "0"], "max_crashes must be >= 1"),
            (["--faults", "--drop-rate", "1.5"], "drop_rate must be in [0, 1)"),
            (["--cache", "--cache-capacity", "0"], "cache capacity must be >= 1"),
            (["--wal-dir", "WAL", "--snapshot-every", "0"], "snapshot_every must be >= 1"),
            (["--snapshot-every", "-1"], "snapshot_every must be >= 1"),
            (["--sources", "0"], "--sources must be >= 1"),
            (["--crash", "--crash-mode", "event", "--crash-at", "-1"], "at must be >= 1"),
            (["--updates", "-1"], "update count must be >= 0"),
            (["--algorithm", "strobe", "--updates", "-1"], "update count must be >= 0"),
            (["--clients", "-1"], "clients must be >= 0"),
            (["--reads", "-1"], "client_reads must be >= 0"),
        ],
        ids=["crash-at", "max-crashes", "drop-rate", "cache-capacity",
             "snapshot-every", "snapshot-every-without-wal", "sources", "negative-crash-at", "updates",
             "spanning-updates", "clients", "reads"],
    )
    def test_bad_value_is_a_one_line_error(self, flags, message, tmp_path, capsys):
        flags = [str(tmp_path / "wal") if flag == "WAL" else flag for flag in flags]
        assert main(["runtime", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sources", "0"], "--sources must be >= 1"),
            (["--cache-capacity", "0"], "cache capacity must be >= 1"),
            (["--staleness-bound", "-1"], "staleness bound must be >= 0"),
            (["--theta", "-1"], "zipf theta must be >= 0"),
            (["--theta", "nan"], "zipf theta must be >= 0"),
            (["--updates", "-1"], "update count must be >= 0"),
            (["--reads", "-1"], "--reads must be >= 0"),
        ],
        ids=["sources", "cache-capacity", "staleness-bound", "theta", "theta-nan",
             "updates", "reads"],
    )
    def test_bad_freshness_value_is_a_one_line_error(self, flags, message, capsys):
        assert main(["freshness", "--updates", "2", "--reads", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.skipif(
        importlib.util.find_spec("zstandard") is not None,
        reason="zstandard is installed: the codec is available",
    )
    def test_unavailable_wire_codec_is_a_one_line_error(self, capsys):
        assert main(["runtime", "--wire-codec", "zstd"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: wire codec 'zstd' needs")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestCommandConfigurationErrors:
    """Every other subcommand reports a rejected value the way ``runtime``
    does: one ``error:`` line and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tables", "--cardinality", "0"], "cardinality must be >= 1"),
            (["figures", "--selectivity", "2"], "selectivity must be in [0, 1]"),
            (["measure", "--join-factor", "0"], "join_factor must be >= 1"),
            (["report", "--quick", "--block-factor", "0"], "block_factor must be >= 1"),
            (["crossovers", "--cardinality", "0"], "cardinality must be >= 1"),
            (["staleness", "--updates", "-1"], "update count must be >= 0"),
            (["staleness", "--periods", "0"], "recompute period must be >= 1"),
            (["staleness", "--batches", "0"], "batch_size must be >= 1"),
            (["audit", "--updates", "-1"], "update count must be >= 0"),
            (["audit", "--workloads", "-1"], "workloads must be >= 1"),
            (["audit", "--workloads", "0"], "workloads must be >= 1"),
        ],
        ids=["tables", "figures", "measure", "report", "crossovers",
             "staleness-updates", "staleness-periods", "staleness-batches",
             "audit-updates", "audit-negative-workloads", "audit-no-workloads"],
    )
    def test_bad_value_is_a_one_line_error(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    def test_scenario_rejects_an_unknown_algorithm_as_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "example-2", "--algorithm", "nosuch"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice: 'nosuch'" in captured.err
        assert captured.out == ""


class TestEveryAlgorithmRuns:
    """``repro runtime`` drives every registry algorithm to a verdict."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_runtime_reaches_a_verdict(self, algorithm, seed, capsys):
        # stored-copies used to start with empty copies and die on its
        # first delete with an UpdateError traceback.
        code = main([
            "runtime", "--algorithm", algorithm, "--sources", "2",
            "--updates", "8", "--clients", "1", "--seed", str(seed),
        ])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        assert "consistency:" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("algorithm", ["batch-eca", "deferred-eca"])
    def test_a_run_that_cannot_quiesce_fails_at_once(self, algorithm, capsys):
        """Seed 1's last refresh lands before its last update, so the
        deferred families keep it buffered: that used to spin the whole
        poll budget (~5 s) and report only ``pending=0``."""
        started = time.perf_counter()
        assert main(["runtime", "--algorithm", algorithm, "--seed", "1"]) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: runtime cannot quiesce")
        assert "'buffered_updates': 1" in err
        assert "flush only on a client refresh" in err
        assert err.count("\n") == 1


class TestServingCli:
    def test_cache_run_prints_the_serving_report(self, capsys):
        assert main([
            "runtime", "--sources", "2", "--updates", "6", "--clients", "0",
            "--seed", "5", "--cache", "--staleness-bound", "2",
            "--read-workload", "zipf:1.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving cache:" in out
        assert "hit rate" in out
        assert "max lag" in out
        assert "backend read(s)" in out

    def test_read_workload_without_cache_reads_direct(self, capsys):
        assert main([
            "runtime", "--sources", "1", "--updates", "4", "--clients", "0",
            "--seed", "2", "--read-workload", "zipf:0",
        ]) == 0
        out = capsys.readouterr().out
        assert "(cache off)" in out

    def test_cache_flags_flow_into_the_parser(self):
        args = build_parser().parse_args([
            "runtime", "--cache", "--staleness-bound", "3",
            "--cache-capacity", "16", "--cache-policy", "fifo",
            "--read-workload", "zipf:0.5",
        ])
        assert args.cache is True
        assert args.staleness_bound == 3
        assert args.cache_capacity == 16
        assert args.cache_policy == "fifo"
        assert args.read_workload == "zipf:0.5"

    def test_bad_read_workload_spec_is_rejected(self, capsys):
        assert main([
            "runtime", "--sources", "1", "--updates", "2", "--clients", "0",
            "--read-workload", "uniform",
        ]) == 2
        assert "zipf:THETA" in capsys.readouterr().err

    def test_negative_theta_is_rejected(self, capsys):
        assert main([
            "runtime", "--sources", "1", "--updates", "2", "--clients", "0",
            "--read-workload", "zipf:-1",
        ]) == 2
        assert "zipf:THETA" in capsys.readouterr().err

    def test_nan_theta_is_rejected(self, capsys):
        assert main([
            "runtime", "--sources", "1", "--updates", "2", "--clients", "0",
            "--read-workload", "zipf:nan",
        ]) == 2
        assert "zipf:THETA" in capsys.readouterr().err

    def test_sharded_cache_run_stays_consistent(self, capsys):
        assert main([
            "runtime", "--shards", "2", "--sources", "2", "--updates", "4",
            "--clients", "0", "--seed", "3", "--cache",
            "--read-workload", "zipf:1", "--require-consistent",
        ]) == 0
        assert "serving cache:" in capsys.readouterr().out

"""Smoke tests for the ``python -m repro`` launcher."""

import pytest

from repro.__main__ import cmd_examples, cmd_list, main


def test_list_enumerates_experiments(capsys):
    assert cmd_list() == 0
    out = capsys.readouterr().out
    assert "fig03" in out
    assert "fig18a" in out
    assert "abl_" in out


def test_examples_enumerates_examples(capsys):
    assert cmd_examples() == 0
    out = capsys.readouterr().out
    assert "quickstart.py" in out
    assert "spot_eviction.py" in out


def test_unknown_experiment_is_an_error(capsys):
    assert main(["run", "fig99"]) == 1
    assert "unknown experiment" in capsys.readouterr().out


def test_metrics_live_run_dumps_registry(capsys):
    assert main(["metrics", "--batches", "30"]) == 0
    out = capsys.readouterr().out
    assert "bench.op_latency" in out
    assert "qp.wire_latency" in out
    assert "p99" in out


def test_metrics_json_output_is_parseable(capsys):
    import json

    assert main(["metrics", "--json", "--batches", "30"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["schema"] == "repro.obs/v1"
    assert blob["metrics"]["bench.ops"]["value"] > 0


def test_metrics_for_missing_bench_blob_is_an_error(capsys):
    assert main(["metrics", "fig99"]) == 1
    assert "no metrics blob" in capsys.readouterr().out


def test_missing_command_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])


def test_sweep_json_output_and_cache_hits(tmp_path, capsys):
    import json

    argv = ["sweep", "--max-client-threads", "1", "--max-queue-depth", "2",
            "--batches", "6", "--warmup", "2",
            "--cache-dir", str(tmp_path / "cache"), "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["schema"] == "repro.exec/v1"
    assert first["exec"]["tasks"] == len(first["grid"]) > 0
    assert first["exec"]["cache_hits"] == 0
    assert all(row["throughput"] > 0 for row in first["grid"])

    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    # Cache hits replay the exact same numbers.
    assert second["grid"] == first["grid"]
    assert second["exec"]["cache_hits"] == second["exec"]["tasks"]


def test_sweep_table_output_without_cache(capsys):
    assert main(["sweep", "--max-client-threads", "1",
                 "--max-queue-depth", "2", "--batches", "6",
                 "--warmup", "2", "--cache-dir", ""]) == 0
    out = capsys.readouterr().out
    assert "tput" in out
    assert "0 cache hits" in out


def test_chaos_lists_scenarios(capsys):
    assert main(["chaos"]) == 0
    out = capsys.readouterr().out
    assert "spot-churn" in out
    assert "evict-primary" in out


def test_chaos_unknown_scenario_is_an_error(capsys):
    assert main(["chaos", "nope"]) == 1
    assert "unknown chaos scenario" in capsys.readouterr().out


def test_chaos_runs_scenario_and_dumps_fault_log(tmp_path, capsys):
    import json

    out_path = tmp_path / "chaos.json"
    assert main(["chaos", "slow-node", "--seed", "5",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "fault log:" in out
    assert "slow-node" in out
    assert "fault-log digest:" in out

    blob = json.loads(out_path.read_text())
    assert blob["schema"] == "repro.faults/v1"
    assert blob["seed"] == 5
    assert blob["summary"]["probes"] > 0
    kinds = {event["kind"] for event in blob["events"]}
    assert {"slow-node", "slow-node-cleared",
            "latency-spike", "latency-spike-cleared"} <= kinds

    # Same seed => bit-identical fault trace (the digest proves it).
    assert main(["chaos", "slow-node", "--seed", "5", "--json"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["digest"] == blob["digest"]
    assert again["events"] == blob["events"]


def test_chaos_exits_1_when_a_declared_check_fails(monkeypatch, capsys):
    import json

    from repro.faults import SCENARIOS

    real = SCENARIOS["conn-storm-rebalance"]

    def lossy(seed):
        report = real(seed)
        report.summary["lost_acked_writes"] = 1.0
        return report

    monkeypatch.setitem(SCENARIOS, "conn-storm-rebalance", lossy)
    assert main(["chaos", "conn-storm-rebalance"]) == 1
    out = capsys.readouterr().out
    assert "lost_acked_writes        1" in out
    failure = "FAIL: chaos.summary[lost_acked_writes] = 1.0, want == 0"
    assert out.rstrip().endswith(failure)
    # --json keeps stdout one parseable blob; the failure goes to stderr.
    assert main(["chaos", "conn-storm-rebalance", "--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["summary"]["lost_acked_writes"] == 1.0
    assert captured.err == failure + "\n"


def test_smoke_unknown_gate_is_an_error(capsys):
    assert main(["smoke", "shard", "nope"]) == 2
    assert "unknown gate(s) nope" in capsys.readouterr().out


def test_kernelbench_prints_steps_per_second(capsys):
    assert main(["kernelbench", "--rounds", "1", "--batches", "20"]) == 0
    out = capsys.readouterr().out
    assert "steps/sec" in out
    assert "best:" in out


def test_kernelbench_floor_gates(capsys):
    # An absurdly high floor must fail the gate (exit 1)...
    assert main(["kernelbench", "--rounds", "1", "--batches", "20",
                 "--min-steps-per-sec", "1e15"]) == 1
    assert "below the floor" in capsys.readouterr().out
    # ...and a trivially low one must pass.
    assert main(["kernelbench", "--rounds", "1", "--batches", "20",
                 "--min-steps-per-sec", "1"]) == 0


def test_shard_smoke_passes_and_reports(capsys):
    assert main(["smoke", "shard"]) == 0
    out = capsys.readouterr().out
    assert "shard smoke OK" in out
    assert "0 lost acks" in out
    assert "replay bit-identical" in out


def test_shard_json_blob_is_deterministic(tmp_path, capsys):
    import json

    out_path = tmp_path / "shard.json"
    assert main(["shard", "--shards", "3", "--ops", "1200", "--seed", "4",
                 "--out", str(out_path), "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == json.loads(out_path.read_text())
    assert blob["schema"] == "repro.shard/v1"
    assert blob["failed"] == 0
    assert blob["throughput_ops_s"] > 0
    assert any(name.startswith("shard.reads{")
               for name in blob["metrics"])

    assert main(["shard", "--shards", "3", "--ops", "1200", "--seed", "4",
                 "--json"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again == blob


BAD_SOURCE = "import time\n\n\ndef probe():\n    return time.time()\n"


def test_lint_cli_shipped_tree_is_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "scanned" in out


def test_lint_cli_findings_exit_code_and_json(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    assert main(["lint", str(bad), "--format", "json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["schema"] == "repro.analysis/v1"
    assert blob["summary"]["errors"] == 1
    assert blob["findings"][0]["rule"] == "D001"
    assert blob["findings"][0]["hint"]


def test_lint_cli_rules_filter(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    assert main(["lint", str(bad), "--rules", "D002"]) == 0
    assert main(["lint", str(bad), "--rules", "D001,D002"]) == 1


def test_lint_cli_unknown_rule_is_internal_error(capsys):
    assert main(["lint", "--rules", "D099"]) == 2
    assert "internal error" in capsys.readouterr().out


def test_sanitize_cli_lists_workloads(capsys):
    assert main(["sanitize", "list"]) == 0
    out = capsys.readouterr().out
    assert "measure" in out
    assert "demo-nondet" in out


def test_sanitize_cli_unknown_workload_is_an_error(capsys):
    assert main(["sanitize", "no-such-workload"]) == 2
    assert "unknown sanitize workload" in capsys.readouterr().out


def test_sanitize_cli_demo_nondet_diverges(capsys):
    import json

    from repro.analysis.sanitize import _DEMO_LEAK

    _DEMO_LEAK["runs"] = 0
    assert main(["sanitize", "demo-nondet", "--format", "json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["findings"][0]["rule"] == "DIVERGENCE"

    _DEMO_LEAK["runs"] = 0
    assert main(["sanitize", "demo-nondet"]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_verbs_smoke_passes_and_reports(capsys):
    assert main(["smoke", "verbs"]) == 0
    out = capsys.readouterr().out
    assert "verbs smoke OK" in out
    assert "digests equal" in out
    assert "replay bit-identical" in out


def test_verbs_json_blob_carries_both_transports(capsys):
    import json

    assert main(["verbs", "--ops", "12", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["two_hop"]["digest"] == blob["program"]["digest"]
    assert blob["program"]["programs"] == 12
    assert blob["two_hop"]["two_hop_reads"] == 12
    assert (blob["program"]["read_latency_mean_us"]
            < blob["two_hop"]["read_latency_mean_us"])


def test_tenants_smoke_passes_and_reports(capsys):
    assert main(["smoke", "tenants"]) == 0
    out = capsys.readouterr().out
    assert "tenants smoke OK" in out
    assert "0 lost acks" in out
    assert "replay bit-identical" in out


def test_tenants_json_blob_carries_per_tenant_stats(capsys, tmp_path):
    import json

    out_path = tmp_path / "tenants.json"
    assert main(["tenants", "--ops", "400", "--json",
                 "--out", str(out_path)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["schema"] == "repro.tenants/v1"
    assert sorted(blob["tenants"]) == ["prem", "scav", "std"]
    assert blob["tenants"]["scav"]["shed"] > 0
    assert blob["tenants"]["prem"]["shed"] == 0
    assert blob["premium_read_p99_s"] > 0
    # The blob on disk is the same report.
    assert json.loads(out_path.read_text()) == blob


def test_tenants_text_view_lists_tenants(capsys):
    assert main(["tenants", "--ops", "400"]) == 0
    out = capsys.readouterr().out
    assert "premium read p99" in out
    for name in ("prem", "scav", "std"):
        assert name in out

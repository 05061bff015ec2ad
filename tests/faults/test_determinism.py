"""The fault plane's determinism contract, and the scenario gates.

Same seed, same scenario => **bit-identical** fault log (compared as
the canonical JSONL serialization), metrics, summary and clock.  This
holds across repeated runs *within one process* -- the hard case, since
any module-global counter or hidden RNG shows up as a second-run
divergence here.  Every scenario gate (``repro.faults.gates``) goes
through the one runner, which replays its chosen run and evaluates its
declared checks; a gate must also catch a corrupted result.
"""

import copy
import dataclasses

import pytest

from repro.faults import SCENARIOS, ChaosReport, run_scenario
from repro.faults.gates import GATES
from repro.faults.scenarios import churn_run


def test_every_chaos_scenario_is_a_gate():
    assert set(SCENARIOS) <= set(GATES)


@pytest.mark.parametrize("name", list(GATES))
def test_same_seed_is_bit_identical(name, gate_verdict):
    """The gate's replay is bit-identical and every declared check holds."""
    assert gate_verdict(name).failures == []


#: Gates that read acked writes back: corrupt them with one lost write.
LOST_WRITE = {
    "shard": lambda r: r["shard"]["kill"].update(acked_writes_lost=1),
    "tenants": lambda r: r["chaos"].update(acked_writes_lost=1),
    "spot-evict-programs":
        lambda r: r["chaos"].summary.update(lost_acked_writes=1.0),
    "conn-storm-rebalance":
        lambda r: r["chaos"].summary.update(lost_acked_writes=1.0),
}


def _diverged(result):
    if isinstance(result, ChaosReport):
        return dataclasses.replace(result, sim_now=result.sim_now + 1e-9)
    return {**result, "diverged": True}


@pytest.mark.parametrize("name", list(GATES))
def test_gate_fails_a_corrupted_result(name, gate_verdict):
    verdict = gate_verdict(name)
    gate = verdict.gate
    assert gate.failures(verdict.results, _diverged(verdict.replay)) == [
        "same-seed replay diverged"]
    if name in LOST_WRITE:
        results = copy.deepcopy(verdict.results)
        LOST_WRITE[name](results)
        failures = gate.failures(results)
        assert len(failures) == 1
        assert "lost" in failures[0] and "] = 1" in failures[0]


def test_run_digest_identifies_a_run(gate_verdict):
    """At seed 0 these three scenarios log the same lone s1 kill, so
    their fault-log digests match; the run digest tells them apart and
    a same-seed rerun reproduces it."""
    names = ("noisy-neighbor", "shard-churn", "conn-storm-rebalance")
    verdicts = [gate_verdict(name) for name in names]
    reports = [verdict.results["chaos"] for verdict in verdicts]
    assert len({report.log.digest() for report in reports}) == 1
    assert len({report.run_digest() for report in reports}) == 3
    for verdict, report in zip(verdicts, reports):
        assert verdict.replay.run_digest() == report.run_digest()


def test_different_seed_diverges_when_randomized():
    # The Poisson-driven scenario must actually depend on the seed.
    assert (run_scenario("spot-churn", seed=0).log.digest()
            != run_scenario("spot-churn", seed=1).log.digest())


def test_churn_runs_inject_faults_and_log_them():
    report = churn_run(seed=0, rate_per_s=2.0, duration_s=4.0)
    kinds = report.log.kinds()
    assert {"vm-eviction", "vm-kill"} & set(kinds)
    assert report.summary["faults_injected"] >= 1
    assert report.summary["probes"] > 0
    # Every injected fault is in the log with a simulated timestamp.
    assert all(event.time >= 0.5 for event in report.log
               if event.kind in ("vm-eviction", "vm-kill"))


def test_noisy_neighbor_isolates_and_recovers(gate_verdict):
    # The gate's own run (seed 0), restated here so that loosening a
    # declared check does not loosen what tier-1 pins.
    summary = gate_verdict("noisy-neighbor").results["chaos"].summary
    # The abusive tenant is shed in bulk; the quiet tenant never is.
    assert summary["abusive_shed"] > 1000
    assert summary["quiet_shed"] == 0
    # The mid-run kill degrades tenants but probes stay answered:
    # fail-open turns a region loss into latency, not unavailability.
    assert summary["faults_injected"] >= 1
    assert summary["degradations"] >= 1
    assert summary["repromotions"] == summary["degradations"]
    assert summary["quiet_still_degraded"] == 0.0
    assert summary["failed_probes"] == 0
    assert summary["unavailable_s"] == 0

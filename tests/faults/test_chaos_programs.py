"""Chaos under verb programs: live migration vs the CAS-guarded chase.

The `spot-evict-programs` scenario runs a write -> pointer-swing ->
dependent-read probe stream (transport: one-RTT verb programs) while
notice-based spot evictions migrate regions underneath it.  Its
invariants (zero lost acknowledged writes, migrations actually
exercised, coherent program/fallback accounting) are the scenario's
declared gate checks in ``repro.faults.gates``; they are restated here
against the gate's own run, so loosening a declared check does not
loosen what tier-1 pins.
"""

from repro.faults import run_scenario


def test_spot_evictions_lose_no_acked_writes(gate_verdict):
    report = gate_verdict("spot-evict-programs").results["chaos"]
    summary = report.summary

    # The scenario is only meaningful if faults actually landed and the
    # workload actually chased pointers through programs.
    assert summary["migrations"] >= 1
    assert summary["migration_failures"] == 0
    assert summary["acked_writes"] > 100
    assert summary["programs"] > 100

    # The headline invariant: every acknowledged write read back intact.
    assert summary["lost_acked_writes"] == 0
    assert summary["verified_reads"] == summary["acked_writes"]

    # Accounting coherence: every chase ran as a program or a two-hop
    # read, and every program failure (abort or otherwise) fell back.
    assert summary["two_hop_reads"] == summary["program_fallbacks"]
    assert summary["program_cas_aborts"] <= summary["program_fallbacks"]

    # Fault log recorded the evictions the probes survived.
    assert "vm-eviction" in report.log.kinds()


def test_scenario_is_seed_sensitive():
    assert (run_scenario("spot-evict-programs", seed=0).log.digest()
            != run_scenario("spot-evict-programs", seed=3).log.digest())

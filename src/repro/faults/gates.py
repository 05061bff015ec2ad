"""Scenario gates: whole-system runs that declare their checks as data.

A :class:`Gate` names its labelled runs (each a pure function of the
seed), the ``(message, predicate)`` checks the ``{label: result}`` dict
must pass, and the label whose run must replay bit-identically.
:func:`run_gate` is the one runner behind ``python -m repro smoke`` and
the tier-1 suite.  Each chaos scenario is a gate over its one ``chaos``
run, so ``python -m repro chaos NAME --seed S`` checks any seed.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple,
                    Sequence, Tuple)

from repro.cplane import run_connection_storm
from repro.cplane.pool import STRATEGIES
from repro.faults.scenarios import (
    ChaosReport,
    run_scenario,
    shard_run,
    tenants_run,
    verbs_run,
)

__all__ = ["GATES", "GATE_SEED", "Gate", "Verdict", "expect", "run_gate"]

Results = Dict[str, Any]
#: ``(message, holds)``: ``holds(results)`` is true when the invariant
#: does; on failure the message is formatted with the results
#: (``str.format_map``), so it can quote the offending numbers.
Check = Tuple[str, Callable[[Results], bool]]

#: Every gate runs at this seed, at these sizes.
GATE_SEED = 0
SHARD_GATE = {"shards": 4, "ops": 3000, "replication": 2}
TENANT_GATE_OPS = 2400
VERBS_GATE_OPS = 48
CONNSTORM_GATE_CLIENTS = 1200
#: 10x abuse may not move the quiet premium tenant's read p99 past this
#: factor of the quiet baseline (plus a 2 us floor for sample jitter).
TENANT_P99_BUDGET = 1.5


@dataclass(frozen=True)
class Gate:
    """One whole-system run and the checks its results must pass."""

    name: str
    #: label -> run; each run is a pure function of the seed.
    runs: Mapping[str, Callable[[int], Any]]
    checks: Sequence[Check]
    #: The label whose run must come back bit-identical from the seed.
    replay: str
    #: Formats the gate's one OK line from its (passing) results.
    summary: Callable[[Results], str]

    def failures(self, results: Results, replay: Any = None) -> List[str]:
        """The failed checks' messages; ``replay`` (a rerun of the
        replay label, if given) must match its first run exactly."""
        failed = [message.format_map(results)
                  for message, holds in self.checks if not holds(results)]
        if (replay is not None
                and _fingerprint(replay)
                != _fingerprint(results[self.replay])):
            failed.append("same-seed replay diverged")
        return failed


class Verdict(NamedTuple):
    """What :func:`run_gate` saw: the runs, the replay, the failures."""

    gate: Gate
    results: Results
    replay: Any
    failures: List[str]


def run_gate(name: str) -> Verdict:
    """Run gate ``name`` at :data:`GATE_SEED`, replay it, check it."""
    gate = GATES[name]
    results = {label: run(GATE_SEED) for label, run in gate.runs.items()}
    replay = gate.runs[gate.replay](GATE_SEED)
    return Verdict(gate, results, replay, gate.failures(results, replay))


def _fingerprint(result: Any) -> Any:
    """What a replay must reproduce: a chaos report's
    :meth:`~ChaosReport.fingerprint`; any other result whole."""
    if isinstance(result, ChaosReport):
        return result.fingerprint()
    return result


_OPS = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}
_FIELDS = string.Formatter()


def expect(field: str, op: str, want: Any) -> Check:
    """The check ``field op want``.

    ``field`` is a ``str.format`` field over the results, e.g.
    ``shard[failed]`` or ``chaos.summary[lost_acked_writes]``; a str
    ``want`` names a second field, anything else is a literal.
    """
    def value(results: Results, name: str) -> Any:
        return _FIELDS.get_field(name, (), results)[0]

    compare = _OPS[op]
    if isinstance(want, str):
        return (f"{field} = {{{field}}}, want {op} {want} = {{{want}}}",
                lambda r: compare(value(r, field), value(r, want)))
    return (f"{field} = {{{field}}}, want {op} {want}",
            lambda r: compare(value(r, field), want))


# ----------------------------------------------------------------------
# Fleet gates
# ----------------------------------------------------------------------

def _shard_ok(r: Results) -> str:
    blob = r["shard"]
    return (f"shard smoke OK: {blob['shards']} shards, {blob['ops']} ops, "
            f"{blob['throughput_ops_s']:.0f} ops/s, kill of "
            f"{blob['kill']['victim']} survived with 0 lost acks, "
            "replay bit-identical")


_SHARD = Gate(
    "shard",
    {"shard": lambda seed: shard_run(
        seed, SHARD_GATE["shards"], SHARD_GATE["ops"],
        SHARD_GATE["replication"], hot=True, kill=True)},
    (expect("shard[failed]", "==", 0),
     expect("shard[kill][acked_writes_lost]", "==", 0),
     expect("shard[kill][rebalance][lost_slots]", "==", 0),
     ("victim still on the ring",
      lambda r: len(r["shard"]["kill"]["members_after"])
      == SHARD_GATE["shards"] - 1)),
    "shard", _shard_ok)


def _tenant_budget(r: Results) -> float:
    base = r["baseline"]["premium_read_p99_s"]
    return max(base * TENANT_P99_BUDGET, base + 2e-6)


def _tenants_ok(r: Results) -> str:
    base = r["baseline"]["premium_read_p99_s"]
    noisy = r["noisy"]["premium_read_p99_s"]
    return (f"tenants smoke OK: premium p99 "
            f"{base * 1e6:.2f} -> {noisy * 1e6:.2f} us under "
            f"10x abuse (budget {_tenant_budget(r) * 1e6:.2f} us), "
            f"{r['noisy']['tenants']['scav']['shed']} sheds, kill "
            f"survived with 0 lost acks and "
            f"{r['chaos']['tenants']['prem']['repromotions']} "
            "re-promotion(s), replay bit-identical")


_TENANTS = Gate(
    "tenants",
    {label: (lambda seed, abusive=abusive, kill=kill: tenants_run(
        seed, TENANT_GATE_OPS, abusive=abusive, kill=kill))
     for label, abusive, kill in (("baseline", False, False),
                                  ("noisy", True, False),
                                  ("chaos", True, True))},
    (("noisy-neighbor moved premium read p99 "
      "{baseline[premium_read_p99_s]:.3g}s -> "
      "{noisy[premium_read_p99_s]:.3g}s, past the "
      f"{TENANT_P99_BUDGET}x budget",
      lambda r: r["noisy"]["premium_read_p99_s"] <= _tenant_budget(r)),
     expect("noisy[tenants][scav][shed]", ">", 0),
     expect("noisy[tenants][prem][shed]", "==", 0),
     expect("chaos[tenants][prem][degradations]", ">", 0),
     expect("chaos[tenants][prem][degradations]", "<=",
            "chaos[tenants][prem][repromotions]"),
     expect("chaos[tenants][prem][fail_open_reads]", ">", 0),
     expect("chaos[acked_writes_lost]", "==", 0),
     ("victim still on the ring",
      lambda r: len(r["chaos"]["members_after"]) == 2)),
    "chaos", _tenants_ok)


def _verbs_ok(r: Results) -> str:
    program = r["program"]["read_latency_mean_us"]
    two_hop = r["two_hop"]["read_latency_mean_us"]
    return (f"verbs smoke OK: {r['program']['ops']} chases, digests equal, "
            f"program {program:.2f}us vs two-hop {two_hop:.2f}us "
            f"({two_hop / program:.2f}x), replay bit-identical")


_VERBS = Gate(
    "verbs",
    {"two_hop": lambda seed: verbs_run(seed, VERBS_GATE_OPS, False),
     "program": lambda seed: verbs_run(seed, VERBS_GATE_OPS, True)},
    (expect("two_hop[failed]", "==", 0),
     expect("program[failed]", "==", 0),
     expect("program[digest]", "==", "two_hop[digest]"),
     expect("program[read_latency_mean_us]", "<",
            "two_hop[read_latency_mean_us]"),
     expect("program[programs]", "==", "program[ok]"),
     expect("program[program_fallbacks]", "==", 0),
     expect("program[program_cas_aborts]", "==", 0),
     expect("two_hop[programs]", "==", 0),
     expect("two_hop[two_hop_reads]", "==", "two_hop[ok]")),
    "program", _verbs_ok)


def _connstorm_ok(r: Results) -> str:
    naive = r["per-client"]["ttfb_us"]["p99"]
    lazy = r["pooled-lazy"]["ttfb_us"]["p99"]
    return (f"connstorm smoke OK: {CONNSTORM_GATE_CLIENTS} clients, p99 "
            f"TTFB naive {naive:.1f}us vs pooled-lazy {lazy:.1f}us "
            f"({naive / max(lazy, 1e-9):.1f}x), 0 leaks, "
            "replay bit-identical")


_CONNSTORM = Gate(
    "connstorm",
    {s: (lambda seed, s=s: run_connection_storm(
        seed, clients=CONNSTORM_GATE_CLIENTS, strategy=s,
        reads_per_session=1)) for s in STRATEGIES},
    tuple(check for s in STRATEGIES for check in (
        expect(f"{s}[completed]", "==", CONNSTORM_GATE_CLIENTS),
        expect(f"{s}[failures]", "==", 0),
        expect(f"{s}[leaked_qps]", "==", 0),
        expect(f"{s}[leaked_client_regions]", "==", 0),
        (f"{s}: completion demux misrouted",
         lambda r, s=s: not r[s]["pool_totals"].get("demux_misroutes"))))
    + (expect("pooled-lazy[ttfb_us][p99]", "<", "per-client[ttfb_us][p99]"),
       expect("pooled-lazy[mr_registrations]", "<",
              "per-client[mr_registrations]")),
    "pooled-lazy", _connstorm_ok)


# ----------------------------------------------------------------------
# Chaos gates: one ``chaos`` run per scenario, checked on its summary
# ----------------------------------------------------------------------

def _chaos_ok(r: Results) -> str:
    report = r["chaos"]
    return (f"chaos {report.scenario} OK: "
            f"{report.summary['faults_injected']:g} faults, "
            f"{report.summary['probes']:g} probes, fault-log digest "
            f"{report.log.digest()[:16]}, run digest "
            f"{report.run_digest()[:16]}, replay bit-identical")


def _chaos(name: str, *checks: Tuple[str, str, Any],
           extra: Tuple[Check, ...] = ()) -> Gate:
    """A scenario gate; ``checks`` are ``(key, op, want)`` over the
    report's summary (a str ``want`` names another summary key)."""
    def field(key: Any) -> Any:
        return f"chaos.summary[{key}]" if isinstance(key, str) else key

    return Gate(name, {"chaos": lambda seed: run_scenario(name, seed)},
                tuple(expect(field(key), op, field(want))
                      for key, op, want in checks) + extra,
                "chaos", _chaos_ok)


_INJECTED = ("faults_injected", ">=", 1)
_PROBED = ("probes", ">", 0)
#: Gate name -> gate, in the order ``python -m repro smoke`` runs them.
GATES: Dict[str, Gate] = {gate.name: gate for gate in (
    _SHARD, _TENANTS, _VERBS, _CONNSTORM,
    _chaos("spot-churn", _INJECTED, _PROBED),
    _chaos(
        "spot-evict-programs",
        ("migrations", ">=", 1), ("migration_failures", "==", 0),
        ("acked_writes", ">", 100), ("programs", ">", 100),
        ("lost_acked_writes", "==", 0),
        ("verified_reads", "==", "acked_writes"),
        ("two_hop_reads", "==", "program_fallbacks"),
        ("program_cas_aborts", "<=", "program_fallbacks"),
        extra=(("no vm-eviction in the fault log",
                lambda r: "vm-eviction" in r["chaos"].log.kinds()),)),
    _chaos("evict-primary", _INJECTED, _PROBED),
    _chaos("link-flap", _INJECTED, _PROBED),
    _chaos(
        "noisy-neighbor",
        ("abusive_shed", ">", 1000), ("quiet_shed", "==", 0), _INJECTED,
        ("degradations", ">=", 1), ("repromotions", "==", "degradations"),
        ("quiet_still_degraded", "==", 0), ("failed_probes", "==", 0),
        ("unavailable_s", "==", 0)),
    _chaos("shard-churn", _INJECTED, _PROBED),
    _chaos("slow-node", _INJECTED, _PROBED),
    _chaos(
        "conn-storm-rebalance",
        ("lost_acked_writes", "==", 0), ("acked_writes", ">", 0),
        ("verified_reads", "==", "acked_writes"), _INJECTED,
        ("members_after", "==", 3), ("rebalances", ">=", 1),
        ("lost_slots", "==", 0),
        ("storm_completed", "==", "storm_sessions"),
        ("storm_read_failures", ">", 0), ("demux_misroutes", "==", 0),
        ("qps_reclaimed", ">", 0)),
)}

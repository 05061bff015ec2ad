"""Command-line entry point: ``python -m repro``.

Convenience launcher for a repository checkout (``python -m repro
--help`` lists every option):

* ``list`` / ``run fig03`` / ``run all`` -- enumerate or regenerate the
  reproduction experiments under ``benchmarks/``;
* ``metrics [fig07]`` -- dump a live instrumented run's ``repro.obs``
  registry, or a saved ``BENCH_*.json`` blob (``--json`` for the raw
  blob);
* ``sweep`` / ``kernelbench`` -- measure a configuration grid through
  the parallel sweep executor (``repro.exec``); micro-benchmark the
  simulation kernel's steps per second;
* ``chaos NAME`` -- run one fault-injection scenario (``repro.faults``)
  and dump its fault log and availability summary; exit 1 if a
  declared check fails;
* ``smoke [GATE ...]`` -- run the scenario gates (``repro.faults.gates``):
  declared checks plus a same-seed replay; exit 1 on any failure;
* ``shard`` / ``tenants`` / ``verbs`` / ``connstorm`` -- the shard fleet,
  the multi-tenant tier, two-hop vs verb-program GETs and the
  connection-storm ablation;
* ``lint`` / ``sanitize`` -- the determinism AST linter and the
  replay-divergence sanitizer (``repro.analysis``; exit 0 clean,
  1 findings, 2 internal error);
* ``examples`` -- list the example applications.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
_BENCHMARKS = _REPO_ROOT / "benchmarks"
_EXAMPLES = _REPO_ROOT / "examples"


def _experiment_ids() -> dict[str, pathlib.Path]:
    if not _BENCHMARKS.is_dir():
        return {}
    experiments = {}
    for path in sorted(_BENCHMARKS.glob("test_*.py")):
        identifier = path.stem.removeprefix("test_").split("_")[0]
        experiments.setdefault(identifier, path)
        experiments[path.stem.removeprefix("test_")] = path
    return experiments


def _first_doc_line(path: pathlib.Path) -> str:
    for line in path.read_text().splitlines():
        stripped = line.strip().strip('"')
        if stripped and not stripped.startswith("#"):
            return stripped
    return ""


def cmd_list() -> int:
    experiments = _experiment_ids()
    if not experiments:
        print("no benchmarks/ directory found -- run from a repository "
              "checkout")
        return 1
    seen = set()
    print(f"{'id':>26}  experiment")
    for identifier, path in sorted(experiments.items(),
                                   key=lambda kv: kv[1].stem):
        if path in seen or "_" in identifier:
            continue
        seen.add(path)
        print(f"{path.stem.removeprefix('test_'):>26}  "
              f"{_first_doc_line(path)}")
    return 0


def cmd_run(identifier: str) -> int:
    if identifier == "all":
        targets = [str(_BENCHMARKS)]
    else:
        experiments = _experiment_ids()
        path = experiments.get(identifier)
        if path is None:
            print(f"unknown experiment {identifier!r}; "
                  f"try `python -m repro list`")
            return 1
        targets = [str(path)]
    return subprocess.call(
        [sys.executable, "-m", "pytest", *targets,
         "--benchmark-only", "-q", "-s"])


def cmd_metrics(identifier: str | None, as_json: bool,
                queue_depth: int, threads: int, batches: int) -> int:
    """Dump a run's ``repro.obs`` metrics registry.

    With an experiment id, pretty-print the ``BENCH_<id>.json`` blob a
    previous benchmark run persisted.  Without one, stand up the
    measurement testbed (§5.1), run it instrumented, and dump the live
    registry -- the quickest way to see what the data path measures.
    """
    from repro.obs.export import format_table, snapshot

    if identifier is not None:
        # Short ids (fig07) resolve through the experiment table to the
        # full blob name the bench_metrics fixture writes.
        path = _experiment_ids().get(identifier)
        if path is not None:
            identifier = path.stem.removeprefix("test_")
        blob_path = _BENCHMARKS / "_results" / f"BENCH_{identifier}.json"
        if not blob_path.is_file():
            print(f"no metrics blob at {blob_path}; run the benchmark "
                  f"first: python -m repro run {identifier}")
            return 1
        blob = json.loads(blob_path.read_text())
        print(json.dumps(blob, indent=2, sort_keys=True) if as_json
              else format_table(blob))
        return 0

    from repro.core.config import RdmaConfig
    from repro.core.measurement import measure_config
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.kernel import Environment

    registry = MetricsRegistry()
    env = Environment()
    config = RdmaConfig(threads, 0, 1, queue_depth)
    result = measure_config(config, 8, seed=7, metrics=registry,
                            batches_per_connection=batches, env=env)
    # The live demo shows the kernel's own work too (`event_loop`).
    blob = snapshot(registry, name="metrics-demo", env=env,
                    extra={"config": repr(config),
                           "throughput_ops": result.throughput,
                           "latency_p50": result.latency_p50,
                           "latency_p99": result.latency_p99})
    print(json.dumps(blob, indent=2, sort_keys=True) if as_json
          else format_table(blob))
    return 0


def cmd_sweep(record_size: int, max_client_threads: int,
              max_queue_depth: int, workers: int | None, batches: int,
              warmup: int, seed: int, cache_dir: str | None,
              as_json: bool) -> int:
    """Measure a configuration grid through the sweep executor.

    Walks the powers-of-two grid of the requested configuration space,
    fans the measurements across the worker pool, and prints one row per
    grid point plus the executor's own counters.  Re-running the same
    sweep is near-instant: results come back from the content-addressed
    cache (``--cache-dir ''`` disables it).
    """
    from repro.core.space import ConfigSpace
    from repro.exec import ResultCache, SweepRunner, tasks_for
    from repro.obs.metrics import MetricsRegistry

    space = ConfigSpace(max_client_threads=max_client_threads,
                        record_size=record_size,
                        max_queue_depth=max_queue_depth,
                        min_queue_depth=min(4, max_queue_depth))
    configs = list(space.iter_grid())
    cache = None
    if cache_dir != "":
        root = (pathlib.Path(cache_dir) if cache_dir
                else _BENCHMARKS / "_results" / ".cache")
        cache = ResultCache(root)
    registry = MetricsRegistry()
    runner = SweepRunner(max_workers=workers, cache=cache, metrics=registry)
    tasks = tasks_for(configs, record_size=record_size, base_seed=seed,
                      seed_stride=0, batches_per_connection=batches,
                      warmup_batches=warmup)
    results = runner.run(tasks)

    rows = [{
        "config": {"s": c.server_threads, "c": c.client_threads,
                   "b": c.batch_size, "q": c.queue_depth},
        "latency_mean": r.latency_mean,
        "latency_p99": r.latency_p99,
        "throughput": r.throughput,
    } for c, r in zip(configs, results)]
    summary = {
        "mode": runner.last_mode,
        "tasks": len(tasks),
        "cache_hits": registry.counter("exec.cache_hits").value,
        "wall_seconds": runner.last_wall_seconds,
    }
    if as_json:
        print(json.dumps({"schema": "repro.exec/v1", "grid": rows,
                          "exec": summary}, indent=2, sort_keys=True))
        return 0
    print(f"{'s':>4} {'c':>4} {'b':>5} {'q':>4} {'mean-lat':>11} "
          f"{'p99-lat':>11} {'tput':>10}")
    for row in rows:
        cfg = row["config"]
        print(f"{cfg['s']:>4} {cfg['c']:>4} {cfg['b']:>5} {cfg['q']:>4} "
              f"{row['latency_mean'] * 1e6:>9.1f}us "
              f"{row['latency_p99'] * 1e6:>9.1f}us "
              f"{row['throughput'] / 1e6:>8.2f}M")
    print(f"{summary['tasks']} tasks, "
          f"{summary['cache_hits']:.0f} cache hits, "
          f"{summary['mode']} mode, "
          f"{summary['wall_seconds']:.2f}s wall")
    return 0


def cmd_kernelbench(rounds: int, batches: int,
                    min_steps_per_sec: float | None) -> int:
    """Micro-benchmark ``Environment.step()`` on the measurement workload.

    Runs the same instrumented ``measure_config`` call the sweep hot
    path is made of and prints kernel steps per wall-clock second -- the
    number CI logs so step-loop regressions are visible -- and events
    per step, the share of entries that dispatched an Event rather
    than a plain call.
    ``--min-steps-per-sec`` turns the run into a CI gate: exit 1 if the
    best rate falls below the floor.
    """
    from time import perf_counter

    from repro.core.config import RdmaConfig
    from repro.core.measurement import measure_config
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.kernel import Environment

    config = RdmaConfig(4, 4, 16, 8)
    best = 0.0
    for index in range(rounds):
        env = Environment()
        started = perf_counter()  # repro-lint: disable=D001 -- wall-clock benchmark harness, result never reaches sim state
        measure_config(config, 16, read_fraction=0.5,
                       batches_per_connection=batches,
                       warmup_batches=max(1, batches // 4),
                       seed=11, metrics=MetricsRegistry(), env=env)
        elapsed = perf_counter() - started  # repro-lint: disable=D001 -- wall-clock benchmark harness
        loop = env.event_loop_stats()
        steps = loop["steps"]
        rate = steps / elapsed
        best = max(best, rate)
        print(f"round {index}: {steps:,} steps in "
              f"{elapsed:.3f}s = {rate:,.0f} steps/sec, "
              f"{loop['events'] / steps:.3f} events/step")
    print(f"best: {best:,.0f} steps/sec")
    if min_steps_per_sec is not None and best < min_steps_per_sec:
        print(f"FAIL: best rate {best:,.0f} steps/sec "
              f"is below the floor of {min_steps_per_sec:,.0f}")
        return 1
    return 0


def _emit(blob, as_json: bool, out: str | None) -> bool:
    """Write ``blob`` to ``out``; print it and return true under --json."""
    text = json.dumps(blob, indent=2, sort_keys=True)
    if out:
        pathlib.Path(out).write_text(text + "\n")
    if as_json:
        print(text)
    return as_json


def _print_verdict(failures: list[str], ok_line: str | None,
                   stream=None) -> int:
    """Print ``FAIL: <message>`` per failed check, else the OK line."""
    for message in failures:
        print(f"FAIL: {message}", file=stream)
    if not failures and ok_line:
        print(ok_line, file=stream)
    return 1 if failures else 0


def cmd_chaos(scenario: str | None, seed: int, as_json: bool,
              out: str | None) -> int:
    """Run one named fault-injection scenario (``repro.faults``).

    Prints the fault log and the availability summary; ``--json`` emits
    the whole report (events, summary, metrics snapshot, digest) as one
    machine-readable blob, and ``--out`` writes that blob to a file.
    Same seed, same scenario => bit-identical fault log (check the
    digest).  Exits 1 if the report fails one of the scenario's
    declared checks (``repro.faults.gates``).  Without a scenario name,
    lists what is available.
    """
    from repro.faults import SCENARIOS, run_scenario
    from repro.faults.gates import GATES

    if scenario is None or scenario == "list":
        print(f"{'scenario':>14}  description")
        for name in sorted(SCENARIOS):
            doc = (SCENARIOS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:>14}  {doc}")
        return 0
    if scenario not in SCENARIOS:
        print(f"unknown chaos scenario {scenario!r}; "
              f"try `python -m repro chaos list`")
        return 1
    report = run_scenario(scenario, seed=seed)
    failures = GATES[scenario].failures({"chaos": report})
    blob = {
        "schema": "repro.faults/v1",
        "scenario": report.scenario,
        "seed": report.seed,
        "sim_seconds": report.sim_now,
        "digest": report.log.digest(),
        "events": [event.to_dict() for event in report.log],
        "summary": report.summary,
        "metrics": report.metrics,
    }
    if _emit(blob, as_json, out):
        # Keep stdout one parseable blob; failures go to stderr.
        return _print_verdict(failures, None, sys.stderr)
    print(f"== chaos {report.scenario} (seed {report.seed}) ==")
    print("fault log:")
    for event in report.log:
        detail = " ".join(f"{k}={v}" for k, v in sorted(event.detail.items()))
        print(f"  {event.time:>10.4f}s  {event.kind:<22} {event.target:<16} "
              f"{detail}")
    print("summary:")
    for key in sorted(report.summary):
        print(f"  {key:<24} {report.summary[key]:g}")
    print(f"fault-log digest: {report.log.digest()}")
    if out:
        print(f"report written to {out}")
    return _print_verdict(failures, None)


def cmd_smoke(names: list[str]) -> int:
    """Run the named scenario gates (default: all) through the one
    runner; print ``FAIL: <message>`` lines or each gate's OK line."""
    from repro.faults.gates import GATES, run_gate

    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(f"unknown gate(s) {', '.join(unknown)}; "
              f"available: {', '.join(GATES)}")
        return 2
    status = 0
    for name in names or GATES:
        verdict = run_gate(name)
        status |= _print_verdict(
            [f"{name}: {message}" for message in verdict.failures],
            None if verdict.failures
            else verdict.gate.summary(verdict.results))
    return status


def cmd_shard(seed: int, shards: int, ops: int, replication: int,
              no_hotkeys: bool, as_json: bool, out: str | None) -> int:
    """Zipfian YCSB across the shard fleet: throughput, latency, per-shard
    load.  The kill-survival gate is ``python -m repro smoke shard``."""
    from repro.faults.scenarios import shard_run

    hot = not no_hotkeys
    blob = shard_run(seed, shards, ops, replication, hot, kill=False)
    if _emit(blob, as_json, out):
        return 0
    print(f"== shard fleet (seed {seed}) ==")
    print(f"shards={shards} replication={replication} "
          f"hotkeys={'on' if hot else 'off'} ops={blob['ops']}")
    print(f"throughput: {blob['throughput_ops_s']:,.0f} ops/s   "
          f"mean {blob['latency_mean_s'] * 1e6:.1f} us   "
          f"p99 {blob['latency_p99_s'] * 1e6:.1f} us   "
          f"failed {blob['failed']}")
    shard_reads = {name: int(m["value"])
                   for name, m in blob["metrics"].items()
                   if name.startswith("shard.reads{")}
    if shard_reads:
        print("per-shard reads:")
        for name in sorted(shard_reads):
            label = name.split('"')[1]
            print(f"  {label:<6} {shard_reads[name]:>8}")
    if blob["hot_slots"]:
        print(f"hot slots: {', '.join(sorted(blob['hot_slots']))}")
    if out:
        print(f"report written to {out}")
    return 0


def cmd_tenants(seed: int, ops: int, as_json: bool, out: str | None) -> int:
    """Per-tenant admission and latency under an abusive scavenger.  The
    isolation and fail-open gate is ``python -m repro smoke tenants``."""
    from repro.faults.scenarios import tenants_run

    blob = tenants_run(seed, ops, abusive=True, kill=False)
    if _emit(blob, as_json, out):
        return 0
    print(f"== tenant tier (seed {seed}) ==")
    print(f"premium read p99 {blob['premium_read_p99_s'] * 1e6:.2f} us   "
          f"standard read p99 {blob['standard_read_p99_s'] * 1e6:.2f} us")
    print(f"{'tenant':>8} {'admitted':>9} {'delayed':>8} {'shed':>8} "
          f"{'fail-open':>9} {'degraded':>8}")
    for name, stats in sorted(blob["tenants"].items()):
        print(f"{name:>8} {stats['admitted']:>9} {stats['delayed']:>8} "
              f"{stats['shed']:>8} {stats['fail_open_reads']:>9} "
              f"{stats['degradations']:>8}")
    if out:
        print(f"report written to {out}")
    return 0


def cmd_verbs(seed: int, ops: int, as_json: bool) -> int:
    """A/B dependent GETs (write, swing pointer, dependent read) over the
    two-hop transport vs one-RTT verb programs.  The equivalence and
    latency-win gate is ``python -m repro smoke verbs``."""
    from repro.faults.scenarios import verbs_run

    two_hop = verbs_run(seed, ops, programs=False)
    program = verbs_run(seed, ops, programs=True)
    if _emit({"two_hop": two_hop, "program": program}, as_json, None):
        return 0
    print(f"== dependent GETs, two-hop vs verb programs (seed {seed}) ==")
    for blob in (two_hop, program):
        print(f"{blob['transport']:>8}: {blob['ok']}/{blob['ops']} ok, "
              f"mean read {blob['read_latency_mean_us']:.2f} us, "
              f"programs={blob['programs']} "
              f"two_hop_reads={blob['two_hop_reads']} "
              f"fallbacks={blob['program_fallbacks']}")
    ratio = (two_hop["read_latency_mean_us"]
             / max(program["read_latency_mean_us"], 1e-12))
    print(f"latency ratio (two-hop / program): {ratio:.2f}x")
    print(f"digests {'match' if two_hop['digest'] == program['digest'] else 'DIVERGE'}")
    return 0


def cmd_connstorm(seed: int, clients: int, reads: int, as_json: bool,
                  out: str | None) -> int:
    """Connection-storm ablation: naive QPs vs pooled vs pooled+lazy.

    Slams one cache tier with ``clients`` sessions arriving inside a
    50 ms window under each pool strategy and reports the TTFB
    percentiles -- the control-plane bill each strategy leaves on the
    open path.  The completion, leak, p99-win and determinism gate is
    ``python -m repro smoke connstorm``.
    """
    from repro.cplane import run_connection_storm
    from repro.cplane.pool import STRATEGIES

    runs = {strategy: run_connection_storm(seed, clients=clients,
                                           strategy=strategy,
                                           reads_per_session=reads)
            for strategy in STRATEGIES}
    if _emit(runs, as_json, out):
        return 0
    print(f"== connection storm, {clients} clients in 50 ms "
          f"(seed {seed}) ==")
    print(f"{'strategy':>12} {'p50 us':>9} {'p99 us':>9} {'max us':>9} "
          f"{'QPs':>6} {'estab':>6} {'MRs':>6} {'ctx miss':>8}")
    for strategy in STRATEGIES:
        blob = runs[strategy]
        print(f"{strategy:>12} {blob['ttfb_us']['p50']:>9.1f} "
              f"{blob['ttfb_us']['p99']:>9.1f} "
              f"{blob['ttfb_us']['max']:>9.1f} "
              f"{blob['pool_totals'].get('qps_created', 0):>6} "
              f"{blob['qp_establishments']:>6} "
              f"{blob['mr_registrations']:>6} "
              f"{blob['qp_context_misses']:>8}")
    if out:
        print(f"report written to {out}")
    return 0


def cmd_lint(paths: list[str], fmt: str, rules: str | None) -> int:
    """Run the determinism AST linter (``repro.analysis``) over paths.

    Defaults to the ``src/repro`` tree.  Exit codes follow the analysis
    contract: 0 clean, 1 findings, 2 internal error (the latter raised
    out of here and mapped in :func:`main`).
    """
    from repro.analysis import format_findings, lint_paths

    targets = paths or [str(_REPO_ROOT / "src" / "repro")]
    rule_ids = ([part.strip() for part in rules.split(",") if part.strip()]
                if rules else None)
    findings, files = lint_paths(targets, rules=rule_ids)
    print(format_findings(findings, fmt=fmt, tool="repro-lint"))
    if fmt == "text":
        print(f"scanned {len(files)} file(s)")
    return 1 if findings else 0


def cmd_sanitize(workload: str, seed: int, fmt: str, smoke: bool) -> int:
    """Replay-determinism gate: run a workload twice, diff the traces.

    ``--smoke`` runs the quick CI set: measurement path + chaos scenario
    replay determinism.  Otherwise one named workload; ``list``
    enumerates them.
    """
    from repro.analysis import format_findings, sanitize
    from repro.analysis.sanitize import WORKLOADS

    if workload == "list":
        print(f"{'workload':>18}  description")
        for name in sorted(WORKLOADS):
            doc = (WORKLOADS[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:>18}  {doc}")
        return 0
    if smoke:
        names = ["measure", "measure-programs", "measure-tenants",
                 "measure-cplane", "chaos-spot-churn"]
    elif workload not in WORKLOADS:
        print(f"unknown sanitize workload {workload!r}; "
              f"try `python -m repro sanitize list`")
        return 2
    else:
        names = [workload]

    findings = []
    for name in names:
        report = sanitize(WORKLOADS[name], seed=seed, label=name)
        findings.extend(report.to_findings())
        if fmt == "text":
            print(report.describe())
    if fmt == "json":
        print(format_findings(findings, fmt="json", tool="repro-sanitize"))
    return 1 if findings else 0


def cmd_examples() -> int:
    if not _EXAMPLES.is_dir():
        print("no examples/ directory found")
        return 1
    for path in sorted(_EXAMPLES.glob("*.py")):
        print(f"python examples/{path.name:<28} {_first_doc_line(path)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Redy (VLDB 2021) reproduction launcher")
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full report as one JSON blob")
    report.add_argument("--out", default=None,
                        help="also write the JSON report to this file")
    sub.add_parser("list", help="list reproduction experiments")
    run = sub.add_parser("run", help="regenerate one experiment (or all)")
    run.add_argument("experiment", help="experiment id, e.g. fig03, or all")
    metrics = sub.add_parser(
        "metrics",
        help="dump a run's repro.obs metrics registry")
    metrics.add_argument(
        "experiment", nargs="?", default=None,
        help="saved bench blob to show (e.g. fig07); omit to run a live "
             "instrumented measurement")
    metrics.add_argument("--json", action="store_true", dest="as_json",
                         help="raw JSON instead of the table view")
    metrics.add_argument("--queue-depth", type=int, default=4)
    metrics.add_argument("--threads", type=int, default=1)
    metrics.add_argument("--batches", type=int, default=120,
                         help="measured batches per connection")
    sweep = sub.add_parser(
        "sweep",
        help="measure a configuration grid via the parallel sweep executor")
    sweep.add_argument("--record-size", type=int, default=64)
    sweep.add_argument("--max-client-threads", type=int, default=4)
    sweep.add_argument("--max-queue-depth", type=int, default=8)
    sweep.add_argument("--workers", type=int, default=None,
                       help="pool size (default: cpu count; 1 = serial)")
    sweep.add_argument("--batches", type=int, default=30,
                       help="measured batches per connection")
    sweep.add_argument("--warmup", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: "
                            "benchmarks/_results/.cache; '' disables)")
    sweep.add_argument("--json", action="store_true", dest="as_json")
    kernelbench = sub.add_parser(
        "kernelbench",
        help="micro-benchmark kernel steps/sec on the measurement workload")
    kernelbench.add_argument("--rounds", type=int, default=3)
    kernelbench.add_argument("--batches", type=int, default=120,
                             help="measured batches per connection")
    kernelbench.add_argument("--min-steps-per-sec", type=float,
                             default=None,
                             help="CI regression floor: exit 1 if the "
                                  "best rate falls below this")
    chaos = sub.add_parser(
        "chaos", parents=[report],
        help="run a named fault-injection scenario (repro.faults)")
    chaos.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario name (omit or use 'list' to enumerate)")
    shard = sub.add_parser(
        "shard", parents=[report],
        help="drive YCSB traffic across the sharded scale-out tier")
    shard.add_argument("--shards", type=int, default=4)
    shard.add_argument("--ops", type=int, default=6000)
    shard.add_argument("--replication", type=int, default=2)
    shard.add_argument("--no-hotkeys", action="store_true",
                       help="disable hot-key replication")
    tenants = sub.add_parser(
        "tenants", parents=[report],
        help="drive mixed-SLO tenants through the serving tier")
    tenants.add_argument("--ops", type=int, default=2400,
                         help="tracked ops per tenant (prem + std)")
    verbs = sub.add_parser(
        "verbs",
        help="A/B dependent GETs: two-hop vs one-RTT verb programs")
    verbs.add_argument("--seed", type=int, default=0)
    verbs.add_argument("--ops", type=int, default=200,
                       help="pointer chases per transport")
    verbs.add_argument("--json", action="store_true", dest="as_json",
                       help="emit both runs as one JSON blob")
    connstorm = sub.add_parser(
        "connstorm", parents=[report],
        help="connection-storm ablation: naive vs pooled vs pooled+lazy")
    connstorm.add_argument("--clients", type=int, default=20000,
                           help="sessions arriving inside the 50 ms window")
    connstorm.add_argument("--reads", type=int, default=1,
                           help="reads per session (spreads NIC context "
                                "touches)")
    smoke = sub.add_parser(
        "smoke",
        help="run the scenario gates: declared checks + same-seed replay")
    smoke.add_argument("gates", nargs="*", default=[],
                       help="gate names (default: all)")
    lint = sub.add_parser(
        "lint",
        help="run the determinism AST linter (repro.analysis)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      dest="fmt")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to enable "
                           "(default: all, e.g. D001,D003)")
    sanitize = sub.add_parser(
        "sanitize",
        help="replay a workload twice and bisect the first divergence")
    sanitize.add_argument(
        "workload", nargs="?", default="measure",
        help="workload name ('list' to enumerate; default: measure)")
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument("--format", choices=["text", "json"],
                          default="text", dest="fmt")
    sanitize.add_argument("--smoke", action="store_true",
                          help="CI gate: measurement + chaos replay "
                               "determinism")
    sub.add_parser("examples", help="list example applications")
    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "run":
            return cmd_run(args.experiment)
        if args.command == "metrics":
            return cmd_metrics(args.experiment, args.as_json,
                               args.queue_depth, args.threads, args.batches)
        if args.command == "sweep":
            return cmd_sweep(args.record_size, args.max_client_threads,
                             args.max_queue_depth, args.workers,
                             args.batches, args.warmup, args.seed,
                             args.cache_dir, args.as_json)
        if args.command == "kernelbench":
            return cmd_kernelbench(args.rounds, args.batches,
                                   args.min_steps_per_sec)
        if args.command == "chaos":
            return cmd_chaos(args.scenario, args.seed, args.as_json,
                             args.out)
        if args.command == "smoke":
            return cmd_smoke(args.gates)
        if args.command == "shard":
            return cmd_shard(args.seed, args.shards, args.ops,
                             args.replication, args.no_hotkeys,
                             args.as_json, args.out)
        if args.command == "tenants":
            return cmd_tenants(args.seed, args.ops, args.as_json, args.out)
        if args.command == "verbs":
            return cmd_verbs(args.seed, args.ops, args.as_json)
        if args.command == "connstorm":
            return cmd_connstorm(args.seed, args.clients, args.reads,
                                 args.as_json, args.out)
        if args.command == "lint":
            return cmd_lint(args.paths, args.fmt, args.rules)
        if args.command == "sanitize":
            return cmd_sanitize(args.workload, args.seed, args.fmt,
                                args.smoke)
        return cmd_examples()
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except Exception as exc:  # noqa: BLE001 - analysis exit-code contract
        if args.command in ("lint", "sanitize"):
            print(f"internal error: {type(exc).__name__}: {exc}")
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())

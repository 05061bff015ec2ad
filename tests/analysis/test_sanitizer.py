"""Replay-divergence sanitizer tests: bisection and RNG attribution."""

import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import WORKLOADS, _DEMO_LEAK, _record
from repro.sim import kernel
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry


def _deterministic_workload(seed):
    env = Environment()
    rng = RngRegistry(seed).stream("load")

    def worker():
        for _ in range(4):
            yield env.timeout(rng.random() * 1e-3)

    env.process(worker(), name="w")
    env.run()


def make_schedule_leaky():
    """Workload with leaked cross-run state but identical RNG draws."""
    calls = {"n": 0}

    def workload(seed):
        calls["n"] += 1
        second_run = calls["n"] > 1
        env = Environment()

        def worker():
            yield env.timeout(1.0)
            yield env.timeout(3.0 if second_run else 2.0)

        env.process(worker(), name="w")
        env.run()

    return workload


def make_rng_leaky():
    """Workload where leaked state causes an extra RNG draw in run two."""
    calls = {"n": 0}

    def workload(seed):
        calls["n"] += 1
        second_run = calls["n"] > 1
        env = Environment()
        rng = RngRegistry(seed).stream("jitter")

        def worker():
            yield env.timeout(rng.random())
            if second_run:
                rng.random()
            yield env.timeout(rng.random())

        env.process(worker(), name="w")
        env.run()

    return workload


def test_deterministic_workload_is_clean():
    report = sanitize(_deterministic_workload, seed=3, label="det")
    assert report.deterministic
    assert report.digest_a == report.digest_b
    assert report.events_a == report.events_b > 0
    assert report.to_findings() == []
    assert "deterministic" in report.attribution


def test_schedule_divergence_is_bisected_to_the_exact_event():
    report = sanitize(make_schedule_leaky(), seed=0, label="leaky")
    assert not report.deterministic
    # Trace: spawn, bootstrap step, timeout trigger@0, resume@1.0, and
    # the second timeout's trigger@1.0 agree (trigger entries record
    # type+now, not the delay); the second resume (index 5) is the
    # first divergent event.
    assert report.divergence_index == 5
    assert report.entry_a[0] == report.entry_b[0] == "resume"
    assert report.entry_a[-1] == 3.0
    assert report.entry_b[-1] == 4.0
    assert report.rng_divergence == {}
    assert "schedule divergence" in report.attribution


def test_rng_divergence_is_attributed_to_the_stream():
    report = sanitize(make_rng_leaky(), seed=11, label="rng-leak")
    assert not report.deterministic
    assert report.rng_divergence == {"jitter": (2, 3)}
    assert "jitter" in report.attribution
    findings = report.to_findings()
    assert len(findings) == 1
    assert findings[0].rule == "DIVERGENCE"
    assert findings[0].severity == "error"
    assert findings[0].detail["rng_divergence"] == {"jitter": [2, 3]}


def test_shipped_demo_workload_diverges():
    _DEMO_LEAK["runs"] = 0
    report = sanitize(WORKLOADS["demo-nondet"], seed=0, label="demo")
    assert not report.deterministic
    assert report.rng_divergence  # the leak draws extra values in run two


def test_shipped_measure_workload_is_deterministic():
    report = sanitize(WORKLOADS["measure"], seed=0, label="measure")
    assert report.deterministic
    assert report.events_a > 500  # the whole measurement path is traced


def test_default_monitor_is_restored_after_sanitize():
    sanitize(_deterministic_workload, seed=1)
    # set_default_monitor returns the previous monitor: must be None.
    assert kernel.set_default_monitor(None) is None


def _raising_workload(seed):
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        raise RuntimeError("workload blew up")

    env.process(worker(), name="w")
    env.run()


def test_monitor_restored_when_workload_raises():
    # Exception safety: a raising workload must not leak the recorder
    # (or an RNG wrapper) into process state.
    with pytest.raises(RuntimeError, match="workload blew up"):
        _record(_raising_workload, seed=0)
    assert kernel.set_default_monitor(None) is None
    assert RngRegistry.stream.__qualname__ == "RngRegistry.stream"


def test_report_describe_mentions_both_runs():
    report = sanitize(make_schedule_leaky(), seed=0, label="leaky")
    text = report.describe()
    assert "DIVERGED" in text
    assert "run A" in text and "run B" in text
    assert "attribution" in text

"""Shared fixtures for the fault-plane tests."""

import functools

import pytest

from repro.faults.gates import run_gate


@functools.lru_cache(maxsize=None)
def _verdict(name):
    return run_gate(name)


@pytest.fixture(scope="session")
def gate_verdict():
    """``gate_verdict(name)``: gate ``name`` run through the runner once
    per session, so the gate tests and the per-scenario invariant tests
    share one run (and one replay) of each gate."""
    return _verdict

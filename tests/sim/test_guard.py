"""Unit tests for :mod:`repro.sim.guard`.

Plans, result/decode integrity contracts, the always-on checks of
guarded simulation (re-decode of a corrupt decode, rejection and retry of
a NaN result or an engine error), guardrail accounting and the campaign
watchdog.  Campaign-level chaos scenarios live in
``test_chaos_columnar.py``.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace

import pytest

import repro.sim.cpu as cpu
import repro.sim.guard as guard
from repro.sim.cpu import simulate_reference
from repro.sim.faults import FaultPlan
from repro.sim.guard import (
    _VALIDATED_KEY,
    GuardEvent,
    GuardPlan,
    GuardRail,
    ReplayRejected,
    check_memory_budget,
    guarded_simulate,
    parent_rss_mb,
)
from repro.sim.machine import hardware_a15
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import columnar_checksum, compile_trace, validate_columnar

N_INSTRS = 6_000


@pytest.fixture(scope="module")
def trace():
    return compile_trace(workload_by_name("mi-sha"), N_INSTRS)


@pytest.fixture(scope="module")
def machine():
    return hardware_a15()


@pytest.fixture(scope="module")
def golden(trace, machine):
    """The reference-loop result everything must stay bit-identical to."""
    return simulate_reference(trace, machine)


def _assert_same(a, b):
    assert a.counts == b.counts
    assert a.core_cycles == b.core_cycles
    assert a.dram_stall_weight == b.dram_stall_weight
    assert a.components == b.components


def _fresh_decode(trace):
    """A freshly built decode, bypassing any memoised attach."""
    tables = trace.replay_tables()
    tables._columnar = None
    return tables, tables.columnar(trace)


class TestGuardPlan:
    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError, match="poison_threshold"):
            GuardPlan(poison_threshold=0)

    def test_supervises_only_with_a_budget(self):
        assert not GuardPlan().supervises()
        assert GuardPlan(heartbeat_seconds=1.0).supervises()
        assert GuardPlan(batch_deadline_seconds=1.0).supervises()
        assert GuardPlan(memory_budget_mb=1.0).supervises()


class TestGuardEvent:
    def test_summary_wording(self):
        event = GuardEvent(
            kind="nan-result",
            workload="mi-sha",
            machine="A15",
            action="quarantine-retry",
            detail="core_cycles is NaN",
        )
        assert event.summary() == (
            "[nan-result] mi-sha on A15 -> quarantine-retry "
            "(core_cycles is NaN)"
        )
        bare = GuardEvent("deadline", "*", "*", "observe")
        assert bare.summary() == "[deadline] * on * -> observe"


class TestReplayRejected:
    def test_carries_events_through_pickle(self):
        events = (
            GuardEvent("decode-corrupt", "w", "m", "requarantine-decode"),
            GuardEvent("nan-result", "w", "m", "quarantine-retry", "NaN"),
        )
        exc = pickle.loads(pickle.dumps(ReplayRejected(events)))
        assert isinstance(exc, ReplayRejected)
        assert exc.events == events
        assert str(exc) == events[-1].summary()


class TestResultIntegrity:
    def test_clean_result_has_no_problems(self, golden):
        assert golden.integrity_problems() == []

    def test_nan_and_inf_flagged(self, golden):
        assert replace(golden, core_cycles=float("nan")).integrity_problems()
        assert replace(
            golden, dram_stall_weight=float("inf")
        ).integrity_problems()

    def test_negative_count_flagged(self, golden):
        counts = dict(golden.counts)
        counts[sorted(counts)[0]] = -1
        problems = replace(golden, counts=counts).integrity_problems()
        assert any("negative" in p for p in problems)


class TestDecodeContract:
    def test_fresh_decode_validates(self, trace):
        _, cols = _fresh_decode(trace)
        assert validate_columnar(cols) == []
        assert cols.checksum == columnar_checksum(cols)

    def test_flipped_column_fails_checksum(self, trace):
        tables, cols = _fresh_decode(trace)
        try:
            cols.mem_line[::3] ^= 0x15
            problems = validate_columnar(cols)
            assert problems
            assert any("checksum" in p or "line" in p for p in problems)
        finally:
            # Detach the corrupted decode from the module-scoped trace.
            tables._columnar = None


class TestGuardedSimulate:
    def test_clean_run_returns_the_engine_result(self, trace, machine, golden):
        result, events, zero = guarded_simulate(trace, machine)
        assert events == [] and zero == 0
        _assert_same(result, golden)

    def test_decode_validated_once_per_attach(
        self, trace, machine, monkeypatch
    ):
        calls = []

        def counting(cols):
            calls.append(cols)
            return validate_columnar(cols)

        monkeypatch.setattr(guard, "validate_columnar", counting)
        _fresh_decode(trace)
        guarded_simulate(trace, machine)
        guarded_simulate(trace, machine)
        assert len(calls) == 1
        assert trace.replay_tables().columnar(trace).fixpoint_seeds[
            _VALIDATED_KEY
        ]

    def test_corrupt_decode_requarantined(self, trace, machine, golden):
        faults = FaultPlan.corrupt_column("mi-sha")
        # Validate the current attach first: a corrupt re-attach must be
        # caught even after an earlier clean validation.
        guarded_simulate(trace, machine)
        result, events, _ = guarded_simulate(
            trace, machine, faults=faults, ordinal=0
        )
        assert [e.kind for e in events] == ["decode-corrupt"]
        assert events[0].action == "requarantine-decode"
        _assert_same(result, golden)
        # The re-decode healed in place: the next attempt runs clean.
        result, events, _ = guarded_simulate(
            trace, machine, faults=faults, ordinal=0, attempt=2
        )
        assert events == []
        _assert_same(result, golden)

    def test_nan_result_rejected_then_retry_heals(self, trace, machine, golden):
        faults = FaultPlan.nan_pass("mi-sha")
        with pytest.raises(ReplayRejected) as caught:
            guarded_simulate(trace, machine, faults=faults, ordinal=0)
        assert [e.kind for e in caught.value.events] == ["nan-result"]
        assert caught.value.events[0].action == "quarantine-retry"
        # The decode was quarantined, so the retry replays a fresh one.
        assert trace.replay_tables()._columnar is None
        result, events, _ = guarded_simulate(
            trace, machine, faults=faults, ordinal=0, attempt=2
        )
        assert events == []
        _assert_same(result, golden)

    def test_engine_error_rejected(self, trace, machine, monkeypatch):
        def broken(*args, **kwargs):
            raise IndexError("pass overran its column")

        monkeypatch.setattr(cpu, "simulate", broken)
        with pytest.raises(ReplayRejected) as caught:
            guarded_simulate(trace, machine)
        (event,) = caught.value.events
        assert event.kind == "engine-error"
        assert "IndexError" in event.detail
        assert isinstance(caught.value.__cause__, IndexError)

    def test_faults_target_their_job_only(self, trace, machine):
        faults = FaultPlan.corrupt_column("mi-qsort") | FaultPlan.nan_pass(
            "mi-qsort"
        )
        _, events, _ = guarded_simulate(
            trace, machine, faults=faults, ordinal=0
        )
        assert events == []


class TestGuardRail:
    def test_record_routes_to_counters(self):
        rail = GuardRail()
        rail.record(GuardEvent("nan-result", "w", "m", "quarantine-retry"))
        rail.record(GuardEvent("decode-corrupt", "w", "m", "requarantine-decode"))
        rail.record(GuardEvent("engine-error", "w", "m", "quarantine-retry"))
        assert rail.telemetry.events == 3
        assert rail.telemetry.nan_rejections == 1
        assert rail.telemetry.decode_quarantines == 1
        assert rail.telemetry.engine_errors == 1
        assert len(rail.events) == 3

    def test_absorb_worker_payload(self):
        rail = GuardRail()
        shipped = (GuardEvent("decode-corrupt", "w", "m", "requarantine-decode"),)
        rail.absorb(shipped)
        rail.absorb(())
        assert rail.telemetry.decode_quarantines == 1
        assert [e.kind for e in rail.events] == ["decode-corrupt"]


class TestMemoryBudget:
    def test_rss_is_measurable(self):
        assert parent_rss_mb() > 0.0

    def test_no_budget_never_raises(self):
        check_memory_budget(None)
        check_memory_budget(GuardPlan())

    def test_breached_budget_raises(self):
        plan = GuardPlan(memory_budget_mb=0.001)
        with pytest.raises(MemoryError, match="guard budget"):
            check_memory_budget(plan)


def _wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestCampaignWatchdog:
    def test_poison_accounting(self):
        rail = GuardRail(GuardPlan(poison_threshold=2))
        dog = rail.watchdog
        assert not dog.is_poisoned("mi-sha@A15")
        assert dog.record_worker_kill("mi-sha@A15") == 1
        assert not dog.is_poisoned("mi-sha@A15")
        assert dog.record_worker_kill("mi-sha@A15") == 2
        assert dog.is_poisoned("mi-sha@A15")
        assert not dog.is_poisoned("mi-qsort@A15")

    def test_circuit_break_announces_once(self):
        rail = GuardRail()
        dog = rail.watchdog
        dog.record_worker_kill("mi-sha@A15")
        dog.circuit_break("mi-sha", "A15", "mi-sha@A15")
        dog.circuit_break("mi-sha", "A15", "mi-sha@A15")
        assert rail.telemetry.poison_jobs == 1
        assert [e.kind for e in rail.events] == ["poison-job"]
        assert "killed 1 worker(s)" in rail.events[0].detail

    def test_no_thread_without_budgets(self):
        rail = GuardRail()
        rail.watchdog.batch_started()
        try:
            assert rail.watchdog._thread is None
        finally:
            rail.watchdog.batch_finished()

    def test_budget_breaches_are_observed(self):
        plan = GuardPlan(
            heartbeat_seconds=0.01,
            batch_deadline_seconds=0.01,
            memory_budget_mb=0.001,
        )
        rail = GuardRail(plan)
        dog = rail.watchdog
        dog.batch_started()
        try:
            dog.job_started(0, "mi-sha", "A15")
            assert _wait_for(
                lambda: {e.kind for e in rail.events}
                >= {"heartbeat-stall", "deadline", "memory-budget"}
            )
        finally:
            dog.job_finished(0)
            dog.batch_finished()
        kinds = [e.kind for e in rail.events]
        # Each budget announces once, not once per tick.
        assert kinds.count("heartbeat-stall") == 1
        assert kinds.count("deadline") == 1
        assert kinds.count("memory-budget") == 1
        assert all(e.action == "observe" for e in rail.events)
        assert rail.telemetry.heartbeat_stalls == 1
        assert rail.telemetry.deadline_breaches == 1
        assert rail.telemetry.memory_breaches == 1

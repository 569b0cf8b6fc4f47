"""Chaos suite: columnar faults against guarded campaigns.

Every scenario asserts the guard layer's core promise: whatever fault is
injected — corrupt decoded columns (re-decoded in-call), NaNs leaking out
of a vectorized pass (rejected, then retried on a fresh decode), workers
dying over and over on one job, worker memory-budget breaches — the
campaign's numbers stay *bit-identical* to a fault-free run, and every
intervention is recorded as a :class:`~repro.sim.guard.GuardEvent` in
:class:`CollectionHealth` and the report, never silently absorbed.

Runs in the default ``make test`` path; ``make test-chaos`` selects it.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.report import render_collection_health
from repro.sim.cpu import simulate_reference
from repro.sim.executor import RetryPolicy, SimExecutor
from repro.sim.faults import FaultPlan
from repro.sim.guard import GuardPlan
from repro.sim.machine import hardware_a15
from repro.sim.result_cache import cache_key
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace

from tests.conftest import SMALL_FREQS, TRACE_INSTRUCTIONS

pytestmark = pytest.mark.chaos

WORKLOADS = ("mi-sha", "mi-qsort", "dhrystone")
TARGET = "mi-sha"

NO_BACKOFF = RetryPolicy(max_attempts=2, base_seconds=0.0)

#: (fault plan constructor, guard event kind the campaign must record,
#: job retries it costs).  A corrupt decode heals in-call; a NaN result is
#: rejected and its job retried once per machine the workload runs on.
COLUMNAR_SCENARIOS = (
    ("corrupt-column", FaultPlan.corrupt_column, "decode-corrupt", 0),
    ("nan-pass", FaultPlan.nan_pass, "nan-result", 2),
)


def _profiles():
    return tuple(workload_by_name(name) for name in WORKLOADS)


def _gemstone(faults=None, **overrides):
    defaults = dict(
        core="A15",
        workloads=_profiles(),
        power_workloads=_profiles(),
        frequencies=SMALL_FREQS,
        trace_instructions=TRACE_INSTRUCTIONS,
        retry=NO_BACKOFF,
        faults=faults,
    )
    defaults.update(overrides)
    return GemStone(GemStoneConfig(**defaults))


@pytest.fixture(scope="module")
def reference():
    """The fault-free dataset every scenario must reproduce."""
    return _gemstone().dataset


def _assert_rows_bit_identical(dataset, reference):
    assert [
        (r.workload, r.freq_hz) for r in dataset.runs
    ] == [(r.workload, r.freq_hz) for r in reference.runs]
    for run in dataset.runs:
        ref = reference.run(run.workload, run.freq_hz)
        assert run.hw_time == ref.hw_time
        assert run.hw.pmc == ref.hw.pmc
        assert run.gem5_time == ref.gem5_time
        assert run.gem5.stats == ref.gem5.stats


class TestColumnarFaultHealing:
    @pytest.mark.parametrize(
        "constructor, kind, retries",
        [(c, k, r) for _, c, k, r in COLUMNAR_SCENARIOS],
        ids=[name for name, _, _, _ in COLUMNAR_SCENARIOS],
    )
    def test_campaign_bit_identical_with_fault_recorded(
        self, constructor, kind, retries, reference
    ):
        gs = _gemstone(faults=constructor(TARGET))
        dataset = gs.dataset
        _assert_rows_bit_identical(dataset, reference)
        # Nothing failed — the guard re-decoded or the retry healed...
        assert dataset.health.failed == 0
        assert gs.executor.telemetry.job_retries == retries
        # ...and left a structured record of every intervention.
        kinds = {e.kind for e in dataset.health.guard_events}
        assert kinds == {kind}
        assert all(e.workload == TARGET for e in dataset.health.guard_events)
        assert dataset.health.degraded
        assert "guard intervention(s)" in dataset.health.summary()

    def test_clean_guarded_campaign_matches_and_stays_clean(self, reference):
        dataset = _gemstone().dataset
        _assert_rows_bit_identical(dataset, reference)
        assert dataset.health.guard_events == []
        assert not dataset.health.degraded

    def test_report_renders_guard_interventions(self, reference):
        gs = _gemstone(faults=FaultPlan.corrupt_column(TARGET))
        text = render_collection_health(gs.dataset.health)
        assert "guard interventions" in text
        assert "[decode-corrupt]" in text
        assert TARGET in text

    def test_health_spans_validation_and_power(self):
        # "whetstone" is only simulated by the power campaign, so its
        # fault fires in that phase; the validation fault fires earlier.
        gs = _gemstone(
            faults=FaultPlan.corrupt_column(TARGET)
            | FaultPlan.corrupt_column("whetstone"),
            power_workloads=_profiles() + (workload_by_name("whetstone"),),
        )
        validation_events = len(gs.dataset.health.guard_events)
        assert validation_events > 0
        assert all(
            e.workload == TARGET for e in gs.health.guard_events
        )
        gs.power_dataset
        # The shared record accumulates both campaigns without
        # double-counting either: the validation events appear once, the
        # power-only workload's events join them.
        new = gs.health.guard_events[validation_events:]
        assert new
        assert {e.workload for e in new} == {"whetstone"}
        assert [
            e.workload for e in gs.health.guard_events[:validation_events]
        ].count(TARGET) == validation_events


class TestKillAndResume:
    def test_resume_through_guard_retry_is_byte_identical(self, tmp_path):
        # Each lineage keeps an on-disk sim cache so the resumed process
        # memo-hits the phases the original already simulated, exactly as
        # the uninterrupted process memo-hits them in memory.
        faults = FaultPlan.nan_pass(TARGET)
        reference = _gemstone(
            faults=faults,
            checkpoint_dir=str(tmp_path / "ref-ckpt"),
            cache_dir=str(tmp_path / "ref-cache"),
        ).report()
        assert "[nan-result]" in reference

        directory = str(tmp_path / "ckpt")
        cache_dir = str(tmp_path / "cache")
        victim = _gemstone(
            faults=faults, checkpoint_dir=directory, cache_dir=cache_dir
        )
        victim.dataset  # the guard rejects and retries in this phase
        assert victim.health.guard_events
        del victim  # SIGKILL equivalent: checkpoints are all that survive

        resumed = _gemstone(
            faults=faults,
            checkpoint_dir=directory,
            cache_dir=cache_dir,
            resume=True,
        )
        assert resumed.report() == reference
        # The dataset phase restored (events came back from the
        # checkpoint), the later phases recomputed their own.
        assert resumed.runstate.telemetry.restored >= 1
        assert resumed.health.guard_events


class TestPoolScenarios:
    @pytest.fixture(scope="class")
    def traces(self):
        return tuple(
            compile_trace(workload_by_name(name), TRACE_INSTRUCTIONS)
            for name in WORKLOADS
        )

    @pytest.fixture(scope="class")
    def machine(self):
        return hardware_a15()

    @pytest.fixture(scope="class")
    def golden(self, traces, machine):
        return [simulate_reference(t, machine) for t in traces]

    def _assert_same(self, results, golden):
        for result, ref in zip(results, golden):
            assert result.counts == ref.counts
            assert result.core_cycles == ref.core_cycles
            assert result.components == ref.components

    def test_serial_nan_rejection_retried_bit_identical(
        self, traces, machine, golden
    ):
        executor = SimExecutor(
            jobs=1, retry=NO_BACKOFF, faults=FaultPlan.nan_pass(TARGET)
        )
        results = executor.run_many([(t, machine) for t in traces])
        self._assert_same(results, golden)
        assert executor.telemetry.job_retries == 1
        assert executor.telemetry.jobs_failed == 0
        assert [e.kind for e in executor.guard.events] == ["nan-result"]
        assert executor.guard.telemetry.nan_rejections == 1

    def test_worker_rejection_ships_events_and_recovers(
        self, traces, machine, golden
    ):
        # The worker raises ReplayRejected; its events cross the pool and
        # the job reruns in the parent on a fresh decode.
        executor = SimExecutor(
            jobs=2, retry=NO_BACKOFF, faults=FaultPlan.nan_pass(TARGET)
        )
        results = executor.run_many([(t, machine) for t in traces])
        self._assert_same(results, golden)
        assert executor.telemetry.jobs_isolated == 1
        assert executor.telemetry.jobs_failed == 0
        assert [e.kind for e in executor.guard.events] == ["nan-result"]
        assert executor.guard.events[0].workload == TARGET
        assert executor.guard.telemetry.nan_rejections == 1

    def test_rejection_without_retry_budget_fails_the_job(
        self, traces, machine, golden
    ):
        executor = SimExecutor(
            jobs=1,
            retry=RetryPolicy(max_attempts=1),
            faults=FaultPlan.nan_pass(TARGET),
        )
        results = executor.run_many(
            [(t, machine) for t in traces], raise_on_error=False
        )
        assert results[0] is None
        self._assert_same(results[1:], golden[1:])
        (failure,) = executor.last_failures
        assert failure.trace_name == TARGET
        assert failure.error.startswith("ReplayRejected")
        assert executor.telemetry.jobs_failed == 1
        assert [e.kind for e in executor.guard.events] == ["nan-result"]

    def test_worker_oom_isolated_bit_identical(self, traces, machine, golden):
        executor = SimExecutor(
            jobs=2,
            retry=NO_BACKOFF,
            faults=FaultPlan.worker_oom(TARGET),
        )
        results = executor.run_many([(t, machine) for t in traces])
        self._assert_same(results, golden)
        assert executor.telemetry.jobs_isolated >= 1
        assert executor.guard.telemetry.oom_events == 1
        kinds = [e.kind for e in executor.guard.events]
        assert kinds == ["worker-oom"]
        assert executor.guard.events[0].action == "isolate"

    def test_poison_job_circuit_broken_into_serial_lane(
        self, traces, machine, golden
    ):
        executor = SimExecutor(
            jobs=2,
            retry=NO_BACKOFF,
            faults=FaultPlan.crash_workload(TARGET, attempts=10),
            guard=GuardPlan(poison_threshold=2),
        )
        # Two batches each lose a worker to the poison job (the batches
        # themselves fail: the crash outlives the retry budget).
        pairs = [(t, machine) for t in traces]
        for _ in range(2):
            results = executor.run_many(pairs, raise_on_error=False)
            assert any(r is None for r in results)
        crashes = executor.telemetry.worker_crashes
        poisoned_key = cache_key(traces[0], machine)
        assert executor.guard.watchdog.is_poisoned(poisoned_key)

        # The third batch circuit-breaks it: the poison job runs (and
        # keeps failing) in the parent's serial quarantine lane, no
        # further workers die, and the healthy jobs are untouched.
        results = executor.run_many(pairs, raise_on_error=False)
        assert executor.telemetry.worker_crashes == crashes
        assert executor.guard.telemetry.poison_jobs == 1
        poison = [e for e in executor.guard.events if e.kind == "poison-job"]
        assert len(poison) == 1
        assert poison[0].workload == TARGET
        assert poison[0].action == "circuit-break"
        healthy = [
            (result, ref)
            for result, ref, trace in zip(results, golden, traces)
            if trace.name != TARGET
        ]
        assert healthy
        self._assert_same(
            [r for r, _ in healthy], [ref for _, ref in healthy]
        )

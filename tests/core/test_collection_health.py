"""Chaos suite: dataset collection degrading gracefully under faults.

A permanently failed (workload, frequency) point must not abort the
campaign: the surviving rows stay bit-identical to a fault-free run and the
gaps are enumerated in :class:`~repro.core.validation.CollectionHealth`.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.power_model import collect_power_dataset
from repro.core.report import render_collection_health
from repro.core.validation import CollectionHealth, collect_validation_dataset
from repro.sim.executor import RetryPolicy
from repro.sim.faults import FaultPlan
from repro.sim.platform import HardwarePlatform
from repro.workloads.suites import workload_by_name

from tests.conftest import SMALL_FREQS, TRACE_INSTRUCTIONS

pytestmark = pytest.mark.chaos

WORKLOADS = ("mi-sha", "mi-qsort", "dhrystone", "whetstone")
POISONED = "mi-qsort"

NO_BACKOFF = RetryPolicy(max_attempts=2, base_seconds=0.0)


def _profiles():
    return tuple(workload_by_name(name) for name in WORKLOADS)


def _gemstone(faults=None) -> GemStone:
    return GemStone(
        GemStoneConfig(
            core="A15",
            workloads=_profiles(),
            power_workloads=_profiles(),
            frequencies=SMALL_FREQS,
            trace_instructions=TRACE_INSTRUCTIONS,
            retry=NO_BACKOFF,
            faults=faults,
        )
    )


@pytest.fixture(scope="module")
def reference():
    """The fault-free dataset the degraded runs are compared against."""
    return _gemstone().dataset


class TestValidationDegradation:
    @pytest.fixture(scope="class")
    def degraded(self):
        gs = _gemstone(faults=FaultPlan.crash_workload(POISONED, attempts=99))
        return gs, gs.dataset

    def test_failures_enumerated(self, degraded):
        gs, dataset = degraded
        assert dataset.health is gs.health
        assert dataset.health.degraded
        failed = {(f.workload, f.freq_hz) for f in dataset.health.failures}
        assert failed == {(POISONED, f) for f in SMALL_FREQS}
        assert all(f.stage == "hardware" for f in dataset.health.failures)
        assert dataset.health.attempted == len(WORKLOADS) * len(SMALL_FREQS)
        assert dataset.health.succeeded == dataset.health.attempted - len(
            SMALL_FREQS
        )

    def test_surviving_rows_bit_identical(self, degraded, reference):
        _, dataset = degraded
        for freq in SMALL_FREQS:
            survivors = dataset.runs_at(freq)
            assert [r.workload for r in survivors] == [
                w for w in WORKLOADS if w != POISONED
            ]
            for run in survivors:
                ref = reference.run(run.workload, freq)
                assert run.hw_time == ref.hw_time
                assert run.gem5_time == ref.gem5_time
                assert run.hw.pmc == ref.hw.pmc
                assert run.gem5.stats == ref.gem5.stats

    def test_lost_point_absent_not_none(self, degraded):
        _, dataset = degraded
        with pytest.raises(KeyError):
            dataset.run(POISONED, SMALL_FREQS[0])

    def test_analyses_run_on_survivors(self, degraded, reference):
        _, dataset = degraded
        # Error statistics still compute; they cover a narrower set, so they
        # generally differ from the full-campaign numbers.
        assert dataset.time_mape(SMALL_FREQS[0]) > 0

    def test_report_section_lists_gaps(self, degraded):
        gs, dataset = degraded
        text = render_collection_health(dataset.health)
        assert "Collection health" in text
        assert POISONED in text

    def test_all_points_failing_raises(self):
        plan = FaultPlan(
            tuple(
                spec
                for name in WORKLOADS
                for spec in FaultPlan.crash_workload(name, attempts=99).faults
            )
        )
        gs = _gemstone(faults=plan)
        with pytest.raises(RuntimeError, match="failed completely"):
            gs.dataset


class TestPowerSampleLoss:
    def test_lost_samples_accounted_timing_unchanged(self, reference):
        plan = FaultPlan.drop_power(fraction=0.2) | FaultPlan.nan_power(
            "mi-sha", fraction=0.3
        )
        gs = _gemstone(faults=plan)
        dataset = gs.dataset
        assert dataset.health.failed == 0
        assert dataset.health.power_samples_lost > 0
        for run in dataset.runs:
            ref = reference.run(run.workload, run.freq_hz)
            # Power degrades to a robust mean over the surviving samples;
            # timing and PMCs must be untouched by sensor faults.
            assert run.hw_time == ref.hw_time
            assert run.hw.pmc == ref.hw.pmc
            assert run.gem5_time == ref.gem5_time

    def test_all_power_samples_lost_fails_power_point(self):
        platform = HardwarePlatform(
            "A15",
            trace_instructions=TRACE_INSTRUCTIONS,
            faults=FaultPlan.nan_power(fraction=1.0),
        )
        health = CollectionHealth()
        with pytest.raises(RuntimeError, match="failed completely"):
            collect_power_dataset(
                platform, _profiles(), SMALL_FREQS, health=health
            )
        assert health.failed == health.attempted
        assert all("sample" in f.error for f in health.failures)


class TestHealthRecord:
    def test_summary_wording(self):
        health = CollectionHealth(attempted=10, succeeded=8)
        health.record_failure("mi-sha", 1.0e9, "gem5", TimeoutError("slow"))
        health.power_samples_lost = 3
        line = health.summary()
        assert "8/10" in line
        assert "1 failed" in line
        assert "3 power samples lost" in line
        assert health.degraded

    def test_clean_campaign_not_degraded(self):
        health = CollectionHealth(attempted=4, succeeded=4)
        assert not health.degraded
        assert health.failed == 0

    def test_guard_events_degrade_and_summarise(self):
        from repro.sim.guard import GuardEvent

        health = CollectionHealth(attempted=4, succeeded=4)
        health.record_guard_event(
            GuardEvent("nan-result", "mi-sha", "A15", "quarantine-retry")
        )
        health.absorb_guard_events(
            [GuardEvent("decode-corrupt", "mi-fft", "A15", "requarantine-decode")]
        )
        assert health.degraded
        assert len(health.guard_events) == 2
        assert "2 guard intervention(s)" in health.summary()
        # Checkpoint snapshots carry the guard record forward.
        assert health.clone().guard_events == health.guard_events

    def test_spans_validation_and_power(self):
        gs = _gemstone(faults=FaultPlan.crash_workload(POISONED, attempts=99))
        gs.dataset
        validation_failures = gs.health.failed
        assert validation_failures == len(SMALL_FREQS)
        gs.power_dataset
        # The poisoned workload fails again during power collection and the
        # same record accumulates both campaigns.
        assert gs.health.failed == validation_failures + len(SMALL_FREQS)

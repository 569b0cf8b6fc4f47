"""Trace smoke suite (``make trace-smoke``): a tiny traced pipeline run.

Asserts the three observability invariants end-to-end: the exported Chrome
trace-event JSON is schema-valid (Perfetto-loadable), tracing never changes
a single report byte, and the span *tree* is deterministic — two runs of
the same configuration differ only in wall-clock fields.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.pipeline import GemStone, GemStoneConfig
from repro.obs.exporters import (
    CHROME_FILE,
    EVENTS_FILE,
    METRICS_FILE,
    read_event_stream,
    validate_chrome_trace,
)
from repro.workloads.suites import workload_by_name

pytestmark = pytest.mark.obs

N_INSTRS = 4_000
WORKLOADS = ("mi-bitcount", "mi-sha")


def _config(**overrides):
    profiles = tuple(workload_by_name(name) for name in WORKLOADS)
    defaults = dict(
        core="A15",
        workloads=profiles,
        power_workloads=profiles,
        frequencies=(1000e6,),
        trace_instructions=N_INSTRS,
        n_workload_clusters=2,
        power_model_terms=2,
    )
    defaults.update(overrides)
    return GemStoneConfig(**defaults)


class TestTraceSmoke:
    def test_traced_run_exports_valid_chrome_trace(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        gs = GemStone(_config(trace_dir=trace_dir))
        gs.report()
        paths = gs.export_trace()
        gs.tracer.close()

        with open(paths["chrome"]) as handle:
            document = json.load(handle)
        n_events = validate_chrome_trace(document)
        assert n_events > 0

        names = {
            e["name"] for e in document["traceEvents"] if e["ph"] == "X"
        }
        # Every pipeline phase and the executor layer left spans.
        assert "phase:dataset" in names
        assert "phase:report" in names
        assert "executor-batch" in names
        assert "sim-job" in names

        assert os.path.exists(os.path.join(trace_dir, EVENTS_FILE))
        with open(os.path.join(trace_dir, METRICS_FILE)) as handle:
            assert "repro_sim_executor_jobs_run" in handle.read()

    def test_tracing_never_changes_the_report(self, tmp_path):
        # Byte-compare the analysis sections of the two renderings.
        from repro.core.report import render_full_report

        plain = render_full_report(GemStone(_config()), include_telemetry=False)
        gs = GemStone(_config(trace_dir=str(tmp_path / "trace")))
        gs.report()
        traced = render_full_report(gs, include_telemetry=False)
        assert traced == plain

    def test_span_tree_is_deterministic_modulo_wallclock(self):
        def run():
            gs = GemStone(_config(trace=True))
            gs.report()
            return gs.tracer.shape()

        assert run() == run()

    def test_stream_parses_and_covers_one_segment(self, tmp_path):
        trace_dir = str(tmp_path / "trace")
        gs = GemStone(_config(trace_dir=trace_dir))
        gs.report()
        gs.tracer.close()
        records = read_event_stream(os.path.join(trace_dir, EVENTS_FILE))
        assert records[0]["kind"] == "segment-start"
        assert {r["segment"] for r in records} == {0}

    def test_metrics_registry_is_the_single_source_of_truth(self):
        gs = GemStone(_config(trace=True))
        gs.report()
        telemetry = gs.executor.telemetry
        assert telemetry.registry is gs.metrics
        assert gs.metrics.value("sim.executor.jobs_run") == (
            telemetry.jobs_run
        )
        assert telemetry.jobs_run > 0
        # Span durations fed the histogram family.
        assert gs.metrics.histogram("trace.span.sim-job.seconds").count > 0

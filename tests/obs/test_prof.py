"""Deterministic replay profiler: attribution, coverage, CLI table."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs.prof import PASS_COMPONENTS, attribute_cycles, profile_records
from repro.obs.tracer import Tracer
from repro.sim.cpu import simulate
from repro.sim.machine import gem5_ex5_big
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace


def _traced_run(workloads=("mi-sha",), stream_path=None):
    tracer = Tracer(enabled=True, stream_path=stream_path)
    machine = gem5_ex5_big()
    results = []
    for name in workloads:
        trace = compile_trace(workload_by_name(name), n_instrs=3_000)
        results.append(
            simulate(trace, machine, tracer=tracer)
        )
    return tracer, results


class TestAttributeCycles:
    def test_every_component_is_claimed_by_exactly_one_pass(self):
        claimed = [key for keys in PASS_COMPONENTS.values() for key in keys]
        assert len(claimed) == len(set(claimed))

    def test_attribution_sums_to_core_cycles(self):
        _tracer, results = _traced_run()
        for result in results:
            attributed = attribute_cycles(result.components)
            assert sum(attributed.values()) == pytest.approx(
                result.core_cycles
            )
            assert "replay/unattributed" not in attributed

    def test_unknown_component_lands_in_unattributed(self):
        attributed = attribute_cycles({"branch": 10.0, "quantum": 5.0})
        assert attributed["replay/branch_pass"] == 10.0
        assert attributed["replay/unattributed"] == 5.0

    def test_attribution_is_wall_clock_free(self):
        # Pure function of the components dict: identical across runs.
        _t1, first = _traced_run()
        _t2, second = _traced_run()
        assert attribute_cycles(first[0].components) == attribute_cycles(
            second[0].components
        )


class TestProfileRecords:
    def test_coverage_meets_the_95_percent_gate(self):
        tracer, results = _traced_run(("mi-sha", "dhrystone"))
        profile = profile_records(tracer.records)
        assert profile["replays"] == 2
        assert profile["core_cycles"] == pytest.approx(
            sum(r.core_cycles for r in results)
        )
        assert profile["coverage"] >= 0.95

    def test_rows_join_cycles_with_measured_seconds(self):
        tracer, _results = _traced_run()
        profile = profile_records(tracer.records)
        rows = {row["pass"]: row for row in profile["rows"]}
        decode = rows["replay/decode"]
        assert decode["calls"] == 1
        assert decode["cycles"] > 0
        assert decode["seconds"] >= 0.0
        shares = [row["share"] for row in profile["rows"]]
        assert sum(shares) == pytest.approx(1.0)
        # Sorted by attributed cycles, descending.
        cycles = [row["cycles"] for row in profile["rows"]]
        assert cycles == sorted(cycles, reverse=True)

    def test_empty_records_report_full_coverage(self):
        profile = profile_records([])
        assert profile == {
            "replays": 0,
            "core_cycles": 0.0,
            "attributed_cycles": 0.0,
            "coverage": 1.0,
            "rows": [],
        }

    def test_untraced_simulation_emits_no_profile_event(self):
        trace = compile_trace(workload_by_name("mi-sha"), n_instrs=3_000)
        result = simulate(trace, gem5_ex5_big())
        assert result.core_cycles > 0  # the run itself is unaffected


class TestProfileCli:
    def test_gemstone_trace_profile_renders_the_table(
        self, tmp_path, capsys
    ):
        stream = str(tmp_path / "events.jsonl")
        tracer, _results = _traced_run(stream_path=stream)
        tracer.close()
        assert main(["trace", "profile", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "replay profile over 1 simulation(s)" in out
        assert "replay/decode" in out
        assert "coverage 100.0%" in out

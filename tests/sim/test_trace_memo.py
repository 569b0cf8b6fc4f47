"""One simulation path: the process-wide trace memo and engine executors.

A report replays 65 unique traces against a hardware and a gem5 config;
every run-time consumer shares one compiled trace per (profile, n_instrs,
seed), so a report, a campaign sync + drain + collation in one process,
and both simulators build each trace exactly once.  Every simulator owns
an executor (serial by default), and a job's one ``replay/decode`` span
covers the real decode.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter

import pytest

import repro.workloads.trace as trace_mod
from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.runstate import RunManifest
from repro.obs.tracer import Tracer
from repro.sim.campaign import CampaignBoard, campaign_jobs, run_worker
from repro.sim.cpu import simulate
from repro.sim.executor import SimExecutor
from repro.sim.faults import FaultPlan
from repro.sim.gem5 import Gem5Simulation
from repro.sim.machine import gem5_ex5_big, hardware_a15
from repro.sim.platform import HardwarePlatform
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import (
    PROCESS_MEMO_MAX,
    cached_trace,
    compile_trace,
)

#: Short traces keep the 110-simulation collections to a few seconds.
N_INSTRS = 1_500

#: Unique traces of a default report (45 validation workloads, all among
#: the 65 power workloads).
REPORT_TRACES = 65


@pytest.fixture
def builds(monkeypatch):
    """Count real trace builds, wherever ``compile_trace`` is bound.

    The memo starts empty.  Pool workers and forked shards inherit the
    patch, but only builds in this process are counted.
    """
    monkeypatch.setattr(trace_mod, "_TRACE_MEMO", {})
    original = trace_mod.compile_trace
    counts: Counter = Counter()

    def counting(profile, n_instrs=60_000, seed=None):
        counts[profile.name] += 1
        return original(profile, n_instrs, seed)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and (
            getattr(module, "compile_trace", None) is original
        ):
            monkeypatch.setattr(module, "compile_trace", counting)
    return counts


def _config(**overrides) -> GemStoneConfig:
    return GemStoneConfig(
        core="A15",
        trace_instructions=N_INSTRS,
        frequencies=(1000e6,),
        **overrides,
    )


def _assert_same(a, b):
    assert a.counts == b.counts
    assert a.core_cycles == b.core_cycles
    assert a.dram_stall_weight == b.dram_stall_weight
    assert a.components == b.components


class TestTraceMemo:
    def test_returns_one_shared_trace(self, builds):
        profile = workload_by_name("mi-sha")
        first = cached_trace(profile, N_INSTRS)
        assert cached_trace(profile, N_INSTRS) is first
        assert builds["mi-sha"] == 1

    def test_key_includes_length(self, builds):
        profile = workload_by_name("mi-sha")
        short = cached_trace(profile, N_INSTRS)
        longer = cached_trace(profile, 2 * N_INSTRS)
        assert longer is not short
        assert longer.n_instrs > short.n_instrs
        assert cached_trace(profile, 2 * N_INSTRS) is longer
        assert cached_trace(profile, N_INSTRS) is short
        assert builds["mi-sha"] == 2

    def test_matches_the_uncached_builder(self, builds):
        profile = workload_by_name("mi-qsort")
        memoised = cached_trace(profile, N_INSTRS)
        fresh = compile_trace(profile, N_INSTRS)
        assert memoised is not fresh
        assert (memoised.block_seq == fresh.block_seq).all()
        assert (memoised.mem_addrs == fresh.mem_addrs).all()
        assert memoised.n_instrs == fresh.n_instrs
        assert memoised.seed == fresh.seed

    def test_bound_holds_a_whole_report_and_evicts_oldest(self, builds):
        assert PROCESS_MEMO_MAX >= REPORT_TRACES
        profile = workload_by_name("mi-sha")
        first = cached_trace(profile, 500)
        for n in range(501, 501 + PROCESS_MEMO_MAX):
            cached_trace(profile, n)
        assert len(trace_mod._TRACE_MEMO) == PROCESS_MEMO_MAX
        assert cached_trace(profile, 500) is not first


class TestOneBuildPerTrace:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_collection_builds_each_trace_once(self, builds, jobs):
        gs = GemStone(_config(jobs=jobs))
        assert len(gs.dataset.runs) == 45
        assert len(gs.power_dataset) == REPORT_TRACES
        assert gs.executor.telemetry.jobs_run == 110
        assert len(builds) == REPORT_TRACES
        assert set(builds.values()) == {1}

    def test_campaign_in_one_process_builds_each_trace_once(
        self, builds, tmp_path
    ):
        config = _config()
        board_dir = str(tmp_path / "board")
        board = CampaignBoard(board_dir)
        board.create_or_sync(
            RunManifest.from_config(config).fingerprint, campaign_jobs(config)
        )
        drained = run_worker(board_dir, owner="inline", in_worker=False)
        assert drained.done == 110
        collation = GemStone(dataclasses.replace(config, board_dir=board_dir))
        assert len(collation.dataset.runs) == 45
        assert len(collation.power_dataset) == REPORT_TRACES
        assert collation.executor.telemetry.jobs_run == 0
        assert collation.executor.telemetry.cache_hits == 110
        assert len(builds) == REPORT_TRACES
        assert set(builds.values()) == {1}


class TestEngineExecutor:
    def test_engines_default_to_a_serial_executor(self):
        profile = workload_by_name("mi-sha")
        platform = HardwarePlatform("A15", trace_instructions=N_INSTRS)
        gem5 = Gem5Simulation(trace_instructions=N_INSTRS)
        assert platform.executor is not gem5.executor
        for engine in (platform, gem5):
            assert isinstance(engine.executor, SimExecutor)
            assert engine.executor.jobs == 1
            assert engine.executor.cache is None
            expected = simulate(compile_trace(profile, N_INSTRS), engine.machine)
            _assert_same(engine._sim(profile), expected)
            assert engine.executor.telemetry.jobs_run == 1
            assert engine.executor.telemetry.parallel_jobs_run == 0

    def test_default_executor_carries_the_platform_faults(self):
        plan = FaultPlan.nan_power(fraction=0.5)
        platform = HardwarePlatform(
            "A15", trace_instructions=N_INSTRS, faults=plan
        )
        assert platform.executor.faults is plan


class TestDecodeSpan:
    def test_decode_is_built_inside_the_jobs_one_decode_span(
        self, monkeypatch
    ):
        monkeypatch.setattr(trace_mod, "_REPLAY_MEMO", {})
        tracer = Tracer(enabled=True)
        built_in: list[str] = []
        original = trace_mod.build_columnar_trace

        def spy(trace, tables):
            built_in.append(tracer.current_path)
            return original(trace, tables)

        monkeypatch.setattr(trace_mod, "build_columnar_trace", spy)
        trace = compile_trace(workload_by_name("mi-sha"), N_INSTRS)
        executor = SimExecutor(jobs=1, tracer=tracer)
        executor.run_many([(trace, hardware_a15()), (trace, gem5_ex5_big())])

        assert len(built_in) == 1
        assert built_in[0].endswith("sim-job/replay/decode")
        spans = [r for r in tracer.records if r.get("kind") == "span"]
        jobs = [s for s in spans if s["name"] == "sim-job"]
        decodes = [s for s in spans if s["name"] == "replay/decode"]
        assert len(jobs) == 2
        assert len(decodes) == 2
        assert all(s["path"].endswith("sim-job/replay/decode") for s in decodes)

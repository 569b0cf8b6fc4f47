"""Tests for the parallel simulation executor.

The container running the suite may have a single CPU, so these tests
assert *correctness* (bit-identical results, dedup accounting, cache
integration, fallback behaviour) rather than speedup; the throughput
benchmark prints the speedup on capable hosts.
"""

from __future__ import annotations

import pytest

import repro.sim.executor as executor_mod
from repro.core.report import render_sim_telemetry
from repro.core.validation import collect_validation_dataset
from repro.sim.cpu import simulate
from repro.sim.executor import SimExecutor, prime_engines
from repro.sim.gem5 import Gem5Simulation
from repro.sim.machine import gem5_ex5_big, hardware_a15
from repro.sim.platform import HardwarePlatform
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace

N_INSTRS = 6_000


@pytest.fixture(scope="module")
def traces():
    return tuple(
        compile_trace(workload_by_name(name), N_INSTRS)
        for name in ("mi-sha", "mi-qsort", "dhrystone")
    )


def _assert_same(a, b):
    assert a.counts == b.counts
    assert a.core_cycles == b.core_cycles
    assert a.dram_stall_weight == b.dram_stall_weight
    assert a.components == b.components


class TestRunMany:
    def test_serial_matches_direct_simulate(self, traces):
        machine = hardware_a15()
        results = SimExecutor(jobs=1).run_many([(t, machine) for t in traces])
        for trace, result in zip(traces, results):
            _assert_same(result, simulate(trace, machine))

    def test_parallel_matches_serial(self, traces):
        machine = hardware_a15()
        jobs = [(t, machine) for t in traces]
        serial = SimExecutor(jobs=1).run_many(jobs)
        parallel = SimExecutor(jobs=4).run_many(jobs)
        for s, p in zip(serial, parallel):
            _assert_same(s, p)

    def test_results_align_with_input_order(self, traces):
        machine = hardware_a15()
        results = SimExecutor(jobs=2).run_many([(t, machine) for t in traces])
        for trace, result in zip(traces, results):
            assert result.trace_name == trace.name

    def test_duplicate_jobs_simulated_once(self, traces):
        machine = hardware_a15()
        ex = SimExecutor(jobs=1)
        results = ex.run_many([(traces[0], machine)] * 3)
        assert ex.telemetry.jobs_submitted == 3
        assert ex.telemetry.jobs_deduplicated == 2
        assert ex.telemetry.jobs_run == 1
        assert results[0] is results[1] is results[2]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SimExecutor(jobs=0)


class TestCacheIntegration:
    def test_second_executor_hits_disk_cache(self, traces, tmp_path):
        machine = hardware_a15()
        cache_dir = str(tmp_path / "simcache")
        jobs = [(t, machine) for t in traces]
        first = SimExecutor(jobs=1, cache_dir=cache_dir)
        cold = first.run_many(jobs)
        assert first.telemetry.cache_hits == 0
        second = SimExecutor(jobs=1, cache_dir=cache_dir)
        warm = second.run_many(jobs)
        assert second.telemetry.cache_hits == len(traces)
        assert second.telemetry.jobs_run == 0
        for c, w in zip(cold, warm):
            _assert_same(c, w)

    def test_probe_reads_empty_cache_once_per_unique_job(
        self, traces, tmp_path, monkeypatch
    ):
        # The probe tests for a cache by identity: sizing the store lists
        # its directory, and an empty store is still a store to probe.
        machine = hardware_a15()
        ex = SimExecutor(jobs=1, cache_dir=str(tmp_path / "simcache"))
        cache_cls = type(ex.cache)
        probed = []
        original_get = cache_cls.get

        def sized(self):
            raise AssertionError("run_many sized the result cache")

        def counting_get(self, trace, machine):
            probed.append(trace.name)
            return original_get(self, trace, machine)

        monkeypatch.setattr(cache_cls, "__len__", sized)
        monkeypatch.setattr(cache_cls, "get", counting_get)
        ex.run_many([(t, machine) for t in traces] + [(traces[0], machine)])
        assert probed == [t.name for t in traces]

    def test_parallel_workers_populate_cache(self, traces, tmp_path):
        machine = hardware_a15()
        cache_dir = str(tmp_path / "simcache")
        ex = SimExecutor(jobs=4, cache_dir=cache_dir)
        results = ex.run_many([(t, machine) for t in traces])
        assert len(ex.cache) == len(traces)
        for trace, result in zip(traces, results):
            _assert_same(result, simulate(trace, machine))


class TestSerialFallback:
    def test_broken_pool_degrades_to_serial(self, traces, monkeypatch):
        class BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes in this environment")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", BrokenPool)
        machine = hardware_a15()
        ex = SimExecutor(jobs=4)
        results = ex.run_many([(t, machine) for t in traces])
        assert ex.telemetry.serial_fallbacks == 1
        assert ex.telemetry.parallel_jobs_run == 0
        for trace, result in zip(traces, results):
            _assert_same(result, simulate(trace, machine))


class TestTelemetry:
    def test_stage_seconds_stay_in_the_registry(self, traces):
        machine = hardware_a15()
        ex = SimExecutor(jobs=1)
        ex.run_many([(t, machine) for t in traces])
        for stage in ("probe", "simulate", "reap"):
            attr = f"{stage}_seconds"
            assert ex.metrics.value(f"sim.executor.{attr}") == getattr(
                ex.telemetry, attr
            )
        assert ex.telemetry.simulate_seconds > 0.0

    def test_rendered_section_counts_only(self, traces):
        # Two runs of one batch spend different wall-clock; the rendered
        # section holds counts only, so it must not differ.
        machine = hardware_a15()
        rendered = []
        for _ in range(2):
            ex = SimExecutor(jobs=1)
            ex.run_many([(t, machine) for t in traces])
            rendered.append(render_sim_telemetry(ex.telemetry, ex.jobs))
        assert rendered[0] == rendered[1]
        assert "wall-clock" not in rendered[0]
        assert "throughput" not in rendered[0]


class TestPrimeEngines:
    def test_primes_both_engines_in_one_batch(self, small_profiles):
        profiles = small_profiles[:3]
        platform = HardwarePlatform("A15", trace_instructions=N_INSTRS)
        gem5 = Gem5Simulation(gem5_ex5_big(), trace_instructions=N_INSTRS)
        ex = SimExecutor(jobs=1)
        submitted = prime_engines(ex, (platform, gem5), profiles)
        assert submitted == 2 * len(profiles)
        assert ex.telemetry.batches == 1
        for engine in (platform, gem5):
            for profile in profiles:
                assert engine.has_result(profile.name)
        # A second priming finds everything memoised.
        assert prime_engines(ex, (platform, gem5), profiles) == 0


class TestCollectionDeterminism:
    def test_parallel_dataset_identical_to_serial(self, small_profiles):
        profiles = small_profiles[:3]
        frequencies = (600e6, 1000e6)

        def collect(jobs):
            platform = HardwarePlatform("A15", trace_instructions=N_INSTRS)
            gem5 = Gem5Simulation(gem5_ex5_big(), trace_instructions=N_INSTRS)
            return collect_validation_dataset(
                platform,
                gem5,
                profiles,
                frequencies,
                with_power=False,
                jobs=jobs,
            )

        serial = collect(1)
        parallel = collect(4)
        assert len(serial.runs) == len(parallel.runs)
        for s, p in zip(serial.runs, parallel.runs):
            assert s.workload == p.workload and s.freq_hz == p.freq_hz
            assert s.hw.time_seconds == p.hw.time_seconds
            assert s.hw.pmc == p.hw.pmc
            assert s.gem5.stats == p.gem5.stats


@pytest.mark.bench_smoke
def test_bench_smoke_parallel_collection(small_profiles, tmp_path):
    """Tiny end-to-end parallel collection: pool + cache + dataset in one go."""
    from repro.core.pipeline import GemStone, GemStoneConfig

    gs = GemStone(
        GemStoneConfig(
            core="A15",
            workloads=small_profiles[:2],
            frequencies=(1000e6,),
            trace_instructions=N_INSTRS,
            cache_dir=str(tmp_path / "simcache"),
            jobs=2,
        )
    )
    dataset = gs.dataset
    assert len(dataset.runs) == 2
    telemetry = gs.executor.telemetry
    assert telemetry.jobs_submitted > 0
    assert telemetry.jobs_run + telemetry.cache_hits > 0

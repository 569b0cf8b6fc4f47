"""The gem5-style simulation: model configs in, gem5-namespace stats out.

:class:`Gem5Simulation` runs the identical workload traces as the hardware
platform, but on a *model* machine configuration (``gem5_ex5_big`` /
``gem5_ex5_little`` / the fixed-BP variant) and emits its results the way
gem5 does — as a flat dictionary of named statistics
(``system.cpu.branchPred.condIncorrect``, ``system.cpu.itb_walker_cache.
ReadReq_accesses``, ``sim_seconds``, ...).

The emission layer also reproduces gem5's *accounting* quirks documented in
the paper, independent of any timing behaviour:

* the L1I is accessed once per instruction rather than once per fetched
  line (the ~2x L1I access divergence of Fig. 6);
* VFP floating-point operations are classified as SIMD
  (``commit.fp_insts`` vs ``commit.vec_insts``, Section V);
* ``itb.misses`` counts only committed-path refills, while the walker
  cache sees all speculative traffic (the Cluster A signature).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.gem5_stats import GEM5_STAT_GROUPS, GLOBAL_STATS, Gem5StatCatalog
from repro.sim.cpu import SimResult, simulate
from repro.sim.machine import MachineConfig, gem5_ex5_big
from repro.sim.platform import HardwarePlatform
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import SyntheticTrace, compile_trace


@dataclass
class Gem5Stats:
    """One gem5 simulation output (the parsed ``stats.txt`` equivalent).

    Attributes:
        workload: Workload name.
        machine_name: The model configuration that produced the stats.
        freq_hz: Simulated core frequency.
        stats: Statistic values keyed by *short* name (``"commit.
            committedInsts"``); use :meth:`full` for fully-qualified names.
    """

    workload: str
    machine_name: str
    freq_hz: float
    stats: dict[str, float]
    catalog: Gem5StatCatalog

    @property
    def sim_seconds(self) -> float:
        return self.stats["sim_seconds"]

    def value(self, short_name: str) -> float:
        """Value of one stat by short name.

        Raises:
            KeyError: For names outside the emitted catalog.
        """
        return self.stats[short_name]

    def rate(self, short_name: str) -> float:
        """Stat per simulated second (rate-like stats returned unchanged)."""
        if self.catalog.is_rate_like(short_name):
            return self.stats[short_name]
        return self.stats[short_name] / self.sim_seconds

    def full(self) -> dict[str, float]:
        """Stats keyed by fully-qualified gem5 names."""
        return {self.catalog.qualify(name): value for name, value in self.stats.items()}


class Gem5Simulation:
    """Runs workloads on a gem5 model configuration."""

    def __init__(
        self,
        machine: MachineConfig | None = None,
        trace_instructions: int = 60_000,
        cache_dir: str | None = None,
        executor=None,
        jobs: int | None = None,
    ):
        self.machine = machine if machine is not None else gem5_ex5_big()
        if self.machine.flavour != "gem5":
            raise ValueError(
                f"{self.machine.name} is a {self.machine.flavour} config; "
                "Gem5Simulation needs a gem5 model config"
            )
        self.trace_instructions = trace_instructions
        self.catalog = Gem5StatCatalog()
        self._trace_cache: dict[str, SyntheticTrace] = {}
        self._sim_cache: dict[str, SimResult] = {}
        if executor is None and jobs is not None and jobs != 1:
            from repro.sim.executor import SimExecutor

            executor = SimExecutor(jobs=jobs, cache_dir=cache_dir)
        self.executor = executor
        self._disk_cache = None
        if cache_dir is not None and executor is None:
            from repro.sim.result_cache import SimResultCache

            self._disk_cache = SimResultCache(cache_dir)

    def _trace(self, profile: WorkloadProfile) -> SyntheticTrace:
        trace = self._trace_cache.get(profile.name)
        if trace is None:
            trace = compile_trace(profile, self.trace_instructions)
            self._trace_cache[profile.name] = trace
        return trace

    def _sim(self, profile: WorkloadProfile) -> SimResult:
        result = self._sim_cache.get(profile.name)
        if result is None:
            trace = self._trace(profile)
            if self.executor is not None:
                # The executor owns deduplication and the disk cache.
                result = self.executor.run(trace, self.machine)
            else:
                if self._disk_cache is not None:
                    result = self._disk_cache.get(trace, self.machine)
                if result is None:
                    result = simulate(trace, self.machine)
                    if self._disk_cache is not None:
                        self._disk_cache.put(trace, self.machine, result)
            self._sim_cache[profile.name] = result
        return result

    # Batching protocol used by repro.sim.executor.prime_engines: datasets
    # collect every missing (workload x machine) job up front and fan them
    # out through one executor instead of simulating lazily one by one.
    def has_result(self, name: str) -> bool:
        """True when this workload's simulation is already memoised."""
        return name in self._sim_cache

    def trace_for(self, profile: WorkloadProfile) -> SyntheticTrace:
        """Compiled (and memoised) trace for one workload profile."""
        return self._trace(profile)

    def absorb_result(self, name: str, result: SimResult) -> None:
        """Install an externally computed simulation result."""
        self._sim_cache[name] = result

    def run(self, profile: WorkloadProfile, freq_hz: float) -> Gem5Stats:
        """Simulate one workload at one frequency; returns the stats dump."""
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        sim = self._sim(profile)
        repeat = HardwarePlatform.repeat_count(profile, self.trace_instructions)
        # Stats aggregate over all simulated CPUs, the way gem5 sums its
        # per-cpu statistics for an N-core system of homogeneous threads.
        scale = repeat * profile.threads
        counts = {key: value * scale for key, value in sim.counts.items()}
        sim_seconds = sim.time_seconds(freq_hz) * repeat
        stats = self._emit(sim, counts, freq_hz, sim_seconds, scale)
        return Gem5Stats(
            workload=profile.name,
            machine_name=self.machine.name,
            freq_hz=freq_hz,
            stats=stats,
            catalog=self.catalog,
        )

    # -------------------------------------------------------------- emission
    def _emit(
        self,
        sim: SimResult,
        c: dict[str, float],
        freq_hz: float,
        sim_seconds: float,
        scale: float,
    ) -> dict[str, float]:
        machine = self.machine
        get = c.get
        stats: dict[str, float] = {
            f"{group}.{stat}": 0.0
            for group, group_stats in GEM5_STAT_GROUPS.items()
            for stat in group_stats
        }
        for name in GLOBAL_STATS:
            stats[name] = 0.0

        instructions = get("instructions", 0.0)
        spec_insts = get("spec_instructions", 0.0)
        wrongpath = get("wrongpath_instructions", 0.0)
        branches = get("branches", 0.0)
        mispredicts = get("branch_mispredicts", 0.0)
        cycles = sim.cycles(freq_hz) * scale
        loads = get("inst_load", 0.0) + get("inst_ldrex", 0.0)
        stores = get("inst_store", 0.0) + get("inst_strex", 0.0)
        spec = spec_insts / max(instructions, 1.0)

        stats["sim_seconds"] = sim_seconds
        stats["sim_ticks"] = sim_seconds * 1e12  # gem5 picosecond ticks
        stats["sim_insts"] = instructions
        stats["sim_ops"] = spec_insts
        stats["host_seconds"] = 0.0

        # --- CPU-level.
        stats["cpu.numCycles"] = cycles
        stats["cpu.idleCycles"] = max(cycles - instructions, 0.0) * 0.25
        stats["cpu.committedInsts"] = instructions
        stats["cpu.committedOps"] = instructions * 1.12  # micro-op expansion
        stats["cpu.cpi"] = cycles / max(instructions, 1.0)
        stats["cpu.ipc"] = instructions / max(cycles, 1.0)
        stats["cpu.int_alu_accesses"] = (
            get("inst_int_alu", 0.0) + get("inst_mul", 0.0) + get("inst_div", 0.0)
        ) * spec
        stats["cpu.fp_alu_accesses"] = (
            get("inst_fp", 0.0) + get("inst_simd", 0.0)
        ) * spec
        stats["cpu.num_mem_refs"] = loads + stores
        stats["cpu.num_load_insts"] = loads
        stats["cpu.num_store_insts"] = stores
        stats["cpu.num_branches_committed"] = branches
        stats["cpu.quiesceCycles"] = 0.0

        # --- commit.
        stats["commit.committedInsts"] = instructions
        stats["commit.committedOps"] = instructions * 1.12
        stats["commit.branchMispredicts"] = mispredicts
        stats["commit.branches"] = branches
        stats["commit.loads"] = loads
        stats["commit.membars"] = get("inst_barrier", 0.0)
        stats["commit.amos"] = get("inst_ldrex", 0.0) + get("inst_strex", 0.0)
        stats["commit.refs"] = loads + stores
        stats["commit.swp_count"] = 0.0
        stats["commit.commitNonSpecStalls"] = (
            get("inst_barrier", 0.0) + get("inst_strex", 0.0)
        )
        stats["commit.commitSquashedInsts"] = wrongpath * 0.8
        stats["commit.int_insts"] = (
            get("inst_int_alu", 0.0) + get("inst_mul", 0.0) + get("inst_div", 0.0)
        )
        if machine.vfp_counted_as_simd:
            # The misclassification of Section V: VFP lands in the SIMD bin.
            stats["commit.fp_insts"] = get("inst_fp", 0.0) * 0.04
            stats["commit.vec_insts"] = get("inst_simd", 0.0) + get("inst_fp", 0.0) * 0.96
        else:
            stats["commit.fp_insts"] = get("inst_fp", 0.0)
            stats["commit.vec_insts"] = get("inst_simd", 0.0)
        stats["commit.function_calls"] = get("calls", 0.0)
        stats["commit.cyclesWithCommittedInsts"] = min(instructions, cycles)
        stats["commit.cyclesWithNoCommittedInsts"] = max(cycles - instructions, 0.0)

        # --- branch prediction.
        cond = get("cond_branches", 0.0)
        stats["branchPred.lookups"] = branches * spec
        stats["branchPred.condPredicted"] = cond
        stats["branchPred.condIncorrect"] = get("cond_mispredicts", 0.0)
        stats["branchPred.BTBLookups"] = branches * spec
        stats["branchPred.BTBHits"] = branches * spec * 0.92
        stats["branchPred.RASUsed"] = get("returns", 0.0)
        stats["branchPred.usedRAS"] = get("returns", 0.0)
        stats["branchPred.RASInCorrect"] = get("ras_incorrect", 0.0)
        stats["branchPred.indirectLookups"] = get("indirect_branches", 0.0)
        stats["branchPred.indirectHits"] = (
            get("indirect_branches", 0.0) - get("indirect_mispredicts", 0.0)
        )
        stats["branchPred.indirectMisses"] = get("indirect_mispredicts", 0.0)
        stats["branchPred.indirectMispredicted"] = get("indirect_mispredicts", 0.0)

        # --- fetch.
        components = {k: v * scale for k, v in sim.components.items()}
        stats["fetch.Insts"] = instructions + wrongpath
        stats["fetch.Branches"] = branches * spec
        stats["fetch.predictedBranches"] = cond * spec
        stats["fetch.Cycles"] = cycles * 0.9
        stats["fetch.SquashCycles"] = components.get("branch", 0.0)
        stats["fetch.TlbCycles"] = components.get("itlb", 0.0)
        stats["fetch.TlbSquashes"] = get("itlb_wrongpath_misses", 0.0)
        stats["fetch.BlockedCycles"] = components.get("dcache", 0.0) * 0.3
        stats["fetch.MiscStallCycles"] = components.get("misc", 0.0)
        stats["fetch.PendingTrapStallCycles"] = get("itlb_wrongpath_misses", 0.0) * 2.0
        stats["fetch.IcacheStallCycles"] = components.get("icache", 0.0)
        stats["fetch.IcacheWaitRetryStallCycles"] = components.get("icache", 0.0) * 0.05
        stats["fetch.CacheLines"] = get("l1i_fetch_accesses", 0.0)
        stats["fetch.rate"] = (instructions + wrongpath) / max(cycles, 1.0)

        # --- decode / rename (coarse but plausible pipeline stats).
        stats["decode.RunCycles"] = cycles * 0.7
        stats["decode.IdleCycles"] = cycles * 0.2
        stats["decode.BlockedCycles"] = cycles * 0.1
        stats["decode.SquashCycles"] = components.get("branch", 0.0) * 0.5
        stats["decode.DecodedInsts"] = instructions + wrongpath
        stats["decode.SquashedInsts"] = wrongpath
        stats["rename.SquashCycles"] = components.get("branch", 0.0) * 0.5
        stats["rename.IdleCycles"] = cycles * 0.2
        stats["rename.BlockCycles"] = cycles * 0.05
        stats["rename.RenamedInsts"] = instructions + wrongpath
        stats["rename.ROBFullEvents"] = components.get("dcache", 0.0) * 0.01
        stats["rename.IQFullEvents"] = components.get("ops", 0.0) * 0.01
        stats["rename.LQFullEvents"] = get("l1d_rd_misses", 0.0) * 0.02
        stats["rename.SQFullEvents"] = get("l1d_wr_misses", 0.0) * 0.02

        # --- IEW (issue/execute/writeback).
        stats["iew.iewExecutedInsts"] = spec_insts
        stats["iew.iewExecLoadInsts"] = loads * spec
        stats["iew.iewExecSquashedInsts"] = wrongpath * 0.6
        stats["iew.exec_branches"] = branches * spec
        stats["iew.exec_stores"] = stores * spec
        stats["iew.exec_nop"] = instructions * 0.01
        stats["iew.exec_rate"] = spec_insts / max(cycles, 1.0)
        stats["iew.iewIQFullEvents"] = stats["rename.IQFullEvents"]
        stats["iew.iewLSQFullEvents"] = stats["rename.LQFullEvents"]
        stats["iew.predictedTakenIncorrect"] = mispredicts * 0.62
        stats["iew.predictedNotTakenIncorrect"] = mispredicts * 0.38
        stats["iew.branchMispredicts"] = mispredicts
        stats["iew.memOrderViolationEvents"] = get("inst_strex", 0.0) * 0.05
        stats["iew.lsqForwLoads"] = loads * 0.04
        stats["iew.blockCycles"] = components.get("dcache", 0.0) * 0.2
        stats["iew.squashCycles"] = components.get("branch", 0.0) * 0.4
        stats["iew.unblockCycles"] = components.get("dcache", 0.0) * 0.02

        # --- instruction TLB: committed-path misses only in itb.misses; the
        # walker cache sees all speculative traffic.
        itlb_lookups = get("itlb_lookups", 0.0)
        itlb_misses = get("itlb_misses", 0.0)
        wp_misses = get("itlb_wrongpath_misses", 0.0)
        stats["itb.accesses"] = itlb_lookups
        stats["itb.hits"] = itlb_lookups - itlb_misses
        stats["itb.misses"] = itlb_misses
        stats["itb.flush_entries"] = 0.0
        stats["itb.inst_accesses"] = itlb_lookups + wp_misses
        stats["itb.inst_hits"] = itlb_lookups - itlb_misses
        stats["itb.inst_misses"] = itlb_misses + wp_misses

        walker_accesses = get("l2tlb_i_accesses", 0.0)
        walker_misses = get("l2tlb_i_misses", 0.0)
        stats["itb_walker_cache.ReadReq_accesses"] = walker_accesses
        stats["itb_walker_cache.ReadReq_hits"] = walker_accesses - walker_misses
        stats["itb_walker_cache.ReadReq_misses"] = walker_misses
        stats["itb_walker_cache.ReadReq_miss_latency"] = (
            walker_misses * machine.tlb.walk_cycles
        )
        stats["itb_walker_cache.overall_accesses"] = walker_accesses
        stats["itb_walker_cache.overall_hits"] = walker_accesses - walker_misses
        stats["itb_walker_cache.overall_misses"] = walker_misses
        stats["itb_walker_cache.overall_miss_rate"] = walker_misses / max(
            walker_accesses, 1.0
        )
        stats["itb_walker_cache.tags.data_accesses"] = walker_accesses * 8.0

        # --- data TLB.
        dtlb_lookups = get("dtlb_lookups", 0.0)
        dtlb_misses = get("dtlb_misses", 0.0)
        load_share = loads / max(loads + stores, 1.0)
        stats["dtb.accesses"] = dtlb_lookups
        stats["dtb.hits"] = dtlb_lookups - dtlb_misses
        stats["dtb.misses"] = dtlb_misses
        stats["dtb.read_accesses"] = dtlb_lookups * load_share
        stats["dtb.read_hits"] = (dtlb_lookups - dtlb_misses) * load_share
        stats["dtb.read_misses"] = dtlb_misses * load_share
        stats["dtb.write_accesses"] = dtlb_lookups * (1.0 - load_share)
        stats["dtb.write_hits"] = (dtlb_lookups - dtlb_misses) * (1.0 - load_share)
        stats["dtb.write_misses"] = dtlb_misses * (1.0 - load_share)
        stats["dtb.prefetch_faults"] = get("dtlb_walks", 0.0) * 0.2
        dwalker = get("l2tlb_d_accesses", 0.0)
        dwalker_misses = get("l2tlb_d_misses", 0.0)
        stats["dtb_walker_cache.ReadReq_accesses"] = dwalker
        stats["dtb_walker_cache.ReadReq_hits"] = dwalker - dwalker_misses
        stats["dtb_walker_cache.ReadReq_misses"] = dwalker_misses
        stats["dtb_walker_cache.overall_accesses"] = dwalker
        stats["dtb_walker_cache.overall_misses"] = dwalker_misses

        # --- caches.  gem5 counts one L1I access per instruction.
        if machine.l1i_access_per_instruction:
            icache_accesses = get("l1i_instr_accesses", 0.0)
        else:
            icache_accesses = get("l1i_fetch_accesses", 0.0)
        icache_misses = get("l1i_misses", 0.0)
        stats["icache.ReadReq_accesses"] = icache_accesses
        stats["icache.ReadReq_hits"] = icache_accesses - icache_misses
        stats["icache.ReadReq_misses"] = icache_misses
        stats["icache.ReadReq_miss_latency"] = icache_misses * machine.l2.latency
        stats["icache.ReadReq_miss_rate"] = icache_misses / max(icache_accesses, 1.0)
        stats["icache.overall_accesses"] = icache_accesses
        stats["icache.overall_hits"] = icache_accesses - icache_misses
        stats["icache.overall_misses"] = icache_misses
        stats["icache.overall_miss_latency"] = icache_misses * machine.l2.latency
        stats["icache.overall_miss_rate"] = stats["icache.ReadReq_miss_rate"]
        stats["icache.overall_mshr_misses"] = icache_misses * 0.9
        stats["icache.overall_mshr_hits"] = icache_misses * 0.1
        stats["icache.replacements"] = icache_misses * 0.95
        stats["icache.tags.data_accesses"] = icache_accesses * 2.0

        d_rd = get("l1d_rd_accesses", 0.0)
        d_wr = get("l1d_wr_accesses", 0.0)
        d_rd_miss = get("l1d_rd_misses", 0.0)
        d_wr_miss = get("l1d_wr_misses", 0.0)
        stats["dcache.ReadReq_accesses"] = d_rd
        stats["dcache.ReadReq_hits"] = d_rd - d_rd_miss
        stats["dcache.ReadReq_misses"] = d_rd_miss
        stats["dcache.ReadReq_miss_latency"] = d_rd_miss * machine.l2.latency
        stats["dcache.WriteReq_accesses"] = d_wr
        stats["dcache.WriteReq_hits"] = d_wr - d_wr_miss
        stats["dcache.WriteReq_misses"] = d_wr_miss
        stats["dcache.WriteReq_miss_latency"] = d_wr_miss * machine.l2.latency
        stats["dcache.overall_accesses"] = d_rd + d_wr
        stats["dcache.overall_hits"] = d_rd + d_wr - d_rd_miss - d_wr_miss
        stats["dcache.overall_misses"] = d_rd_miss + d_wr_miss
        stats["dcache.overall_miss_rate"] = (d_rd_miss + d_wr_miss) / max(
            d_rd + d_wr, 1.0
        )
        stats["dcache.overall_mshr_misses"] = (d_rd_miss + d_wr_miss) * 0.85
        stats["dcache.overall_mshr_hits"] = (d_rd_miss + d_wr_miss) * 0.15
        stats["dcache.writebacks"] = get("l1d_writebacks", 0.0)
        stats["dcache.replacements"] = (d_rd_miss + d_wr_miss) * 0.95
        stats["dcache.UncacheableLatency_cpu_data"] = get("inst_strex", 0.0) * 10.0
        stats["dcache.blocked_cycles_no_mshrs"] = (d_rd_miss + d_wr_miss) * 0.3

        l2_rd = get("l2_rd_accesses", 0.0)
        l2_wr = get("l2_wr_accesses", 0.0)
        l2_rd_miss = get("l2_rd_misses", 0.0)
        l2_wr_miss = get("l2_wr_misses", 0.0)
        l2_misses = l2_rd_miss + l2_wr_miss
        stats["l2.ReadReq_accesses"] = l2_rd * 0.6
        stats["l2.ReadReq_hits"] = (l2_rd - l2_rd_miss) * 0.6
        stats["l2.ReadReq_misses"] = l2_rd_miss * 0.6
        stats["l2.ReadExReq_accesses"] = d_wr_miss
        stats["l2.ReadExReq_hits"] = max(d_wr_miss - l2_wr_miss, 0.0)
        stats["l2.ReadExReq_misses"] = l2_wr_miss
        stats["l2.ReadSharedReq_accesses"] = l2_rd * 0.4
        stats["l2.ReadSharedReq_hits"] = (l2_rd - l2_rd_miss) * 0.4
        stats["l2.WritebackDirty_accesses"] = get("l1d_writebacks", 0.0)
        stats["l2.WritebackClean_accesses"] = get("l1d_streaming_stores", 0.0)
        stats["l2.overall_accesses"] = l2_rd + l2_wr
        stats["l2.overall_hits"] = l2_rd + l2_wr - l2_misses
        stats["l2.overall_misses"] = l2_misses
        stats["l2.overall_miss_rate"] = l2_misses / max(l2_rd + l2_wr, 1.0)
        stats["l2.overall_miss_latency"] = (
            l2_misses * machine.dram_latency_ns * freq_hz * 1e-9
        )
        stats["l2.overall_mshr_misses"] = l2_misses * 0.9
        stats["l2.overall_avg_miss_latency"] = (
            machine.dram_latency_ns * freq_hz * 1e-9
        )
        stats["l2.writebacks"] = get("l2_writebacks", 0.0)
        stats["l2.replacements"] = l2_misses * 0.9
        stats["l2.prefetcher.num_hwpf_issued"] = get("l2_prefetches", 0.0)
        stats["l2.prefetcher.pfIssued"] = get("l2_prefetches", 0.0)

        # --- memory controller.
        dram_reads = get("dram_reads", 0.0)
        dram_writes = get("dram_writes", 0.0)
        stats["mem_ctrls.readReqs"] = dram_reads
        stats["mem_ctrls.writeReqs"] = dram_writes
        stats["mem_ctrls.totBusLat"] = (dram_reads + dram_writes) * machine.dram_latency_ns
        stats["mem_ctrls.avgRdQLen"] = min(dram_reads / max(cycles, 1.0) * 40.0, 16.0)
        stats["mem_ctrls.avgWrQLen"] = min(dram_writes / max(cycles, 1.0) * 40.0, 16.0)
        stats["mem_ctrls.bw_total"] = (
            (dram_reads + dram_writes) * 64.0 / max(sim_seconds, 1e-18)
        )

        return stats

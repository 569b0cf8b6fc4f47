"""Replay-profiler overhead: traced+profiled vs untraced columnar replay.

The deterministic replay profiler (:mod:`repro.obs.prof`) adds one
``replay-profile`` event per columnar simulation, whose attribution is a
pure function of the already-computed ``SimResult.components`` — so its
cost is a dict walk and one trace event, never a second pass over the
trace.  The contract (ISSUE PR 10) is that a fully traced and profiled
replay stays within 5% of the untraced replay, and that the attribution
covers at least 95% of simulated core cycles (it covers 100% by
construction: every component term is claimed by exactly one pass).

Repetitions interleave the two configurations and take the minimum of
each to shed scheduler noise.  Results go to ``BENCH_prof.json`` at the
repo root; ``gate_enforced`` records that the assertions ran
unconditionally (the budget needs no multi-core host, so ``cpu_gated``
is false).
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import paper_row, print_header
from repro.obs.prof import profile_records
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.cpu import simulate
from repro.sim.machine import gem5_ex5_big
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace

TRACE_INSTRUCTIONS = 20_000
WORKLOAD = "mi-sha"
CALLS_PER_REP = 6
REPS = 5
OVERHEAD_BUDGET = 0.05
COVERAGE_FLOOR = 0.95

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_prof.json"
)


def _time_replays(trace, machine, tracer) -> float:
    started = time.perf_counter()
    for _ in range(CALLS_PER_REP):
        simulate(trace, machine, tracer=tracer)
    return time.perf_counter() - started


def test_bench_profiler_overhead():
    trace = compile_trace(workload_by_name(WORKLOAD), TRACE_INSTRUCTIONS)
    machine = gem5_ex5_big()

    # Warm every code path (imports, first-call caches) before timing.
    _time_replays(trace, machine, NULL_TRACER)
    _time_replays(trace, machine, Tracer(enabled=True))

    untraced, profiled = [], []
    for _ in range(REPS):
        untraced.append(_time_replays(trace, machine, NULL_TRACER))
        profiled.append(
            _time_replays(trace, machine, Tracer(enabled=True))
        )
    untraced_s, profiled_s = min(untraced), min(profiled)
    overhead = profiled_s / untraced_s - 1.0

    # Coverage gate on a real profiled run (not the timed loops).
    tracer = Tracer(enabled=True)
    result = simulate(trace, machine, tracer=tracer)
    profile = profile_records(tracer.records)
    assert profile["core_cycles"] == result.core_cycles

    print_header("Replay profiler overhead: columnar hot path")
    print(
        paper_row(
            f"untraced replay, {TRACE_INSTRUCTIONS // 1000}k instrs",
            "n/a",
            f"{untraced_s / CALLS_PER_REP * 1e6:,.0f} us/call",
        )
    )
    print(
        paper_row(
            "traced + profiled replay",
            "n/a",
            f"{profiled_s / CALLS_PER_REP * 1e6:,.0f} us/call",
        )
    )
    print(
        paper_row(
            "profiler overhead",
            f"<{OVERHEAD_BUDGET * 100:.0f}%",
            f"{overhead * 100:.2f}%",
        )
    )
    print(
        paper_row(
            "cycle attribution coverage",
            f">={COVERAGE_FLOOR * 100:.0f}%",
            f"{profile['coverage'] * 100:.1f}%",
        )
    )

    payload = {
        "bench": "profiler_overhead",
        "workload": WORKLOAD,
        "trace_instructions": TRACE_INSTRUCTIONS,
        "calls_per_rep": CALLS_PER_REP,
        "reps": REPS,
        "untraced_seconds_per_call": untraced_s / CALLS_PER_REP,
        "profiled_seconds_per_call": profiled_s / CALLS_PER_REP,
        "overhead_fraction": overhead,
        "budget_fraction": OVERHEAD_BUDGET,
        "coverage": profile["coverage"],
        "coverage_floor": COVERAGE_FLOOR,
        "cpu_gated": False,
        "gate_enforced": True,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert profile["coverage"] >= COVERAGE_FLOOR
    assert overhead < OVERHEAD_BUDGET

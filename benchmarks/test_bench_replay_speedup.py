"""Columnar replay speedup: scalar oracle vs columnar, one config vs DVFS sweep.

The columnar engine (ISSUE PR 6) decodes a trace once into
struct-of-arrays batches and replays it as vectorized passes, with
verified memos on the decoded form making repeat replays of the same
trace nearly free.  This benchmark measures both regimes on four
representative (workload, machine) pairs at the production trace length:

* **cold**: the first-ever replay of a trace — pays decode, the
  streaming fixpoint and memo construction;
* **steady**: replays through a reused :class:`CpuSimulator` — the
  one-trace-many-configs / DVFS-sweep regime the engine targets.

The scalar baseline is the test-oracle reference loop,
:func:`~repro.sim.cpu.simulate_reference`.

Asserted floors (the ISSUE's acceptance criteria):

* steady-state columnar replay is >=4x faster than scalar on every pair
  (the target, usually met, is >=10x);
* a decode-once DVFS sweep replays *all four* operating points in <2x
  the cost of a single cold replay (measured on distinct trace seeds so
  both timings start from an undecoded trace).

Results are emitted machine-readably to ``BENCH_replay.json`` at the
repo root so the trajectory can be tracked across PRs.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import paper_row, print_header
from repro.sim.cpu import (
    CpuSimulator,
    simulate,
    simulate_dvfs_sweep,
    simulate_reference,
)
from repro.sim.machine import machine_by_name
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace

TRACE_INSTRUCTIONS = 60_000
PAIRS = (
    ("mi-qsort", "hw-a15"),
    ("parsec-canneal-1", "gem5-ex5-big"),
    ("mi-dijkstra", "hw-a7"),
    ("parsec-fluidanimate-4", "gem5-ex5-little"),
)
SCALAR_REPS = 2
COLUMNAR_REPS = 8
SPEEDUP_FLOOR = 4.0
SPEEDUP_TARGET = 10.0
SWEEP_BUDGET = 2.0

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_replay.json"
)


def _steady_seconds(replay, trace, reps: int) -> float:
    """Per-replay wall seconds of ``replay(trace)`` after one warm call."""
    replay(trace)  # warm state, decode and memos outside the timing
    started = time.perf_counter()
    for _ in range(reps):
        replay(trace)
    return (time.perf_counter() - started) / reps


def _bench_pair(workload: str, machine_name: str) -> dict:
    machine = machine_by_name(machine_name)
    profile = workload_by_name(workload)
    # Distinct seeds: each cold timing must start from an undecoded
    # trace, and the process-wide decode memo is keyed by trace identity.
    trace_single = compile_trace(profile, TRACE_INSTRUCTIONS, seed=101)
    trace_sweep = compile_trace(profile, TRACE_INSTRUCTIONS, seed=202)

    started = time.perf_counter()
    simulate(trace_single, machine)
    cold_single = time.perf_counter() - started

    started = time.perf_counter()
    points = simulate_dvfs_sweep(trace_sweep, machine)
    cold_sweep = time.perf_counter() - started

    scalar = _steady_seconds(
        lambda trace: simulate_reference(trace, machine),
        trace_single,
        SCALAR_REPS,
    )
    columnar = _steady_seconds(
        CpuSimulator(machine).run, trace_single, COLUMNAR_REPS
    )

    return {
        "workload": workload,
        "machine": machine_name,
        "scalar_seconds": scalar,
        "columnar_cold_seconds": cold_single,
        "columnar_steady_seconds": columnar,
        "speedup_cold": scalar / cold_single,
        "speedup_steady": scalar / columnar,
        "dvfs_points": len(points),
        "sweep_cold_seconds": cold_sweep,
        "sweep_vs_single_cold": cold_sweep / cold_single,
    }


@pytest.mark.bench_replay
def test_bench_replay_speedup():
    rows = [_bench_pair(workload, machine) for workload, machine in PAIRS]

    print_header("Columnar replay: scalar vs columnar, 60k-instr traces")
    for row in rows:
        label = f"{row['workload']}|{row['machine']}"
        print(
            paper_row(
                label,
                f">={SPEEDUP_FLOOR:.0f}x (target {SPEEDUP_TARGET:.0f}x)",
                f"{row['scalar_seconds'] * 1e3:.1f}ms scalar -> "
                f"{row['columnar_steady_seconds'] * 1e3:.1f}ms steady "
                f"= {row['speedup_steady']:.1f}x "
                f"({row['speedup_cold']:.1f}x cold)",
            )
        )
        print(
            paper_row(
                f"  {row['dvfs_points']}-point DVFS sweep, decode-once",
                f"<{SWEEP_BUDGET:.0f}x single replay",
                f"{row['sweep_cold_seconds'] * 1e3:.1f}ms "
                f"= {row['sweep_vs_single_cold']:.2f}x",
            )
        )

    payload = {
        "bench": "replay_speedup",
        "trace_instructions": TRACE_INSTRUCTIONS,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_target": SPEEDUP_TARGET,
        "sweep_budget": SWEEP_BUDGET,
        "min_speedup_steady": min(r["speedup_steady"] for r in rows),
        "max_sweep_vs_single_cold": max(
            r["sweep_vs_single_cold"] for r in rows
        ),
        "pairs": rows,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for row in rows:
        label = f"{row['workload']}|{row['machine']}"
        assert row["speedup_steady"] >= SPEEDUP_FLOOR, label
        assert row["sweep_vs_single_cold"] < SWEEP_BUDGET, label

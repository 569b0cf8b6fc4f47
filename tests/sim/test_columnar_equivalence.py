"""Randomized engine-vs-oracle equivalence and simulator-reuse tests.

The columnar replay engine must be *bit-identical* to the scalar reference
loop (:func:`~repro.sim.cpu.simulate_reference`) — not approximately
equal — for every trace and machine.  The golden suite
pins a handful of exact values; this module sweeps the space: ~50 seeded
randomized traces (workload profile, thread count, trace seed and length
all drawn from one fixed-seed RNG) crossed with randomized machine
configurations (all four hardware/gem5 configs, both branch predictors).

It also pins the :class:`CpuSimulator` reuse contract: running through a
reset-and-reused simulator is bit-identical to cold construction, and a
repeat replay of the same trace (which exercises the verified memos on
the decoded columnar form) is bit-identical to the first.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.sim.cpu import (
    CpuSimulator,
    simulate,
    simulate_dvfs_sweep,
    simulate_reference,
)
from repro.sim.machine import machine_by_name
from repro.workloads.suites import all_workloads
from repro.workloads.trace import compile_trace

MACHINE_NAMES = ("hw-a15", "gem5-ex5-big", "hw-a7", "gem5-ex5-little")
PREDICTORS = ("tournament", "buggy_tournament")
N_CASES = 50


def _assert_bit_identical(a, b) -> None:
    """Full SimResult equality — floats compared with ``==``."""
    assert set(a.counts) == set(b.counts)
    for name in a.counts:
        assert a.counts[name] == b.counts[name], name
    assert a.core_cycles == b.core_cycles
    assert a.dram_stall_weight == b.dram_stall_weight
    assert a.components == b.components
    assert a.sync_factor == b.sync_factor
    assert a.threads == b.threads


def _cases():
    """~50 seeded random (profile, n_instrs, seed, machine) draws."""
    rng = random.Random(0x5EED_2026)
    profiles = list(all_workloads())
    cases = []
    for i in range(N_CASES):
        profile = dataclasses.replace(
            rng.choice(profiles), threads=rng.choice((1, 2, 4))
        )
        machine = dataclasses.replace(
            machine_by_name(rng.choice(MACHINE_NAMES)),
            predictor=rng.choice(PREDICTORS),
        )
        cases.append(
            pytest.param(
                profile,
                rng.randint(4_000, 8_000),  # n_instrs
                rng.randint(0, 2**31),  # trace seed
                machine,
                id=f"{i:02d}-{profile.name}-t{profile.threads}"
                f"-{machine.name}-{machine.predictor}",
            )
        )
    return cases


@pytest.mark.parametrize(
    ("profile", "n_instrs", "seed", "machine"), _cases()
)
def test_columnar_matches_scalar(profile, n_instrs, seed, machine):
    trace = compile_trace(profile, n_instrs, seed=seed)
    scalar = simulate_reference(trace, machine)
    columnar = simulate(trace, machine)
    _assert_bit_identical(scalar, columnar)

    # A repeat replay hits the verified memos on the decoded columnar
    # form; it must reproduce the first run exactly.
    again = simulate(trace, machine)
    _assert_bit_identical(columnar, again)


def test_simulator_reuse_bit_identical_to_cold():
    """Satellite contract: reset-and-reuse == cold construction."""
    machine_a = machine_by_name("hw-a15")
    machine_b = machine_by_name("gem5-ex5-big")
    profiles = list(all_workloads())
    trace_a = compile_trace(profiles[3], 6_000)
    trace_b = compile_trace(profiles[11], 6_000)

    reused = CpuSimulator(machine_a)
    warm_a = reused.run(trace_a)  # populates state
    warm_b = reused.run(trace_b)  # reset() + reuse
    warm_a2 = reused.run(trace_a)  # reset() + reuse, same trace again

    _assert_bit_identical(warm_a, CpuSimulator(machine_a).run(trace_a))
    _assert_bit_identical(warm_b, CpuSimulator(machine_a).run(trace_b))
    _assert_bit_identical(warm_a, simulate_reference(trace_a, machine_a))
    _assert_bit_identical(warm_a, warm_a2)

    # One trace, many configs: a different simulator sharing the decoded
    # trace must agree with a cold run on its own machine.
    swept = CpuSimulator(machine_b).run(trace_a)
    _assert_bit_identical(swept, simulate(trace_a, machine_b))


@pytest.mark.parametrize("machine_name", ["hw-a7", "hw-a15"])
def test_dvfs_sweep_matches_single_replays(machine_name):
    """Decode-once sweep points equal independent per-point replays."""
    machine = machine_by_name(machine_name)
    trace = compile_trace(list(all_workloads())[7], 6_000)
    points = simulate_dvfs_sweep(trace, machine)
    assert len(points) == 4  # the paper's per-cluster sweep
    reference = simulate_reference(trace, machine)
    for point in points:
        _assert_bit_identical(point.result, reference)
        assert point.time_seconds == reference.time_seconds(point.freq_hz)
        assert point.cycles == reference.cycles(point.freq_hz)

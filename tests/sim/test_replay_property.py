"""Property test: the columnar engine is bit-identical to the scalar oracle.

The runtime replays every job once, through the columnar engine only.
This suite is where the engine is checked against the per-block reference
loop (:func:`~repro.sim.cpu.simulate_reference`): hypothesis draws workload
profiles — data-stream spans and strides, the locality and branch mixes,
thread count — and machine variants (all four machine configurations,
both branch predictors) at short trace lengths, and every draw must replay
to exactly the same :class:`~repro.sim.cpu.SimResult`.

Draws are derandomized so the suite is reproducible run to run; the
randomized 50-case sweep in ``test_columnar_equivalence.py`` and the golden
values in ``test_cpu_golden.py`` cover the stock workload profiles.
"""

from __future__ import annotations

import dataclasses
import zlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.cpu import simulate, simulate_reference
from repro.sim.machine import machine_by_name
from repro.workloads.profile import WorkloadProfile
from repro.workloads.trace import compile_trace

MACHINE_NAMES = ("hw-a15", "gem5-ex5-big", "hw-a7", "gem5-ex5-little")
PREDICTORS = ("tournament", "buggy_tournament")


def _parts(draw, n: int, total: int) -> list[float]:
    """``n`` non-negative fractions in steps of 1/total, summing to 1."""
    cuts = sorted(draw(st.integers(0, total)) for _ in range(n - 1))
    edges = [0, *cuts, total]
    return [(hi - lo) / total for lo, hi in zip(edges, edges[1:])]


@st.composite
def profiles(draw) -> WorkloadProfile:
    seq, stride, rand = _parts(draw, 3, 20)
    loop, pattern, biased, random_ = _parts(draw, 4, 20)
    profile = WorkloadProfile(
        name="property",
        suite="property",
        threads=draw(st.sampled_from((1, 2, 4))),
        frac_load=draw(st.sampled_from((0.05, 0.2, 0.35))),
        frac_store=draw(st.sampled_from((0.0, 0.08, 0.15))),
        frac_branch=draw(st.sampled_from((0.05, 0.16, 0.25))),
        loop_branch_frac=loop,
        pattern_branch_frac=pattern,
        biased_branch_frac=biased,
        random_branch_frac=random_,
        branch_bias=draw(st.sampled_from((0.6, 0.93, 1.0))),
        pattern_period=draw(st.integers(2, 8)),
        indirect_frac=draw(st.sampled_from((0.0, 0.02, 0.2))),
        return_frac=draw(st.sampled_from((0.0, 0.06, 0.2))),
        loop_trip_mean=draw(st.sampled_from((2.0, 12.0, 100.0))),
        n_functions=draw(st.integers(1, 40)),
        code_kb=draw(st.sampled_from((4.0, 32.0, 96.0, 512.0))),
        data_kb=draw(st.sampled_from((4.0, 32.0, 256.0, 2048.0, 16384.0))),
        frac_seq=seq,
        frac_stride=stride,
        frac_rand=rand,
        stride_b=draw(st.sampled_from((4, 8, 64, 128, 4096))),
        frac_unaligned=draw(st.sampled_from((0.0, 0.05))),
    )
    # Decodes are memoised process-wide by trace identity (name, seed,
    # length), so every distinct profile needs a distinct name.
    digest = zlib.crc32(repr(profile).encode())
    return dataclasses.replace(profile, name=f"property-{digest:08x}")


@st.composite
def machines(draw):
    return dataclasses.replace(
        machine_by_name(draw(st.sampled_from(MACHINE_NAMES))),
        predictor=draw(st.sampled_from(PREDICTORS)),
    )


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    profile=profiles(),
    machine=machines(),
    n_instrs=st.integers(1_500, 6_000),
    seed=st.integers(0, 2**31),
)
def test_engine_matches_reference_loop(profile, machine, n_instrs, seed):
    trace = compile_trace(profile, n_instrs, seed=seed)
    reference = simulate_reference(trace, machine)
    result = simulate(trace, machine)
    assert result.counts == reference.counts
    assert result.core_cycles == reference.core_cycles
    assert result.dram_stall_weight == reference.dram_stall_weight
    assert result.components == reference.components
    assert result.threads == reference.threads
    assert result.sync_factor == reference.sync_factor

"""Golden-value regression tests for the CPU simulator.

``golden_simulate.json`` pins the exact :func:`simulate` outputs for
(trace, machine) pairs covering both cores' hardware and gem5 machine
configs; the first two cases were captured before the vectorized replay
fast paths landed, and every case's values were captured with the scalar
reference loop (now :func:`~repro.sim.cpu.simulate_reference`).  Every optimisation of the hot loop, the pre-warm stage or the
micro-architectural components must keep these values *bit-identical* —
floats are compared with ``==``, not a tolerance, which is exact because
JSON round-trips Python floats losslessly (repr shortest-roundtrip).

Each case also pins a ``dvfs`` section: ``time_seconds``/``cycles`` at
every frequency of the paper's per-cluster DVFS sweep, asserting that the
frequency-analytic timing stays exact at each operating point.

If a deliberate modelling change alters simulation semantics, regenerate
the file (and bump ``CACHE_SCHEMA_VERSION`` in ``repro.sim.result_cache``)
rather than loosening these assertions.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.cpu import simulate
from repro.sim.machine import machine_by_name
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace

GOLDEN_PATH = Path(__file__).parent / "golden_simulate.json"


def _golden_cases():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    return sorted(golden.items())


@pytest.mark.parametrize(("key", "expected"), _golden_cases())
class TestGoldenSimulate:
    @pytest.fixture()
    def result(self, key, expected):
        workload, machine_name = key.split("|")
        trace = compile_trace(workload_by_name(workload), expected["n_instrs"])
        return simulate(trace, machine_by_name(machine_name))

    def test_counts_bit_identical(self, result, key, expected):
        assert set(result.counts) == set(expected["counts"])
        for name, value in expected["counts"].items():
            assert result.counts[name] == value, name

    def test_cycles_bit_identical(self, result, key, expected):
        assert result.core_cycles == expected["core_cycles"]
        assert result.dram_stall_weight == expected["dram_stall_weight"]

    def test_components_bit_identical(self, result, key, expected):
        assert result.components == expected["components"]

    def test_dvfs_points_bit_identical(self, result, key, expected):
        if "dvfs" not in expected:
            pytest.skip("case predates the DVFS golden section")
        for mhz, point in expected["dvfs"].items():
            freq_hz = float(mhz) * 1e6
            assert result.time_seconds(freq_hz) == point["time_seconds"], mhz
            assert result.cycles(freq_hz) == point["cycles"], mhz

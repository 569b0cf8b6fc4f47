"""One replay engine at run time.

Every run replays through the columnar engine; the scalar per-block loop
(:func:`~repro.sim.cpu.simulate_reference`) is a test oracle only.  These
tests pin that contract end to end: serial and pooled reports and a
sharded campaign complete with the oracle made unreachable, a report is
byte-stable run to run including its telemetry sections, and the CLI
rejects the removed engine and guard-level knobs.
"""

from __future__ import annotations

import pytest

import repro.sim.cpu as cpu
from repro.cli import main
from repro.core.pipeline import GemStone, GemStoneConfig
from repro.core.report import render_full_report
from repro.sim.campaign import run_campaign
from repro.workloads.suites import workload_by_name

N_INSTRS = 4_000
WORKLOADS = ("mi-bitcount", "mi-sha", "dhrystone")


def _config(**overrides) -> GemStoneConfig:
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


@pytest.fixture
def oracle_unreachable(monkeypatch):
    """Make every entry into the scalar reference loop raise.

    Pool workers and campaign shards are forked from this process, so
    they inherit the patch.
    """

    def unreachable(*args, **kwargs):
        raise AssertionError("the scalar reference loop ran at run time")

    for name in ("simulate_reference", "_prewarm"):
        monkeypatch.setattr(cpu, name, unreachable)


class TestOracleNeverRuns:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_completes_without_the_oracle(
        self, oracle_unreachable, jobs
    ):
        gs = GemStone(_config(jobs=jobs))
        assert gs.report()
        assert gs.health.failed == 0
        assert gs.health.guard_events == []
        assert gs.executor.telemetry.jobs_failed == 0

    def test_campaign_completes_without_the_oracle(
        self, oracle_unreachable, tmp_path
    ):
        result = run_campaign(_config(), str(tmp_path / "board"), shards=2)
        assert not result.degraded
        assert result.poisoned == ()
        assert result.status["done"] == result.status["total"]
        assert result.gemstone.report()


class TestByteStableReports:
    def test_repeat_runs_render_identical_telemetry(self):
        first = render_full_report(GemStone(_config()), include_telemetry=True)
        second = render_full_report(GemStone(_config()), include_telemetry=True)
        assert "Simulation executor telemetry" in first
        assert "Guardrails" in first
        assert "wall-clock" not in first
        assert first == second


class TestRemovedKnobs:
    @pytest.mark.parametrize(
        "flag",
        [["--engine", "scalar"], ["--guard-level", "off"]],
        ids=["engine", "guard-level"],
    )
    def test_cli_rejects_removed_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("knob", ["engine", "guard_level"])
    def test_config_rejects_removed_knobs(self, knob):
        with pytest.raises(TypeError):
            GemStoneConfig(**{knob: "scalar"})

"""The GemStone facade: characterise -> simulate -> analyse -> report.

``GemStone`` wires the whole paper together for one CPU cluster: it owns the
hardware platform and gem5 simulation, collates the validation dataset,
and lazily computes each analysis product (workload clusters, correlation
analyses, stepwise regressions, event comparison, power model, power/energy
comparison, DVFS scaling).  Everything is memoised, so a full report costs
one simulation pass per (workload, machine).

>>> gs = GemStone(GemStoneConfig(core="A15"))
>>> gs.dataset.time_mpe(1.0e9)   # headline execution-time MPE at 1 GHz
>>> print(gs.report())           # the full text report
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.core.energy import (
    BigLittleComparison,
    DvfsScaling,
    PowerEnergyComparison,
    big_little_scaling,
    compare_power_energy,
    dvfs_scaling,
)
from repro.core.error_id import (
    ErrorRegression,
    WorkloadClusterAnalysis,
    cluster_workloads,
    error_regression,
    gem5_error_correlation,
    pmc_error_correlation,
)
from repro.core.event_compare import EventComparison, compare_events
from repro.core.power_model import (
    PowerModel,
    PowerModelApplication,
    PowerModelBuilder,
    PowerObservation,
    collect_power_dataset,
    restraint_pool_gem5,
)
from repro.core.runstate import RunManifest, RunState
from repro.obs.exporters import (
    CHROME_FILE,
    EVENTS_FILE,
    METRICS_FILE,
    write_chrome_trace,
    write_prometheus_snapshot,
)
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.core.stats.correlate import CorrelationResult
from repro.core.validation import (
    CollectionHealth,
    DegradedFit,
    ValidationDataset,
    collect_validation_dataset,
)
from repro.sim.dvfs import experiment_frequencies
from repro.sim.executor import RetryPolicy, SimExecutor
from repro.sim.faults import FaultPlan
from repro.sim.gem5 import Gem5Simulation
from repro.sim.machine import (
    MachineConfig,
    gem5_ex5_big,
    gem5_ex5_little,
    machine_by_name,
)
from repro.sim.platform import HardwarePlatform
from repro.sim.result_cache import ShardedResultStore
from repro.workloads.profile import WorkloadProfile
from repro.workloads.suites import power_modelling_workloads, validation_workloads

logger = get_logger(__name__)


@dataclass(frozen=True)
class GemStoneConfig:
    """Configuration of one GemStone evaluation run.

    Attributes:
        core: CPU cluster to validate (``"A7"`` or ``"A15"``).
        gem5_machine: gem5 model config (or its name); defaults to the
            pre-fix ``ex5_big`` / ``ex5_LITTLE`` model for the chosen core.
        workloads: Validation workloads (Experiment 1); defaults to the
            paper's 45-workload set.
        power_workloads: Power-model training workloads (Experiments 3/4);
            defaults to the full 65-workload set.
        frequencies: DVFS sweep; defaults to the paper's per-cluster sweep.
        analysis_freq_hz: Frequency for the single-frequency analyses
            (Figs. 3, 5, 6 are shown at 1 GHz in the paper).
        trace_instructions: Trace length per workload.
        n_workload_clusters: Flat clusters for the workload HCA.
        power_model_terms: Maximum events in the power model.
        gem5_restrained_power_model: Restrict power-model event selection to
            events with reliable gem5 equivalents (Section V's final model).
        jobs: Simulation worker processes.  ``1`` (the default) simulates
            serially in-process; ``None`` uses every core; >1 fans the
            (workload x machine) jobs across a process pool.  Results are
            bit-identical regardless of the setting.
        retry: Per-job :class:`~repro.sim.executor.RetryPolicy` (bounded,
            deterministic exponential backoff); ``None`` uses the default.
        sim_timeout_seconds: Per-job timeout for pooled simulations; a job
            exceeding it is rerun serially in the parent.
        faults: Optional :class:`~repro.sim.faults.FaultPlan` injected into
            the executor, cache and platform (chaos testing only).
        checkpoint_dir: Directory for the crash-safe run state (journal +
            per-phase checkpoints, see :mod:`repro.core.runstate`); ``None``
            disables checkpointing.
        resume: Restore completed phases from ``checkpoint_dir`` instead of
            recomputing them.  Checkpoints are bound to a fingerprint of
            the resolved config — a directory written under a different
            configuration is quarantined and fully recomputed.
        trace: Enable in-memory span tracing (see :mod:`repro.obs`).
            Off by default; tracing never affects results, and like the
            execution knobs it is excluded from the run fingerprint.
        trace_dir: Stream trace records to ``<trace_dir>/events.jsonl`` as
            they close (implies ``trace``); :meth:`GemStone.export_trace`
            writes the Chrome-trace and metrics snapshots there too.
        board_dir: Attach to a distributed campaign board
            (:mod:`repro.sim.campaign`): the executor reads and writes the
            board's shared content-addressed result store instead of a
            private ``cache_dir``.  Results are bit-identical either way,
            so this too is an execution knob excluded from the run
            fingerprint.

    Raises:
        ValueError: Immediately on construction for an unknown ``core``.
    """

    core: str = "A15"
    gem5_machine: str | MachineConfig | None = None
    workloads: tuple[WorkloadProfile, ...] | None = None
    power_workloads: tuple[WorkloadProfile, ...] | None = None
    frequencies: tuple[float, ...] | None = None
    analysis_freq_hz: float = 1.0e9
    trace_instructions: int = 60_000
    n_workload_clusters: int = 16
    power_model_terms: int = 7
    gem5_restrained_power_model: bool = True
    cache_dir: str | None = None
    jobs: int | None = 1
    retry: RetryPolicy | None = None
    sim_timeout_seconds: float | None = None
    faults: FaultPlan | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    trace: bool = False
    trace_dir: str | None = None
    board_dir: str | None = None

    def __post_init__(self) -> None:
        # Fail at construction, not deep inside resolve_machine/platform
        # setup after minutes of work.
        if self.core not in ("A7", "A15"):
            raise ValueError(
                f"core must be 'A7' or 'A15', got {self.core!r}"
            )

    def resolve_machine(self) -> MachineConfig:
        """The gem5 model config this run validates."""
        machine = self.gem5_machine
        if machine is None:
            return gem5_ex5_big() if self.core == "A15" else gem5_ex5_little()
        if isinstance(machine, str):
            return machine_by_name(machine)
        return machine

    def resolve_workloads(self) -> tuple[WorkloadProfile, ...]:
        if self.workloads is not None:
            return self.workloads
        return tuple(validation_workloads())

    def resolve_power_workloads(self) -> tuple[WorkloadProfile, ...]:
        if self.power_workloads is not None:
            return self.power_workloads
        return tuple(power_modelling_workloads())

    def resolve_frequencies(self) -> tuple[float, ...]:
        if self.frequencies is not None:
            return self.frequencies
        return tuple(experiment_frequencies(self.core))


class GemStone:
    """One GemStone evaluation of a gem5 model against reference hardware."""

    def __init__(self, config: GemStoneConfig | None = None):
        self.config = config if config is not None else GemStoneConfig()
        machine = self.config.resolve_machine()
        if machine.core != self.config.core:
            raise ValueError(
                f"gem5 model {machine.name} models a {machine.core}, "
                f"but the config targets the {self.config.core}"
            )
        # One registry and one tracer span the whole run: the executor,
        # the result cache and the run state all account into them, and
        # export_trace() snapshots them out-of-band of any report.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            enabled=bool(self.config.trace or self.config.trace_dir),
            stream_path=(
                os.path.join(self.config.trace_dir, EVENTS_FILE)
                if self.config.trace_dir is not None
                else None
            ),
            metrics=self.metrics,
        )
        # One executor serves both simulators: (workload x machine) jobs from
        # the hardware platform and the gem5 model share its dedup, disk
        # cache, retry policy and telemetry, and dataset collection batches
        # through it.
        campaign_store = None
        if self.config.board_dir is not None:
            campaign_store = ShardedResultStore(
                os.path.join(self.config.board_dir, "results"),
                faults=self.config.faults,
                metrics=self.metrics,
            )
        self.executor = SimExecutor(
            jobs=self.config.jobs,
            cache_dir=self.config.cache_dir,
            cache=campaign_store,
            retry=self.config.retry,
            timeout_seconds=self.config.sim_timeout_seconds,
            faults=self.config.faults,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        # One health record spans the validation and power campaigns; the
        # report surfaces it whenever anything was lost.
        self.health = CollectionHealth()
        # Set by run_campaign() on a collation run: deterministic campaign
        # section data (job counts + auto-tune hint) for the report.
        self.campaign: dict | None = None
        self.platform = HardwarePlatform(
            self.config.core,
            trace_instructions=self.config.trace_instructions,
            cache_dir=self.config.cache_dir,
            executor=self.executor,
            faults=self.config.faults,
        )
        self.gem5 = Gem5Simulation(
            machine,
            trace_instructions=self.config.trace_instructions,
            cache_dir=self.config.cache_dir,
            executor=self.executor,
        )
        # Optional crash-safe run state: every memoised product below is
        # checkpointed as its phase completes, and restored on --resume.
        self.runstate: RunState | None = None
        if self.config.checkpoint_dir is not None:
            self.runstate = RunState(
                self.config.checkpoint_dir,
                RunManifest.from_config(self.config),
                resume=self.config.resume,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        self._dataset: ValidationDataset | None = None
        self._power_dataset: list[PowerObservation] | None = None
        self._workload_clusters: WorkloadClusterAnalysis | None = None
        self._pmc_correlation: CorrelationResult | None = None
        self._gem5_correlation: CorrelationResult | None = None
        self._regressions: dict[str, ErrorRegression] = {}
        self._event_comparison: EventComparison | None = None
        self._power_model: PowerModel | None = None
        self._application: PowerModelApplication | None = None
        self._power_energy: PowerEnergyComparison | None = None
        self._dvfs: DvfsScaling | None = None

    # ----------------------------------------------------------- checkpointing
    def _materialise(self, phase, compute, track_health: bool = False):
        """Restore a phase's product from the run state, or compute it.

        The checkpoint payload pairs the product with a snapshot of the
        shared :class:`CollectionHealth` record for the collection phases,
        so a resumed run renders the identical health section without
        re-collecting anything.
        """
        with self.tracer.span(f"phase:{phase}", kind="phase") as phase_span:
            if self.runstate is not None:
                restored = self.runstate.restore(phase)
                if restored is not None:
                    if track_health and restored.get("health") is not None:
                        self.health.adopt(restored["health"])
                    phase_span.set(restored=True)
                    self.metrics.counter("pipeline.phases_restored").inc()
                    logger.info("phase %s: restored from checkpoint", phase)
                    return restored["product"]
            logger.info("phase %s: computing", phase)
            product = compute()
            self.metrics.counter("pipeline.phases_computed").inc()
            if self.runstate is not None:
                self.runstate.checkpoint(
                    phase,
                    {
                        "product": product,
                        "health": self.health.clone() if track_health else None,
                    },
                )
            return product

    def degraded_fits(self) -> list[DegradedFit]:
        """Degradation notes of every *computed* analysis product.

        Collected in pipeline order from the memoised products only —
        calling this never triggers a computation.
        """
        fits: list[DegradedFit] = []

        def add(stage: str, notes) -> None:
            fits.extend(DegradedFit(stage=stage, detail=n) for n in notes)

        if self._workload_clusters is not None:
            add("workload-clusters", self._workload_clusters.degraded)
        for source in ("hw", "gem5"):
            regression = self._regressions.get(source)
            if regression is not None:
                add(f"regression[{source}]", regression.stepwise.degraded)
        if self._power_model is not None:
            add("power-model", self._power_model.degraded)
        return fits

    # -------------------------------------------------------------- datasets
    @property
    def dataset(self) -> ValidationDataset:
        """The paired HW/gem5 validation dataset (collected on first use)."""
        if self._dataset is None:
            self._dataset = self._materialise(
                "dataset",
                lambda: collect_validation_dataset(
                    self.platform,
                    self.gem5,
                    self.config.resolve_workloads(),
                    self.config.resolve_frequencies(),
                    health=self.health,
                ),
                track_health=True,
            )
        return self._dataset

    @property
    def power_dataset(self) -> list[PowerObservation]:
        """Power-characterisation observations over the 65-workload set."""
        if self._power_dataset is None:
            self._power_dataset = self._materialise(
                "power-dataset",
                lambda: collect_power_dataset(
                    self.platform,
                    self.config.resolve_power_workloads(),
                    self.config.resolve_frequencies(),
                    health=self.health,
                ),
                track_health=True,
            )
        return self._power_dataset

    # -------------------------------------------------------------- analyses
    @property
    def workload_clusters(self) -> WorkloadClusterAnalysis:
        """Fig. 3: workload HCA with per-cluster execution-time errors."""
        if self._workload_clusters is None:
            self._workload_clusters = self._materialise(
                "workload-clusters",
                lambda: cluster_workloads(
                    self.dataset,
                    self.config.analysis_freq_hz,
                    self.config.n_workload_clusters,
                ),
            )
        return self._workload_clusters

    @property
    def pmc_correlation(self) -> CorrelationResult:
        """Fig. 5: HW PMC rates correlated with the time error."""
        if self._pmc_correlation is None:
            self._pmc_correlation = self._materialise(
                "pmc-correlation",
                lambda: pmc_error_correlation(
                    self.dataset, self.config.analysis_freq_hz
                ),
            )
        return self._pmc_correlation

    @property
    def gem5_correlation(self) -> CorrelationResult:
        """Section IV-C: gem5 statistics correlated with the time error."""
        if self._gem5_correlation is None:
            self._gem5_correlation = self._materialise(
                "gem5-correlation",
                lambda: gem5_error_correlation(
                    self.dataset, self.config.analysis_freq_hz
                ),
            )
        return self._gem5_correlation

    def regression(self, source: str = "hw") -> ErrorRegression:
        """Section IV-D: stepwise regression of the error (hw or gem5)."""
        if source not in self._regressions:
            self._regressions[source] = self._materialise(
                f"regression-{source}",
                lambda: error_regression(
                    self.dataset, self.config.analysis_freq_hz, source=source
                ),
            )
        return self._regressions[source]

    @property
    def event_comparison(self) -> EventComparison:
        """Fig. 6: matched-event ratios and BP accuracy."""
        if self._event_comparison is None:
            self._event_comparison = self._materialise(
                "event-comparison",
                lambda: compare_events(
                    self.dataset,
                    self.config.analysis_freq_hz,
                    self.workload_clusters,
                ),
            )
        return self._event_comparison

    # ------------------------------------------------------------- power side
    def build_power_model(
        self, restrained: bool | None = None, max_terms: int | None = None
    ) -> PowerModel:
        """Build a fresh power model (Section V), bypassing the cache."""
        if restrained is None:
            restrained = self.config.gem5_restrained_power_model
        builder = PowerModelBuilder(
            self.config.core,
            excluded_events=restraint_pool_gem5(self.config.core) if restrained else frozenset(),
            max_terms=max_terms or self.config.power_model_terms,
        )
        return builder.fit(self.power_dataset)

    @property
    def power_model(self) -> PowerModel:
        """The gem5-compatible power model (cached)."""
        if self._power_model is None:
            self._power_model = self._materialise(
                "power-model", self.build_power_model
            )
        return self._power_model

    @property
    def application(self) -> PowerModelApplication:
        """The Fig. 2 application tool bound to the cached power model."""
        if self._application is None:
            self._application = PowerModelApplication(
                self.power_model, self.platform.opps
            )
        return self._application

    @property
    def power_energy(self) -> PowerEnergyComparison:
        """Fig. 7: power/energy error of the gem5-driven estimates."""
        if self._power_energy is None:
            self._power_energy = self._materialise(
                "power-energy",
                lambda: compare_power_energy(
                    self.dataset, self.application, self.workload_clusters
                ),
            )
        return self._power_energy

    @property
    def dvfs(self) -> DvfsScaling:
        """Fig. 8: DVFS scaling, hardware vs model."""
        if self._dvfs is None:
            self._dvfs = self._materialise(
                "dvfs",
                lambda: dvfs_scaling(
                    self.dataset, self.application, self.workload_clusters
                ),
            )
        return self._dvfs

    # ------------------------------------------------------------------ misc
    def with_machine(self, machine: MachineConfig | str) -> "GemStone":
        """A new GemStone run validating a different gem5 model.

        The Section VII use-case: re-run the identical evaluation after a
        simulator change (e.g. the BP fix) and compare reports.
        """
        return GemStone(replace(self.config, gem5_machine=machine))

    def compare_with_little(self, little: "GemStone") -> BigLittleComparison:
        """Cross-cluster big.LITTLE scaling against an A7 GemStone run.

        Raises:
            ValueError: If ``little`` is not an A7 run or self not A15.
        """
        if self.config.core != "A15" or little.config.core != "A7":
            raise ValueError("call as a15_gemstone.compare_with_little(a7_gemstone)")
        return big_little_scaling(little.dataset, self.dataset)

    def report(self) -> str:
        """The full text report covering every table and figure.

        With a checkpointed run state the rendered text itself is the
        final phase: it is restored or checkpointed like any product, and
        rendered *without* the telemetry sections (they count the work this
        process did, which a resumed run restores instead of redoing) so
        that an interrupted-then-resumed run is byte-identical to an
        uninterrupted one.
        """
        from repro.core.report import render_full_report

        if self.runstate is None:
            with self.tracer.span("phase:report", kind="phase"):
                return render_full_report(self)
        restored = self.runstate.restore("report")
        if restored is not None:
            self.tracer.event("report-restored")
            return restored["product"]
        # Materialise the health-bearing phases first: a restored power
        # model never pulls the power-dataset checkpoint on its own, and
        # skipping it would drop that phase's collection-health snapshot
        # from the rendered report.
        _ = self.dataset
        _ = self.power_dataset
        with self.tracer.span("phase:report", kind="phase"):
            text = render_full_report(self, include_telemetry=False)
        self.runstate.checkpoint("report", {"product": text, "health": None})
        self.runstate.journal("run-complete")
        return text

    def export_trace(self, directory: str | None = None) -> dict[str, str]:
        """Write the Chrome-trace and metrics exports for this run.

        Args:
            directory: Destination; defaults to the config's ``trace_dir``.
                When the run streamed to ``events.jsonl`` there, the Chrome
                export covers *every* segment in the stream (an interrupted
                then resumed run renders as two aligned process tracks);
                otherwise it covers this process's in-memory records.

        When the run is attached to a campaign board (``board_dir``), the
        Chrome export stitches every shard's checksummed trace segments
        into the coordinator timeline as per-shard tracks, so one file
        shows the whole distributed campaign.

        Returns:
            ``{"chrome": path, "metrics": path}`` of the written files.

        Raises:
            ValueError: When no directory is given or configured.
        """
        from repro.obs.exporters import read_event_stream
        from repro.obs.merge import is_campaign_dir, merge_campaign_records

        if directory is None:
            directory = self.config.trace_dir
        if directory is None:
            raise ValueError("no trace directory given or configured")
        os.makedirs(directory, exist_ok=True)
        stream = os.path.join(directory, EVENTS_FILE)
        records = read_event_stream(stream, missing_ok=True)
        if not records:
            records = self.tracer.records
        names = None
        board_dir = self.config.board_dir
        if board_dir is not None and is_campaign_dir(board_dir):
            records, names = merge_campaign_records(
                board_dir, coordinator_records=records
            )
        chrome_path = os.path.join(directory, CHROME_FILE)
        metrics_path = os.path.join(directory, METRICS_FILE)
        write_chrome_trace(records, chrome_path, process_names=names)
        write_prometheus_snapshot(self.metrics, metrics_path)
        return {"chrome": chrome_path, "metrics": metrics_path}

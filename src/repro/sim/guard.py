"""Runtime guardrails: cheap always-on checks and supervised campaigns.

The columnar engine (:mod:`repro.sim.columnar`) computes every simulated
cycle, and the paper's claims rest on those numbers being exact.  This
module keeps a corrupt decoded column or a silent NaN in a vectorized pass
from flowing unchecked into the power model and validation tables, with
checks cheap enough to run on every job:

* **Decoded-form validation** — the first replay of a
  :class:`~repro.workloads.trace.ColumnarTrace` in a process (every
  cross-worker re-attach) checks it against its checksum and its
  shape/dtype/bounds contract (:func:`repro.workloads.trace.validate_columnar`);
  a corrupt decode is quarantined and re-decoded in place.
* **Result integrity** — every result is scanned for NaN/overflow
  (:meth:`~repro.sim.cpu.SimResult.integrity_problems`).  A rejected
  result, like an engine exception, quarantines the decode and raises
  :class:`ReplayRejected`; the executor's retry policy and the campaign's
  lease re-queue then re-run the job on a fresh decode.  A job that keeps
  failing is a failed job in
  :class:`~repro.core.validation.CollectionHealth`, never a silent number.
* **Campaign watchdog** — :class:`CampaignWatchdog` supervises a
  :class:`~repro.sim.executor.SimExecutor` batch with per-job heartbeats,
  memory/deadline budgets and poison-job detection: a job that kills N
  workers in a row is circuit-broken into the parent's serial quarantine
  lane instead of being resubmitted to (and killing) fresh pools forever.

Bit-identity of the engine with the scalar reference loop
(:func:`repro.sim.cpu.simulate_reference`) is checked at test time by the
golden, equivalence and property suites, not by replaying jobs twice at
run time.

Everything surfaces three ways: :class:`GuardEvent` records (absorbed into
:class:`~repro.core.validation.CollectionHealth` by dataset collection),
``sim.guard.*`` metrics in the shared registry, and tracer events — the
report's "Guardrails" section renders the accounting.  The checks never
change a correct result.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import monotonic

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, MetricView
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim import columnar
from repro.sim.machine import MachineConfig
from repro.workloads.trace import SyntheticTrace, validate_columnar

logger = get_logger(__name__)

#: Marker key on ``ColumnarTrace.fixpoint_seeds`` recording that this
#: process already validated the decode (once per re-attach).
_VALIDATED_KEY = ("guard", "validated")


@dataclass(frozen=True)
class GuardEvent:
    """One structured guardrail action (never a silent degradation).

    Attributes:
        kind: What was detected: ``nan-result``, ``decode-corrupt``,
            ``engine-error``, ``poison-job``, ``worker-oom``,
            ``heartbeat-stall``, ``deadline``, ``memory-budget``,
            ``shard-lost``, ``lease-steal``.
        workload: Trace name of the affected job ("*" for campaign-wide
            watchdog events).
        machine: Machine name of the affected job ("*" likewise).
        action: What the guard did about it: ``requarantine-decode``,
            ``quarantine-retry``, ``circuit-break``, ``isolate``,
            ``observe``.
        detail: Human-readable specifics (violations, budget numbers, ...).
    """

    kind: str
    workload: str
    machine: str
    action: str
    detail: str = ""

    def summary(self) -> str:
        """One line for reports and logs."""
        line = f"[{self.kind}] {self.workload} on {self.machine} -> {self.action}"
        if self.detail:
            line += f" ({self.detail})"
        return line


class ReplayRejected(RuntimeError):
    """A replay failed a guard check; the job must be retried.

    Attributes:
        events: Every :class:`GuardEvent` the failed attempt recorded, the
            rejection last.  Executors and campaign shards absorb them into
            their :class:`GuardRail` before retrying.
    """

    def __init__(self, events):
        self.events = tuple(events)
        super().__init__(self.events[-1].summary())

    def __reduce__(self):
        # Pickled back from pool workers: rebuild from the events alone.
        return (type(self), (self.events,))


@dataclass(frozen=True)
class GuardPlan:
    """Immutable, picklable watchdog configuration (ships to workers).

    Attributes:
        heartbeat_seconds: Watchdog: emit a ``heartbeat-stall`` event for
            any pooled job in flight longer than this (observation only —
            the executor's own timeout still owns cancellation).
        batch_deadline_seconds: Watchdog: emit a ``deadline`` event when a
            batch as a whole runs past this budget.
        memory_budget_mb: Watchdog: emit a ``memory-budget`` event when the
            parent's peak RSS exceeds this; workers check it before
            simulating and refuse (``MemoryError`` -> the job is isolated
            to the parent's serial lane) when already past it.
        poison_threshold: Circuit-break a job into the serial quarantine
            lane after it has killed this many workers.
    """

    heartbeat_seconds: float | None = None
    batch_deadline_seconds: float | None = None
    memory_budget_mb: float | None = None
    poison_threshold: int = 2

    def __post_init__(self) -> None:
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )

    def supervises(self) -> bool:
        """Whether any watchdog budget needs the supervisor thread."""
        return (
            self.heartbeat_seconds is not None
            or self.batch_deadline_seconds is not None
            or self.memory_budget_mb is not None
        )


class GuardTelemetry(MetricView):
    """Guardrail counters, a view over the shared metrics registry.

    Attributes:
        nan_rejections: Results rejected for NaN/overflow (job retried).
        decode_quarantines: Corrupt decodes quarantined and re-decoded.
        engine_errors: Replays that raised (job retried).
        poison_jobs: Jobs circuit-broken into the serial quarantine lane.
        oom_events: Worker memory-budget breaches (injected or real).
        heartbeat_stalls: Jobs observed in flight past the heartbeat budget.
        deadline_breaches: Batches that ran past the deadline budget.
        memory_breaches: Parent peak-RSS budget breaches observed.
        shard_losses: Campaign shard processes that exited abnormally.
        lease_steals: Expired campaign leases taken over by another shard.
        events: All guard events recorded.
    """

    _fields = {
        name: f"sim.guard.{name}"
        for name in (
            "nan_rejections",
            "decode_quarantines",
            "engine_errors",
            "poison_jobs",
            "oom_events",
            "heartbeat_stalls",
            "deadline_breaches",
            "memory_breaches",
            "shard_losses",
            "lease_steals",
            "events",
        )
    }


#: GuardEvent.kind -> GuardTelemetry counter attribute.
_KIND_COUNTERS = {
    "nan-result": "nan_rejections",
    "decode-corrupt": "decode_quarantines",
    "engine-error": "engine_errors",
    "poison-job": "poison_jobs",
    "worker-oom": "oom_events",
    "heartbeat-stall": "heartbeat_stalls",
    "deadline": "deadline_breaches",
    "memory-budget": "memory_breaches",
    "shard-lost": "shard_losses",
    "lease-steal": "lease_steals",
}


class GuardRail:
    """Guardrail state for one executor's (or campaign shard's) lifetime.

    Collects :class:`GuardEvent` records (worker-side events ship back
    in-band with results, or inside a :class:`ReplayRejected`, and are
    absorbed here), mirrors them into ``sim.guard.*`` metrics and tracer
    events, and owns the :class:`CampaignWatchdog`.
    """

    def __init__(
        self,
        plan: GuardPlan | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.plan = plan if plan is not None else GuardPlan()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = GuardTelemetry(self.metrics)
        #: Every anomaly recorded over this executor's lifetime.
        self.events: list[GuardEvent] = []
        self.watchdog = CampaignWatchdog(self)

    def record(self, event: GuardEvent) -> None:
        """Absorb one guard event: list + metrics + tracer, atomically."""
        self.events.append(event)
        self.telemetry.events += 1
        counter = _KIND_COUNTERS.get(event.kind)
        if counter is not None:
            setattr(self.telemetry, counter, getattr(self.telemetry, counter) + 1)
        self.tracer.event(
            "guard",
            guard_kind=event.kind,
            workload=event.workload,
            machine=event.machine,
            action=event.action,
        )

    def absorb(self, events) -> None:
        """Absorb the guard events a job shipped back."""
        for event in events or ():
            self.record(event)


def parent_rss_mb() -> float:
    """This process's peak RSS in MiB (0.0 where unavailable)."""
    try:
        import resource
    except ImportError:  # non-POSIX: budgets degrade to unenforced
        logger.debug("resource module unavailable; memory budget unenforced")
        return 0.0
    # ru_maxrss is KiB on Linux, bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def check_memory_budget(plan: GuardPlan | None) -> None:
    """Refuse to start a worker job already past the memory budget.

    Raises:
        MemoryError: When the plan carries a ``memory_budget_mb`` and this
            process's peak RSS already exceeds it.  The executor treats the
            job like any poisoned job: it is isolated to the parent's
            serial lane (recorded as a ``worker-oom`` guard event) instead
            of running in a worker that the kernel may OOM-kill mid-write.
    """
    if plan is None or plan.memory_budget_mb is None:
        return
    rss = parent_rss_mb()
    if rss > plan.memory_budget_mb:
        raise MemoryError(
            f"worker peak RSS {rss:.0f} MiB exceeds the "
            f"{plan.memory_budget_mb:.0f} MiB guard budget"
        )


# ---------------------------------------------------------------------------
# Guarded simulation (runs in the parent's serial lane and inside workers)
# ---------------------------------------------------------------------------

def guarded_simulate(
    trace: SyntheticTrace,
    machine: MachineConfig,
    faults=None,
    ordinal: int = 0,
    attempt: int = 1,
    tracer=NULL_TRACER,
):
    """Simulate one job with the always-on guard checks applied.

    The pure function the executor's serial lane, its workers and the
    campaign shards call (events ship back in-band, so nothing here touches
    process globals beyond the trace's own decode memo).

    1. build (or re-attach) the decode and apply any columnar chaos
       faults from ``faults`` (tests only),
    2. on the first replay of this decode in this process, validate it
       (checksum + contract); a corrupt decode is quarantined and
       re-decoded before replay — steps 1-2 are the job's one
       ``replay/decode`` span,
    3. replay through the columnar engine,
    4. reject NaN/overflow in the result.

    Returns:
        ``(result, events, 0)``: the :class:`~repro.sim.cpu.SimResult`,
        the :class:`GuardEvent` list (empty on the happy path) and a
        constant ``0``, kept so that callers which unpack a triple (the
        end-to-end benchmark's probes) keep working.

    Raises:
        ReplayRejected: The engine raised, or the result failed its
            integrity scan.  The decode and its memos are quarantined
            first, so a retry replays a fresh decode.
    """
    events: list[GuardEvent] = []
    fired = (
        faults.columnar_faults(trace.name, attempt, ordinal)
        if faults is not None
        else ()
    )
    # --- decode + decoded-form validation (once per re-attach) -----------
    with tracer.span("replay/decode", kind="replay"):
        tables = trace.replay_tables()
        cols = tables.columnar(trace)
        if "corrupt-column" in fired:
            _corrupt_columns(cols)
        if not cols.fixpoint_seeds.get(_VALIDATED_KEY):
            problems = validate_columnar(cols)
            if problems:
                events.append(
                    GuardEvent(
                        kind="decode-corrupt",
                        workload=trace.name,
                        machine=machine.name,
                        action="requarantine-decode",
                        detail="; ".join(problems[:3]),
                    )
                )
                tables._columnar = None
                cols = tables.columnar(trace)
            cols.fixpoint_seeds[_VALIDATED_KEY] = True

    def reject(kind: str, detail: str) -> ReplayRejected:
        _quarantine_decode(tables, cols)
        events.append(
            GuardEvent(
                kind=kind,
                workload=trace.name,
                machine=machine.name,
                action="quarantine-retry",
                detail=detail,
            )
        )
        return ReplayRejected(events)

    # --- replay, guarded against exceptions ------------------------------
    try:
        result = columnar.replay_decoded(trace, machine, tables, cols, tracer=tracer)
    except Exception as exc:
        raise reject("engine-error", f"{type(exc).__name__}: {exc}") from exc

    if "nan-pass" in fired:
        # Chaos: as if a vectorized pass leaked a NaN into the accounting.
        result.core_cycles = float("nan")

    # --- NaN/overflow rejection ------------------------------------------
    problems = result.integrity_problems()
    if problems:
        raise reject("nan-result", "; ".join(problems[:3]))
    return result, events, 0


def _quarantine_decode(tables, cols) -> None:
    """Discard a suspect decode and its memos; the next replay rebuilds."""
    cols.fixpoint_seeds.clear()
    tables._columnar = None


def _corrupt_columns(cols) -> None:
    """Chaos helper: a decode that re-attached with bit-flipped columns.

    Flips bits in the data-side columns in place and drops the validated
    marker, as a fresh re-attach of a corrupt decode would carry none.
    """
    cols.fixpoint_seeds.pop(_VALIDATED_KEY, None)
    if cols.mem_line.size:
        cols.mem_line[::3] ^= 0x15
    elif cols.iline_line.size:
        cols.iline_line[::3] ^= 0x15
    else:
        cols.block_seq[:] = cols.block_seq[::-1]


# ---------------------------------------------------------------------------
# Campaign watchdog
# ---------------------------------------------------------------------------

class CampaignWatchdog:
    """Supervisor for an executor's batches: heartbeats, budgets, poison jobs.

    Observation never alters results: the supervisor thread only *records*
    (guard events + metrics) — cancellation stays with the executor's own
    deterministic timeout/retry machinery.  The one behavioural lever is
    the poison-job circuit breaker, and that decision is taken
    synchronously by the executor from deterministic kill counts, never
    from the thread.
    """

    _TICK_SECONDS = 0.02

    def __init__(self, rail: GuardRail):
        self.rail = rail
        self._lock = threading.Lock()
        self._in_flight: dict[int, tuple[str, str, float]] = {}
        self._stalled: set[int] = set()
        self._kills: dict[str, int] = {}
        self._broken: set[str] = set()
        self._batch_started: float | None = None
        self._batch_flagged = False
        self._memory_flagged = False
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @property
    def plan(self) -> GuardPlan:
        return self.rail.plan

    # ------------------------------------------------------------- lifecycle
    def batch_started(self) -> None:
        """Begin supervising one ``run_many`` batch."""
        with self._lock:
            self._batch_started = monotonic()
            self._batch_flagged = False
            self._in_flight.clear()
            self._stalled.clear()
        if self.plan.supervises() and self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._supervise, name="guard-watchdog", daemon=True
            )
            self._thread.start()

    def batch_finished(self) -> None:
        """Stop the supervisor thread after a batch completes."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=2.0)
            self._thread = None
        with self._lock:
            self._batch_started = None
            self._in_flight.clear()

    # ---------------------------------------------------------- job tracking
    def job_started(self, ordinal: int, workload: str, machine: str) -> None:
        with self._lock:
            self._in_flight[ordinal] = (workload, machine, monotonic())

    def job_finished(self, ordinal: int) -> None:
        with self._lock:
            self._in_flight.pop(ordinal, None)

    # ------------------------------------------------------------ poison jobs
    def record_worker_kill(self, key: str) -> int:
        """Count one worker death attributed to the job ``key``."""
        self._kills[key] = self._kills.get(key, 0) + 1
        return self._kills[key]

    def is_poisoned(self, key: str) -> bool:
        """Whether this job has killed enough workers to be circuit-broken."""
        return self._kills.get(key, 0) >= self.plan.poison_threshold

    def circuit_break(self, workload: str, machine: str, key: str) -> None:
        """Record that a poisoned job was quarantined to the serial lane.

        One event per job key for the executor's lifetime — later batches
        route the job straight to the serial lane without re-announcing.
        """
        if key in self._broken:
            return
        self._broken.add(key)
        self.rail.record(
            GuardEvent(
                kind="poison-job",
                workload=workload,
                machine=machine,
                action="circuit-break",
                detail=(
                    f"killed {self._kills.get(key, 0)} worker(s); "
                    "quarantined to the parent's serial lane"
                ),
            )
        )

    # ------------------------------------------------------------- supervision
    def _supervise(self) -> None:
        plan = self.plan
        while not self._stop.wait(self._TICK_SECONDS):
            now = monotonic()
            # The RSS probe is a syscall, so take it outside the lock; all
            # shared flag/set state is read and written inside one critical
            # section, and events are recorded after it is released (the
            # rail takes its own lock — never hold both).
            rss = (
                parent_rss_mb() if plan.memory_budget_mb is not None else None
            )
            events: list[GuardEvent] = []
            with self._lock:
                started = self._batch_started
                flight = list(self._in_flight.items())
                if started is None:
                    continue
                if (
                    plan.batch_deadline_seconds is not None
                    and not self._batch_flagged
                    and now - started > plan.batch_deadline_seconds
                ):
                    self._batch_flagged = True
                    events.append(
                        GuardEvent(
                            kind="deadline",
                            workload="*",
                            machine="*",
                            action="observe",
                            detail=(
                                f"batch past its "
                                f"{plan.batch_deadline_seconds:.2f} s "
                                f"deadline with {len(flight)} job(s) in flight"
                            ),
                        )
                    )
                if plan.heartbeat_seconds is not None:
                    for ordinal, (workload, machine, job_started) in flight:
                        if (
                            ordinal not in self._stalled
                            and now - job_started > plan.heartbeat_seconds
                        ):
                            self._stalled.add(ordinal)
                            events.append(
                                GuardEvent(
                                    kind="heartbeat-stall",
                                    workload=workload,
                                    machine=machine,
                                    action="observe",
                                    detail=(
                                        f"no heartbeat for "
                                        f"{now - job_started:.2f} s "
                                        f"(budget {plan.heartbeat_seconds:.2f} s)"
                                    ),
                                )
                            )
                if (
                    rss is not None
                    and not self._memory_flagged
                    and plan.memory_budget_mb is not None
                    and rss > plan.memory_budget_mb
                ):
                    self._memory_flagged = True
                    events.append(
                        GuardEvent(
                            kind="memory-budget",
                            workload="*",
                            machine="*",
                            action="observe",
                            detail=(
                                f"parent peak RSS {rss:.0f} MiB over the "
                                f"{plan.memory_budget_mb:.0f} MiB budget"
                            ),
                        )
                    )
            for event in events:
                self.rail.record(event)

"""Fault-tolerant parallel fan-out of independent simulation jobs.

GemStone is rerun constantly — after every model adjustment and every
simulator update (Section VII's workflow) — and a cold evaluation simulates
45–65 workloads on two machine configurations.  Every one of those jobs is a
pure function of its (trace, machine) pair, so they parallelise perfectly:
:class:`SimExecutor` fans a batch of jobs across a
:class:`~concurrent.futures.ProcessPoolExecutor` and guarantees results that
are bit-identical to running the same jobs serially.

The executor owns the whole memoisation *and* recovery story for a batch:

* **deduplication** — identical in-flight jobs (same cache key) are
  simulated once and the result shared across every requesting slot;
* **disk cache** — when built with a ``cache_dir``, jobs are probed against
  the :class:`~repro.sim.result_cache.SimResultCache` before any process is
  spawned; workers write their entries atomically and the parent *reaps*
  them from disk rather than shipping results back through the pipe;
* **fault isolation** — each job is submitted individually with an optional
  per-job timeout.  A timed-out, crashed or poisoned job is rerun serially
  in the parent under a deterministic :class:`RetryPolicy`; a broken pool
  (a hard worker death) loses only the jobs that had not finished — every
  completed sibling keeps its result.  Because jobs are pure, recovered
  results are bit-identical to a fault-free run;
* **serial fallback** — ``jobs=1`` (the default everywhere) never spawns a
  process, and a pool that cannot even be constructed (pickling-hostile
  environment) degrades to the serial path with the identical results;
* **observability** — job accounting lives in a
  :class:`~repro.obs.metrics.MetricsRegistry` (:class:`SimTelemetry` is a
  thin view over it; :func:`repro.core.report.render_sim_telemetry` shows
  its counts in the full report, while the stage wall-clock stays in the
  metrics so reports are byte-stable run to run), and
  an optional :class:`~repro.obs.tracer.Tracer` records per-batch and
  per-job spans — including spans recorded *inside* worker processes,
  shipped back with the results and stitched into the parent tree.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Sequence

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, MetricView
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.cpu import SimResult
from repro.sim.guard import (
    GuardEvent,
    GuardPlan,
    GuardRail,
    ReplayRejected,
    check_memory_budget,
    guarded_simulate,
)
from repro.sim.machine import MachineConfig
from repro.sim.result_cache import (
    SimResultCache,
    cache_key,
    cache_spec,
    open_cache_spec,
)
from repro.workloads.trace import SyntheticTrace

logger = get_logger(__name__)

#: One simulation job: the executor's unit of work.
SimJob = tuple[SyntheticTrace, MachineConfig]

#: Exponent bound for :meth:`RetryPolicy.delay`.  ``2.0 ** 62`` already
#: dwarfs any sane cap, while an unbounded ``2.0 ** attempt`` raises
#: OverflowError once campaign lease re-queues push attempt counts into
#: the thousands.
_MAX_BACKOFF_EXPONENT = 62


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded retry with exponential backoff (no jitter).

    Attributes:
        max_attempts: Total attempts per job (first try included).
        base_seconds: Delay before the first retry.
        backoff: Multiplier applied per further retry.
        cap_seconds: Upper bound on any single delay.
    """

    max_attempts: int = 3
    base_seconds: float = 0.05
    backoff: float = 2.0
    cap_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_seconds < 0 or self.cap_seconds < 0 or self.backoff < 1.0:
            raise ValueError("delays must be >= 0 and backoff >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (1-based).

        The exponent is bounded so pathological attempt counts (campaign
        lease re-queues) saturate at ``cap_seconds`` instead of raising
        OverflowError from the float power.
        """
        exponent = min(attempt - 1, _MAX_BACKOFF_EXPONENT)
        return min(self.base_seconds * self.backoff**exponent, self.cap_seconds)


@dataclass
class SimJobFailure:
    """A job that exhausted its retry budget; the terminal per-job outcome."""

    trace_name: str
    machine_name: str
    attempts: int
    kind: str  # "timeout" | "crash" | "error" | "oom"
    error: str


class SimJobError(RuntimeError):
    """Raised when a simulation job fails permanently.

    Attributes:
        failure: The :class:`SimJobFailure` describing the terminal outcome.
    """

    def __init__(self, failure: SimJobFailure):
        self.failure = failure
        super().__init__(
            f"simulation of {failure.trace_name} on {failure.machine_name} "
            f"failed permanently after {failure.attempts} attempt(s) "
            f"[{failure.kind}]: {failure.error}"
        )


class SimTelemetry(MetricView):
    """Counters and per-stage wall-clock for one executor's lifetime.

    Since the ``repro.obs`` unification this is a *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry` (the single source of
    truth, exported by the Prometheus snapshot); every attribute below
    reads — and ``+=`` writes — the ``sim.executor.*`` counter of the
    same name, so the legacy API is unchanged.

    Attributes:
        jobs_submitted: Jobs requested across all ``run_many`` batches.
        jobs_deduplicated: Submitted jobs that were duplicates of another
            in-flight job in the same batch (simulated once, shared).
        cache_hits: Unique jobs answered from the disk cache.
        jobs_run: Unique jobs actually simulated (the cache misses).
        parallel_jobs_run: Subset of ``jobs_run`` completed on worker
            processes rather than in the parent.
        serial_fallbacks: Batches that degraded from the pool to the serial
            path before any job ran (pickling-hostile environment, pool
            construction failure).
        jobs_isolated: Jobs whose pool attempt failed (timeout, crash,
            error) and were rerun serially in the parent, leaving their
            finished siblings untouched.
        job_retries: Individual retry attempts across all jobs.
        job_timeouts: Pool attempts abandoned after the per-job timeout.
        worker_crashes: Broken-pool events (a worker process died).
        jobs_failed: Jobs that exhausted the retry budget.
        batches: ``run_many`` invocations.
        probe_seconds: Wall-clock spent deduplicating and probing the cache.
        simulate_seconds: Wall-clock spent simulating (pool or serial).
        reap_seconds: Wall-clock spent reaping worker-written cache entries
            and fanning results back to the submitted slots.
    """

    _fields = {
        name: f"sim.executor.{name}"
        for name in (
            "jobs_submitted",
            "jobs_deduplicated",
            "cache_hits",
            "jobs_run",
            "parallel_jobs_run",
            "serial_fallbacks",
            "jobs_isolated",
            "job_retries",
            "job_timeouts",
            "worker_crashes",
            "jobs_failed",
            "batches",
            "probe_seconds",
            "simulate_seconds",
            "reap_seconds",
        )
    }

    @property
    def cache_misses(self) -> int:
        """Unique jobs not answered by the disk cache."""
        return self.jobs_run


def _run_job(payload):
    """Worker-side entry point: simulate one job.

    ``payload`` is ``(trace, machine, spec, faults, ordinal, attempt,
    want_spans, guard_plan)``.  Any fault matching (ordinal,
    attempt) fires first — a ``crash`` fault hard-kills this worker so the
    parent observes a genuine broken pool, and a guard memory budget
    already breached refuses the job with ``MemoryError`` (the parent
    isolates it to the serial lane).

    With a cache spec (see :func:`~repro.sim.result_cache.cache_spec` —
    flat directory or campaign sharded store) the worker writes its entry
    atomically (via the cache's temp-file + rename protocol) and ships
    only a tiny token across the process boundary; the parent reaps the
    entry from disk.  Without a cache the result itself is returned
    in-band.  Either way the return value is a ``(token_or_result,
    span_records, guard_payload)`` triple: when the parent traces, the
    worker records its own child spans on a throwaway tracer and the
    parent stitches them into its tree, and ``guard_events`` ships the
    guardrail outcome back for the parent's :class:`GuardRail` to absorb.
    A rejected replay raises :class:`~repro.sim.guard.ReplayRejected`,
    which carries its events back through the pool.
    """
    (trace, machine, spec, faults, ordinal, attempt, want_spans,
     guard_plan) = payload
    tracer = Tracer(enabled=want_spans)
    with tracer.span(
        "sim-job",
        kind="job",
        workload=trace.name,
        machine=machine.name,
        ordinal=ordinal,
        attempt=attempt,
        in_worker=True,
    ):
        if faults is not None:
            faults.apply_job_fault(ordinal, trace.name, attempt, in_worker=True)
        check_memory_budget(guard_plan)
        result, guard_events, _ = guarded_simulate(
            trace, machine, faults, ordinal, attempt, tracer=tracer
        )
        if spec is not None:
            with tracer.span("cache-put", kind="cache"):
                open_cache_spec(spec, faults=faults).put(
                    trace, machine, result
                )
            result = None
    return (
        result,
        (tracer.records if want_spans else None),
        tuple(guard_events),
    )


class SimExecutor:
    """Fans independent simulation jobs across worker processes.

    Args:
        jobs: Worker-process count.  ``1`` (or fewer pending jobs than
            workers would help) runs serially in the parent; ``None`` uses
            ``os.cpu_count()``.
        cache_dir: Optional on-disk result cache shared by parent and
            workers; see :class:`~repro.sim.result_cache.SimResultCache`.
        cache: Optional prebuilt cache object (a
            :class:`~repro.sim.result_cache.SimResultCache` or a campaign
            :class:`~repro.sim.result_cache.ShardedResultStore`); takes
            precedence over ``cache_dir``.  Workers rebuild an equivalent
            writer from its :func:`~repro.sim.result_cache.cache_spec`.
        retry: Per-job retry policy (deterministic, jitter-free).
        timeout_seconds: Optional per-job timeout for pool attempts; a job
            exceeding it is abandoned and rerun serially in the parent.
            Serial attempts are never interrupted.
        faults: Optional :class:`~repro.sim.faults.FaultPlan` injected into
            jobs and cache writes (chaos testing only).
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; when enabled,
            batches, cache probes/reaps and every job (worker-side
            included) record spans.  Defaults to the shared disabled
            tracer, whose per-span cost is one attribute check.
        metrics: Shared :class:`~repro.obs.metrics.MetricsRegistry`; one
            is created privately when not given.  :attr:`telemetry` (and
            the cache's) are views over it.
        guard: Optional :class:`~repro.sim.guard.GuardPlan` of watchdog
            budgets; defaults to none.  Every simulated job runs through
            :func:`~repro.sim.guard.guarded_simulate` (decode validation,
            NaN rejection; a rejected replay is retried under ``retry``),
            the campaign watchdog supervises batches, and poisoned jobs
            (``poison_threshold`` worker kills) are circuit-broken into
            the parent's serial lane.  Guard events accumulate on
            :attr:`guard` (a :class:`~repro.sim.guard.GuardRail`).

    Raises:
        ValueError: For a non-positive explicit ``jobs`` or timeout.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache_dir: str | None = None,
        cache=None,
        retry: RetryPolicy | None = None,
        timeout_seconds: float | None = None,
        faults=None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        guard: GuardPlan | None = None,
    ):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError(f"timeout_seconds must be positive, got {timeout_seconds}")
        self.jobs = int(jobs)
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout_seconds = timeout_seconds
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.gauge("sim.executor.workers").set(self.jobs)
        if cache is not None:
            self.cache = cache
        else:
            self.cache = (
                SimResultCache(cache_dir, faults=faults, metrics=self.metrics)
                if cache_dir is not None
                else None
            )
        self.telemetry = SimTelemetry(self.metrics)
        #: Guardrail state: plan, recorded events, watchdog, telemetry.
        self.guard = GuardRail(guard, self.metrics, self.tracer)
        #: Terminal failures from the most recent ``run_many`` batch.
        self.last_failures: list[SimJobFailure] = []
        self._next_ordinal = 0

    # ------------------------------------------------------------------ public
    def run(self, trace: SyntheticTrace, machine: MachineConfig) -> SimResult:
        """Simulate one (trace, machine) job through the cache layers.

        Raises:
            SimJobError: If the job fails permanently (retry budget spent).
        """
        return self.run_many([(trace, machine)])[0]

    def run_many(
        self, pairs: Sequence[SimJob], raise_on_error: bool = True
    ) -> list[SimResult | None]:
        """Simulate a batch of jobs; results align with the input order.

        Identical jobs are simulated once; cached jobs are never simulated;
        the rest fan out across the pool (or run serially for ``jobs=1``).
        Results are bit-identical to calling :func:`~repro.sim.cpu.simulate`
        on each pair in a loop.

        Args:
            pairs: The (trace, machine) jobs.
            raise_on_error: With the default ``True``, a permanently failed
                job raises :class:`SimJobError` (after every other job has
                completed).  With ``False``, failed slots are returned as
                ``None`` so callers can degrade gracefully; inspect
                :attr:`last_failures` for the terminal outcomes.

        Raises:
            SimJobError: A job exhausted its retries (``raise_on_error``).
        """
        pairs = list(pairs)
        telemetry = self.telemetry
        telemetry.batches += 1
        telemetry.jobs_submitted += len(pairs)
        results: list[SimResult | None] = [None] * len(pairs)
        self.last_failures: list[SimJobFailure] = []

        with self.tracer.span(
            "executor-batch", kind="executor", n_jobs=len(pairs)
        ) as batch_span:
            started = perf_counter()
            # Deduplicate in-flight jobs: slots maps each unique cache key
            # to every submitted index wanting its result.
            slots: dict[str, list[int]] = {}
            for index, (trace, machine) in enumerate(pairs):
                slots.setdefault(cache_key(trace, machine), []).append(index)
            telemetry.jobs_deduplicated += len(pairs) - len(slots)

            pending: list[tuple[str, SyntheticTrace, MachineConfig]] = []
            with self.tracer.span("cache-probe", kind="cache"):
                for key, indices in slots.items():
                    trace, machine = pairs[indices[0]]
                    cached = (
                        self.cache.get(trace, machine)
                        if self.cache is not None
                        else None
                    )
                    if cached is not None:
                        telemetry.cache_hits += 1
                        for index in indices:
                            results[index] = cached
                    else:
                        pending.append((key, trace, machine))
            telemetry.probe_seconds += perf_counter() - started
            batch_span.set(
                unique_jobs=len(slots), simulated=len(pending)
            )
            logger.debug(
                "batch: %d job(s), %d unique, %d to simulate",
                len(pairs), len(slots), len(pending),
            )

            if pending:
                watchdog = self.guard.watchdog
                watchdog.batch_started()
                try:
                    computed = self._execute(pending)
                finally:
                    watchdog.batch_finished()
                started = perf_counter()
                with self.tracer.span("reap", kind="executor"):
                    for (key, _, _), outcome in zip(pending, computed):
                        if isinstance(outcome, SimJobFailure):
                            self.last_failures.append(outcome)
                            continue
                        for index in slots[key]:
                            results[index] = outcome
                telemetry.reap_seconds += perf_counter() - started
                if self.last_failures:
                    batch_span.set(failed=len(self.last_failures))
                    logger.warning(
                        "batch finished with %d permanently failed job(s)",
                        len(self.last_failures),
                    )
                    if raise_on_error:
                        raise SimJobError(self.last_failures[0])
        return results

    # --------------------------------------------------------------- internals
    def _execute(
        self, pending: list[tuple[str, SyntheticTrace, MachineConfig]]
    ) -> list[SimResult | SimJobFailure]:
        self.telemetry.jobs_run += len(pending)
        ordinals = list(range(self._next_ordinal, self._next_ordinal + len(pending)))
        self._next_ordinal += len(pending)
        if self.jobs <= 1 or len(pending) <= 1:
            return self._execute_serial(pending, ordinals)

        # Poison-job circuit breaker: a job whose kill count reached the
        # guard threshold never touches a pool again — it is quarantined to
        # the parent's serial lane (bit-identical, just slower) while its
        # clean siblings keep their workers.  The kill counts are recorded
        # synchronously in this thread, so the decision is deterministic.
        watchdog = self.guard.watchdog
        poisoned = [
            i for i, (key, _, _) in enumerate(pending) if watchdog.is_poisoned(key)
        ]
        if not poisoned:
            return self._execute_pool(pending, ordinals)
        for i in poisoned:
            key, trace, machine = pending[i]
            watchdog.circuit_break(trace.name, machine.name, key)
        clean = [i for i in range(len(pending)) if not watchdog.is_poisoned(pending[i][0])]
        outcomes: list[SimResult | SimJobFailure | None] = [None] * len(pending)
        if clean:
            pooled = (
                self._execute_pool if len(clean) > 1 else self._execute_serial
            )([pending[i] for i in clean], [ordinals[i] for i in clean])
            for i, outcome in zip(clean, pooled):
                outcomes[i] = outcome
        quarantined = self._execute_serial(
            [pending[i] for i in poisoned], [ordinals[i] for i in poisoned]
        )
        for i, outcome in zip(poisoned, quarantined):
            outcomes[i] = outcome
        return outcomes  # type: ignore[return-value]  # every slot is filled

    def _execute_pool(
        self,
        pending: list[tuple[str, SyntheticTrace, MachineConfig]],
        ordinals: list[int],
    ) -> list[SimResult | SimJobFailure]:
        telemetry = self.telemetry
        # A degraded cache cannot absorb worker writes; ship results in-band.
        spec = (
            cache_spec(self.cache)
            if self.cache is not None and not self.cache.degraded
            else None
        )
        try:
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        except Exception:
            # Pickling-hostile environment: the jobs are pure, so running
            # serially gives the identical results.
            telemetry.serial_fallbacks += 1
            self.tracer.event("serial-fallback", reason="pool-construction")
            return self._execute_serial(pending, ordinals)

        want_spans = self.tracer.enabled
        pool_span = self.tracer.span(
            "simulate-pool",
            kind="executor",
            n_jobs=len(pending),
            workers=min(self.jobs, len(pending)),
        )
        pool_span.__enter__()
        started = perf_counter()
        watchdog = self.guard.watchdog
        in_band: dict[int, object] = {}
        worker_spans: dict[int, list] = {}
        guard_payloads: dict[int, tuple] = {}
        failed_kind: dict[int, str] = {}
        failed_error: dict[int, str] = {}
        pool_broken = False
        try:
            try:
                futures = {}
                for i, ((_, trace, machine), ordinal) in enumerate(
                    zip(pending, ordinals)
                ):
                    futures[i] = pool.submit(
                        _run_job,
                        (trace, machine, spec, self.faults, ordinal, 1,
                         want_spans, self.guard.plan),
                    )
                    watchdog.job_started(ordinal, trace.name, machine.name)
            except Exception:
                telemetry.serial_fallbacks += 1
                telemetry.simulate_seconds += perf_counter() - started
                pool_span.__exit__(None, None, None)
                self.tracer.event("serial-fallback", reason="submit-failure")
                return self._execute_serial(pending, ordinals)
            for i, future in futures.items():
                try:
                    in_band[i], worker_spans[i], guard_payloads[i] = (
                        future.result(timeout=self.timeout_seconds)
                    )
                except concurrent.futures.TimeoutError:
                    telemetry.job_timeouts += 1
                    future.cancel()
                    failed_kind[i] = "timeout"
                    failed_error[i] = (
                        f"no result within {self.timeout_seconds} s"
                    )
                    self.tracer.event(
                        "job-timeout",
                        workload=pending[i][1].name,
                        timeout_seconds=self.timeout_seconds,
                    )
                except BrokenProcessPool as exc:
                    if not pool_broken:
                        telemetry.worker_crashes += 1
                        pool_broken = True
                        self.tracer.event("worker-crash")
                        logger.warning(
                            "worker process died; isolating affected jobs"
                        )
                    failed_kind[i] = "crash"
                    failed_error[i] = str(exc) or "worker process died"
                except MemoryError as exc:
                    failed_kind[i] = "oom"
                    failed_error[i] = f"MemoryError: {exc}"
                    self.guard.record(
                        GuardEvent(
                            kind="worker-oom",
                            workload=pending[i][1].name,
                            machine=pending[i][2].name,
                            action="isolate",
                            detail=str(exc) or "worker memory budget breached",
                        )
                    )
                except Exception as exc:  # a poisoned job's own exception
                    if isinstance(exc, ReplayRejected):
                        self.guard.absorb(exc.events)
                    failed_kind[i] = "error"
                    failed_error[i] = f"{type(exc).__name__}: {exc}"
                    self.tracer.event(
                        "job-error",
                        workload=pending[i][1].name,
                        error=type(exc).__name__,
                    )
                finally:
                    watchdog.job_finished(ordinals[i])
        finally:
            # Never block on a hung worker: abandoned processes finish (or
            # die) on their own; their cache writes are atomic and idempotent.
            pool.shutdown(wait=False, cancel_futures=True)
        # Stitch the workers' span records into the parent tree before the
        # pool span closes: each worker lane becomes a Chrome-trace tid,
        # re-based to the pool span's start (worker clocks are their own).
        if want_spans:
            workers = min(self.jobs, len(pending))
            for i in sorted(worker_spans):
                records = worker_spans[i]
                if records:
                    self.tracer.adopt(
                        records,
                        rebase_us=pool_span.start_us,
                        tid=1 + (i % workers),
                    )
        telemetry.simulate_seconds += perf_counter() - started
        pool_span.__exit__(None, None, None)
        telemetry.parallel_jobs_run += len(in_band)
        # Absorb the workers' shipped-back guard outcomes in submit order,
        # so event ordering is deterministic regardless of completion order.
        for i in sorted(guard_payloads):
            self.guard.absorb(guard_payloads[i])

        outcomes: list[SimResult | SimJobFailure | None] = [None] * len(pending)
        started = perf_counter()
        for i, result in in_band.items():
            _, trace, machine = pending[i]
            if result is None and self.cache is not None:
                # The worker wrote the cache entry; reap it from disk.  A
                # corrupt entry is quarantined by the cache and comes back
                # as None.
                result = self.cache.get(trace, machine)
            if result is None:
                # Reap failed (entry evicted or corrupted underneath us) —
                # recompute in the parent; determinism makes this safe.
                result, events, _ = guarded_simulate(
                    trace, machine, self.faults, ordinals[i],
                    tracer=self.tracer,
                )
                self.guard.absorb(events)
                if self.cache is not None:
                    self.cache.put(trace, machine, result)
            outcomes[i] = result
        telemetry.reap_seconds += perf_counter() - started

        if failed_kind:
            # Crash isolation: only the affected jobs rerun serially; every
            # finished sibling above keeps its result.
            indices = sorted(failed_kind)
            telemetry.jobs_isolated += len(indices)
            if self.retry.max_attempts <= 1:
                telemetry.jobs_failed += len(indices)
                for i in indices:
                    _, trace, machine = pending[i]
                    outcomes[i] = SimJobFailure(
                        trace_name=trace.name,
                        machine_name=machine.name,
                        attempts=1,
                        kind=failed_kind[i],
                        error=failed_error[i],
                    )
            else:
                recovered = self._execute_serial(
                    [pending[i] for i in indices],
                    [ordinals[i] for i in indices],
                    first_attempt=2,
                )
                for i, outcome in zip(indices, recovered):
                    outcomes[i] = outcome
            # Poison-job accounting: a broken-pool crash is attributed to a
            # job only when its serial rerun *also* fails — bystanders that
            # were merely in flight when another job killed the worker
            # recover serially and never accumulate kills.  Enough kills
            # (GuardPlan.poison_threshold) circuit-break the job out of
            # future pools.
            for i in indices:
                if failed_kind[i] == "crash" and isinstance(
                    outcomes[i], SimJobFailure
                ):
                    watchdog.record_worker_kill(pending[i][0])
        return outcomes  # type: ignore[return-value]  # every slot is filled

    def _execute_serial(
        self,
        pending: list[tuple[str, SyntheticTrace, MachineConfig]],
        ordinals: list[int],
        first_attempt: int = 1,
    ) -> list[SimResult | SimJobFailure]:
        started = perf_counter()
        results: list[SimResult | SimJobFailure] = []
        for (_, trace, machine), ordinal in zip(pending, ordinals):
            results.append(
                self._run_with_retry(trace, machine, ordinal, first_attempt)
            )
        self.telemetry.simulate_seconds += perf_counter() - started
        return results

    def _run_with_retry(
        self,
        trace: SyntheticTrace,
        machine: MachineConfig,
        ordinal: int,
        first_attempt: int,
    ) -> SimResult | SimJobFailure:
        """One job through the retry policy, in the parent process."""
        attempt = first_attempt
        watchdog = self.guard.watchdog
        with self.tracer.span(
            "sim-job",
            kind="job",
            workload=trace.name,
            machine=machine.name,
            ordinal=ordinal,
            in_worker=False,
        ) as job_span:
            watchdog.job_started(ordinal, trace.name, machine.name)
            try:
                return self._retry_loop(
                    trace, machine, ordinal, attempt, job_span
                )
            finally:
                watchdog.job_finished(ordinal)

    def _retry_loop(self, trace, machine, ordinal, attempt, job_span):
        """The attempt loop of :meth:`_run_with_retry` (watchdog-tracked)."""
        while True:
            try:
                if self.faults is not None:
                    self.faults.apply_job_fault(
                        ordinal, trace.name, attempt, in_worker=False
                    )
                result, guard_events, _ = guarded_simulate(
                    trace, machine, self.faults, ordinal, attempt,
                    tracer=self.tracer,
                )
                self.guard.absorb(guard_events)
            except Exception as exc:
                if isinstance(exc, ReplayRejected):
                    self.guard.absorb(exc.events)
                if attempt >= self.retry.max_attempts:
                    self.telemetry.jobs_failed += 1
                    job_span.set(
                        failed=True, attempts=attempt,
                        error=type(exc).__name__,
                    )
                    logger.warning(
                        "job %s on %s failed permanently after %d "
                        "attempt(s): %s", trace.name, machine.name,
                        attempt, exc,
                    )
                    return SimJobFailure(
                        trace_name=trace.name,
                        machine_name=machine.name,
                        attempts=attempt,
                        kind="oom" if isinstance(exc, MemoryError) else "crash",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                self.telemetry.job_retries += 1
                delay = self.retry.delay(attempt)
                job_span.event(
                    "job-retry",
                    workload=trace.name,
                    attempt=attempt,
                    delay_seconds=delay,
                    error=type(exc).__name__,
                )
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            if self.cache is not None:
                self.cache.put(trace, machine, result)
            job_span.set(attempts=attempt)
            return result


def prime_engines(
    executor: SimExecutor,
    engines: Iterable,
    profiles: Iterable,
) -> int:
    """Batch-simulate workloads for several engines in one fan-out.

    ``engines`` are simulation front ends exposing the small batching
    protocol (``has_result`` / ``trace_for`` / ``machine`` /
    ``absorb_result``) — :class:`~repro.sim.platform.HardwarePlatform` and
    :class:`~repro.sim.gem5.Gem5Simulation`.  All missing (workload ×
    machine) jobs are submitted to the executor up front, so one pool
    services the hardware and model simulations together.

    Jobs that fail permanently are simply not absorbed: the owning engine
    retries them lazily on first use, and if they fail again the failure
    surfaces there (where dataset collection can record it and degrade
    gracefully) instead of aborting the whole batch here.

    Returns:
        The number of simulations submitted (0 when everything was already
        memoised on the engines).
    """
    jobs: list[SimJob] = []
    owners: list[tuple[object, str]] = []
    for engine in engines:
        for profile in profiles:
            if engine.has_result(profile.name):
                continue
            jobs.append((engine.trace_for(profile), engine.machine))
            owners.append((engine, profile.name))
    if not jobs:
        return 0
    for (engine, name), result in zip(
        owners, executor.run_many(jobs, raise_on_error=False)
    ):
        if result is not None:
            engine.absorb_result(name, result)
    return len(jobs)

"""Distributed sharded campaigns: a file-backed job board with leases.

The paper's full validation sweep (65 workloads x two machine configs, every
DVFS point derived analytically) is embarrassingly parallel, but
:class:`~repro.sim.executor.SimExecutor` tops out at one process pool on one
host — and a lost pool used to mean a lost campaign.  This module scales the
same jobs across any number of *shard* processes (potentially on many hosts
sharing a filesystem) and survives worker loss without losing or duplicating
a single result:

* **Job board** — :class:`CampaignBoard` lays a campaign out under one
  shared directory: one immutable job file per
  :func:`~repro.sim.result_cache.cache_key`, a lease file per in-flight
  job (owner + attempt, heartbeat = the lease file's mtime), done/poison
  markers, and an append-only checksummed journal.  All board mutations
  are serialised by one advisory ``flock``, so claims and steals are
  atomic across processes and hosts.
* **Lease-based work stealing** — a worker claims the first unleased,
  unfinished job; a lease whose heartbeat is older than the board TTL is
  *expired* and deterministically stolen by the next claimant (attempt
  count incremented, journalled).  Expiry is judged against the shared
  filesystem's own clock (the mtime of a freshly touched probe file), so
  the protocol needs no wall-clock reads and works across hosts with
  skewed clocks.
* **Worker-loss recovery** — results land in a content-addressed
  :class:`~repro.sim.result_cache.ShardedResultStore` *before* the done
  marker, so a shard killed between the two leaves an orphaned-but-intact
  result that the stealing shard verifies and adopts instead of
  recomputing.  A job whose attempts exhaust the retry budget is poisoned
  (the cross-shard analogue of the executor's poison-job circuit breaker)
  and surfaced as a structured failure instead of wedging the campaign.
* **Incremental recompute** — :meth:`CampaignBoard.create_or_sync` diffs a
  new :class:`~repro.core.runstate.RunManifest` against the board: jobs
  whose content-addressed key still has a verified result are marked done
  (``job-reused``), invalidated or corrupt ones are re-queued, and keys no
  longer wanted are retired — all journalled, so tests can assert exactly
  which subgraph re-ran.

The coordinator (:func:`run_campaign`) spawns shards, supervises them,
drains any remainder inline if every shard dies, and finally *collates*
through a normal :class:`~repro.core.pipeline.GemStone` whose executor
reads the campaign's store — so a clean 2-shard campaign is bit-identical
to a serial run by construction.

``repro.core`` symbols are imported lazily inside functions: this module
lives in ``repro.sim``, which the core pipeline imports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass

from repro.atomicio import atomic_write_text
from repro.obs.exporters import write_prometheus_snapshot
from repro.obs.log import get_logger
from repro.obs.merge import (
    autotune_hint,
    campaign_health,
    record_health_gauges,
    merge_board_metrics,
    registry_from_snapshot,
)
from repro.obs.metrics import MetricsRegistry, MetricView
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.executor import RetryPolicy
from repro.sim.faults import InjectedFault
from repro.sim.guard import (
    GuardEvent,
    GuardRail,
    ReplayRejected,
    guarded_simulate,
)
from repro.sim.machine import (
    CacheGeometry,
    MachineConfig,
    hardware_a15,
    hardware_a7,
)
from repro.sim.result_cache import ShardedResultStore, cache_key
from repro.uarch.tlb import TlbHierarchyConfig
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import compile_trace

logger = get_logger(__name__)

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]
    logger.debug("fcntl unavailable; advisory locking degrades to no-op")

#: Bump when the board layout or journal envelope changes.
BOARD_SCHEMA_VERSION = 1


def _journal_checksum(record: dict) -> str:
    """Checksum of a journal record (everything but its ``sha1`` field)."""
    return hashlib.sha1(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()


class CampaignTelemetry(MetricView):
    """Campaign counters, a view over the ``sim.campaign.*`` metrics.

    Attributes:
        jobs_queued: Jobs newly added to the board.
        jobs_reused: Jobs satisfied by a verified existing result at sync.
        jobs_requeued: Jobs given back (sync invalidation or a job error).
        jobs_retired: Board jobs no longer wanted by the synced config.
        jobs_claimed: Leases granted (fresh claims and steals).
        leases_stolen: Expired leases taken over by another owner.
        jobs_done: Jobs marked done (computed or adopted).
        jobs_adopted: Done jobs whose result an earlier owner had stored.
        jobs_abandoned: Stalled claims dropped after losing the lease.
        jobs_poisoned: Jobs circuit-broken after exhausting the budget.
        job_errors: Job attempts that raised (requeued, not fatal).
        workers_started: Shard processes the coordinator spawned.
        workers_lost: Shard processes that exited abnormally.
    """

    _fields = {
        name: f"sim.campaign.{name}"
        for name in (
            "jobs_queued",
            "jobs_reused",
            "jobs_requeued",
            "jobs_retired",
            "jobs_claimed",
            "leases_stolen",
            "jobs_done",
            "jobs_adopted",
            "jobs_abandoned",
            "jobs_poisoned",
            "job_errors",
            "workers_started",
            "workers_lost",
        )
    }


# ------------------------------------------------------------------- jobs
@dataclass(frozen=True)
class CampaignJob:
    """One board job: everything a shard needs to recompute its key.

    Attributes:
        key: The :func:`~repro.sim.result_cache.cache_key` of the
            (trace, machine) pair — the job's identity on the board and in
            the result store.
        workload: Workload catalog name (the trace is recompiled from it).
        machine_name: Machine name, for humans and journals.
        machine: The full machine config as a plain dict
            (``dataclasses.asdict``), so ablated configs that exist under
            no catalog name survive the round trip.
        n_instrs: Trace length.
        ordinal: Deterministic job index (fault matching, stable ordering).
    """

    key: str
    workload: str
    machine_name: str
    machine: dict
    n_instrs: int
    ordinal: int


def machine_from_spec(spec: dict) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from its ``asdict`` form."""
    data = dict(spec)
    for level in ("l1i", "l1d", "l2"):
        data[level] = CacheGeometry(**data[level])
    data["tlb"] = TlbHierarchyConfig(**data["tlb"])
    return MachineConfig(**data)


def campaign_jobs(config) -> list[CampaignJob]:
    """The simulation jobs one resolved GemStone configuration needs.

    Validation workloads run on both the reference hardware and the gem5
    model; power workloads additionally run on hardware only (the power
    ground truth needs no gem5 pass).  Frequencies are applied
    analytically downstream, so the job unit is exactly the executor's:
    one (trace, machine) pair.
    """
    hardware = hardware_a15() if config.core == "A15" else hardware_a7()
    gem5 = config.resolve_machine()
    wanted: dict[tuple[str, str], tuple] = {}
    for profile in config.resolve_workloads():
        wanted[(profile.name, "hw")] = (profile, hardware)
        wanted[(profile.name, "gem5")] = (profile, gem5)
    for profile in config.resolve_power_workloads():
        wanted.setdefault((profile.name, "hw"), (profile, hardware))
    jobs = []
    for ordinal, (_, (profile, machine)) in enumerate(
        sorted(wanted.items(), key=lambda item: item[0])
    ):
        trace = compile_trace(profile, config.trace_instructions)
        jobs.append(
            CampaignJob(
                key=cache_key(trace, machine),
                workload=profile.name,
                machine_name=machine.name,
                machine=dataclasses.asdict(machine),
                n_instrs=int(config.trace_instructions),
                ordinal=ordinal,
            )
        )
    return jobs


@dataclass(frozen=True)
class Claim:
    """One granted lease: the job, its attempt count, and how it was won."""

    job: CampaignJob
    attempt: int
    stolen: bool


# ------------------------------------------------------------------ board
class CampaignBoard:
    """File-backed job board for one campaign under a shared directory.

    Layout::

        board.json           schema, fingerprint, ttl, retry budget
        board.lock           advisory flock serialising all mutations
        .clock               probe file; its mtime is the board's clock
        journal.jsonl        append-only checksummed event journal
        jobs/<key>.json      immutable job definitions
        state/<key>.json     mutable attempt/steal counters
        leases/<key>.lease   owner + attempt; mtime is the heartbeat
        done/<key>.json      completion markers
        poisoned/<key>.json  circuit-broken jobs with their reason
        results/<xx>/...     the ShardedResultStore

    Every mutation (claim, steal, release, done, poison, journal append)
    runs under the board's advisory lock, so any number of processes —
    on any number of hosts sharing the directory — see a consistent
    board.  Lease expiry compares mtimes against the mtime of a freshly
    touched probe file (:meth:`now`), never a wall clock.

    Args:
        directory: Board directory (created on demand).
        ttl_seconds: Heartbeat TTL; an older lease is stealable.
        max_attempts: Claims allowed per job before it is poisoned.
        prefix_chars: Key-prefix width of the result store shards.
        metrics: Shared registry for the ``sim.campaign.*`` counters.
    """

    def __init__(
        self,
        directory: str,
        ttl_seconds: float = 5.0,
        max_attempts: int = 3,
        prefix_chars: int = 2,
        metrics: MetricsRegistry | None = None,
    ):
        if ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.directory = directory
        self.ttl_seconds = float(ttl_seconds)
        self.max_attempts = int(max_attempts)
        self.prefix_chars = int(prefix_chars)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.telemetry = CampaignTelemetry(self.metrics)
        for sub in ("jobs", "state", "leases", "done", "poisoned", "results",
                    "obs"):
            os.makedirs(os.path.join(directory, sub), exist_ok=True)

    @classmethod
    def open(
        cls, directory: str, metrics: MetricsRegistry | None = None
    ) -> "CampaignBoard":
        """Attach to an existing board, adopting its recorded settings.

        Raises:
            FileNotFoundError: When the directory holds no ``board.json``.
            ValueError: When the board was written by a newer schema.
        """
        with open(os.path.join(directory, "board.json")) as handle:
            meta = json.load(handle)
        if meta.get("schema") != BOARD_SCHEMA_VERSION:
            raise ValueError(
                f"board at {directory} has schema {meta.get('schema')!r}; "
                f"this build reads schema {BOARD_SCHEMA_VERSION}"
            )
        return cls(
            directory,
            ttl_seconds=meta["ttl_seconds"],
            max_attempts=meta["max_attempts"],
            prefix_chars=meta["prefix_chars"],
            metrics=metrics,
        )

    # ---------------------------------------------------------------- paths
    @property
    def meta_path(self) -> str:
        return os.path.join(self.directory, "board.json")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, "journal.jsonl")

    @property
    def results_dir(self) -> str:
        return os.path.join(self.directory, "results")

    def _job_path(self, key: str) -> str:
        return os.path.join(self.directory, "jobs", f"{key}.json")

    def _state_path(self, key: str) -> str:
        return os.path.join(self.directory, "state", f"{key}.json")

    def _lease_path(self, key: str) -> str:
        return os.path.join(self.directory, "leases", f"{key}.lease")

    def _done_path(self, key: str) -> str:
        return os.path.join(self.directory, "done", f"{key}.json")

    def _poison_path(self, key: str) -> str:
        return os.path.join(self.directory, "poisoned", f"{key}.json")

    def store(self, faults=None) -> ShardedResultStore:
        """The campaign's shared result store (one per call, same files)."""
        return ShardedResultStore(
            self.results_dir,
            faults=faults,
            metrics=self.metrics,
            prefix_chars=self.prefix_chars,
        )

    # ----------------------------------------------------------- primitives
    @contextlib.contextmanager
    def _lock(self):
        """Board-wide mutual exclusion over claims, steals and the journal.

        Degrades to an unlocked no-op (yielding False) where ``fcntl`` is
        unavailable — single-process boards still work there.
        """
        if fcntl is None:
            yield False
            return
        with open(os.path.join(self.directory, "board.lock"), "a") as handle:
            waited = time.perf_counter()
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                self.metrics.histogram(
                    "sim.campaign.board.flock_wait.seconds"
                ).observe(time.perf_counter() - waited)
                yield True
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def now(self) -> float:
        """The shared filesystem's clock: a touched probe file's mtime.

        Lease expiry compares this against lease mtimes, so the decision
        uses the *same* clock that stamped the heartbeat — meaningful
        across hosts with skewed wall clocks, and free of wall-clock reads
        (a determinism lint error in ``repro.sim``).
        """
        probe = os.path.join(self.directory, ".clock")
        with open(probe, "a"):
            pass
        os.utime(probe)
        return os.stat(probe).st_mtime

    def _append_journal(self, event: str, **fields) -> None:
        """Append one checksummed record; the caller holds the board lock.

        The next sequence number is re-derived from the journal tail on
        every append — boards have many writers, so no single process can
        own the counter.  Journals are small (a few records per job), so
        the re-read is cheap.
        """
        started = time.perf_counter()
        records = self.read_journal()
        seq = int(records[-1]["seq"]) + 1 if records else 0
        # ``clock`` stamps the record with the board's shared-filesystem
        # clock (never wall time), so ``campaign status --detail`` can
        # derive completion rates and an ETA from journal deltas.
        record = {"seq": seq, "event": event, "clock": self.now(), **fields}
        record["sha1"] = _journal_checksum(record)
        try:
            self._truncate_torn_tail(records)
            with open(self.journal_path, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            logger.warning("campaign journal append failed: %s", exc)
        self.metrics.histogram(
            "sim.campaign.journal.append.seconds"
        ).observe(time.perf_counter() - started)

    def _truncate_torn_tail(self, records: list[dict]) -> None:
        """Drop a torn tail before appending (caller holds the lock).

        A writer dying mid-append leaves a partial last line; appends
        after it would be unreachable (reads stop at the first bad
        record), so the verified prefix is rewritten first.
        """
        try:
            with open(self.journal_path) as handle:
                lines = [line for line in handle if line.strip()]
        except FileNotFoundError:
            logger.debug("campaign journal not written yet; nothing to trim")
            return
        if len(lines) == len(records):
            return
        logger.warning(
            "campaign journal at %s has a torn tail "
            "(%d line(s), %d verified); truncating",
            self.journal_path, len(lines), len(records),
        )
        atomic_write_text(
            self.journal_path,
            "".join(
                json.dumps(record, sort_keys=True) + "\n"
                for record in records
            ),
        )

    def read_journal(self) -> list[dict]:
        """Verified journal records, oldest first (torn tail dropped)."""
        try:
            with open(self.journal_path) as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            logger.debug("campaign journal not written yet")
            return []
        except OSError as exc:
            logger.debug("campaign journal unreadable: %s", exc)
            return []
        records: list[dict] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                body = {k: v for k, v in record.items() if k != "sha1"}
                if _journal_checksum(body) != record["sha1"]:
                    raise ValueError("journal record checksum mismatch")
            except (ValueError, KeyError, TypeError) as exc:
                logger.debug("dropping torn journal tail: %s", exc)
                break
            records.append(record)
        return records

    def _read_json(self, path: str) -> dict | None:
        try:
            with open(path) as handle:
                return json.load(handle)
        except FileNotFoundError:
            logger.debug("board artifact absent: %s", path)
            return None
        except (OSError, ValueError) as exc:
            logger.debug("unreadable board artifact %s: %s", path, exc)
            return None

    def _read_state(self, key: str) -> dict:
        state = self._read_json(self._state_path(key))
        if state is None:
            return {"attempts": 0, "steals": 0}
        return {
            "attempts": int(state.get("attempts", 0)),
            "steals": int(state.get("steals", 0)),
        }

    def job_keys(self) -> list[str]:
        """Every job key on the board, sorted (the claim scan order)."""
        try:
            names = os.listdir(os.path.join(self.directory, "jobs"))
        except OSError as exc:
            logger.debug("board jobs dir unlistable: %s", exc)
            return []
        return sorted(
            name[: -len(".json")] for name in names if name.endswith(".json")
        )

    def load_job(self, key: str) -> CampaignJob | None:
        """The immutable job definition for one key, or None."""
        data = self._read_json(self._job_path(key))
        if data is None:
            return None
        return CampaignJob(**data)

    # ----------------------------------------------------------------- sync
    def create_or_sync(
        self, fingerprint: str, jobs: list[CampaignJob]
    ) -> dict[str, int]:
        """Bring the board in line with one manifest's job set.

        The incremental-recompute entry point: jobs whose content-addressed
        key already has a *verified* result are marked done (``job-reused``
        in the journal, never re-run); done markers whose result is missing
        or corrupt are re-queued with a fresh attempt budget; keys the new
        configuration no longer wants are retired.  Everything else is
        queued.  Returns the counts, which tests assert against the
        journal.
        """
        counts = {"queued": 0, "reused": 0, "requeued": 0, "retired": 0,
                  "pending": 0}
        store = self.store()
        with self._lock():
            meta = self._read_json(self.meta_path)
            if meta is None or meta.get("fingerprint") != fingerprint:
                atomic_write_text(
                    self.meta_path,
                    json.dumps(
                        {
                            "schema": BOARD_SCHEMA_VERSION,
                            "fingerprint": fingerprint,
                            "ttl_seconds": self.ttl_seconds,
                            "max_attempts": self.max_attempts,
                            "prefix_chars": self.prefix_chars,
                        },
                        indent=2,
                        sort_keys=True,
                    ),
                )
                self._append_journal(
                    "board-synced",
                    fingerprint=fingerprint,
                    previous=meta.get("fingerprint") if meta else None,
                )
            wanted = {job.key: job for job in jobs}
            known = set(self.job_keys())
            for key in sorted(known - set(wanted)):
                for path in (
                    self._job_path(key), self._state_path(key),
                    self._lease_path(key), self._done_path(key),
                    self._poison_path(key),
                ):
                    with contextlib.suppress(OSError):
                        os.remove(path)
                self._append_journal("job-retired", key=key)
                counts["retired"] += 1
            for key, job in sorted(
                wanted.items(), key=lambda item: item[1].ordinal
            ):
                if key not in known:
                    atomic_write_text(
                        self._job_path(key),
                        json.dumps(dataclasses.asdict(job), sort_keys=True),
                    )
                    self._append_journal(
                        "job-queued", key=key, workload=job.workload,
                        machine=job.machine_name,
                    )
                was_done = os.path.exists(self._done_path(key))
                if store.verify(key):
                    if not was_done:
                        atomic_write_text(
                            self._done_path(key),
                            json.dumps({"owner": "sync", "adopted": True}),
                        )
                        self._append_journal(
                            "job-reused", key=key, workload=job.workload
                        )
                    counts["reused"] += 1
                elif was_done:
                    # Done marker without an intact result: the store entry
                    # was invalidated or corrupted; give the job a fresh
                    # budget and re-queue it.
                    for path in (self._done_path(key), self._state_path(key)):
                        with contextlib.suppress(OSError):
                            os.remove(path)
                    self._append_journal(
                        "job-requeued", key=key, owner="sync",
                        reason="result missing or corrupt",
                    )
                    counts["requeued"] += 1
                elif key not in known:
                    counts["queued"] += 1
                else:
                    counts["pending"] += 1
        self.telemetry.jobs_queued += counts["queued"]
        self.telemetry.jobs_reused += counts["reused"]
        self.telemetry.jobs_requeued += counts["requeued"]
        self.telemetry.jobs_retired += counts["retired"]
        return counts

    # --------------------------------------------------------------- leasing
    def claim(self, owner: str) -> Claim | None:
        """Claim the first available job for ``owner``, or None.

        Scans keys in sorted order (deterministic across claimants): skips
        done/poisoned jobs and live leases, steals expired leases, and
        poisons jobs whose attempt count would exceed the board budget.
        """
        with self._lock():
            now = self.now()
            for key in self.job_keys():
                if os.path.exists(self._done_path(key)) or os.path.exists(
                    self._poison_path(key)
                ):
                    continue
                state = self._read_state(key)
                lease_path = self._lease_path(key)
                lease = self._read_json(lease_path)
                stolen = False
                if lease is not None:
                    try:
                        age = now - os.stat(lease_path).st_mtime
                    except OSError as exc:
                        logger.debug("lease vanished under claim: %s", exc)
                        age = self.ttl_seconds + 1.0
                    self.metrics.histogram(
                        "sim.campaign.lease.age.seconds"
                    ).observe(max(age, 0.0))
                    if age <= self.ttl_seconds:
                        continue
                    stolen = True
                if state["attempts"] >= self.max_attempts:
                    self._poison_locked(
                        key,
                        f"retry budget exhausted after "
                        f"{state['attempts']} attempt(s)",
                    )
                    continue
                attempt = state["attempts"] + 1
                atomic_write_text(
                    self._state_path(key),
                    json.dumps(
                        {
                            "attempts": attempt,
                            "steals": state["steals"] + int(stolen),
                        },
                        sort_keys=True,
                    ),
                )
                atomic_write_text(
                    lease_path,
                    json.dumps(
                        {"owner": owner, "attempt": attempt}, sort_keys=True
                    ),
                )
                if stolen:
                    self._append_journal(
                        "lease-stolen", key=key, owner=owner,
                        previous=(lease or {}).get("owner"), attempt=attempt,
                    )
                    self.telemetry.leases_stolen += 1
                else:
                    self._append_journal(
                        "lease-claimed", key=key, owner=owner, attempt=attempt
                    )
                self.telemetry.jobs_claimed += 1
                job = self.load_job(key)
                if job is None:
                    # The job file itself is gone or corrupt: poison rather
                    # than loop forever on an undecodable claim.
                    self._poison_locked(key, "job definition unreadable")
                    continue
                return Claim(job=job, attempt=attempt, stolen=stolen)
        return None

    def _poison_locked(self, key: str, reason: str) -> None:
        """Poison one job (caller holds the board lock)."""
        atomic_write_text(
            self._poison_path(key), json.dumps({"reason": reason})
        )
        with contextlib.suppress(OSError):
            os.remove(self._lease_path(key))
        self._append_journal("job-poisoned", key=key, reason=reason)
        self.telemetry.jobs_poisoned += 1

    def owns(self, key: str, owner: str) -> bool:
        """True while ``owner`` still holds the lease on ``key``."""
        lease = self._read_json(self._lease_path(key))
        return lease is not None and lease.get("owner") == owner

    def heartbeat(self, key: str, owner: str) -> bool:
        """Refresh the lease heartbeat; False once the lease was lost."""
        with self._lock():
            if not self.owns(key, owner):
                return False
            try:
                os.utime(self._lease_path(key))
            except OSError as exc:
                logger.debug("heartbeat on %s failed: %s", key, exc)
                return False
        return True

    def release(self, key: str, owner: str, reason: str = "") -> bool:
        """Give an errored job's lease back (requeue); no-op if not owner."""
        with self._lock():
            if not self.owns(key, owner):
                return False
            with contextlib.suppress(OSError):
                os.remove(self._lease_path(key))
            self._append_journal(
                "job-requeued", key=key, owner=owner, reason=reason
            )
        self.telemetry.jobs_requeued += 1
        return True

    def mark_done(self, key: str, owner: str, adopted: bool = False) -> None:
        """Mark one job complete and drop its lease."""
        with self._lock():
            atomic_write_text(
                self._done_path(key),
                json.dumps({"owner": owner, "adopted": bool(adopted)}),
            )
            with contextlib.suppress(OSError):
                os.remove(self._lease_path(key))
            self._append_journal(
                "job-done", key=key, owner=owner, adopted=bool(adopted)
            )
        self.telemetry.jobs_done += 1
        if adopted:
            self.telemetry.jobs_adopted += 1

    def note_abandoned(self, key: str, owner: str) -> None:
        """Journal a stalled claimant dropping a job it no longer owns."""
        with self._lock():
            self._append_journal("job-abandoned", key=key, owner=owner)
        self.telemetry.jobs_abandoned += 1

    # ---------------------------------------------------------------- status
    def all_settled(self) -> bool:
        """True once every board job is done or poisoned."""
        keys = self.job_keys()
        return all(
            os.path.exists(self._done_path(key))
            or os.path.exists(self._poison_path(key))
            for key in keys
        )

    def poisoned_jobs(self) -> tuple[tuple[str, str, str], ...]:
        """Every poisoned job as ``(key, workload, reason)``, sorted."""
        out = []
        for key in self.job_keys():
            marker = self._read_json(self._poison_path(key))
            if marker is None:
                continue
            job = self.load_job(key)
            out.append(
                (key, job.workload if job else "?", marker.get("reason", ""))
            )
        return tuple(out)

    def status(self) -> dict[str, int]:
        """Board-level counts: total/done/poisoned/leased/queued."""
        keys = self.job_keys()
        done = sum(1 for k in keys if os.path.exists(self._done_path(k)))
        poisoned = sum(
            1 for k in keys if os.path.exists(self._poison_path(k))
        )
        leased = sum(
            1
            for k in keys
            if os.path.exists(self._lease_path(k))
            and not os.path.exists(self._done_path(k))
        )
        return {
            "total": len(keys),
            "done": done,
            "poisoned": poisoned,
            "leased": leased,
            "queued": len(keys) - done - poisoned - leased,
        }


# ----------------------------------------------------------------- workers
@dataclass
class WorkerReport:
    """What one shard did over its lifetime (returned by run_worker)."""

    owner: str
    claimed: int = 0
    done: int = 0
    adopted: int = 0
    stolen: int = 0
    abandoned: int = 0
    errors: int = 0


def _heartbeat_loop(
    board: CampaignBoard, key: str, owner: str, stop: threading.Event
) -> None:
    interval = max(board.ttl_seconds / 3.0, 0.01)
    while not stop.wait(interval):
        if not board.heartbeat(key, owner):
            return


def _run_one(
    board: CampaignBoard,
    store: ShardedResultStore,
    job: CampaignJob,
    attempt: int,
    owner: str,
    rail: GuardRail,
    faults,
    in_worker: bool,
    report: WorkerReport,
    tracer: Tracer = NULL_TRACER,
) -> None:
    """One claimed job: adopt, or recompute + store + mark done."""
    if store.verify(job.key):
        # A previous owner stored the result but died before its done
        # marker (or sync raced us): adopt it, never recompute.
        board.mark_done(job.key, owner, adopted=True)
        report.adopted += 1
        report.done += 1
        return
    trace = compile_trace(workload_by_name(job.workload), job.n_instrs)
    machine = machine_from_spec(job.machine)
    derived = cache_key(trace, machine)
    if derived != job.key:
        raise RuntimeError(
            f"job key mismatch for {job.workload} on {job.machine_name}: "
            f"board says {job.key[:12]}, derived {derived[:12]}"
        )
    if faults is not None:
        faults.apply_job_fault(job.ordinal, job.workload, attempt,
                               in_worker=in_worker)
    result, events, _ = guarded_simulate(
        trace, machine, faults, job.ordinal, attempt, tracer=tracer
    )
    rail.absorb(events)
    store.put(trace, machine, result)
    if faults is not None:
        crash = faults.shard_fault("stored", job.workload, attempt)
        if crash is not None:
            if in_worker:
                os._exit(1)
            raise InjectedFault(
                f"injected shard crash after storing {job.workload} "
                f"(attempt {attempt})"
            )
    board.mark_done(job.key, owner)
    report.done += 1


def run_worker(
    board_dir: str,
    owner: str | None = None,
    faults=None,
    max_jobs: int | None = None,
    poll_seconds: float = 0.05,
    in_worker: bool = True,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> WorkerReport:
    """One shard's claim-execute loop over an existing board.

    Claims jobs until the board settles (every job done or poisoned) or
    ``max_jobs`` completions, heartbeating each lease from a background
    thread.  A job that raises is journalled and released for the next
    claimant; the board's attempt budget eventually poisons repeat
    offenders.  ``in_worker=False`` (the coordinator's inline drain) makes
    injected crash faults raise instead of killing the process.  Guard
    events (re-decoded corrupt decodes, rejected replays) are counted as
    ``sim.guard.*`` metrics in ``metrics``, so they reach the merged
    campaign snapshot.

    Returns:
        A :class:`WorkerReport` of everything this shard did.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    board = CampaignBoard.open(board_dir, metrics=metrics)
    store = board.store()
    rail = GuardRail(metrics=board.metrics, tracer=tracer)
    if owner is None:
        owner = f"worker-{os.getpid()}"
    report = WorkerReport(owner=owner)
    worker_span = tracer.span("campaign-worker", kind="campaign", owner=owner)
    worker_span.__enter__()
    while max_jobs is None or report.done < max_jobs:
        claim = board.claim(owner)
        if claim is None:
            if board.all_settled():
                break
            time.sleep(poll_seconds)
            continue
        job, attempt = claim.job, claim.attempt
        report.claimed += 1
        if claim.stolen:
            report.stolen += 1
        # The span opens before the stall-fault window so a lease lost
        # under a live worker is visible on this shard's track (closed
        # with ``abandoned=True``) while the thief's track carries the
        # matching ``stolen=True`` span.
        jspan = tracer.span(
            "campaign-job", kind="campaign", workload=job.workload,
            machine=job.machine_name, attempt=attempt, owner=owner,
            stolen=claim.stolen,
        )
        with jspan:
            if faults is not None:
                # A lease-stall fault sleeps *before* the heartbeat thread
                # starts, so the lease genuinely expires under a live
                # worker.
                stall = faults.shard_fault("claimed", job.workload, attempt)
                if stall is not None:
                    time.sleep(stall.hang_seconds)
                    if not board.owns(job.key, owner):
                        board.note_abandoned(job.key, owner)
                        report.abandoned += 1
                        jspan.set(abandoned=True)
                        continue
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop, args=(board, job.key, owner, stop),
                daemon=True,
            )
            beat.start()
            started = time.perf_counter()
            try:
                _run_one(board, store, job, attempt, owner, rail, faults,
                         in_worker, report, tracer)
                board.metrics.histogram(
                    "sim.campaign.job.seconds"
                ).observe(time.perf_counter() - started)
            except Exception as exc:
                if isinstance(exc, ReplayRejected):
                    rail.absorb(exc.events)
                report.errors += 1
                board.telemetry.job_errors += 1
                jspan.set(failed=True, error=type(exc).__name__)
                logger.warning(
                    "campaign job %s on %s failed on attempt %d: %s",
                    job.workload, job.machine_name, attempt, exc,
                )
                board.release(
                    job.key, owner, reason=f"{type(exc).__name__}: {exc}"
                )
            finally:
                stop.set()
                beat.join()
    worker_span.set(
        claimed=report.claimed, done=report.done, stolen=report.stolen,
        abandoned=report.abandoned, errors=report.errors,
    )
    worker_span.__exit__(None, None, None)
    return report


def _worker_entry(
    board_dir, owner, faults, max_jobs, poll_seconds, trace=False,
):
    """Spawned-shard entry point (module-level for picklability).

    Every shard owns a private metrics registry and (when ``trace`` is
    set) a tracer streaming checksummed segments into
    ``<board_dir>/obs/<owner>/events.jsonl``.  The metrics snapshot is
    written even on an error exit — only a SIGKILL loses it, and the
    coordinator-side merge tolerates the gap.
    """
    obs_dir = os.path.join(board_dir, "obs", owner)
    metrics = MetricsRegistry()
    tracer = Tracer(
        enabled=bool(trace),
        stream_path=(
            os.path.join(obs_dir, "events.jsonl") if trace else None
        ),
        metrics=metrics,
    )
    try:
        run_worker(
            board_dir,
            owner=owner,
            faults=faults,
            max_jobs=max_jobs,
            poll_seconds=poll_seconds,
            in_worker=True,
            metrics=metrics,
            tracer=tracer,
        )
    finally:
        tracer.close()
        os.makedirs(obs_dir, exist_ok=True)
        snapshot_path = os.path.join(obs_dir, "metrics.json")
        # Cumulative across campaign resumes: an owner re-spawned on the
        # same board folds its previous snapshot in, so the merged
        # campaign snapshot keeps matching the (append-only) journal.
        cumulative = MetricsRegistry()
        try:
            with open(snapshot_path) as handle:
                prior = json.load(handle)
            if isinstance(prior, dict):
                cumulative.absorb(registry_from_snapshot(prior))
        except (OSError, ValueError, TypeError, KeyError) as exc:
            logger.warning(
                "prior shard snapshot unusable (%s: %s); starting fresh",
                type(exc).__name__, exc,
            )
        cumulative.absorb(metrics)
        atomic_write_text(
            snapshot_path,
            json.dumps(cumulative.snapshot(), sort_keys=True) + "\n",
        )


# -------------------------------------------------------------- coordinator
@dataclass
class CampaignResult:
    """Outcome of one coordinated campaign.

    Attributes:
        board_dir: The board directory everything lives under.
        shards: Shard processes requested.
        sync: The :meth:`CampaignBoard.create_or_sync` counts.
        status: Final board counts (total/done/poisoned/leased/queued).
        poisoned: ``(key, workload, reason)`` of circuit-broken jobs.
        lost_shards: Shard processes that exited abnormally.
        health: A :class:`~repro.core.validation.CollectionHealth` holding
            the structured shard-loss / lease-steal / poison records.
        counters: The coordinator's ``sim.campaign.*`` counter values.
        gemstone: The collation :class:`~repro.core.pipeline.GemStone`
            (reading the campaign's store) when ``collate=True``.
        summary: Deterministic campaign section data (job counts, steal /
            abandon totals, the shard-count auto-tune hint) rendered into
            the collation report.
    """

    board_dir: str
    shards: int
    sync: dict
    status: dict
    poisoned: tuple
    lost_shards: int
    health: object
    counters: dict
    gemstone: object | None = None
    summary: dict | None = None

    @property
    def degraded(self) -> bool:
        return bool(self.poisoned or self.lost_shards)


def run_campaign(
    config,
    board_dir: str,
    shards: int = 2,
    ttl_seconds: float = 5.0,
    max_attempts: int | None = None,
    max_jobs_per_shard: int | None = None,
    poll_seconds: float = 0.05,
    collate: bool = True,
    tracer: Tracer | None = None,
) -> CampaignResult:
    """Coordinate one sharded campaign end to end.

    Syncs the board against the config's manifest (incremental recompute:
    verified results are reused, invalidated keys re-queued), spawns
    ``shards`` worker processes, supervises them — if every shard dies
    with work outstanding, the remainder is drained inline so the campaign
    always converges — then reaps exit codes into structured
    ``shard-lost`` guard events and collates through a normal
    :class:`~repro.core.pipeline.GemStone` whose executor reads the
    campaign's result store.  A clean campaign's datasets are bit-identical
    to a serial run; one with shards killed mid-flight converges to the
    same bytes via lease stealing and result adoption.

    Args:
        config: A :class:`~repro.core.pipeline.GemStoneConfig`.
        board_dir: Shared directory for the board (created on demand).
        shards: Worker processes to spawn (>= 1).
        ttl_seconds: Lease heartbeat TTL.
        max_attempts: Claims per job before poisoning; defaults to the
            config's retry policy budget.
        max_jobs_per_shard: Optional per-shard completion cap (tests use
            it to simulate a coordinator killed mid-campaign).
        poll_seconds: Supervision/idle-claim poll interval.
        collate: Build the collation GemStone (datasets, report) once the
            board settles.
        tracer: Coordinator-side tracer; shard workers always stream
            their own tracers into ``<board>/obs/<owner>/`` regardless.

    Raises:
        ValueError: For a non-positive ``shards``.
    """
    import multiprocessing

    from repro.core.runstate import RunManifest
    from repro.core.validation import CollectionHealth

    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    tracer = tracer if tracer is not None else NULL_TRACER
    retry = config.retry if config.retry is not None else RetryPolicy()
    if max_attempts is None:
        max_attempts = retry.max_attempts
    manifest = RunManifest.from_config(config)
    board = CampaignBoard(
        board_dir, ttl_seconds=ttl_seconds, max_attempts=max_attempts
    )
    health = CollectionHealth()
    lost = 0
    with tracer.span(
        "campaign", kind="campaign", shards=shards, board=board_dir
    ):
        sync = board.create_or_sync(manifest.fingerprint, campaign_jobs(config))
        logger.info(
            "campaign board %s synced: %d queued, %d reused, %d requeued, "
            "%d retired", board_dir, sync["queued"], sync["reused"],
            sync["requeued"], sync["retired"],
        )
        procs: list = []
        if not board.all_settled():
            ctx = multiprocessing.get_context()
            for i in range(shards):
                proc = ctx.Process(
                    target=_worker_entry,
                    args=(board_dir, f"shard-{i}", config.faults,
                          max_jobs_per_shard, poll_seconds,
                          tracer.enabled),
                )
                proc.start()
                procs.append(proc)
            board.telemetry.workers_started += len(procs)
            while not board.all_settled():
                if not any(proc.is_alive() for proc in procs):
                    # Every shard is gone (finished, crashed or capped)
                    # with work outstanding: drain inline so the campaign
                    # always converges.  Injected crash faults raise here
                    # instead of killing the coordinator, so the attempt
                    # budget can poison repeat offenders.
                    logger.warning(
                        "all %d shard(s) exited with work outstanding; "
                        "draining inline", len(procs),
                    )
                    run_worker(
                        board_dir, owner="coordinator",
                        faults=config.faults, in_worker=False,
                        poll_seconds=poll_seconds,
                        metrics=board.metrics, tracer=tracer,
                    )
                    break
                time.sleep(poll_seconds)
            for proc in procs:
                proc.join()
            for i, proc in enumerate(procs):
                if proc.exitcode not in (0, None):
                    lost += 1
                    health.record_guard_event(
                        GuardEvent(
                            kind="shard-lost", workload="*", machine="*",
                            action="observe",
                            detail=(
                                f"shard-{i} exited with code {proc.exitcode}"
                            ),
                        )
                    )
            board.telemetry.workers_lost += lost
    for record in board.read_journal():
        if record.get("event") == "lease-stolen":
            job = board.load_job(str(record.get("key", "")))
            health.record_guard_event(
                GuardEvent(
                    kind="lease-steal",
                    workload=job.workload if job else "?",
                    machine=job.machine_name if job else "*",
                    action="observe",
                    detail=(
                        f"{record.get('owner')} stole attempt "
                        f"{record.get('attempt')} from "
                        f"{record.get('previous')}"
                    ),
                )
            )
    poisoned = board.poisoned_jobs()
    for _key, workload, reason in poisoned:
        health.record_failure(
            workload, 0.0, "campaign", RuntimeError(reason)
        )
    status = board.status()
    journal = board.read_journal()
    stolen = sum(1 for r in journal if r.get("event") == "lease-stolen")
    journal_claims = sum(
        1
        for r in journal
        if r.get("event") in ("lease-claimed", "lease-stolen")
    )
    abandoned = sum(
        1 for r in journal if r.get("event") == "job-abandoned"
    )
    # The campaign summary is built from journal- and board-derived counts
    # only — no wall-clock, no per-owner scheduling detail — so a clean
    # campaign's report stays byte-identical traced or untraced.  The
    # wall-clock health view (contention index, straggler skew) lives in
    # the merged Prometheus snapshot and ``campaign status --detail``.
    summary = {
        "shards": shards,
        "total": status["total"],
        "done": status["done"],
        "poisoned": status["poisoned"],
        "reused": sync["reused"],
        "requeued": sync["requeued"],
        "stolen": stolen,
        "abandoned": abandoned,
        "hint": autotune_hint(
            shards,
            status["total"],
            stolen / journal_claims if journal_claims else 0.0,
        ),
    }
    # Publish the campaign observability artifacts: the coordinator's own
    # metric snapshot (cumulative across resumes, like the shards') and
    # the merged campaign Prometheus snapshot over every obs/ snapshot.
    obs_dir = os.path.join(board_dir, "obs")
    coordinator_obs = os.path.join(obs_dir, "coordinator")
    os.makedirs(coordinator_obs, exist_ok=True)
    coordinator_path = os.path.join(coordinator_obs, "metrics.json")
    coordinator_registry = MetricsRegistry()
    try:
        with open(coordinator_path) as handle:
            prior = json.load(handle)
        if isinstance(prior, dict):
            coordinator_registry.absorb(registry_from_snapshot(prior))
    except (OSError, ValueError, TypeError, KeyError) as exc:
        logger.warning(
            "prior coordinator snapshot unusable (%s: %s); starting fresh",
            type(exc).__name__, exc,
        )
    coordinator_registry.absorb(board.metrics)
    atomic_write_text(
        coordinator_path,
        json.dumps(coordinator_registry.snapshot(), sort_keys=True) + "\n",
    )
    merged = merge_board_metrics(board_dir)
    record_health_gauges(merged, campaign_health(merged))
    write_prometheus_snapshot(merged, os.path.join(obs_dir, "metrics.prom"))
    result = CampaignResult(
        board_dir=board_dir,
        shards=shards,
        sync=sync,
        status=status,
        poisoned=poisoned,
        lost_shards=lost,
        health=health,
        counters=board.metrics.values_with_prefix("sim.campaign."),
        gemstone=None,
        summary=summary,
    )
    if collate:
        from repro.core.pipeline import GemStone

        gemstone = GemStone(dataclasses.replace(config, board_dir=board_dir))
        # The campaign counters and the structured degradation records
        # travel with the collation run, so its report and metric
        # snapshots tell the whole story.
        gemstone.metrics.absorb(board.metrics)
        gemstone.campaign = summary
        for event in health.guard_events:
            gemstone.health.record_guard_event(event)
            gemstone.executor.guard.record(event)
        for failure in health.failures:
            gemstone.health.failures.append(failure)
        result = dataclasses.replace(result, gemstone=gemstone)
    return result

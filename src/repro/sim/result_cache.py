"""On-disk memoisation of simulation results, with integrity checking.

GemStone is rerun constantly — after every model adjustment, every simulator
update (Section VII's workflow).  Simulation results depend only on the
(trace, machine configuration) pair, both of which are fully deterministic,
so they are safely memoised on disk: the cache key hashes the *entire*
machine configuration (not just its name — ablation studies mutate configs
in place) together with the trace identity.

Entries are stored as a small envelope — schema version + payload checksum
around the serialised result — so a half-written or bit-rotted file is
*detected* on read rather than deserialised into silently wrong numbers.
Corrupt entries are quarantined to ``<cache>/quarantine/`` (kept for
post-mortems, out of the key namespace so they can never poison another
run) and counted in :class:`CacheTelemetry`.  Writes fsync before the
atomic rename; a full or read-only cache directory degrades the cache to
uncached operation with a single warning instead of aborting a batch.

A :class:`~repro.sim.executor.SimExecutor` built with a ``cache_dir`` (the
one both simulators of a run share) probes and fills it; re-running an
evaluation after a restart then costs seconds, not minutes.

Campaign mode shares one store between many worker *processes on many
hosts*: :class:`ShardedResultStore` spreads the same envelopes across
key-prefix subdirectories (each one a plain :class:`SimResultCache`, so
entries are relocatable between flat and sharded layouts), and every
mutating path — the ``put`` replace and the quarantine move — runs under an
advisory per-directory ``flock`` so concurrent shards cannot race a
quarantine against a replace.  Locking is a no-op on platforms without
``fcntl``; single-process behaviour is byte-identical either way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import warnings

from repro.atomicio import atomic_write_text
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, MetricView
from repro.sim.cpu import SimResult
from repro.sim.machine import MachineConfig
from repro.workloads.trace import SyntheticTrace

logger = get_logger(__name__)

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]
    logger.debug("fcntl unavailable; advisory locking degrades to no-op")

#: Name of the advisory lock file inside each cache directory.  It never
#: matches the ``*.json`` entry pattern, so ``clear``/``__len__`` ignore it.
LOCK_FILE_NAME = ".lock"


@contextlib.contextmanager
def advisory_lock(directory: str):
    """Exclusive advisory lock over one cache directory's mutations.

    Serialises the replace-vs-quarantine races of multiple *processes*
    sharing a directory (threads of one process already serialise on the
    GIL around the short critical sections involved).  Yields True while
    the lock is held; on platforms without ``fcntl``, or when the lock
    file itself cannot be opened (read-only or vanished directory), it
    degrades to an unlocked no-op and yields False — the caller's atomic
    writes are still individually safe, just not mutually ordered.
    """
    if fcntl is None:
        yield False
        return
    path = os.path.join(directory, LOCK_FILE_NAME)
    try:
        handle = open(path, "a")
    except OSError as exc:
        logger.debug("advisory lock at %s unavailable: %s", path, exc)
        yield False
        return
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield True
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    finally:
        handle.close()

#: Bump when SimResult's meaning or the entry format changes; invalidates
#: every cached entry (v3: checksummed envelope format).
CACHE_SCHEMA_VERSION = 3


def machine_fingerprint(machine: MachineConfig) -> str:
    """Stable hash of every field of a machine configuration."""
    payload = json.dumps(dataclasses.asdict(machine), sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()


def cache_key(trace: SyntheticTrace, machine: MachineConfig) -> str:
    """Cache key for one (trace, machine) simulation."""
    raw = "|".join(
        [
            f"v{CACHE_SCHEMA_VERSION}",
            trace.name,
            str(trace.seed),
            str(trace.n_instrs),
            machine_fingerprint(machine),
        ]
    )
    return hashlib.sha1(raw.encode()).hexdigest()


def _payload_checksum(payload: dict) -> str:
    """Order-independent checksum of a JSON-serialisable payload."""
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class CacheTelemetry(MetricView):
    """Counters for one cache instance's lifetime.

    A view over the ``sim.cache.*`` counters of a
    :class:`~repro.obs.metrics.MetricsRegistry` (shared with the executor
    when the cache is built by one); the attribute API is unchanged.

    Attributes:
        hits: Reads answered from a verified entry.
        misses: Reads with no entry on disk.
        quarantined: Corrupt entries moved to the quarantine directory.
        put_failures: Writes abandoned because the directory is unusable.
    """

    _fields = {
        name: f"sim.cache.{name}"
        for name in ("hits", "misses", "quarantined", "put_failures")
    }


class SimResultCache:
    """A directory of checksummed, JSON-serialised :class:`SimResult` objects.

    Args:
        directory: Cache directory (created on demand).  When creation or a
            write fails (full or read-only filesystem) the cache degrades to
            uncached operation — reads still work where possible, writes
            become no-ops — after a single warning.
        faults: Optional :class:`~repro.sim.faults.FaultPlan`; its
            ``corrupt-cache`` faults garble matching writes so the
            quarantine path can be exercised deterministically.
        metrics: Shared :class:`~repro.obs.metrics.MetricsRegistry` the
            ``sim.cache.*`` counters live in; private when not given.
    """

    def __init__(
        self,
        directory: str,
        faults=None,
        metrics: MetricsRegistry | None = None,
    ):
        self.directory = directory
        self.faults = faults
        self.telemetry = CacheTelemetry(metrics)
        self.degraded = False
        self._warned = False
        self._put_counts: dict[str, int] = {}
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            self._degrade(exc)

    @property
    def quarantine_dir(self) -> str:
        """Where corrupt entries are preserved for post-mortems."""
        return os.path.join(self.directory, "quarantine")

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _degrade(self, exc: OSError) -> None:
        self.degraded = True
        self.telemetry.put_failures += 1
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"simulation cache at {self.directory} is unusable ({exc}); "
                "degrading to uncached operation",
                RuntimeWarning,
                stacklevel=3,
            )

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry out of the key namespace, keeping the bytes.

        The destination name carries a content hash of the corrupt bytes:
        repeated corruptions of the *same* key (a flaky disk region, a
        fault plan corrupting every write) land as distinct post-mortem
        artifacts instead of silently overwriting each other.

        The whole move runs under the directory's advisory lock so a
        concurrent shard's fresh ``put`` of the same key cannot be swept
        into quarantine between our corrupt read and the ``os.replace``.
        """
        self.telemetry.quarantined += 1
        with advisory_lock(self.directory):
            try:
                with open(path, "rb") as handle:
                    digest = hashlib.sha1(handle.read()).hexdigest()[:12]
            except OSError as exc:
                logger.debug("quarantine of %s could not hash the bytes: %s", path, exc)
                digest = "unreadable"
            stem, ext = os.path.splitext(os.path.basename(path))
            try:
                os.makedirs(self.quarantine_dir, exist_ok=True)
                dest = os.path.join(self.quarantine_dir, f"{stem}-{digest}{ext}")
                os.replace(path, dest)
            except OSError as exc:
                # Read-only directory or a concurrent quarantine: removal (or
                # nothing) is the best we can do; the entry is a miss either way.
                logger.debug("quarantine of %s failed (%s); removing instead", path, exc)
                with contextlib.suppress(OSError):
                    os.remove(path)

    def get(
        self, trace: SyntheticTrace, machine: MachineConfig
    ) -> SimResult | None:
        """Cached result for this simulation, or None.

        Entries failing the schema/checksum integrity check are quarantined
        and treated as misses.
        """
        path = self._path(cache_key(trace, machine))
        try:
            with open(path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            self.telemetry.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        try:
            if data["schema"] != CACHE_SCHEMA_VERSION:
                raise ValueError(f"schema {data['schema']}")
            payload = data["payload"]
            if _payload_checksum(payload) != data["checksum"]:
                raise ValueError("checksum mismatch")
            result = SimResult(
                machine=machine,
                trace_name=payload["trace_name"],
                threads=int(payload["threads"]),
                counts={k: float(v) for k, v in payload["counts"].items()},
                core_cycles=float(payload["core_cycles"]),
                dram_stall_weight=float(payload["dram_stall_weight"]),
                components={k: float(v) for k, v in payload["components"].items()},
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            self._quarantine(path)
            return None
        self.telemetry.hits += 1
        return result

    def verify(self, key: str) -> bool:
        """True when a structurally intact entry exists for this key.

        Campaign workers use this to adopt results a crashed shard already
        stored (by key, without re-deriving the trace): corrupt entries
        (bad JSON, wrong schema, checksum mismatch) are quarantined so the
        job is recomputed; a missing entry is simply False.
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            self.telemetry.misses += 1
            return False
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return False
        try:
            if data["schema"] != CACHE_SCHEMA_VERSION:
                raise ValueError(f"schema {data['schema']}")
            if _payload_checksum(data["payload"]) != data["checksum"]:
                raise ValueError("checksum mismatch")
        except (KeyError, TypeError, ValueError):
            self._quarantine(path)
            return False
        self.telemetry.hits += 1
        return True

    def put(
        self, trace: SyntheticTrace, machine: MachineConfig, result: SimResult
    ) -> None:
        """Store one simulation result (fsync + atomic rename).

        A failed write (full or read-only filesystem) degrades the cache to
        uncached operation with a single warning; it never raises mid-batch.
        """
        if self.degraded:
            return
        key = cache_key(trace, machine)
        path = self._path(key)
        payload = {
            "trace_name": result.trace_name,
            "threads": result.threads,
            "counts": result.counts,
            "core_cycles": result.core_cycles,
            "dram_stall_weight": result.dram_stall_weight,
            "components": result.components,
        }
        nth_put = self._put_counts.get(key, 0) + 1
        self._put_counts[key] = nth_put
        if self.faults is not None and self.faults.corrupts_cache(
            trace.name, nth_put
        ):
            # Injected corruption: a truncated write, as if the process died
            # (or the disk filled) between write and fsync.
            body = f'{{"schema": {CACHE_SCHEMA_VERSION}, "checksum": "dead'
        else:
            body = json.dumps(
                {
                    "schema": CACHE_SCHEMA_VERSION,
                    "checksum": _payload_checksum(payload),
                    "payload": payload,
                }
            )
        try:
            with advisory_lock(self.directory):
                atomic_write_text(path, body)
        except OSError as exc:
            self._degrade(exc)

    def clear(self) -> int:
        """Remove all cached entries; returns the number removed."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError as exc:
            logger.debug("cache clear skipped, %s unlistable: %s", self.directory, exc)
            return 0
        for name in names:
            if name.endswith(".json"):
                with contextlib.suppress(OSError):
                    os.remove(os.path.join(self.directory, name))
                    removed += 1
        return removed

    def __len__(self) -> int:
        try:
            names = os.listdir(self.directory)
        except OSError as exc:
            logger.debug("cache len 0, %s unlistable: %s", self.directory, exc)
            return 0
        return sum(1 for name in names if name.endswith(".json"))


class ShardedResultStore:
    """Content-addressed result store sharded by key-hash prefix.

    Generalises :class:`SimResultCache` for campaign mode, where many
    worker processes (potentially on many hosts sharing a filesystem)
    write into one store: entries are spread over ``prefix_chars``-wide
    key-prefix subdirectories, each a plain :class:`SimResultCache`, so
    the envelope format, checksum verification and quarantine semantics
    are identical and individual entries are relocatable between the flat
    and sharded layouts by moving files.  Sharding bounds per-directory
    entry counts and spreads the advisory-lock contention of concurrent
    writers across ``16**prefix_chars`` independent locks.

    Args:
        directory: Store root (created on demand).
        faults: Optional fault plan, forwarded to every shard.
        metrics: Shared registry for the ``sim.cache.*`` counters; all
            shards aggregate into the same counters.
        prefix_chars: Key-prefix width; 2 (the default) gives 256 shards,
            plenty below a million entries.
    """

    def __init__(
        self,
        directory: str,
        faults=None,
        metrics: MetricsRegistry | None = None,
        prefix_chars: int = 2,
    ):
        self.directory = directory
        self.faults = faults
        self.prefix_chars = prefix_chars
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.telemetry = CacheTelemetry(self.metrics)
        self._shards: dict[str, SimResultCache] = {}
        self._root_degraded = False
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            self._root_degraded = True
            warnings.warn(
                f"sharded result store at {directory} is unusable ({exc}); "
                "degrading to uncached operation",
                RuntimeWarning,
                stacklevel=2,
            )

    def _shard(self, key: str) -> SimResultCache:
        prefix = key[: self.prefix_chars]
        shard = self._shards.get(prefix)
        if shard is None:
            shard = SimResultCache(
                os.path.join(self.directory, prefix),
                faults=self.faults,
                metrics=self.metrics,
            )
            self._shards[prefix] = shard
        return shard

    @property
    def degraded(self) -> bool:
        """True once the root or any opened shard has degraded."""
        if self._root_degraded:
            return True
        return any(shard.degraded for shard in self._shards.values())

    def get(
        self, trace: SyntheticTrace, machine: MachineConfig
    ) -> SimResult | None:
        """Cached result for this simulation, or None."""
        if self._root_degraded:
            return None
        return self._shard(cache_key(trace, machine)).get(trace, machine)

    def put(
        self, trace: SyntheticTrace, machine: MachineConfig, result: SimResult
    ) -> None:
        """Store one simulation result in its key-prefix shard."""
        if self._root_degraded:
            return
        self._shard(cache_key(trace, machine)).put(trace, machine, result)

    def verify(self, key: str) -> bool:
        """True when a structurally intact entry exists for this key."""
        if self._root_degraded:
            return False
        return self._shard(key).verify(key)

    def clear(self) -> int:
        """Remove all cached entries across shards; returns the count."""
        removed = 0
        for prefix in self._prefixes():
            removed += self._shard(prefix).clear()
        return removed

    def _prefixes(self) -> list[str]:
        """Sorted key-prefix subdirectories that exist on disk."""
        try:
            names = os.listdir(self.directory)
        except OSError as exc:
            logger.debug("store at %s unlistable: %s", self.directory, exc)
            return []
        return sorted(
            name
            for name in names
            if len(name) == self.prefix_chars
            and all(c in "0123456789abcdef" for c in name)
            and os.path.isdir(os.path.join(self.directory, name))
        )

    def __len__(self) -> int:
        return sum(len(self._shard(prefix)) for prefix in self._prefixes())


def cache_spec(cache) -> tuple | None:
    """Picklable description of a cache, for reconstruction in workers.

    Pool workers cannot receive the cache object itself (it holds a
    metrics registry and open telemetry); they receive this small tuple
    and rebuild an equivalent writer over the same directory.
    """
    if cache is None:
        return None
    if isinstance(cache, ShardedResultStore):
        return ("sharded", cache.directory, cache.prefix_chars)
    return ("plain", cache.directory)


def open_cache_spec(spec: tuple | None, faults=None):
    """Rebuild the cache a :func:`cache_spec` tuple describes."""
    if spec is None:
        return None
    if spec[0] == "sharded":
        return ShardedResultStore(spec[1], faults=faults, prefix_chars=spec[2])
    return SimResultCache(spec[1], faults=faults)

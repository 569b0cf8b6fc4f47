"""Outside-in layer timing: wrappers around each layer's public entry points.

The traced run installs these wrappers before the report starts.  Each
wrapper replaces a function at its defining module *and* at every
``repro`` module that imported the name, so calls made through either
binding are timed.  Nothing inside the program is edited.

Worker processes (the ``jobs=2`` pool, campaign shards) are forked from the
benchmark process and inherit the wrappers.  A wrapper running in a child
appends its records to ``<spool>/<pid>.jsonl``; the parent reads those
files back with :meth:`Probe.collect` once the children have exited.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from collections import defaultdict
from time import perf_counter


class Probe:
    """Call records of every wrapped entry point, across processes.

    A record is ``(seconds, extra)`` under the wrapper's name; ``extra``
    carries counts such as rows replayed or whether a cache read hit.
    """

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        self.records: dict[str, list[tuple[float, dict]]] = defaultdict(list)
        # Re-entrancy depth per wrapper name: a sharded-store read that
        # delegates to a flat-cache read must be counted once.
        self._depth: dict[str, int] = defaultdict(int)
        os.makedirs(spool_dir, exist_ok=True)

    def add(self, name: str, seconds: float, **extra) -> None:
        if os.getpid() == self.owner_pid:
            self.records[name].append((seconds, extra))
            return
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps([name, seconds, extra]) + "\n")

    def collect(self) -> dict[str, list[tuple[float, dict]]]:
        """Parent records merged with every child's spool file."""
        merged = defaultdict(list, {k: list(v) for k, v in self.records.items()})
        for entry in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, entry)) as handle:
                for line in handle:
                    name, seconds, extra = json.loads(line)
                    merged[name].append((seconds, dict(extra, child=True)))
        return merged

    def timed(self, name: str, original, extra=None):
        """Wrap ``original`` so every outermost call adds one record.

        ``extra(args, kwargs, result)`` returns the record's extra fields.
        """
        probe = self

        def wrapper(*args, **kwargs):
            probe._depth[name] += 1
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                probe._depth[name] -= 1
            if probe._depth[name] == 0:
                fields = extra(args, kwargs, result) if extra else {}
                probe.add(name, elapsed, **fields)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper


def patch_function(module_name: str, attr: str, wrapper_of) -> None:
    """Replace ``module.attr`` everywhere ``repro`` bound the same object."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = wrapper_of(original)
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def patch_method(cls, attr: str, wrapper_of) -> None:
    setattr(cls, attr, wrapper_of(getattr(cls, attr)))


def _called_from(function_name: str, max_depth: int = 6) -> bool:
    frame = sys._getframe(2)
    for _ in range(max_depth):
        if frame is None:
            return False
        if frame.f_code.co_name == function_name:
            return True
        frame = frame.f_back
    return False


def install(probe: Probe) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.core.pipeline  # noqa: F401  (binds every imported name)
    import repro.core.report  # noqa: F401
    import repro.sim.campaign  # noqa: F401
    from repro.sim.executor import SimExecutor
    from repro.sim.result_cache import ShardedResultStore, SimResultCache

    def compile_extra(args, kwargs, trace):
        return {"key": [trace.name, int(trace.seed), int(trace.n_instrs)]}

    patch_function(
        "repro.workloads.trace", "compile_trace",
        lambda f: probe.timed("compile", f, compile_extra),
    )

    def simulate_extra(args, kwargs, outcome):
        _result, events, sentinels = outcome
        fallbacks = sum(
            1 for e in events
            if e.kind in ("divergence", "nan-result", "engine-error")
        )
        return {"sentinels": int(sentinels), "fallbacks": fallbacks}

    patch_function(
        "repro.sim.guard", "guarded_simulate",
        lambda f: probe.timed("simulate", f, simulate_extra),
    )

    def lru_extra(args, kwargs, result):
        # The L2 prefetch fixpoint's full-stream replays carry write-back
        # tracking and run under ``_batch_l2``.
        l2 = bool(kwargs.get("track_writebacks")) and _called_from("_batch_l2")
        return {"rows": int(len(args[0])), "l2": l2}

    patch_function(
        "repro.uarch.cache", "batch_lru_replay",
        lambda f: probe.timed("lru_replay", f, lru_extra),
    )

    def run_many_of(original):
        timed = probe.timed("run_many", original)

        def run_many(self, pairs, *args, **kwargs):
            pairs = list(pairs)
            payload = sum(len(pickle.dumps(pair)) for pair in pairs)
            probe.add("payload", 0.0, bytes=payload)
            return timed(self, pairs, *args, **kwargs)

        return run_many

    patch_method(SimExecutor, "run_many", run_many_of)

    def get_extra(args, kwargs, result):
        return {"hit": result is not None}

    for cls in (SimResultCache, ShardedResultStore):
        patch_method(cls, "get", lambda f: probe.timed("cache_get", f, get_extra))
        patch_method(cls, "put", lambda f: probe.timed("cache_put", f))

    patch_function(
        "repro.core.stats.stepwise", "forward_stepwise",
        lambda f: probe.timed("stepwise", f),
    )
    def ols_extra(args, kwargs, result):
        return {"in_stepwise": probe._depth["stepwise"] > 0}

    patch_function(
        "repro.core.stats.ols", "fit_ols",
        lambda f: probe.timed("fit_ols", f, ols_extra),
    )
    patch_function(
        "repro.core.report", "render_full_report",
        lambda f: probe.timed("render", f),
    )
    patch_function(
        "repro.sim.campaign", "run_campaign",
        lambda f: probe.timed("run_campaign", f),
    )

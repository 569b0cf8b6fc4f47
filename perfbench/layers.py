"""Per-layer metrics and the layer table of one traced report.

Three sources feed them: the probe records of the wrapped entry points
(:mod:`probes`), the span records the program's own tracer emits with
``trace=True`` (``phase:*`` and ``replay/*``), and the program's metrics
registries.  Campaign shards stream their spans and metric snapshots into
the board's ``obs/`` directory; both are read back from there.
"""

from __future__ import annotations

import os

#: Per-layer metric -> the ``replay/*`` spans it sums.
PASS_SPANS = {
    "sim.pass.l2_walk_s": ("replay/l2_walk",),
    "sim.pass.l1d_s": ("replay/l1d_pass",),
    "sim.pass.dtlb_s": ("replay/dtlb_pass",),
    "sim.pass.branch_s": ("replay/branch_pass",),
    "sim.pass.control_s": ("replay/control_pass",),
    "sim.pass.merge_events_s": ("replay/merge_events",),
    "sim.pass.l1i_itlb_s": ("replay/l1i_pass", "replay/itlb_pass"),
    "sim.pass.decode_s": ("replay/decode",),
}

#: Per-layer metric -> the ``phase:*`` spans it sums.
PHASE_SPANS = {
    "pipeline.dataset_s": ("phase:dataset",),
    "pipeline.power_dataset_s": ("phase:power-dataset",),
    "pipeline.regression_s": ("phase:regression-hw", "phase:regression-gem5"),
    "pipeline.power_model_s": ("phase:power-model",),
}

#: Campaign metric -> (registry name, histogram sum or counter value).
CAMPAIGN_REGISTRY = {
    "campaign.claims": "sim.campaign.jobs_claimed",
    "campaign.steals": "sim.campaign.leases_stolen",
    "campaign.flock_wait_s": "sim.campaign.board.flock_wait.seconds",
    "campaign.journal_append_s": "sim.campaign.journal.append.seconds",
}


def span_records(report) -> list[dict]:
    """Every span of the run: the report's tracer plus campaign shards."""
    records = list(report.gemstone.tracer.records)
    if report.campaign is not None:
        from repro.obs.merge import read_shard_stream, shard_streams

        for _owner, path in shard_streams(report.campaign.board_dir):
            records.extend(read_shard_stream(path)[0])
    return [r for r in records if r.get("kind") == "span"]


def _durations(spans, names) -> list[float]:
    return [s["dur_us"] / 1e6 for s in spans if s["name"] in names]


def _percentile_ms(values: list[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile in milliseconds (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1] * 1e3


def _registry_value(registry, name: str) -> float:
    try:
        return float(registry.value(name))
    except KeyError:
        return 0.0


def directory_bytes(path: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def per_layer(probe, report, work: str, untraced_run_s: float):
    """``(metric values, layer table text)`` of one traced report."""
    records = probe.collect()
    spans = span_records(report)
    gs = report.gemstone
    values: dict[str, float] = {}

    def seconds(name):
        return sum(s for s, _ in records[name])

    compiles = records["compile"]
    values["workloads.compile_calls"] = len(compiles)
    values["workloads.compile_unique"] = len(
        {tuple(extra["key"]) for _, extra in compiles}
    )
    values["workloads.compile_s"] = seconds("compile")

    replays = [s for s, _ in records["simulate"]]
    values["sim.replay_calls"] = len(replays)
    values["sim.replay_s"] = sum(replays)
    values["sim.replay_p50_ms"] = _percentile_ms(replays, 50)
    values["sim.replay_p95_ms"] = _percentile_ms(replays, 95)
    values["sim.replay_max_ms"] = max(replays, default=0.0) * 1e3
    spanned = 0.0
    for metric, names in PASS_SPANS.items():
        values[metric] = sum(_durations(spans, names))
        spanned += values[metric]
    values["sim.pass.l2_walk_max_ms"] = (
        max(_durations(spans, ("replay/l2_walk",)), default=0.0) * 1e3
    )
    values["sim.unspanned_s"] = values["sim.replay_s"] - spanned
    values["sim.guard.sentinel_replays"] = sum(
        e["sentinels"] for _, e in records["simulate"]
    )
    values["sim.guard.fallbacks"] = sum(
        e["fallbacks"] for _, e in records["simulate"]
    )

    lru = records["lru_replay"]
    values["uarch.lru_replay_calls"] = len(lru)
    values["uarch.lru_replay_rows"] = sum(e["rows"] for _, e in lru)
    values["uarch.lru_replay_s"] = seconds("lru_replay")
    values["uarch.l2_lru_replay_calls"] = sum(1 for _, e in lru if e["l2"])

    metrics = gs.metrics
    values["executor.run_many_s"] = seconds("run_many")
    values["executor.jobs_submitted"] = _registry_value(
        metrics, "sim.executor.jobs_submitted")
    values["executor.parallel_jobs_run"] = _registry_value(
        metrics, "sim.executor.parallel_jobs_run")
    values["executor.retries"] = _registry_value(
        metrics, "sim.executor.job_retries")
    values["executor.serial_fallbacks"] = _registry_value(
        metrics, "sim.executor.serial_fallbacks")
    values["executor.payload_bytes"] = sum(
        e["bytes"] for _, e in records["payload"]
    )

    values["cache.gets"] = len(records["cache_get"])
    values["cache.hits"] = sum(1 for _, e in records["cache_get"] if e["hit"])
    values["cache.puts"] = len(records["cache_put"])
    values["cache.get_s"] = seconds("cache_get")
    values["cache.put_s"] = seconds("cache_put")
    values["cache.store_bytes"] = directory_bytes(
        os.path.join(report.campaign.board_dir, "results")
        if report.campaign is not None
        else os.path.join(work, "store")
    )

    values["stats.stepwise_calls"] = len(records["stepwise"])
    values["stats.stepwise_s"] = seconds("stepwise")
    values["stats.fit_ols_calls"] = len(records["fit_ols"])
    values["stats.fit_ols_s"] = seconds("fit_ols")

    for metric, names in PHASE_SPANS.items():
        values[metric] = sum(_durations(spans, names))
    # Render self time: the wrapped call minus the phases it triggered
    # (the report renders lazily, so phases run inside it).
    report_spans = [s for s in spans if s["name"] == "phase:report"]
    nested = sum(
        s["dur_us"] / 1e6
        for s in spans
        if any(s.get("parent") == r["id"] for r in report_spans)
    )
    values["report.render_self_s"] = seconds("render") - nested

    values["campaign.drain_s"] = seconds("run_campaign")
    values["campaign.collate_s"] = report.collate_s
    if report.campaign is not None:
        from repro.obs.merge import merge_board_metrics

        board_metrics = merge_board_metrics(report.campaign.board_dir)
        for metric, name in CAMPAIGN_REGISTRY.items():
            values[metric] = _registry_value(board_metrics, name)
    else:
        for metric in CAMPAIGN_REGISTRY:
            values[metric] = 0.0

    values["obs.trace_overhead_frac"] = report.run_s / untraced_run_s - 1.0
    values["fidelity.a15_mpe_gap_pts"] = report.a15_mpe_gap_pts
    return values, layer_table(values, records, spans, report)


def consistency_problems(report, values) -> list[str]:
    """Cross-checks between the probes and the program's own counters."""
    problems = []
    if report.campaign is None:
        for name in ("sim.guard.sentinel_replays", "sim.guard.fallbacks"):
            registry = _registry_value(report.gemstone.metrics, name)
            if registry != values[name]:
                problems.append(
                    f"{name}: probes count {values[name]}, registry {registry}"
                )
    if values["sim.replay_calls"] and values["sim.pass.l2_walk_s"] <= 0.0:
        problems.append("replays ran but no replay/l2_walk span closed")
    return problems


def layer_table(values, records, spans, report) -> str:
    """The layer table: calls, total and self seconds, share of run_s."""
    in_parent = {
        name: sum(s for s, e in records[name] if not e.get("child"))
        for name in ("simulate", "cache_get", "cache_put")
    }
    stepwise_ols = sum(s for s, e in records["fit_ols"] if e["in_stepwise"])
    executor_self = values["executor.run_many_s"] - sum(in_parent.values())
    rows = [
        ("run_s (traced)", 1, report.run_s, None),
        ("compile_trace", values["workloads.compile_calls"],
         values["workloads.compile_s"], values["workloads.compile_s"]),
        ("guarded_simulate", values["sim.replay_calls"],
         values["sim.replay_s"], values["sim.unspanned_s"]),
    ]
    for metric, names in PASS_SPANS.items():
        rows.append(("  " + "+".join(names), len(_durations(spans, names)),
                     values[metric], values[metric]))
    rows += [
        ("    batch_lru_replay", values["uarch.lru_replay_calls"],
         values["uarch.lru_replay_s"], None),
        ("SimExecutor.run_many", len(records["run_many"]),
         values["executor.run_many_s"], executor_self),
        ("result store get", values["cache.gets"], values["cache.get_s"],
         values["cache.get_s"]),
        ("result store put", values["cache.puts"], values["cache.put_s"],
         values["cache.put_s"]),
        ("forward_stepwise", values["stats.stepwise_calls"],
         values["stats.stepwise_s"],
         values["stats.stepwise_s"] - stepwise_ols),
        ("fit_ols", values["stats.fit_ols_calls"], values["stats.fit_ols_s"],
         values["stats.fit_ols_s"]),
    ]
    for metric, names in PHASE_SPANS.items():
        rows.append(("+".join(names), None, values[metric], None))
    rows.append(("render_full_report", len(records["render"]),
                 sum(s for s, _ in records["render"]),
                 values["report.render_self_s"]))
    if report.campaign is not None:
        rows += [
            ("run_campaign (drain)", 1, values["campaign.drain_s"], None),
            ("GemStone.report (collate)", 1, values["campaign.collate_s"],
             None),
        ]

    def cell(value, digits=3):
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.{digits}f}"
        return str(value)

    header = ("layer", "calls", "total s", "self s", "% of run_s")
    body = [
        (name, cell(calls), cell(total), cell(own),
         cell(100.0 * total / report.run_s, 1))
        for name, calls, total, own in rows
    ]
    widths = [max(len(r[i]) for r in [header, *body]) for i in range(5)]
    lines = [
        "  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                  for i, (c, w) in enumerate(zip(r, widths)))
        for r in [header, *body]
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)

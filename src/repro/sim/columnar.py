"""Columnar replay engine: vectorized trace replay, bit-identical results.

The scalar reference loop in :mod:`repro.sim.cpu`
(:func:`~repro.sim.cpu.simulate_reference`, a test oracle) dispatches one
Python iteration per dynamic block.  This module, the only engine that runs
at run time, replays the same trace as a handful of whole-trace passes
instead:

1. **Branch pass** — every conditional branch is resolved at once
   (:func:`repro.uarch.branch.predict_conditional_batch`): the 2-bit
   counter tables become segmented clamp-scans, gshare history a bit
   convolution.  The conditional predictor is a closed subsystem — its
   state is touched by conditional branches only — so this pass is exact.
2. **Control pass** — a sparse scalar walk over just the control-flow
   blocks that interact with shared speculative state (calls, returns,
   indirect branches, plus the mispredicted conditionals): RAS, shadow
   stack, indirect predictor, and the LCG that picks wrong-path targets.
3. **L1 passes** — the L1I, L1D, ITLB and DTLB access streams are fully
   known once the control pass has fixed the wrong-path fetches, and each
   structure is pure LRU (the A15's streaming stores are resolved by
   :func:`repro.uarch.cache.batch_l1d_replay`'s verified fixpoint), so
   per-op hits, streamed stores and writebacks come from the batched
   stack-distance machinery in :mod:`repro.uarch.cache`.
4. **Merged L2 walk** — only the events that reach the shared L2 /
   L2 TLB / prefetcher (a few percent of all accesses) are replayed in
   exact program order against the real scalar models.  All
   order-sensitive float accumulation (stall terms with inexact weights,
   DRAM exposure weights) happens here, in the same order as the scalar
   engine, which is what keeps `SimResult` *bit-identical* rather than
   merely close.

The golden, randomized equivalence and property suites assert
bit-identity against the scalar reference loop.
"""

from __future__ import annotations

import zlib
from collections import deque

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.machine import MachineConfig
from repro.uarch.branch import predict_conditional_batch
from repro.uarch.cache import (
    CacheStats,
    batch_l1d_replay,
    batch_lru_replay,
    warm_content_rows,
)
from repro.uarch.tlb import TlbStats, batch_tlb_replay
from repro.workloads.trace import (
    CACHE_LINE_BYTES,
    PAGE_BYTES,
    SyntheticTrace,
)

_LCG_MULT = 1103515245
_LCG_ADD = 12345
_LCG_MASK = 0x7FFFFFFF

_CLS_RANDOM = 3  # BranchClass.RANDOM: last conditional class
_CLS_CALL = 4
_CLS_RETURN = 5

# Merged-walk event kinds, ordered roughly by expected frequency.
_EV_L1D_MISS = 0
_EV_DTLB_MISS = 1
_EV_L1D_WB = 2
_EV_L1I_MISS = 3
_EV_L1D_STREAM = 4
_EV_WP_TLB = 5
_EV_WP_L1I = 6
_EV_ITLB_MISS = 7

# Phase order of events inside one dynamic block, matching the scalar
# engine: instruction pages, instruction lines, data slots, wrong path.
_PH_IPAGE = 0
_PH_ILINE = 1
_PH_DATA = 2
_PH_WP = 3


def _merge_order(pos, phase, intra, sub):
    """Sort events into scalar program order: (pos, phase, intra, sub)."""
    return np.lexsort((sub, intra, phase, pos))


def _repeated_sum(value: float, n: int) -> float:
    """``n`` sequential float additions of ``value`` onto 0.0.

    Matches the scalar reference loop's accumulation rounding exactly.
    For the integer-valued penalties of the stock machine configurations
    this equals ``n * value``, but custom configurations may use
    penalties where sequential addition rounds differently.
    """
    total = 0.0
    for _ in range(n):
        total += value
    return total


def simulate_columnar(
    trace: SyntheticTrace,
    machine: MachineConfig,
    state=None,
    tracer: Tracer = NULL_TRACER,
):
    """Replay ``trace`` on ``machine`` with the columnar engine.

    Returns a `SimResult` bit-identical to ``repro.sim.cpu.simulate_reference``.
    ``state`` is an optional reused `_SimState` (reset by the caller);
    only its L2-side objects and geometry carriers are used here.
    """
    from repro.sim.cpu import (
        _SHADOW_STACK_DEPTH,
        _data_warm_arrays,
        _finalise,
        _make_state,
    )

    if state is None:
        state = _make_state(machine)
    l2 = state.l2
    l2_prefetcher = state.l2_prefetcher
    tlb = state.tlb
    ras = state.ras
    shadow_stack: deque[int] = deque(maxlen=_SHADOW_STACK_DEPTH)
    indirect = state.indirect

    tables = trace.replay_tables()
    with tracer.span("replay/decode", kind="replay"):
        cols = tables.columnar(trace)

    # ---------------------------------------------------------------- warm
    # Every structure is replayed in batch form: the warm sequences become
    # (compressed) mutating rows at the head of each stream, so the real
    # state objects are only touched if the L2 fixpoint falls back to the
    # scalar walk.
    code_lines = np.asarray(tables.code_lines, dtype=np.int64)
    code_pages = np.asarray(tables.code_pages, dtype=np.int64)
    memo = cols.fixpoint_seeds
    dw_key = ("data_warm", l2.size_bytes)
    if dw_key in memo:
        l2_warm, l1d_warm, data_pages = memo[dw_key]
    else:
        l2_warm, l1d_warm, data_pages = _data_warm_arrays(trace, l2.size_bytes)
        if l2_warm is None:
            l1d_warm = np.empty(0, dtype=np.int64)
            data_pages = np.empty(0, dtype=np.int64)
        memo[dw_key] = (l2_warm, l1d_warm, data_pages)

    # ---------------------------------------------------------- branch pass
    with tracer.span("replay/branch_pass", kind="replay"):
        cond_prediction = predict_conditional_batch(
            machine.predictor,
            machine.predictor_table_bits,
            machine.predictor_history_bits,
            cols.cond_pc,
            cols.cond_taken,
            cols.cond_backward,
        )
        cond_taken_b = cols.cond_taken.astype(bool)
        cond_miss = cond_prediction != cond_taken_b

    # ---------------------------------------------------------- control pass
    with tracer.span("replay/control_pass", kind="replay"):
        ctrl = _control_pass(trace, machine, cols, cond_miss, ras, shadow_stack, indirect)
    (
        wp_pos,
        wp_page,
        wp_line,
        calls,
        returns,
        indirect_branches,
        indirect_mispredicts,
        branch_mispredicts,
    ) = ctrl
    n_mispredicts = len(wp_pos)

    # ------------------------------------------------------------- L1 passes
    lines_per_page = PAGE_BYTES // CACHE_LINE_BYTES

    with tracer.span("replay/itlb_pass", kind="replay"):
        # ITLB stream: warm code pages, then translate_inst lookups (one per
        # deduplicated instruction-page event) interleaved with the
        # non-mutating wrong-path probes, in program order.
        n_ipage = len(cols.ipage_pos)
        ev_pos = np.concatenate([cols.ipage_pos.astype(np.int64), wp_pos])
        ev_phase = np.concatenate(
            [np.zeros(n_ipage, np.int8), np.full(n_mispredicts, _PH_WP, np.int8)]
        )
        ev_intra = np.concatenate(
            [cols.ipage_intra.astype(np.int64), np.zeros(n_mispredicts, np.int64)]
        )
        order = _merge_order(ev_pos, ev_phase, ev_intra, np.zeros(len(ev_pos), np.int8))
        itlb_pages = np.concatenate([cols.ipage_page, wp_page])[order]
        itlb_mut = np.concatenate(
            [np.ones(n_ipage, bool), np.zeros(n_mispredicts, bool)]
        )[order]
        itlb_warm = _warm_memo(
            memo, "itlb", code_pages, state.tlb.itlb.n_sets, state.tlb.itlb.assoc
        )
        n_warm = len(itlb_warm)
        itlb_keys = np.concatenate([itlb_warm, itlb_pages])
        itlb_mut_full = np.concatenate([np.ones(n_warm, bool), itlb_mut])
        hits = _replay_memo(
            memo,
            ("itlb_replay", state.tlb.itlb.n_sets, state.tlb.itlb.assoc),
            (itlb_keys, itlb_mut_full),
            lambda: batch_tlb_replay(
                itlb_keys, state.tlb.itlb, mutating=itlb_mut_full
            ),
        )[n_warm:]
        unsorted_hits = np.empty(len(hits), dtype=bool)
        unsorted_hits[order] = hits
        ipage_hit = unsorted_hits[:n_ipage]
        wp_probe_hit = unsorted_hits[n_ipage:]
        itlb_misses = int(np.count_nonzero(~ipage_hit))

    with tracer.span("replay/l1i_pass", kind="replay"):
        # L1I stream: warm code lines, then fetch accesses (deduplicated
        # instruction-line events) interleaved with wrong-path fetches.
        n_iline = len(cols.iline_pos)
        ev_pos = np.concatenate([cols.iline_pos.astype(np.int64), wp_pos])
        ev_phase = np.concatenate(
            [np.full(n_iline, _PH_ILINE, np.int8), np.full(n_mispredicts, _PH_WP, np.int8)]
        )
        ev_intra = np.concatenate(
            [cols.iline_intra.astype(np.int64), np.zeros(n_mispredicts, np.int64)]
        )
        order = _merge_order(ev_pos, ev_phase, ev_intra, np.zeros(len(ev_pos), np.int8))
        l1i_lines = np.concatenate([cols.iline_line, wp_line])[order]
        l1i_warm = _warm_memo(
            memo, "l1i", code_lines, state.l1i.n_sets, state.l1i.assoc
        )
        n_warm = len(l1i_warm)
        l1i_keys = np.concatenate([l1i_warm, l1i_lines])
        res = _replay_memo(
            memo,
            ("l1i_replay", state.l1i.n_sets, state.l1i.assoc),
            (l1i_keys,),
            lambda: batch_lru_replay(l1i_keys, state.l1i.n_sets, state.l1i.assoc),
        )
        hits = res.hit[n_warm:]
        unsorted_hits = np.empty(len(hits), dtype=bool)
        unsorted_hits[order] = hits
        iline_hit = unsorted_hits[:n_iline]
        wp_l1i_hit = unsorted_hits[n_iline:]
        l1i_read_misses = int(np.count_nonzero(~hits))

    with tracer.span("replay/dtlb_pass", kind="replay"):
        dtlb_warm = _warm_memo(
            memo, ("dtlb", l2.size_bytes), data_pages,
            state.tlb.dtlb.n_sets, state.tlb.dtlb.assoc,
        )
        n_warm = len(dtlb_warm)
        dtlb_keys = np.concatenate([dtlb_warm, cols.mem_page])
        dtlb_hit = _replay_memo(
            memo,
            ("dtlb_replay", state.tlb.dtlb.n_sets, state.tlb.dtlb.assoc,
             l2.size_bytes),
            (dtlb_keys,),
            lambda: batch_tlb_replay(dtlb_keys, state.tlb.dtlb),
        )[n_warm:]
        dtlb_misses = int(np.count_nonzero(~dtlb_hit))

    with tracer.span("replay/l1d_pass", kind="replay"):
        l1d = state.l1d
        l1d_warm_c = _warm_memo(
            memo, ("l1d", l2.size_bytes), l1d_warm, l1d.n_sets, l1d.assoc
        )
        n_warm = len(l1d_warm_c)
        # The stream (and hence the memoised seed/op-index) is determined
        # by the trace plus the L2 capacity that sized the warm prefix.
        stream_key = (l2.size_bytes, n_warm)
        seed_key = ("l1d", l1d.n_sets, l1d.assoc, l1d.write_allocate,
                    l1d.write_streaming, stream_key)
        l1d_keys = np.concatenate([l1d_warm_c, cols.mem_line])
        l1d_writes = np.concatenate([np.zeros(n_warm, bool), cols.mem_write])

        def _run_l1d():
            res = batch_l1d_replay(
                l1d_keys,
                l1d_writes,
                n_warm,
                l1d,
                seed_streamed=cols.fixpoint_seeds.get(seed_key),
                aux_memo=cols.fixpoint_seeds.setdefault(
                    ("l1d_ctx", stream_key), {}
                ),
            )
            if not res.exhausted:
                cols.fixpoint_seeds[seed_key] = res.streamed
            return res

        l1d_res = _replay_memo(
            memo,
            ("l1d_replay",) + seed_key[1:],
            (l1d_keys, l1d_writes),
            _run_l1d,
        )
        mem_hit = l1d_res.hit[n_warm:]
        mem_streamed = l1d_res.streamed[n_warm:]
        mem_wb = l1d_res.wrote_back[n_warm:]

    # --------------------------------------------------------- merged events
    with tracer.span("replay/merge_events", kind="replay"):
        merged = _build_merged_events(
            cols, lines_per_page,
            ipage_hit, iline_hit, dtlb_hit, mem_hit, mem_streamed, mem_wb,
            wp_pos, wp_page, wp_line, wp_probe_hit, wp_l1i_hit,
        )

    # ------------------------------------------------------------ merged walk
    with tracer.span("replay/l2_walk", kind="replay", events=len(merged[0])):
        batched = _replay_memo(
            memo,
            ("l2walk",),
            (merged[0], merged[1], merged[2], machine),
            lambda: _batch_l2(
                merged, machine, state, code_lines, code_pages, l2_warm,
                data_pages, cols.fixpoint_seeds,
            ),
        )
        if batched is not None:
            walk, l2_stats, l2_itlb_stats, l2_dtlb_stats = batched
        else:
            # Prefetch fixpoint exhausted: warm the real objects and take
            # the exact scalar walk.  Bit-exact, but worth a guard-visible
            # breadcrumb — an exhausted fixpoint on every replay of a trace
            # means its streaming seed never converges.
            tracer.event(
                "guard", guard_kind="fixpoint-exhausted",
                pass_name="l2_walk", workload=trace.name,
            )
            l2.warm_fill_many(code_lines)
            tlb.l2_itlb.fill_many(code_pages)
            if l2_warm is not None:
                l2.warm_fill_many(l2_warm)
                tlb.l2_dtlb.fill_many(data_pages)
            walk = _l2_walk(merged, machine, l2, l2_prefetcher, tlb)
            l2_stats = l2.stats
            l2_itlb_stats = tlb.l2_itlb.stats
            l2_dtlb_stats = tlb.l2_dtlb.stats
    (
        stall_icache,
        stall_itlb,
        stall_dcache,
        stall_dtlb,
        dram_reads,
        dram_writes,
        dram_weight,
        walks_inst,
        walks_data,
    ) = walk

    # ---------------------------------------------------------------- stats
    n_mem = len(cols.mem_line)
    mem_write = cols.mem_write
    write_misses = int(np.count_nonzero(~mem_hit & mem_write))
    streaming_stores = int(np.count_nonzero(mem_streamed))
    l1d_stats = CacheStats(
        read_accesses=int(np.count_nonzero(~mem_write)),
        write_accesses=int(np.count_nonzero(mem_write)),
        read_misses=int(np.count_nonzero(~mem_hit & ~mem_write)),
        write_misses=write_misses,
        write_refills=write_misses - streaming_stores,
        writebacks=int(np.count_nonzero(mem_wb)),
        streaming_stores=streaming_stores,
    )
    l1i_stats = CacheStats(
        read_accesses=n_iline + n_mispredicts, read_misses=l1i_read_misses
    )
    itlb_stats = TlbStats(
        lookups=n_ipage, hits=n_ipage - itlb_misses, misses=itlb_misses
    )
    dtlb_stats = TlbStats(
        lookups=n_mem, hits=n_mem - dtlb_misses, misses=dtlb_misses
    )

    cond_mispredicts = int(np.count_nonzero(cond_miss))

    result = _finalise(
        trace,
        machine,
        l1i_stats=l1i_stats,
        l1d_stats=l1d_stats,
        l2_stats=l2_stats,
        itlb_stats=itlb_stats,
        dtlb_stats=dtlb_stats,
        l2_itlb_stats=l2_itlb_stats,
        l2_dtlb_stats=l2_dtlb_stats,
        walks_inst=walks_inst,
        walks_data=walks_data,
        ras_incorrect=ras.incorrect,
        branch_mispredicts=branch_mispredicts,
        cond_branches=len(cols.cond_pos),
        cond_mispredicts=cond_mispredicts,
        returns=returns,
        calls=calls,
        indirect_branches=indirect_branches,
        indirect_mispredicts=indirect_mispredicts,
        wrongpath_instructions=machine.wrongpath_fetch * n_mispredicts,
        itlb_wrongpath_misses=int(np.count_nonzero(~wp_probe_hit)),
        l1i_fetch_accesses=n_iline + n_mispredicts,
        dram_reads=dram_reads,
        dram_writes=dram_writes,
        stalls={
            "branch": _repeated_sum(machine.mispredict_penalty, n_mispredicts),
            "icache": stall_icache,
            "itlb": stall_itlb,
            "dcache": stall_dcache,
            "dtlb": stall_dtlb,
        },
        dram_weight=dram_weight,
    )
    if tracer.enabled:
        # Deterministic per-pass cycle attribution: every attribute is a
        # pure function of (trace, machine), so traced replays keep
        # deterministic span shapes (no wall-clock in the identity).
        from repro.obs.prof import attribute_cycles

        tracer.event(
            "replay-profile",
            kind="profile",
            workload=trace.name,
            machine=machine.name,
            core_cycles=result.core_cycles,
            cycles_by_pass=attribute_cycles(result.components),
        )
    return result


def _control_pass(trace, machine, cols, cond_miss, ras, shadow_stack, indirect):
    """Sparse scalar walk over control blocks that share speculative state.

    Only calls, returns, indirect branches and mispredicted conditionals
    touch the RAS / shadow stack / indirect predictor / LCG, so the walk
    visits a small fraction of the dynamic blocks.  Produces the
    wrong-path fetch schedule (position, page, line per misprediction)
    plus the control-flow counters.
    """
    class_seq = cols.class_seq
    ctrl_mask = class_seq > _CLS_RANDOM
    is_cond_ctrl = np.zeros(len(ctrl_mask), dtype=bool)
    mis_pos = cols.cond_pos[cond_miss]
    is_cond_ctrl[mis_pos] = True
    walk_positions = np.flatnonzero(ctrl_mask | is_cond_ctrl)

    lcg = (trace.seed ^ (zlib.crc32(machine.name.encode()) & _LCG_MASK)) or 1
    far_fraction = machine.wrongpath_far_fraction
    ras_corruption = machine.ras_corruption
    indirect_corruption = machine.indirect_corruption
    code_pages = cols_code_pages = np.asarray(
        trace.replay_tables().code_pages, dtype=np.int64
    )
    n_code_pages = len(cols_code_pages)
    lines_per_page = PAGE_BYTES // CACHE_LINE_BYTES

    # Gather every walked column into python lists up front: the loop is
    # pure-python state tracking, and per-iteration numpy scalar indexing
    # would dominate it.
    pos_walk = walk_positions.tolist()
    cls_walk = class_seq[walk_positions].tolist()
    addr_walk = cols.addr_seq[walk_positions].tolist()
    target_walk = cols.target_seq[walk_positions].tolist()
    wp_near_walk = cols.wp_near_seq[walk_positions].tolist()
    code_pages_l = cols_code_pages.tolist()

    ras_push = ras.push
    ras_pop = ras.pop
    ras_corrupt = ras.corrupt
    shadow_push = shadow_stack.append
    shadow_pop = shadow_stack.pop
    indirect_predict = indirect.predict_and_update

    calls = returns = indirect_branches = indirect_mispredicts = 0
    branch_mispredicts = 0
    pending_indirect_corrupt = False
    wp_pos: list[int] = []
    wp_page: list[int] = []
    wp_line: list[int] = []

    for pos, cls, addr, target, wp_near in zip(
        pos_walk, cls_walk, addr_walk, target_walk, wp_near_walk
    ):
        if cls <= _CLS_RANDOM:
            mispredicted = True  # walk only visits mispredicted conditionals
        elif cls == _CLS_CALL:
            calls += 1
            ras_push(addr)
            shadow_push(addr)
            continue
        elif cls == _CLS_RETURN:
            returns += 1
            expected = shadow_pop() if shadow_stack else -1
            mispredicted = not ras_pop(expected)
            if not mispredicted:
                continue
        else:  # INDIRECT
            indirect_branches += 1
            correct = indirect_predict(addr, target)
            if pending_indirect_corrupt:
                correct = False
                pending_indirect_corrupt = False
            if correct:
                continue
            indirect_mispredicts += 1
            mispredicted = True

        branch_mispredicts += 1
        lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
        uniform = lcg / _LCG_MASK
        if uniform < far_fraction and n_code_pages > 1:
            lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
            page = code_pages_l[lcg % n_code_pages] + 1 + (lcg % 7)
        else:
            page = wp_near
        wp_pos.append(pos)
        wp_page.append(page)
        wp_line.append(page * lines_per_page + (lcg % 8))

        lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
        if lcg / _LCG_MASK < ras_corruption:
            ras_corrupt()
        lcg = (lcg * _LCG_MULT + _LCG_ADD) & _LCG_MASK
        if lcg / _LCG_MASK < indirect_corruption:
            pending_indirect_corrupt = True

    return (
        np.asarray(wp_pos, dtype=np.int64),
        np.asarray(wp_page, dtype=np.int64),
        np.asarray(wp_line, dtype=np.int64),
        calls,
        returns,
        indirect_branches,
        indirect_mispredicts,
        branch_mispredicts,
    )


def _build_merged_events(
    cols, lines_per_page,
    ipage_hit, iline_hit, dtlb_hit, mem_hit, mem_streamed, mem_wb,
    wp_pos, wp_page, wp_line, wp_probe_hit, wp_l1i_hit,
):
    """Assemble the ordered L2-facing event stream for the merged walk.

    Every event that can touch the L2, the L2 TLBs or the prefetcher — or
    that accumulates an order-sensitive float — becomes one row, keyed by
    (dynamic position, phase, intra-phase index, sub-step) so the walk
    visits them in exactly the reference loop's order.
    """
    kinds, poss, phases, intras, subs, arg0s, arg1s = [], [], [], [], [], [], []

    def add(kind, pos, phase, intra, sub, arg0, arg1=None):
        n = len(pos)
        kinds.append(np.full(n, kind, np.int8))
        poss.append(pos.astype(np.int64))
        phases.append(np.full(n, phase, np.int8))
        intras.append(intra.astype(np.int64))
        subs.append(np.full(n, sub, np.int8))
        arg0s.append(arg0.astype(np.int64))
        arg1s.append(
            np.zeros(n, np.int64) if arg1 is None else arg1.astype(np.int64)
        )

    m = ~ipage_hit
    add(_EV_ITLB_MISS, cols.ipage_pos[m], _PH_IPAGE, cols.ipage_intra[m], 0,
        cols.ipage_page[m])
    m = ~iline_hit
    add(_EV_L1I_MISS, cols.iline_pos[m], _PH_ILINE, cols.iline_intra[m], 0,
        cols.iline_line[m])
    m = ~dtlb_hit
    add(_EV_DTLB_MISS, cols.mem_pos[m], _PH_DATA, cols.mem_intra[m], 0,
        cols.mem_page[m])
    m = mem_wb
    add(_EV_L1D_WB, cols.mem_pos[m], _PH_DATA, cols.mem_intra[m], 1,
        cols.mem_line[m])
    m = mem_streamed
    add(_EV_L1D_STREAM, cols.mem_pos[m], _PH_DATA, cols.mem_intra[m], 2,
        cols.mem_line[m])
    m = ~mem_hit & ~mem_streamed
    add(_EV_L1D_MISS, cols.mem_pos[m], _PH_DATA, cols.mem_intra[m], 2,
        cols.mem_line[m], cols.mem_write[m])
    m = ~wp_probe_hit
    zeros = np.zeros(int(np.count_nonzero(m)), np.int64)
    add(_EV_WP_TLB, wp_pos[m], _PH_WP, zeros, 0, wp_page[m])
    m = ~wp_l1i_hit
    zeros = np.zeros(int(np.count_nonzero(m)), np.int64)
    add(_EV_WP_L1I, wp_pos[m], _PH_WP, zeros, 1, wp_line[m])

    kind = np.concatenate(kinds)
    pos = np.concatenate(poss)
    phase = np.concatenate(phases)
    intra = np.concatenate(intras)
    sub = np.concatenate(subs)
    arg0 = np.concatenate(arg0s)
    arg1 = np.concatenate(arg1s)
    order = _merge_order(pos, phase, intra, sub)
    return kind[order], arg0[order], arg1[order]


def _replay_memo(memo, tag, inputs, compute):
    """Verified single-entry memo for a pure replay computation.

    ``inputs`` is a tuple of ndarrays (or plain comparable values, e.g. a
    frozen :class:`MachineConfig`) that fully determine ``compute()``'s
    result.  The cached result is only reused after an element-wise
    equality check of every input against the cached copy, so a stale or
    colliding entry can never alter results — it just recomputes.  Repeat
    replays of one trace (and sibling DVFS points, whose hit streams are
    identical) skip the heavy LRU/fixpoint work entirely.
    """
    if memo is None:
        return compute()
    entry = memo.get(tag)
    if entry is not None:
        cached, result = entry
        if len(cached) == len(inputs) and all(
            np.array_equal(a, b)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            else a == b
            for a, b in zip(cached, inputs)
        ):
            return result
    result = compute()
    memo[tag] = (inputs, result)
    return result


def _warm_memo(memo, tag, seq, n_sets, assoc):
    """Memoised :func:`warm_content_rows` keyed on the trace's columnar memo.

    The compressed warm prefix is a pure function of the decoded trace and
    the structure geometry, so repeat replays (and sibling configs with the
    same geometry) reuse it instead of re-sorting the warm sequence.
    """
    key = ("warm", tag, n_sets, assoc)
    rows = memo.get(key)
    if rows is None:
        rows = warm_content_rows(seq, n_sets, assoc)
        memo[key] = rows
    return rows


def _tlb_batch_hits(geom, warm_pages, pages, memo=None, tag=None):
    """Batch one L2-TLB lookup stream; returns per-lookup hit flags.

    ``lookup`` always inserts on miss, so every row mutates; the silent
    warm prefix is compressed to its closed-form final content first.
    """
    if memo is not None:
        warm_rows = _warm_memo(memo, tag, warm_pages, geom.n_sets, geom.assoc)
    else:
        warm_rows = warm_content_rows(warm_pages, geom.n_sets, geom.assoc)
    nw = len(warm_rows)
    keys = np.concatenate([warm_rows, pages])
    res = _replay_memo(
        memo,
        ("l2tlb_replay", tag, geom.n_sets, geom.assoc),
        (keys,),
        lambda: batch_lru_replay(keys, geom.n_sets, geom.assoc),
    )
    return res.hit[nw:]


def _derive_prefetches(trig_after, trig_lines, degree):
    """Clone of :class:`StridePrefetcher` over one round's trigger misses.

    ``trig_after``/``trig_lines`` are the static-row indices and lines of
    the demand misses that call ``train`` this round, in stream order.
    Returns the prefetch insertions they imply: for each issued prefetch,
    the static row it follows and the line it fills.
    """
    pf_after: list[int] = []
    pf_line: list[int] = []
    last_line = -1
    last_delta = 0
    confidence = 0
    for r, line in zip(trig_after, trig_lines):
        delta = line - last_line
        if delta == last_delta and delta != 0:
            confidence = min(confidence + 1, 4)
        else:
            confidence = 0
            last_delta = delta
        last_line = line
        if confidence >= 2:
            for i in range(1, degree + 1):
                pf_after.append(r)
                pf_line.append(line + last_delta * i)
    return np.asarray(pf_after, dtype=np.int64), np.asarray(pf_line, dtype=np.int64)


def _batch_l2(merged, machine: MachineConfig, state, code_lines, code_pages,
              l2_warm, data_pages, seeds, max_rounds: int = 40):
    """Batched replay of the L2-facing event stream.

    Resolves the L2 TLBs as straight LRU batches, then the shared L2 as an
    LRU batch around a prefetch fixpoint: guess the prefetcher's fill
    schedule, replay the demand stream with those fills interleaved,
    re-derive the schedule from the resulting miss outcomes, repeat until
    it reproduces itself.  As with the L1D streaming fixpoint, any
    fixpoint equals real execution and each round extends the exact
    prefix, so the iteration converges; ``None`` is returned if
    ``max_rounds`` is exhausted and the caller falls back to the scalar
    walk.  All float stalls/weights are accumulated with ``np.cumsum``
    over per-event cost slots, which is bitwise-identical to the scalar
    walk's ordered ``+=`` sequence.
    """
    kind, arg0, arg1 = merged
    n_ev = len(kind)
    l2 = state.l2
    tlb = state.tlb
    degree = state.l2_prefetcher.degree
    lines_per_page = PAGE_BYTES // CACHE_LINE_BYTES

    k_l1d = kind == _EV_L1D_MISS
    k_dtlb = kind == _EV_DTLB_MISS
    k_wb = kind == _EV_L1D_WB
    k_l1i = kind == _EV_L1I_MISS
    k_strm = kind == _EV_L1D_STREAM
    k_wptlb = kind == _EV_WP_TLB
    k_wpl1i = kind == _EV_WP_L1I
    k_itlb = kind == _EV_ITLB_MISS

    # ------------------------------------------------------------ L2 TLBs
    # Lookup streams are fully determined by the events; each structure is
    # one pure-LRU batch (lookups always insert on miss).
    unified = tlb.l2_itlb is tlb.l2_dtlb
    itlb_side = k_itlb | k_wptlb
    l2tlb_hit = np.zeros(n_ev, dtype=bool)
    if unified:
        mask = itlb_side | k_dtlb
        hits = _tlb_batch_hits(
            tlb.l2_itlb, np.concatenate([code_pages, data_pages]), arg0[mask],
            memo=seeds, tag=("l2tlb_u", l2.size_bytes),
        )
        l2tlb_hit[mask] = hits
        nlk = int(mask.sum(dtype=np.int64))
        nh = int(hits.sum(dtype=np.int64))
        l2_itlb_stats = l2_dtlb_stats = TlbStats(
            lookups=nlk, hits=nh, misses=nlk - nh
        )
    else:
        hits = _tlb_batch_hits(tlb.l2_itlb, code_pages, arg0[itlb_side],
                               memo=seeds, tag="l2tlb_i")
        l2tlb_hit[itlb_side] = hits
        nlk = int(itlb_side.sum(dtype=np.int64))
        nh = int(hits.sum(dtype=np.int64))
        l2_itlb_stats = TlbStats(lookups=nlk, hits=nh, misses=nlk - nh)
        hits = _tlb_batch_hits(tlb.l2_dtlb, data_pages, arg0[k_dtlb],
                               memo=seeds, tag=("l2tlb_d", l2.size_bytes))
        l2tlb_hit[k_dtlb] = hits
        nlk = int(k_dtlb.sum(dtype=np.int64))
        nh = int(hits.sum(dtype=np.int64))
        l2_dtlb_stats = TlbStats(lookups=nlk, hits=nh, misses=nlk - nh)

    walks_inst = int(np.count_nonzero(k_itlb & ~l2tlb_hit))
    walks_data = int(np.count_nonzero(k_dtlb & ~l2tlb_hit))

    # ------------------------------------------- static L2 demand stream
    walk_ev = (k_itlb | k_dtlb) & ~l2tlb_hit
    row_mask = k_l1d | k_wb | k_strm | k_l1i | k_wpl1i | walk_ev
    row_ev = np.flatnonzero(row_mask)
    row_kind = kind[row_ev]
    row_key = arg0[row_ev].copy()
    row_key[row_kind == _EV_L1D_WB] ^= 0x1
    is_walk_row = (row_kind == _EV_DTLB_MISS) | (row_kind == _EV_ITLB_MISS)
    row_key[is_walk_row] *= lines_per_page
    row_w = (
        (row_kind == _EV_L1D_WB)
        | (row_kind == _EV_L1D_STREAM)
        | ((row_kind == _EV_L1D_MISS) & (arg1[row_ev] != 0))
    )
    n_rows = len(row_key)
    trainable = (row_kind == _EV_L1D_MISS) | (row_kind == _EV_L1I_MISS)
    trig_rows = np.flatnonzero(trainable)

    if seeds is not None:
        wkey = ("warm", ("l2", l2.size_bytes), l2.n_sets, l2.assoc)
        warm_rows = seeds.get(wkey)
        if warm_rows is None:
            warm_seq = code_lines if l2_warm is None else np.concatenate(
                [code_lines, l2_warm]
            )
            warm_rows = warm_content_rows(warm_seq, l2.n_sets, l2.assoc)
            seeds[wkey] = warm_rows
    else:
        warm_seq = code_lines if l2_warm is None else np.concatenate(
            [code_lines, l2_warm]
        )
        warm_rows = warm_content_rows(warm_seq, l2.n_sets, l2.assoc)
    nw = len(warm_rows)

    # ------------------------------------------------- prefetch fixpoint
    seed_key = ("l2", l2.n_sets, l2.assoc, degree, n_rows)
    seeded = seeds.get(seed_key) if seeds is not None else None
    if degree == 0:
        pf_after = pf_line = np.empty(0, dtype=np.int64)
        pf_mut = np.empty(0, dtype=bool)
    elif seeded is not None:
        pf_after, pf_line, pf_mut = seeded
    else:
        pf_after = pf_line = np.empty(0, dtype=np.int64)
        pf_mut = np.empty(0, dtype=bool)

    res = None
    for _ in range(max_rounds):
        ins_at = pf_after + 1
        keys = np.concatenate([warm_rows, np.insert(row_key, ins_at, pf_line)])
        mut = np.concatenate(
            [np.ones(nw, bool), np.insert(np.ones(n_rows, bool), ins_at, pf_mut)]
        )
        w = np.concatenate(
            [np.zeros(nw, bool),
             np.insert(row_w, ins_at, np.zeros(len(pf_line), bool))]
        )
        res = _replay_memo(
            seeds,
            ("l2_round", l2.n_sets, l2.assoc),
            (keys, mut, w),
            lambda: batch_lru_replay(keys, l2.n_sets, l2.assoc, mutating=mut,
                                     is_write=w, track_writebacks=True),
        )
        if degree == 0:
            break
        # Positions of static / prefetch rows inside the interleaved batch.
        stat_pos = nw + np.arange(n_rows) + np.searchsorted(
            pf_after, np.arange(n_rows), side="left"
        )
        pf_pos = nw + pf_after + 1 + np.arange(len(pf_after))
        trig_hit = res.hit[stat_pos[trig_rows]]
        miss_trigs = trig_rows[~trig_hit]
        trig_lines = row_key[miss_trigs]
        new_after, new_line = _replay_memo(
            seeds,
            ("l2_pf_derive", degree),
            (miss_trigs, trig_lines),
            lambda: _derive_prefetches(
                miss_trigs.tolist(), trig_lines.tolist(), degree
            ),
        )
        # A prefetch already present in this round keeps its observed
        # presence; new ones are guessed absent (verified next round).
        new_mut = np.ones(len(new_line), dtype=bool)
        k = min(len(new_line), len(pf_line))
        if k:
            same = (new_after[:k] == pf_after[:k]) & (new_line[:k] == pf_line[:k])
            new_mut[:k][same] = ~res.hit[pf_pos[:k][same]]
        if (
            np.array_equal(new_after, pf_after)
            and np.array_equal(new_line, pf_line)
            and np.array_equal(new_mut, pf_mut)
        ):
            break
        pf_after, pf_line, pf_mut = new_after, new_line, new_mut
    else:
        return None  # fixpoint exhausted; caller takes the scalar walk
    if seeds is not None and degree:
        seeds[seed_key] = (pf_after, pf_line, pf_mut)

    # ------------------------------------------------- per-event outcomes
    n_pf = len(pf_line)
    stat_pos = nw + np.arange(n_rows) + np.searchsorted(
        pf_after, np.arange(n_rows), side="left"
    )
    pf_pos = nw + pf_after + 1 + np.arange(n_pf)
    stat_hit = res.hit[stat_pos]
    stat_wb = res.wrote_back[stat_pos]
    pf_wb = res.wrote_back[pf_pos]
    pf_filled = pf_mut  # mutating prefetch rows are exactly the fills

    l2_hit_ev = np.ones(n_ev, dtype=bool)
    l2_wb_ev = np.zeros(n_ev, dtype=bool)
    l2_hit_ev[row_ev] = stat_hit
    l2_wb_ev[row_ev] = stat_wb

    # --------------------------------------------------------- DRAM counts
    demand_read_miss = (
        (k_l1d | k_l1i | k_wpl1i | walk_ev) & ~l2_hit_ev & ~k_strm
    )
    dram_reads = int(np.count_nonzero(demand_read_miss & ~(k_strm | k_wb)))
    wb_counted = (k_l1d | k_wb | k_l1i | k_strm) & l2_wb_ev
    dram_writes = int(np.count_nonzero(wb_counted)) + int(
        np.count_nonzero(k_strm & ~l2_hit_ev)
    )

    # ------------------------------------------------------- stall cumsums
    l2_lat = machine.l2.latency
    l2tlb_lat = machine.tlb.l2_latency
    walk_cycles = machine.tlb.walk_cycles
    mem_overlap = machine.mem_overlap
    store_exposure = machine.store_miss_exposure
    dram_exposure = 1.0 - machine.dram_overlap

    icache_cost = l2_lat * 0.8
    dtlb_l2_cost = l2tlb_lat * (1.0 - mem_overlap)
    dtlb_walk_cost = walk_cycles * (1.0 - 0.5 * mem_overlap)
    stream_cost = l2_lat * 0.05
    write_cost = l2_lat * store_exposure
    read_cost = l2_lat * (1.0 - mem_overlap)
    write_weight = store_exposure * 0.5
    wp_walk_cost = walk_cycles * 0.5

    stall_icache = _repeated_sum(icache_cost, int(np.count_nonzero(k_l1i)))

    # stall_dcache: one unconditional term per L1D_MISS / L1D_STREAM event.
    dc_mask = k_l1d | k_strm
    dc = np.where(
        k_strm[dc_mask], stream_cost,
        np.where(arg1[dc_mask] != 0, write_cost, read_cost),
    )
    stall_dcache = float(np.cumsum(dc)[-1]) if len(dc) else 0.0

    # stall_dtlb: l2tlb term always, walk term on L2-TLB miss — two ordered
    # slots per event (adding the zero slots is bitwise-exact).
    nd = int(np.count_nonzero(k_dtlb))
    if nd:
        slots = np.zeros((nd, 2))
        slots[:, 0] = dtlb_l2_cost
        slots[~l2tlb_hit[k_dtlb], 1] = dtlb_walk_cost
        stall_dtlb = float(np.cumsum(slots.ravel())[-1])
    else:
        stall_dtlb = 0.0

    # stall_itlb: ITLB_MISS and WP_TLB events interleaved in stream order.
    it_mask = k_itlb | k_wptlb
    ni = int(np.count_nonzero(it_mask))
    if ni:
        slots = np.zeros((ni, 2))
        slots[:, 0] = l2tlb_lat
        tlb_missed = ~l2tlb_hit[it_mask]
        is_wp = k_wptlb[it_mask]
        slots[tlb_missed & ~is_wp, 1] = walk_cycles
        slots[tlb_missed & is_wp, 1] = wp_walk_cost
        stall_itlb = float(np.cumsum(slots.ravel())[-1])
    else:
        stall_itlb = 0.0

    # dram_weight: one term per weighted miss, in stream order.
    wvec = np.zeros(n_ev)
    m = k_l1d & ~l2_hit_ev
    wvec[m] = np.where(arg1[m] != 0, write_weight, dram_exposure)
    wvec[k_dtlb & walk_ev & ~l2_hit_ev] = 0.4
    wvec[k_l1i & ~l2_hit_ev] = 0.9
    wvec[k_strm & ~l2_hit_ev] = 0.12
    wvec[k_itlb & walk_ev & ~l2_hit_ev] = 0.5
    nz = wvec[wvec != 0.0]
    dram_weight = float(np.cumsum(nz)[-1]) if len(nz) else 0.0

    # ------------------------------------------------------------ L2 stats
    reads = int(np.count_nonzero(~row_w))
    writes = int(np.count_nonzero(row_w))
    read_misses = int(np.count_nonzero(~stat_hit & ~row_w))
    write_misses = int(np.count_nonzero(~stat_hit & row_w))
    # Replacements: per set, fills beyond the post-warm free space.
    alloc_keys = np.concatenate([row_key[~stat_hit], pf_line[pf_filled]])
    n_sets = l2.n_sets
    occ = np.bincount(warm_rows % n_sets, minlength=n_sets)
    allocs = np.bincount(alloc_keys % n_sets, minlength=n_sets)
    replacements = int(np.maximum(occ + allocs - l2.assoc, 0).sum())
    l2_stats = CacheStats(
        read_accesses=reads,
        write_accesses=writes,
        read_misses=read_misses,
        write_misses=write_misses,
        write_refills=write_misses,
        writebacks=int(np.count_nonzero(stat_wb)) + int(np.count_nonzero(pf_wb)),
        replacements=replacements,
        prefetches_issued=n_pf,
    )

    walk = (
        stall_icache,
        stall_itlb,
        stall_dcache,
        stall_dtlb,
        float(dram_reads),
        float(dram_writes),
        dram_weight,
        walks_inst,
        walks_data,
    )
    return walk, l2_stats, l2_itlb_stats, l2_dtlb_stats


def _l2_walk(merged, machine: MachineConfig, l2, l2_prefetcher, tlb):
    """Replay the L2-facing event stream in program order.

    The shared L2, the L2 TLBs and the stride prefetcher are genuinely
    order-sensitive (and the walk accumulates every inexact float term in
    scalar order), so this stays a Python loop — but over ~3% of the
    accesses the reference loop touches.
    """
    kind_arr, arg0_arr, arg1_arr = merged

    l2_access = l2.access
    l2_itlb_lookup = tlb.l2_itlb.lookup
    l2_dtlb_lookup = tlb.l2_dtlb.lookup
    prefetch_train = l2_prefetcher.train

    l2_lat = machine.l2.latency
    l2tlb_lat = machine.tlb.l2_latency
    walk_cycles = machine.tlb.walk_cycles
    mem_overlap = machine.mem_overlap
    store_exposure = machine.store_miss_exposure
    dram_exposure = 1.0 - machine.dram_overlap
    lines_per_page = PAGE_BYTES // CACHE_LINE_BYTES

    icache_cost = l2_lat * 0.8
    dtlb_l2_cost = l2tlb_lat * (1.0 - mem_overlap)
    dtlb_walk_cost = walk_cycles * (1.0 - 0.5 * mem_overlap)
    stream_cost = l2_lat * 0.05
    write_cost = l2_lat * store_exposure
    read_cost = l2_lat * (1.0 - mem_overlap)
    write_weight = store_exposure * 0.5
    wp_walk_cost = walk_cycles * 0.5

    stall_icache = 0.0
    stall_itlb = 0.0
    stall_dcache = 0.0
    stall_dtlb = 0.0
    dram_reads = 0.0
    dram_writes = 0.0
    dram_weight = 0.0
    walks_inst = 0
    walks_data = 0

    for kind, arg0, arg1 in zip(
        kind_arr.tolist(), arg0_arr.tolist(), arg1_arr.tolist()
    ):
        if kind == _EV_L1D_MISS:
            if arg1:
                stall_dcache += write_cost
            else:
                stall_dcache += read_cost
            l2_hit, l2_wb, _ = l2_access(arg0, bool(arg1))
            if l2_wb:
                dram_writes += 1
            if not l2_hit:
                dram_reads += 1
                dram_weight += write_weight if arg1 else dram_exposure
                prefetch_train(arg0)
        elif kind == _EV_DTLB_MISS:
            stall_dtlb += dtlb_l2_cost
            if not l2_dtlb_lookup(arg0):
                walks_data += 1
                stall_dtlb += dtlb_walk_cost
                hit, _, _ = l2_access(arg0 * lines_per_page)
                if not hit:
                    dram_reads += 1
                    dram_weight += 0.4
        elif kind == _EV_L1D_WB:
            _, l2_wb, _ = l2_access(arg0 ^ 0x1, True)
            if l2_wb:
                dram_writes += 1
        elif kind == _EV_L1I_MISS:
            stall_icache += icache_cost
            l2_hit, wrote_back, _ = l2_access(arg0)
            if wrote_back:
                dram_writes += 1
            if not l2_hit:
                dram_reads += 1
                dram_weight += 0.9
                prefetch_train(arg0)
        elif kind == _EV_L1D_STREAM:
            stall_dcache += stream_cost
            l2_hit, l2_wb, _ = l2_access(arg0, True)
            if l2_wb:
                dram_writes += 1
            if not l2_hit:
                dram_writes += 1
                dram_weight += 0.12
        elif kind == _EV_WP_TLB:
            stall_itlb += l2tlb_lat
            if not l2_itlb_lookup(arg0):
                stall_itlb += wp_walk_cost
        elif kind == _EV_WP_L1I:
            l2_hit, _, _ = l2_access(arg0)
            if not l2_hit:
                dram_reads += 1
        else:  # _EV_ITLB_MISS
            stall_itlb += l2tlb_lat
            if not l2_itlb_lookup(arg0):
                walks_inst += 1
                stall_itlb += walk_cycles
                hit, _, _ = l2_access(arg0 * lines_per_page)
                if not hit:
                    dram_reads += 1
                    dram_weight += 0.5

    return (
        stall_icache,
        stall_itlb,
        stall_dcache,
        stall_dtlb,
        dram_reads,
        dram_writes,
        dram_weight,
        walks_inst,
        walks_data,
    )

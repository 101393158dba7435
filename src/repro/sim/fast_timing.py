"""Array-decoded fast path for the timing stage.

:class:`FastProcessor` is an alternative interpreter for the exact same
microarchitecture the per-uop :class:`~repro.sim.processor.Processor`
models.  Instead of walking ``MicroOp`` objects through object-per-unit
pipeline stages, it consumes a :class:`~repro.workloads.decode.DecodedWorkload`
(one up-front batch decode of the whole trace into dense arrays and
pre-segmented trace-cache lines) and advances time with three structural
shortcuts, none of which change any observable output:

* **flattened state** — uops in flight are plain lists of ints, a register
  reference is a single int ``(bank << reg_bits) | phys``, activity counters
  are a flat accumulator indexed by precomputed block ids;
* **event-driven wakeup** — instead of scanning every issue queue's entries
  each cycle, a queued uop is *parked* on its unproduced source registers
  (per-register waiter lists), moves to a global wake heap once every source
  has a known ready cycle, and is drained into its queue's age-ordered
  eligible list exactly when that cycle arrives;
* **quiet-cycle skip** — when a cycle performs no work (no fetch, rename,
  dispatch, issue, completion or commit), the next cycle at which anything
  *can* happen is computed from the heap/pipe/fetch heads and the clock jumps
  there, bumping the per-cycle stall counters by the number of skipped
  cycles.

The contract is strict: for any materialized workload and any configuration,
the fast path produces byte-identical :class:`~repro.sim.activity_trace.ActivityTrace`
serializations and equal :class:`~repro.sim.stats.SimulationStats` payloads
to the reference ``Processor``.  The per-uop path stays the golden reference;
the equivalence tests in ``tests/test_fast_timing_equivalence.py`` lock the
contract.  Stateful structures whose *evolution order* is observable (trace
cache, UL2, L1 data caches — all LRU) are reused from the reference
implementation rather than re-modeled, so their replacement behaviour cannot
drift.

What the fast path deliberately does **not** model are the reference's
write-only internals, proven unobservable in the emitted payloads: the
branch predictor's gshare tables (predictions never alter timing — only the
decode-time ``mispredicted`` flag does), the disambiguation buses, register
file port counters, and the steering/queue bookkeeping counters.
"""

from __future__ import annotations

import gc
from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.data_cache import L1DataCache
from repro.frontend.trace_cache import TraceCache
from repro.isa.microops import MicroOp
from repro.isa.registers import RegisterSpace
from repro.memory.ul2 import UnifiedL2Cache
from repro.sim import blocks, native
from repro.sim.config import ProcessorConfig, SteeringPolicy
from repro.sim.engine import TimingStage
from repro.sim.processor import Processor, SimulationDeadlockError
from repro.sim.stats import SimulationStats
from repro.workloads.decode import (
    CODE_COPY,
    CODE_LOAD,
    CODE_STORE,
    FP_CODES,
    UOP_CLASS_CODES,
    DecodedWorkload,
    decode_workload,
)

#: "Not yet produced" marker in the flat register ready array (any cycle
#: compares smaller).  Mirrors the reference register file's NOT_READY
#: sentinel.
_NOT_READY = 1 << 60

# Queue-entry record layout (plain lists: fastest mutable record in CPython).
# [0] class code          [5] prev mappings to free at commit (or None)
# [1] cluster             [6] completion cycle (-1 until written back)
# [2] frontend            [7] is_copy
# [3] dest reg ref or -1  [8] mem address (copies: destination cluster)
# [4] source reg refs     [9] base latency
# [10] is_store  [11] is_load  [12] unproduced-source count while parked
# [13] mispredicted br    [14] age sequence  [15] issue-queue index
#
# A register reference is the int ``(bank << reg_bits) | phys`` where
# ``bank = cluster * 2 + reg_class`` (0 = INT, 1 = FP).


class FastActivity:
    """Flat-accumulator drop-in for :class:`~repro.sim.activity_trace.ActivityCounters`.

    The fast core bumps ``acc[block_id]`` directly; the dict-shaped API
    (``record``/``interval_counts``/``total_counts``/``end_interval``) and the
    array drain (``end_interval_array``) behave exactly like the reference
    counters, including the duplicate-name and unknown-block errors.
    """

    __slots__ = ("_blocks", "_pos", "acc", "_totals", "_perm_cache")

    def __init__(self, block_names: Sequence[str]) -> None:
        self._blocks: Tuple[str, ...] = tuple(block_names)
        if len(set(self._blocks)) != len(self._blocks):
            raise ValueError("duplicate block names in activity counters")
        self._pos: Dict[str, int] = {n: i for i, n in enumerate(self._blocks)}
        self.acc: List[int] = [0] * len(self._blocks)
        self._totals: List[int] = [0] * len(self._blocks)
        self._perm_cache: Dict[Tuple[str, ...], List[int]] = {}

    @property
    def block_names(self) -> Tuple[str, ...]:
        return self._blocks

    def record(self, block: str, count: int = 1) -> None:
        pos = self._pos.get(block)
        if pos is None:
            raise KeyError(f"unknown block {block!r}")
        self.acc[pos] += count

    def interval_counts(self) -> Dict[str, int]:
        acc = self.acc
        return {name: acc[i] for i, name in enumerate(self._blocks)}

    def total_counts(self) -> Dict[str, int]:
        acc, totals = self.acc, self._totals
        return {name: totals[i] + acc[i] for i, name in enumerate(self._blocks)}

    def _flush(self) -> None:
        acc, totals = self.acc, self._totals
        for i, value in enumerate(acc):
            if value:
                totals[i] += value
                acc[i] = 0

    def end_interval(self) -> Dict[str, int]:
        snapshot = self.interval_counts()
        self._flush()
        return snapshot

    def end_interval_array(self, index=None) -> np.ndarray:
        if index is None:
            out = np.asarray(self.acc, dtype=np.int64)
            self._flush()
            return out
        names = tuple(index.names)
        perm = self._perm_cache.get(names)
        if perm is None:
            perm = [self._pos.get(name, -1) for name in names]
            self._perm_cache[names] = perm
        acc = self.acc
        out = np.asarray(
            [acc[p] if p >= 0 else 0 for p in perm], dtype=np.int64
        )
        self._flush()
        return out


class FastProcessor:
    """Interval-oriented interpreter over a batch-decoded workload.

    Exposes the slice of the reference :class:`~repro.sim.processor.Processor`
    surface the engines consume: ``config``, ``cycle``, ``stats``,
    ``activity``, ``trace_cache``, ``ul2``, ``finished``, ``run``,
    ``run_cycles`` and the fetch-gate controls.
    """

    _DEADLOCK_THRESHOLD = Processor._DEADLOCK_THRESHOLD
    _FRONTEND_BUFFER_LIMIT = Processor._FRONTEND_BUFFER_LIMIT

    def __init__(
        self,
        config: ProcessorConfig,
        uops: Sequence[MicroOp],
        register_space: Optional[RegisterSpace] = None,
        decoded: Optional[DecodedWorkload] = None,
    ) -> None:
        self.config = config
        self.registers = register_space or RegisterSpace()
        if decoded is None:
            decoded = decode_workload(uops, self.registers.num_int)
        elif decoded.n != len(uops) or (
            decoded.num_int_registers != self.registers.num_int
        ):
            raise ValueError(
                f"decoded workload ({decoded.n} uops, "
                f"{decoded.num_int_registers} int registers) does not match "
                f"the uop source ({len(uops)} uops, "
                f"{self.registers.num_int} int registers)"
            )
        self.decoded = decoded
        fe = config.frontend
        be = config.backend
        ic = config.interconnect

        self.cycle = 0
        self.stats = SimulationStats()
        self.activity = FastActivity(blocks.all_blocks(config))
        self.fetch_gate: Optional[Tuple[int, int]] = None
        n_clusters = be.num_clusters
        self._distributed = fe.is_distributed
        self._policy = config.steering_policy
        #: Delay from fetch to the first cycle an entry can be renamed.
        self._ready_offset = (
            fe.trace_cache.fetch_to_dispatch_latency
            + fe.decode_rename_steer_latency
            + 1
        )

        # Precomputed block-id tables (indexes into FastActivity.acc).
        # Computed before the interpreter state: the native backend marshals
        # them into the C core and skips the Python structures entirely.
        pos = self.activity._pos
        nf = fe.num_frontends
        self._ROB_B = [pos[blocks.rob_block(f, nf)] for f in range(nf)]
        self._FRONT_OF = [config.frontend_of_cluster(c) for c in range(n_clusters)]
        self._RAT_B = [
            pos[blocks.rat_block(self._FRONT_OF[c], nf)] for c in range(n_clusters)
        ]
        self._ITLB_B = pos[blocks.ITLB]
        self._DECO_B = pos[blocks.DECODER]
        self._BP_B = pos[blocks.BRANCH_PREDICTOR]
        self._UL2_B = pos[blocks.UL2]
        self._TC_B = [
            pos[blocks.trace_cache_bank_block(b)]
            for b in range(fe.trace_cache.physical_banks)
        ]
        cb = blocks.cluster_block
        self._DL1_B = [pos[cb(c, blocks.CLUSTER_DCACHE)] for c in range(n_clusters)]
        self._DTLB_B = [pos[cb(c, blocks.CLUSTER_DTLB)] for c in range(n_clusters)]
        self._IFU_B = [pos[cb(c, blocks.CLUSTER_INT_FU)] for c in range(n_clusters)]
        self._FPFU_B = [pos[cb(c, blocks.CLUSTER_FP_FU)] for c in range(n_clusters)]
        self._MOB_B = [pos[cb(c, blocks.CLUSTER_MOB)] for c in range(n_clusters)]
        # Register-file block id per bank (parallel to the flat reg layout).
        self._RFB_OF: List[int] = []
        for c in range(n_clusters):
            self._RFB_OF.append(pos[cb(c, blocks.CLUSTER_INT_RF)])
            self._RFB_OF.append(pos[cb(c, blocks.CLUSTER_FP_RF)])
        self._SCHED_B = [
            [
                pos[cb(c, blocks.CLUSTER_INT_SCHED)],
                pos[cb(c, blocks.CLUSTER_FP_SCHED)],
                pos[cb(c, blocks.CLUSTER_MOB)],
                pos[cb(c, blocks.CLUSTER_COPY_SCHED)],
            ]
            for c in range(n_clusters)
        ]
        self._SCHED_FLAT = [
            self._SCHED_B[c][k] for c in range(n_clusters) for k in range(4)
        ]
        n_codes = len(UOP_CLASS_CODES)
        self._QSEL = [
            3 if code == CODE_COPY
            else 2 if code in (CODE_LOAD, CODE_STORE)
            else 1 if code in FP_CODES
            else 0
            for code in range(n_codes)
        ]
        self._FU_B = [
            [
                self._FPFU_B[c] if code in FP_CODES else self._IFU_B[c]
                for code in range(n_codes)
            ]
            for c in range(n_clusters)
        ]

        # Optional compiled core: same algorithm, same outputs, built at
        # runtime from _native_core.c when a C compiler is available (see
        # repro.sim.native).  The Python loop below stays as the fallback
        # and serves the configurations the native core excludes.
        self._native = native.try_create_backend(self)
        if self._native is not None:
            self.trace_cache = self._native.trace_cache
            self.ul2 = self._native.ul2
            return

        # Stateful memory structures shared with the reference implementation
        # (their LRU evolution is observable through hit/miss counts).
        self.trace_cache = TraceCache(fe.trace_cache, config.memory.ul2_hit_latency)
        self.ul2 = UnifiedL2Cache(config.memory)
        self._dcaches = [
            L1DataCache(
                be.dcache_kb,
                be.dcache_associativity,
                be.dcache_line_bytes,
                be.dcache_hit_latency,
            )
            for _ in range(n_clusters)
        ]
        self._dcache_hit_latency = be.dcache_hit_latency
        self._bus_free = [0] * ic.num_memory_buses
        self._bus_arb = ic.bus_arbitration_latency
        self._bus_xfer = ic.bus_latency
        self._p2p_free = [0] * ic.num_p2p_links
        self._p2p_hop = ic.p2p_hop_latency

        # Register files, flattened: one ready array across all banks where
        # ``bank = cluster * 2 + reg_class``.  Waiter lists hold parked queue
        # entries per physical register; free lists are per-bank deques.
        reg_bits = (max(be.int_registers, be.fp_registers) - 1).bit_length()
        self._reg_bits = reg_bits
        n_banks = 2 * n_clusters
        span = n_banks << reg_bits
        self._ready_flat: List[int] = [0] * span
        self._wait_flat: List[list] = [[] for _ in range(span)]
        self._free_tab = [
            deque(range(be.int_registers if b & 1 == 0 else be.fp_registers))
            for b in range(n_banks)
        ]

        # Rename table: per flat architectural register, one physical
        # register reference per cluster (-1 = no mapping).
        self._maptab: List[List[int]] = [
            [-1] * n_clusters for _ in range(self.registers.total)
        ]

        # Issue scheduling is event-driven.  A queued uop is in exactly one
        # of three states: *parked* (some source not yet produced; it sits in
        # those registers' waiter lists with rec[12] counting them),
        # *pending* in the global wake heap (all sources produced, ready at
        # a known future cycle), or *eligible* (ready now, ordered by age in
        # its queue's eligible list).  Queues (0 int / 1 fp / 2 mem /
        # 3 copy) exist only as occupancy counters plus eligible lists.
        self._eligible: List[list] = [[] for _ in range(4 * n_clusters)]
        self._qcount = [0] * (4 * n_clusters)
        self._active_mask = 0
        self._wakeq: List[Tuple[int, int, list]] = []
        self._arrival_seq = 0
        self._queue_caps = (
            be.int_queue_entries,
            be.fp_queue_entries,
            be.mem_queue_entries,
            be.copy_queue_entries,
        )
        self._pipes = [deque() for _ in range(n_clusters)]
        self._in_flight = [0] * n_clusters
        self._mob_occ = [0] * n_clusters
        self._mob_cap = be.mem_queue_entries

        # Completion events, bucketed by cycle: recs append in issue order
        # (the reference's writeback tie-break) and a small heap of distinct
        # completion cycles drives the drain and the quiet-cycle skip.
        self._comp_buckets: Dict[int, List[list]] = {}
        self._comp_heap: List[int] = []
        if self._distributed:
            self._partitions = [deque() for _ in range(fe.num_frontends)]
            self._head_frontend: Optional[int] = None
            self._last_allocated: Optional[list] = None
            self._commit_lag = max(1, fe.distributed_commit_extra_latency)
        else:
            self._rob = deque()
            self._commit_lag = 1

        # Fetch state over pre-segmented trace lines.
        self._lines = decoded.lines(fe.trace_cache.line_uops, fe.fetch_width)
        self._line_idx = 0
        self._lbpos = 0
        self._lbend = 0
        self._exhausted = False
        self._stall_until = 0
        self._waiting = False
        self._pending: Optional[list] = None
        self._fq: deque = deque()
        self._live = 0
        self._last_commit = 0
        self._rr_pointer = 0

    # ------------------------------------------------------------------
    # Reference-compatible control surface
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        if self._native is not None:
            return self._native.finished
        return self._exhausted and self._lbpos >= self._lbend and self._live == 0

    @property
    def uses_native_core(self) -> bool:
        """Whether this processor runs on the compiled core (vs the Python loop)."""
        return self._native is not None

    def prewarm_ul2(self, addresses: Optional[Sequence[int]] = None) -> None:
        """Functionally warm the UL2 with the workload's data footprint.

        Touches every memory address (the decoded workload's by default),
        then resets the UL2 hit/miss counters — the warm-up is functional
        only.  The engine calls this instead of its generic per-uop loop.
        """
        if addresses is None:
            addresses = [a for a in self.decoded.mem_addr_list if a >= 0]
        if self._native is not None:
            self._native.warm_ul2(addresses)
            return
        access = self.ul2.access
        for address in addresses:
            access(address)
        self.ul2.hits = 0
        self.ul2.misses = 0

    def set_fetch_gate(self, on_cycles: int, period: int) -> None:
        if period <= 0 or not 1 <= on_cycles <= period:
            raise ValueError("fetch gate needs 1 <= on_cycles <= period")
        self.fetch_gate = (on_cycles, period) if on_cycles < period else None

    def clear_fetch_gate(self) -> None:
        self.fetch_gate = None

    def run_cycles(self, cycles: int) -> bool:
        self._run_to(self.cycle + cycles)
        return self.finished

    def run(self, max_cycles: Optional[int] = None) -> int:
        while not self.finished:
            if max_cycles is not None and self.cycle >= max_cycles:
                break
            self._run_to(
                max_cycles if max_cycles is not None else self.cycle + 1_000_000
            )
        return self.cycle

    # ------------------------------------------------------------------
    # The interpreter
    # ------------------------------------------------------------------
    def _run_to(self, target: int) -> None:  # noqa: C901 - deliberately flat
        if self._native is not None:
            self._native.run_to(target)
            return
        # Hot state lives in locals; the finally block writes it back so the
        # object is consistent even if the deadlock guard raises.
        cycle = self.cycle
        acc = self.activity.acc
        d = self.decoded
        cls_l = d.cls_list
        lat_l = d.latency_list
        addr_l = d.mem_addr_list
        isbr_l = d.is_branch_list
        mp_l = d.mispredicted_list
        dest_l = d.dest_flat_list
        destfp_l = d.dest_is_fp_list
        srcs_l = d.src_flats_list
        ineed_l = d.int_needed_list
        fneed_l = d.fp_needed_list

        maptab = self._maptab
        caps = self._queue_caps
        pipes = self._pipes
        in_flight = self._in_flight
        mob_occ = self._mob_occ
        mob_cap = self._mob_cap
        ready_flat = self._ready_flat
        wait_flat = self._wait_flat
        free_tab = self._free_tab
        reg_bits = self._reg_bits
        reg_mask = (1 << reg_bits) - 1
        eligible = self._eligible
        qcount = self._qcount
        active_mask = self._active_mask
        wakeq = self._wakeq
        aseq = self._arrival_seq
        comp_buckets = self._comp_buckets
        comp_heap = self._comp_heap
        fq = self._fq
        lines = self._lines
        n_lines = len(lines)
        line_idx = self._line_idx
        lbpos = self._lbpos
        lbend = self._lbend
        exhausted = self._exhausted
        stall_until = self._stall_until
        waiting = self._waiting
        pending = self._pending
        live = self._live
        last_commit = self._last_commit
        rr = self._rr_pointer
        distributed = self._distributed
        if distributed:
            partitions = self._partitions
            head_f = self._head_frontend
            last_alloc = self._last_allocated
            rob_cap = self.config.frontend.rob_entries_per_frontend
        else:
            rob = self._rob
            rob_cap = self.config.frontend.rob_entries
        commit_lag = self._commit_lag

        fe = self.config.frontend
        n_clusters = self.config.backend.num_clusters
        cluster_range = range(n_clusters)
        fwidth = fe.fetch_width
        dwidth = fe.dispatch_width
        cwidth = fe.commit_width
        iwidth = self.config.backend.issue_width_per_queue
        displat = self.config.backend.dispatch_latency
        presched_cap = self.config.backend.prescheduler_entries * 4
        mp_penalty = fe.misprediction_penalty
        fbuf = self._FRONTEND_BUFFER_LIMIT
        deadlock_after = self._DEADLOCK_THRESHOLD
        ready_off = self._ready_offset
        ul2_hit = self.config.memory.ul2_hit_latency
        dc_hit = self._dcache_hit_latency
        bus_free = self._bus_free
        bus_arb = self._bus_arb
        bus_xfer = self._bus_xfer
        n_buses = len(bus_free)
        p2p_free = self._p2p_free
        p2p_hop = self._p2p_hop
        n_links = len(p2p_free)
        policy = self._policy
        dep_policy = policy is SteeringPolicy.DEPENDENCE
        rr_policy = policy is SteeringPolicy.ROUND_ROBIN
        num_int = self.registers.num_int

        ROB_B = self._ROB_B
        RAT_B = self._RAT_B
        FRONT_OF = self._FRONT_OF
        ITLB_B = self._ITLB_B
        DECO_B = self._DECO_B
        BP_B = self._BP_B
        UL2_B = self._UL2_B
        TC_B = self._TC_B
        DL1_B = self._DL1_B
        DTLB_B = self._DTLB_B
        IFU_B = self._IFU_B
        MOB_B = self._MOB_B
        RFB_OF = self._RFB_OF
        SCHED_FLAT = self._SCHED_FLAT
        QSEL = self._QSEL
        FU_B = self._FU_B
        tc_access = self.trace_cache.access
        ul2_access = self.ul2.access
        dc_access = [dc.access for dc in self._dcaches]
        disp = self.stats.dispatched_per_cluster

        # Per-call stats deltas (flushed in the finally block).
        s_fetched = s_committed = s_ccopies = s_copyg = s_copyreq = 0
        s_branches = s_mispred = 0
        s_dhits = s_dmiss = s_ul2h = s_ul2m = 0
        s_rstall = s_robstall = s_fstall = 0
        disp_l = [0] * n_clusters

        # The loop allocates steadily (records, heap entries) but almost
        # nothing becomes garbage mid-interval; pausing the cyclic collector
        # avoids pointless gen-0 sweeps over the live simulation state.
        gc_on = gc.isenabled()
        if gc_on:
            gc.disable()
        try:
            while cycle < target:
                if exhausted and lbpos >= lbend and live == 0:
                    break
                busy = False
                stall_kind = 0

                # ---- commit -------------------------------------------------
                committed = 0
                if distributed:
                    while head_f is not None and committed < cwidth:
                        part = partitions[head_f]
                        if not part:
                            break
                        entry = part[0]
                        rec = entry[0]
                        comp = rec[6]
                        if comp < 0 or comp + commit_lag > cycle:
                            break
                        part.popleft()
                        committed += 1
                        acc[ROB_B[rec[2]]] += 1
                        prev = rec[5]
                        if prev:
                            # No ready-array reset needed: in-order commit
                            # means every consumer of a displaced mapping is
                            # older than this committing uop, so the freed
                            # ref has no live readers; realloc re-marks it.
                            for r in prev:
                                free_tab[r >> reg_bits].append(r & reg_mask)
                        cl = rec[1]
                        in_flight[cl] -= 1
                        s_committed += 1
                        live -= 1
                        if rec[10]:  # store
                            for c in cluster_range:
                                mob_occ[c] -= 1
                            dc_access[cl](rec[8], True)
                            acc[DL1_B[cl]] += 1
                        elif rec[11]:  # load
                            mob_occ[cl] -= 1
                        nxt = entry[1]
                        if nxt is None:
                            if entry is last_alloc:
                                last_alloc = None
                            head_f = None
                            break
                        head_f = nxt
                else:
                    while rob and committed < cwidth:
                        rec = rob[0]
                        comp = rec[6]
                        if comp < 0 or comp + commit_lag > cycle:
                            break
                        rob.popleft()
                        committed += 1
                        acc[ROB_B[rec[2]]] += 1
                        prev = rec[5]
                        if prev:
                            # No ready-array reset needed: in-order commit
                            # means every consumer of a displaced mapping is
                            # older than this committing uop, so the freed
                            # ref has no live readers; realloc re-marks it.
                            for r in prev:
                                free_tab[r >> reg_bits].append(r & reg_mask)
                        cl = rec[1]
                        in_flight[cl] -= 1
                        s_committed += 1
                        live -= 1
                        if rec[10]:
                            for c in cluster_range:
                                mob_occ[c] -= 1
                            dc_access[cl](rec[8], True)
                            acc[DL1_B[cl]] += 1
                        elif rec[11]:
                            mob_occ[cl] -= 1
                if committed:
                    last_commit = cycle
                    busy = True

                # ---- complete (writeback) ----------------------------------
                while comp_heap and comp_heap[0] <= cycle:
                    comp = heappop(comp_heap)
                    busy = True
                    for rec in comp_buckets.pop(comp):
                        rec[6] = comp
                        dr = rec[3]
                        if dr >= 0:
                            acc[RFB_OF[dr >> reg_bits]] += 1
                        if rec[7]:  # copy retires at completion
                            in_flight[rec[1]] -= 1
                            s_ccopies += 1
                            live -= 1
                        if rec[13] and pending is rec:
                            resume = comp + mp_penalty
                            if resume > stall_until:
                                stall_until = resume
                            waiting = False
                            pending = None

                # ---- issue + execute ---------------------------------------
                # Event-driven: drain newly-ready uops from the wake heap
                # into their queue's age-ordered eligible list, then issue
                # from the active queues in cluster/queue order — the
                # reference's scan order, which fixes the access order on
                # every shared structure (UL2, buses, links, the completion
                # heap's tie-break sequence).
                while wakeq and wakeq[0][0] <= cycle:
                    ent = heappop(wakeq)
                    rec = ent[2]
                    qi = rec[15]
                    insort(eligible[qi], (ent[1], rec))
                    active_mask |= 1 << qi
                if active_mask:
                    mask = active_mask
                    while mask:
                        low = mask & -mask
                        mask -= low
                        qi = low.bit_length() - 1
                        el = eligible[qi]
                        cl = qi >> 2
                        width = iwidth
                        while el and width:
                            rec = el.pop(0)[1]
                            width -= 1
                            qcount[qi] -= 1
                            busy = True
                            acc[SCHED_FLAT[qi]] += 1
                            for r in rec[4]:
                                acc[RFB_OF[r >> reg_bits]] += 1
                            if rec[7]:  # copy: point-to-point transfer
                                dcl = rec[8]
                                hops = cl - dcl
                                if hops < 0:
                                    hops = -hops
                                if hops > 2:
                                    hops = 2
                                if hops == 0:
                                    lat = 1
                                else:
                                    start0 = cycle + 1
                                    li = 0
                                    lg = p2p_free[0]
                                    for l2 in range(1, n_links):
                                        if p2p_free[l2] < lg:
                                            lg = p2p_free[l2]
                                            li = l2
                                    start = start0 if start0 > lg else lg
                                    finish = start + hops * p2p_hop
                                    p2p_free[li] = start + p2p_hop
                                    lat = finish - cycle
                                    if lat < 1:
                                        lat = 1
                            elif rec[11]:  # load
                                acc[DTLB_B[cl]] += 1
                                acc[DL1_B[cl]] += 1
                                acc[IFU_B[cl]] += 1
                                if dc_access[cl](rec[8]):
                                    s_dhits += 1
                                    lat = dc_hit
                                else:
                                    s_dmiss += 1
                                    grant0 = cycle + bus_arb
                                    bi = 0
                                    bg = bus_free[0]
                                    if bg < grant0:
                                        bg = grant0
                                    for b2 in range(1, n_buses):
                                        g2 = bus_free[b2]
                                        if g2 < grant0:
                                            g2 = grant0
                                        if g2 < bg:
                                            bg = g2
                                            bi = b2
                                    finish = bg + bus_xfer
                                    bus_free[bi] = finish
                                    ul2_lat = ul2_access(rec[8])
                                    if ul2_lat > ul2_hit:
                                        s_ul2m += 1
                                    else:
                                        s_ul2h += 1
                                    acc[UL2_B] += 1
                                    lat = (finish - cycle) + ul2_lat + dc_hit
                            elif rec[10]:  # store: address generation only
                                acc[DTLB_B[cl]] += 1
                                acc[IFU_B[cl]] += 1
                                for mb in MOB_B:
                                    acc[mb] += 1
                                lat = 1
                            else:
                                acc[FU_B[cl][rec[0]]] += 1
                                lat = rec[9]
                            if lat < 1:
                                lat = 1
                            comp = cycle + lat
                            dr = rec[3]
                            if dr >= 0:
                                ready_flat[dr] = comp
                                wl = wait_flat[dr]
                                if wl:
                                    # Wake parked consumers; once the last
                                    # source is produced the max ready cycle
                                    # is known (> cycle, since this result
                                    # lands at comp).
                                    for r2 in wl:
                                        n2 = r2[12] - 1
                                        r2[12] = n2
                                        if not n2:
                                            m2 = 0
                                            for sr2 in r2[4]:
                                                v2 = ready_flat[sr2]
                                                if v2 > m2:
                                                    m2 = v2
                                            heappush(wakeq, (m2, r2[14], r2))
                                    del wl[:]
                            bkt = comp_buckets.get(comp)
                            if bkt is None:
                                comp_buckets[comp] = [rec]
                                heappush(comp_heap, comp)
                            else:
                                bkt.append(rec)
                        if not el:
                            active_mask &= ~low

                # ---- dispatch arrival --------------------------------------
                for cl in cluster_range:
                    pipe = pipes[cl]
                    while pipe:
                        rec = pipe[0]
                        # Slot 14 holds the dispatch-arrival cycle until the
                        # pop below, after which it becomes the age sequence.
                        if rec[14] > cycle:
                            break
                        k = QSEL[rec[0]]
                        qi = cl * 4 + k
                        if qcount[qi] >= caps[k]:
                            break
                        pipe.popleft()
                        qcount[qi] += 1
                        acc[SCHED_FLAT[qi]] += 1
                        busy = True
                        nun = 0
                        m = 0
                        for r in rec[4]:
                            v = ready_flat[r]
                            if v >= _NOT_READY:
                                wait_flat[r].append(rec)
                                nun += 1
                            elif v > m:
                                m = v
                        sq = aseq
                        aseq += 1
                        rec[14] = sq
                        rec[15] = qi
                        if nun:
                            rec[12] = nun
                        elif m > cycle:
                            heappush(wakeq, (m, sq, rec))
                        else:
                            insort(eligible[qi], (sq, rec))
                            active_mask |= 1 << qi

                # ---- rename / steer / dispatch -----------------------------
                arrival = cycle + displat
                renamed = 0
                while fq and renamed < dwidth:
                    head = fq[0]
                    if head[0] > cycle:
                        break
                    idx = head[1]
                    srcs = srcs_l[idx]
                    # Steering decision (made before resource checks, and
                    # repeated every retry cycle — the round-robin pointer
                    # advances on stalled retries exactly like the reference).
                    if dep_policy:
                        if not srcs:
                            # Zero sources: score reduces to -load, whose
                            # first-minimum is the same cluster the general
                            # scan would pick (equal score implies equal
                            # load, so the tie-break never switches).
                            cl = 0
                            best_load = in_flight[0]
                            for c in range(1, n_clusters):
                                if in_flight[c] < best_load:
                                    cl = c
                                    best_load = in_flight[c]
                        elif len(srcs) == 1:
                            row0 = maptab[srcs[0]]
                            best = 0
                            best_score = -(1 << 40)
                            for c in cluster_range:
                                load = in_flight[c]
                                score = (24 - load) if row0[c] >= 0 else -load
                                if score > best_score or (
                                    score == best_score
                                    and load < in_flight[best]
                                ):
                                    best_score = score
                                    best = c
                            cl = best
                        else:
                            rows = [maptab[flat] for flat in srcs]
                            best = 0
                            best_score = -(1 << 40)
                            for c in cluster_range:
                                locality = 0
                                for row0 in rows:
                                    if row0[c] >= 0:
                                        locality += 1
                                load = in_flight[c]
                                score = locality * 24 - load
                                if score > best_score or (
                                    score == best_score
                                    and load < in_flight[best]
                                ):
                                    best_score = score
                                    best = c
                            cl = best
                    elif rr_policy:
                        cl = rr
                        rr += 1
                        if rr >= n_clusters:
                            rr = 0
                    else:  # least-loaded
                        cl = 0
                        best_load = in_flight[0]
                        for c in range(1, n_clusters):
                            if in_flight[c] < best_load:
                                cl = c
                                best_load = in_flight[c]
                    f = FRONT_OF[cl]
                    # Resource stalls: first failing check counts and blocks.
                    if distributed:
                        rob_ok = len(partitions[f]) < rob_cap
                    else:
                        rob_ok = len(rob) < rob_cap
                    if not rob_ok:
                        s_robstall += 1
                        stall_kind = 1
                        break
                    b_int = cl * 2
                    ineed = ineed_l[idx]
                    fneed = fneed_l[idx]
                    if (
                        len(free_tab[b_int]) < ineed
                        or len(free_tab[b_int + 1]) < fneed
                    ):
                        s_rstall += 1
                        stall_kind = 2
                        break
                    if len(pipes[cl]) >= presched_cap:
                        s_rstall += 1
                        stall_kind = 2
                        break
                    code = cls_l[idx]
                    is_store = code == CODE_STORE
                    is_load = code == CODE_LOAD
                    if is_store:
                        mob_ok = True
                        for c in cluster_range:
                            if mob_occ[c] >= mob_cap:
                                mob_ok = False
                                break
                        if not mob_ok:
                            s_rstall += 1
                            stall_kind = 2
                            break
                    elif is_load and mob_occ[cl] >= mob_cap:
                        s_rstall += 1
                        stall_kind = 2
                        break

                    fq.popleft()
                    dfl = dest_l[idx]
                    # Every operand (sources + dest) is exactly one register.
                    acc[DECO_B] += ineed + fneed
                    src_refs: list = []
                    copies = None
                    rat_cl = RAT_B[cl]
                    for flat in srcs:
                        row = maptab[flat]
                        acc[rat_cl] += 1
                        local = row[cl]
                        if local >= 0:
                            src_refs.append(local)
                            continue
                        holders = [c for c in cluster_range if row[c] >= 0]
                        if not holders:
                            continue
                        # Prefer a holder on the consumer's frontend, then
                        # the one closest to the destination cluster.
                        same = [c for c in holders if FRONT_OF[c] == f]
                        cands = same if same else holders
                        scl = cands[0]
                        best_d = scl - cl
                        if best_d < 0:
                            best_d = -best_d
                        for c in cands[1:]:
                            d2 = c - cl
                            if d2 < 0:
                                d2 = -d2
                            if d2 < best_d:
                                scl = c
                                best_d = d2
                        src_ref = row[scl]
                        kk = 1 if flat >= num_int else 0
                        b = cl * 2 + kk
                        fd = free_tab[b]
                        phys = fd.popleft()
                        new_ref = (b << reg_bits) | phys
                        ready_flat[new_ref] = _NOT_READY
                        row[cl] = new_ref
                        acc[RAT_B[scl]] += 1
                        acc[rat_cl] += 1
                        src_f = FRONT_OF[scl]
                        crec = [
                            CODE_COPY, scl, src_f, new_ref, (src_ref,), None,
                            -1, True, cl, 1, False, False, 0, False, 0, 0,
                        ]
                        if copies is None:
                            copies = [crec]
                        else:
                            copies.append(crec)
                        src_refs.append(new_ref)
                        s_copyg += 1
                        if src_f != f:
                            s_copyreq += 1
                        live += 1
                    if dfl >= 0:
                        kk = 1 if destfp_l[idx] else 0
                        b = cl * 2 + kk
                        fd = free_tab[b]
                        phys = fd.popleft()
                        dref = (b << reg_bits) | phys
                        ready_flat[dref] = _NOT_READY
                        row = maptab[dfl]
                        prev = [r for r in row if r >= 0]
                        new_row = [-1] * n_clusters
                        new_row[cl] = dref
                        maptab[dfl] = new_row
                        acc[rat_cl] += 1
                    else:
                        dref = -1
                        prev = None
                    mpb = isbr_l[idx] and mp_l[idx]
                    rec = [
                        code, cl, f, dref, tuple(src_refs), prev, -1, False,
                        addr_l[idx], lat_l[idx], is_store, is_load, 0, mpb,
                        arrival, 0,
                    ]
                    if distributed:
                        entry = [rec, None]
                        partitions[f].append(entry)
                        if last_alloc is not None:
                            last_alloc[1] = f
                        if head_f is None:
                            head_f = f
                        last_alloc = entry
                    else:
                        rob.append(rec)
                    acc[ROB_B[f]] += 1
                    if is_store:
                        for c in cluster_range:
                            mob_occ[c] += 1
                            acc[MOB_B[c]] += 1
                    elif is_load:
                        mob_occ[cl] += 1
                        acc[MOB_B[cl]] += 1
                    pipes[cl].append(rec)
                    in_flight[cl] += 1
                    disp_l[cl] += 1
                    if mpb and pending is None:
                        pending = rec
                    if copies is not None:
                        for crec in copies:
                            crec[14] = arrival + (1 if crec[2] != f else 0)
                            pipes[crec[1]].append(crec)
                            in_flight[crec[1]] += 1
                    renamed += 1
                if renamed:
                    busy = True

                # ---- fetch -------------------------------------------------
                gate = self.fetch_gate
                if gate is not None and (cycle % gate[1]) >= gate[0]:
                    s_fstall += 1
                elif len(fq) < fbuf:
                    if waiting or cycle < stall_until:
                        s_fstall += 1
                    else:
                        fetched = 0
                        while fetched < fwidth:
                            if lbpos >= lbend:
                                if line_idx >= n_lines:
                                    if not exhausted:
                                        exhausted = True
                                        busy = True
                                    break
                                line = lines[line_idx]
                                line_idx += 1
                                result = tc_access(line[2])
                                acc[TC_B[result.bank]] += line[3]
                                acc[ITLB_B] += 1
                                if not result.hit:
                                    acc[UL2_B] += 1
                                    acc[TC_B[result.bank]] += 1
                                    resume = cycle + result.latency
                                    if resume > stall_until:
                                        stall_until = resume
                                if line[4]:
                                    exhausted = True
                                lbpos = line[0]
                                lbend = line[1]
                                busy = True
                                if cycle < stall_until:
                                    break
                            idx = lbpos
                            lbpos += 1
                            fetched += 1
                            s_fetched += 1
                            acc[DECO_B] += 1
                            fq.append((cycle + ready_off, idx))
                            live += 1
                            if isbr_l[idx]:
                                s_branches += 1
                                acc[BP_B] += 1
                                if mp_l[idx]:
                                    s_mispred += 1
                                    waiting = True
                                    break
                        if fetched:
                            busy = True

                old_cycle = cycle
                cycle += 1

                # ---- deadlock guard ----------------------------------------
                if old_cycle - last_commit > deadlock_after and not (
                    exhausted and lbpos >= lbend and live == 0
                ):
                    if distributed:
                        occupancy = sum(len(p) for p in partitions)
                    else:
                        occupancy = len(rob)
                    rq = 0
                    limit = old_cycle + 1
                    for r0, _ in fq:
                        if r0 <= limit:
                            rq += 1
                            if rq >= fbuf:
                                break
                    raise SimulationDeadlockError(
                        f"no commit for {old_cycle - last_commit} cycles at "
                        f"cycle {old_cycle}; ROB occupancy {occupancy}, "
                        f"rename queue {rq}"
                    )

                # ---- quiet-cycle skip --------------------------------------
                if busy or gate is not None or (rr_policy and stall_kind):
                    continue
                t_next = target
                t = last_commit + deadlock_after + 1
                if cycle <= t < t_next:
                    t_next = t
                if comp_heap:
                    t = comp_heap[0]
                    if cycle <= t < t_next:
                        t_next = t
                if distributed:
                    if head_f is not None:
                        part = partitions[head_f]
                        if part:
                            comp = part[0][0][6]
                            if comp >= 0:
                                t = comp + commit_lag
                                if cycle <= t < t_next:
                                    t_next = t
                elif rob:
                    comp = rob[0][6]
                    if comp >= 0:
                        t = comp + commit_lag
                        if cycle <= t < t_next:
                            t_next = t
                for pipe in pipes:
                    if pipe:
                        t = pipe[0][14]
                        if cycle <= t < t_next:
                            t_next = t
                if fq:
                    t = fq[0][0]
                    if cycle <= t < t_next:
                        t_next = t
                fq_open = len(fq) < fbuf
                if fq_open and not waiting and cycle <= stall_until < t_next:
                    t_next = stall_until
                # Queue wakeups: in a quiet stretch no uop issues, so parked
                # uops stay parked and the wake heap's head is the only cycle
                # at which any queue can turn eligible (eligible uops would
                # have issued this cycle, making it busy).
                if wakeq:
                    t = wakeq[0][0]
                    if cycle <= t < t_next:
                        t_next = t
                skipped = t_next - cycle
                if skipped > 0:
                    if stall_kind == 1:
                        s_robstall += skipped
                    elif stall_kind == 2:
                        s_rstall += skipped
                    if fq_open and (waiting or cycle < stall_until):
                        s_fstall += skipped
                    cycle = t_next
        finally:
            if gc_on:
                gc.enable()
            self.cycle = cycle
            self._active_mask = active_mask
            self._arrival_seq = aseq
            self._line_idx = line_idx
            self._lbpos = lbpos
            self._lbend = lbend
            self._exhausted = exhausted
            self._stall_until = stall_until
            self._waiting = waiting
            self._pending = pending
            self._live = live
            self._last_commit = last_commit
            self._rr_pointer = rr
            if distributed:
                self._head_frontend = head_f
                self._last_allocated = last_alloc
            st = self.stats
            st.cycles = cycle
            st.fetched_uops += s_fetched
            st.committed_uops += s_committed
            st.committed_copies += s_ccopies
            st.copy_uops_generated += s_copyg
            st.copy_requests_between_frontends += s_copyreq
            st.branches += s_branches
            st.mispredicted_branches += s_mispred
            st.dcache_hits += s_dhits
            st.dcache_misses += s_dmiss
            st.ul2_hits += s_ul2h
            st.ul2_misses += s_ul2m
            st.rename_stall_cycles += s_rstall
            st.rob_full_stall_cycles += s_robstall
            st.fetch_stall_cycles += s_fstall
            for c in cluster_range:
                if disp_l[c]:
                    disp[c] = disp.get(c, 0) + disp_l[c]
            st.trace_cache_hits = self.trace_cache.hits
            st.trace_cache_misses = self.trace_cache.misses


class FastTimingStage(TimingStage):
    """:class:`~repro.sim.engine.TimingStage` running a :class:`FastProcessor`.

    Only constructible over a *materialized* uop source: the batch decode
    needs the whole workload up front.  Streaming sources must use the
    reference stage (the engine's ``timing_mode="auto"`` does this
    automatically).
    """

    def _build_processor(
        self,
        config: ProcessorConfig,
        uop_stream: Iterable[MicroOp],
        materialized: Optional[Sequence[MicroOp]],
        decoded: Optional[DecodedWorkload] = None,
    ):
        if materialized is None:
            raise ValueError(
                "FastTimingStage needs a materialized uop sequence; "
                "streaming sources must use the reference TimingStage"
            )
        return FastProcessor(config, materialized, decoded=decoded)

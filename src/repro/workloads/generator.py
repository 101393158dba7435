"""Deterministic synthetic micro-op trace generator.

The generator produces a micro-op stream with the statistical properties of a
:class:`~repro.workloads.profiles.WorkloadProfile`:

* a static *program* made of ``num_hot_loops`` loop bodies of
  ``loop_body_uops`` micro-ops each, laid out at consecutive PCs, so the
  trace cache observes realistic reuse and capacity pressure;
* a dynamic walk that stays in one hot loop for ``phase_length_uops``
  micro-ops before hopping to the next, which produces the phase behaviour
  and access bursts the paper's thermal-aware mapping reacts to;
* register dependencies drawn with a geometric distance distribution around
  ``mean_dependency_distance`` (controls achievable ILP);
* memory addresses with tunable spatial locality inside a working set of
  ``working_set_kb`` (controls L1/UL2 miss rates);
* branch outcomes and mispredictions at the profile's rates.

Everything is driven by :class:`random.Random` seeded from the benchmark name
and an explicit seed, so traces are fully reproducible.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterable, Iterator, List, Optional

from repro.isa.microops import MicroOp, UopClass
from repro.isa.registers import RegisterClass, RegisterSpace
from repro.workloads.profiles import WorkloadProfile, get_profile
from repro.workloads.trace import Trace

_INSTRUCTION_BYTES = 4
_CACHE_LINE_BYTES = 64


class _StaticUop:
    """Template for one static micro-op slot of a loop body."""

    __slots__ = ("offset", "uop_class", "is_branch")

    def __init__(self, offset: int, uop_class: UopClass, is_branch: bool) -> None:
        self.offset = offset
        self.uop_class = uop_class
        self.is_branch = is_branch


class _LoopBody:
    """A static hot loop: a PC range plus a template micro-op sequence."""

    __slots__ = ("base_pc", "slots", "array_base")

    def __init__(self, base_pc: int, slots: List[_StaticUop], array_base: int) -> None:
        self.base_pc = base_pc
        self.slots = slots
        self.array_base = array_base


class TraceGenerator:
    """Generate synthetic micro-op traces for one benchmark profile.

    Parameters
    ----------
    profile:
        Workload profile, or a benchmark name resolved through
        :func:`repro.workloads.profiles.get_profile`.
    seed:
        Seed for the pseudo-random number generator.  Two generators built
        with the same profile and seed produce identical traces.
    register_space:
        Logical register namespace; defaults to the standard
        :class:`~repro.isa.registers.RegisterSpace`.
    """

    def __init__(
        self,
        profile,
        seed: int = 0,
        register_space: Optional[RegisterSpace] = None,
    ) -> None:
        if isinstance(profile, str):
            profile = get_profile(profile)
        if not isinstance(profile, WorkloadProfile):
            raise TypeError(f"profile must be a WorkloadProfile or name, got {type(profile)}")
        self.profile = profile
        self.seed = seed
        self.registers = register_space or RegisterSpace()
        # Hoisted for _pick_source, the generator's hottest method.  The
        # register tables also cover the four seed indices of the recent-
        # destination windows below when the space is smaller than that,
        # wrapping them exactly as ``int_reg``/``fp_reg`` do.
        registers = self.registers
        self._int_regs = tuple(
            registers.int_reg(i) for i in range(max(4, registers.num_int))
        )
        self._fp_regs = tuple(
            registers.fp_reg(i) for i in range(max(4, registers.num_fp))
        )
        self._dependency_p = 1.0 / max(1.0, profile.mean_dependency_distance)
        # ``zlib.crc32`` rather than ``hash()``: string hashing is randomized
        # per process (PYTHONHASHSEED), which would make traces — and every
        # downstream power/thermal number — differ between runs, between
        # spawn-based worker processes, and against cached campaign results.
        self._rng = random.Random(zlib.crc32(profile.name.encode("utf-8")) ^ seed)
        self._random = self._rng.random
        self._loops = self._build_program()
        # Dynamic generation state.
        self._current_loop_index = 0
        self._uops_in_phase = 0
        self._recent_int_dests: List[int] = list(range(4))
        self._recent_fp_dests: List[int] = list(range(4))
        self._next_int_dest = 4
        self._next_fp_dest = 4
        self._sequential_addr = 0

    # ------------------------------------------------------------------
    # Static program construction
    # ------------------------------------------------------------------
    def _build_program(self) -> List[_LoopBody]:
        """Lay out the hot loops of the synthetic program in a PC space."""
        profile = self.profile
        loops: List[_LoopBody] = []
        pc_cursor = 0x4000_0000
        working_set_bytes = profile.working_set_kb * 1024
        data_base = 0x1000_0000
        bytes_per_loop = max(_CACHE_LINE_BYTES, working_set_bytes // profile.num_hot_loops)
        for loop_index in range(profile.num_hot_loops):
            slots = self._build_loop_slots(profile.loop_body_uops)
            loops.append(
                _LoopBody(
                    base_pc=pc_cursor,
                    slots=slots,
                    array_base=data_base + loop_index * bytes_per_loop,
                )
            )
            pc_cursor += (profile.loop_body_uops + 16) * _INSTRUCTION_BYTES
        return loops

    def _build_loop_slots(self, body_size: int) -> List[_StaticUop]:
        """Assign a micro-op class to every static slot of one loop body.

        The per-body counts match the profile's dynamic instruction mix so
        that repeated execution of the body reproduces the mix exactly.
        """
        profile = self.profile
        rng = self._rng
        num_loads = max(0, round(profile.load_fraction * body_size))
        num_stores = max(0, round(profile.store_fraction * body_size))
        num_branches = max(1, round(profile.branch_fraction * body_size))
        num_compute = max(1, body_size - num_loads - num_stores - num_branches)

        classes: List[UopClass] = []
        classes.extend([UopClass.LOAD] * num_loads)
        classes.extend([UopClass.STORE] * num_stores)
        # The final branch of the body is the loop back-edge; intra-body
        # branches are the rest.
        classes.extend([UopClass.BRANCH] * (num_branches - 1))
        for _ in range(num_compute):
            classes.append(self._pick_compute_class(rng))
        rng.shuffle(classes)
        classes.append(UopClass.BRANCH)  # loop back-edge, always last

        slots = [
            _StaticUop(offset=i, uop_class=cls, is_branch=(cls is UopClass.BRANCH))
            for i, cls in enumerate(classes)
        ]
        return slots

    def _pick_compute_class(self, rng: random.Random) -> UopClass:
        profile = self.profile
        use_fp = rng.random() < profile.fp_fraction
        long_op = rng.random() < profile.long_op_fraction
        if use_fp:
            if not long_op:
                return UopClass.FPADD
            return UopClass.FPMUL if rng.random() < 0.8 else UopClass.FPDIV
        if not long_op:
            return UopClass.IALU
        return UopClass.IMUL if rng.random() < 0.85 else UopClass.IDIV

    # ------------------------------------------------------------------
    # Dynamic trace generation
    # ------------------------------------------------------------------
    def generate(self, num_uops: int) -> Trace:
        """Materialize a :class:`~repro.workloads.trace.Trace` of ``num_uops``."""
        if num_uops <= 0:
            raise ValueError("num_uops must be positive")
        return Trace(benchmark=self.profile.name, uops=list(self.stream(num_uops)))

    def stream(self, num_uops: int) -> Iterator[MicroOp]:
        """Yield ``num_uops`` micro-ops without materializing the full trace."""
        if num_uops <= 0:
            raise ValueError("num_uops must be positive")
        produced = 0
        while produced < num_uops:
            loop = self._loops[self._current_loop_index]
            for slot in loop.slots:
                yield self._instantiate(loop, slot)
                produced += 1
                self._uops_in_phase += 1
                if produced >= num_uops:
                    return
            if self._uops_in_phase >= self.profile.phase_length_uops:
                self._advance_phase()

    def _advance_phase(self) -> None:
        """Move to another hot loop (phase change)."""
        self._uops_in_phase = 0
        if len(self._loops) == 1:
            return
        # Mostly move to the next region, occasionally jump to a random one
        # (models irregular control flow between phases).
        if self._rng.random() < 0.8:
            self._current_loop_index = (self._current_loop_index + 1) % len(self._loops)
        else:
            self._current_loop_index = self._rng.randrange(len(self._loops))

    def _instantiate(self, loop: _LoopBody, slot: _StaticUop) -> MicroOp:
        """Create a dynamic micro-op instance from a static slot."""
        profile = self.profile
        rng = self._rng
        pc = loop.base_pc + slot.offset * _INSTRUCTION_BYTES
        uop_class = slot.uop_class

        dest = None
        sources = ()
        mem_addr = None
        is_branch = slot.is_branch
        branch_taken = False
        mispredicted = False

        if uop_class is UopClass.BRANCH:
            is_back_edge = slot.offset == len(loop.slots) - 1
            if is_back_edge:
                branch_taken = True
            else:
                branch_taken = rng.random() < profile.branch_taken_rate
            mispredicted = rng.random() < profile.branch_misprediction_rate
            sources = (self._pick_source(RegisterClass.INT),)
        elif uop_class is UopClass.LOAD:
            dest = self._allocate_dest(RegisterClass.INT)
            sources = (self._pick_source(RegisterClass.INT),)
            mem_addr = self._next_address(loop)
        elif uop_class is UopClass.STORE:
            sources = (
                self._pick_source(RegisterClass.INT),
                self._pick_source(RegisterClass.INT),
            )
            mem_addr = self._next_address(loop)
        else:
            reg_class = RegisterClass.FP if uop_class in (
                UopClass.FPADD, UopClass.FPMUL, UopClass.FPDIV,
            ) else RegisterClass.INT
            dest = self._allocate_dest(reg_class)
            sources = (
                self._pick_source(reg_class),
                self._pick_source(reg_class),
            )

        return MicroOp(
            pc=pc,
            uop_class=uop_class,
            dest=dest,
            sources=sources,
            mem_addr=mem_addr,
            is_branch=is_branch,
            branch_taken=branch_taken,
            mispredicted=mispredicted,
            end_of_trace=is_branch,
        )

    # ------------------------------------------------------------------
    # Register and address selection
    # ------------------------------------------------------------------
    def _allocate_dest(self, reg_class: RegisterClass):
        """Allocate the next destination register (round-robin over the space)."""
        if reg_class is RegisterClass.INT:
            index = self._next_int_dest % self.registers.num_int
            self._next_int_dest += 1
            self._recent_int_dests.append(index)
            if len(self._recent_int_dests) > 16:
                self._recent_int_dests.pop(0)
            return self._int_regs[index]
        index = self._next_fp_dest % self.registers.num_fp
        self._next_fp_dest += 1
        self._recent_fp_dests.append(index)
        if len(self._recent_fp_dests) > 16:
            self._recent_fp_dests.pop(0)
        return self._fp_regs[index]

    def _pick_source(self, reg_class: RegisterClass):
        """Pick a source register among recently produced values.

        The distance (in destinations) between producer and consumer follows
        a geometric distribution whose mean is the profile's
        ``mean_dependency_distance``.  The draw order is part of the trace's
        identity: one ``random()`` per step, checked before the window bound.
        """
        if reg_class is RegisterClass.INT:
            recents = self._recent_int_dests
            regs = self._int_regs
        else:
            recents = self._recent_fp_dests
            regs = self._fp_regs
        draw = self._random
        p = self._dependency_p
        count = len(recents)
        distance = 1
        while draw() > p and distance < count:
            distance += 1
        return regs[recents[-min(distance, count)]]

    #: Size of the per-loop hot region that sequential accesses sweep over;
    #: it is capped so that hot-region accesses mostly hit in the 16 KB L1.
    _HOT_SPAN_BYTES = 12 * 1024

    def _next_address(self, loop: _LoopBody) -> int:
        """Generate the next data address for a memory micro-op.

        With probability ``spatial_locality`` the access walks sequentially
        over the loop's hot region (mostly L1 hits); otherwise it touches the
        loop's full array or, occasionally, a random location of the whole
        working set (L1 misses that mostly hit in the UL2 once warm).
        """
        profile = self.profile
        working_set_bytes = profile.working_set_kb * 1024
        span = max(_CACHE_LINE_BYTES * 4, working_set_bytes // profile.num_hot_loops)
        hot_span = min(span, self._HOT_SPAN_BYTES)
        roll = self._rng.random()
        if roll < profile.spatial_locality:
            # Sequential (stride ~ 8 bytes) access within the loop's hot region.
            self._sequential_addr = (self._sequential_addr + 8) % hot_span
            return loop.array_base + self._sequential_addr
        if roll < profile.spatial_locality + (1.0 - profile.spatial_locality) * 0.7:
            # Strided / irregular access within the loop's own array.
            return loop.array_base + self._rng.randrange(span)
        # Random access anywhere in the working set.
        return 0x1000_0000 + self._rng.randrange(working_set_bytes)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def static_footprint_uops(self) -> int:
        """Number of static micro-ops in the synthetic program."""
        return sum(len(loop.slots) for loop in self._loops)

    def describe(self) -> str:
        """One-line human-readable description of the generator's program."""
        return (
            f"{self.profile.name}: {len(self._loops)} hot loops x "
            f"{self.profile.loop_body_uops} uops, working set "
            f"{self.profile.working_set_kb} KB"
        )


def generate_traces(
    benchmarks: Iterable[str],
    uops_per_benchmark: int,
    seed: int = 0,
    honor_relative_length: bool = True,
) -> List[Trace]:
    """Generate one trace per benchmark name.

    When ``honor_relative_length`` is set, each benchmark's length is scaled
    by its profile's ``relative_length``, mirroring the paper's shorter traces
    for eon, fma3d, mcf, perlbmk and swim.
    """
    traces = []
    for name in benchmarks:
        profile = get_profile(name)
        length = uops_per_benchmark
        if honor_relative_length:
            length = max(1, int(round(uops_per_benchmark * profile.relative_length)))
        traces.append(TraceGenerator(profile, seed=seed).generate(length))
    return traces

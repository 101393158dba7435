"""In-memory span tracer that wraps the program's layer entry points in place.

The benchmark measures end-to-end numbers with nothing wrapped.  A separate
traced run calls :meth:`Tracer.install`, which replaces each public entry
point named in :data:`TARGETS` with a thin wrapper that records a span
(name, start, end, parent, cell id) and then calls the original.  Spans stay
in a list until the run ends; :func:`self_times` turns them into per-layer
self time (a span's duration minus the part its child spans cover).

Functions imported by name into other modules (``from x import f``) are
patched in every loaded ``repro`` module that holds the same object, and
:meth:`Tracer.uninstall` puts every original back, so an untraced run
always executes the program's own, unwrapped functions.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    cell: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _timing_path(stage) -> str:
    """Which timing implementation a timing stage runs on."""
    processor = stage.processor
    if not hasattr(processor, "uses_native_core"):
        return "reference"
    return "native" if processor.uses_native_core else "fast"


def _task_cell(task) -> Optional[str]:
    """A short id of the campaign cell(s) an executor task works on."""
    if isinstance(task, tuple) and len(task) == 2 and isinstance(task[0], str):
        task = task[1]  # ("run" | "capture", spec)
    elif isinstance(task, tuple) and len(task) == 2:
        specs = task[1]  # (trace(s), specs) replay group
        first = specs[0] if specs else None
        if first is None:
            return None
        return f"{_spec_id(first)}+{len(specs) - 1}"
    return _spec_id(task)


def _spec_id(spec) -> str:
    workload = getattr(spec, "benchmark", None) or "+".join(
        getattr(spec, "benchmarks", ())
    )
    policy = getattr(spec, "dtm_policy", None) or getattr(spec, "chip_policy", None)
    suffix = f"@{policy}" if policy else ""
    return f"{spec.config.name}{suffix}/{workload}"


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` recorded as ``span``.

    ``span`` is a fixed span name or a function of the call's arguments
    (used to split the timing stage by implementation).  ``on_return`` is
    called with ``(tracer, args, result)`` after the call, to count work.
    ``cell`` marks the executor task functions that set the current cell id.
    """

    module: str
    qualname: str
    span: Union[str, Callable[[tuple], str]]
    on_return: Optional[Callable] = None
    cell: bool = False


def _count_generate(tracer: "Tracer", args, _result) -> None:
    generator, length = args[0], args[1] if len(args) > 1 else None
    tracer.keys["workloads.generate"].add(
        (generator.profile.name, generator.seed, length)
    )


def _count_timing_cell(tracer: "Tracer", args, _result) -> None:
    tracer.counts[f"sim.cells_{_timing_path(args[0])}"] += 1


def _count(name: str) -> Callable:
    def hook(tracer: "Tracer", _args, _result) -> None:
        tracer.counts[name] += 1

    return hook


#: Every wrapped entry point, by layer.  Span names are ``<layer>.<part>``;
#: ``campaign.plan`` collects run_campaign and the executor task functions.
TARGETS: Tuple[Target, ...] = (
    # workloads
    Target("repro.workloads.generator", "TraceGenerator.generate",
           "workloads.generate", _count_generate),
    Target("repro.workloads.decode", "decode_workload", "workloads.decode",
           _count("workloads.decode_calls")),
    # sim: timing
    Target("repro.sim.engine", "TimingStage.__init__", "sim.timing_build",
           _count_timing_cell),
    Target("repro.sim.engine", "TimingStage.run_interval",
           lambda args: f"sim.timing_{_timing_path(args[0])}"),
    # sim: engine glue, physics and replay
    Target("repro.sim.engine", "SimulationEngine.run", "sim.engine"),
    Target("repro.sim.engine", "PhysicsStage.__init__", "sim.physics_build",
           _count("sim.physics_build_calls")),
    Target("repro.sim.engine", "PhysicsStage.warmup", "sim.physics_interval"),
    Target("repro.sim.engine", "PhysicsStage.interval_pipeline",
           "sim.physics_interval"),
    Target("repro.sim.engine", "PhysicsStage.leakage_only_interval",
           "sim.physics_interval"),
    Target("repro.sim.engine", "PhysicsStage.replay", "sim.replay"),
    Target("repro.sim.group_replay", "replay_group", "sim.replay"),
    # power
    Target("repro.power.power_model", "PowerModel.compute_arrays", "power.dynamic"),
    Target("repro.power.power_model", "PowerModel.dynamic_power_array",
           "power.dynamic"),
    Target("repro.power.power_model", "PowerModel.dynamic_power_matrix",
           "power.dynamic"),
    Target("repro.power.leakage", "LeakageModel.leakage_power_array",
           "power.leakage"),
    Target("repro.power.leakage", "LeakageModel.leakage_power_batch",
           "power.leakage"),
    Target("repro.power.leakage", "batched_leakage_kernel", "power.leakage"),
    # thermal
    Target("repro.thermal.solver", "ThermalSolver.__init__", "thermal.factor",
           _count("thermal.factor_calls")),
    Target("repro.thermal.solver", "ThermalSolver.set_backend", "thermal.factor",
           _count("thermal.factor_calls")),
    Target("repro.thermal.solver", "ThermalSolver.advance_nodes", "thermal.solve",
           _count("thermal.solve_calls")),
    Target("repro.thermal.solver", "ThermalSolver.advance_nodes_batch",
           "thermal.solve", _count("thermal.solve_calls")),
    Target("repro.thermal.solver", "ThermalSolver.steady_state_nodes",
           "thermal.solve", _count("thermal.solve_calls")),
    Target("repro.thermal.solver", "ThermalSolver.steady_state_nodes_batch",
           "thermal.solve", _count("thermal.solve_calls")),
    Target("repro.thermal.solver", "ThermalSolver.warmup_nodes", "thermal.solve",
           _count("thermal.solve_calls")),
    Target("repro.thermal.solver", "ThermalSolver.interval_affine_map",
           "thermal.solve", _count("thermal.solve_calls")),
    # chip
    Target("repro.chip.engine", "build_chip_physics", "chip.compose"),
    Target("repro.chip.engine", "ChipEngine.run", "chip.run"),
    Target("repro.chip.engine", "replay_chip", "chip.replay"),
    Target("repro.chip.engine", "replay_chip_group", "chip.replay"),
    # dtm: the per-interval policy callbacks of both engines
    Target("repro.sim.engine", "SimulationEngine._apply_dtm", "dtm.policy"),
    Target("repro.chip.engine", "ChipEngine._apply_policies", "dtm.policy"),
    # campaign
    Target("repro.campaign.core", "run_campaign", "campaign.plan"),
    Target("repro.campaign.executors", "execute_campaign_task", "campaign.plan",
           cell=True),
    Target("repro.campaign.executors", "execute_replay_group", "campaign.plan",
           cell=True),
    Target("repro.campaign.executors", "execute_chip_replay_group",
           "campaign.plan", cell=True),
    Target("repro.campaign.executors", "execute_chip_cell", "campaign.plan",
           cell=True),
    Target("repro.campaign.cache", "ResultCache.load", "campaign.cache_load"),
    Target("repro.campaign.cache", "ResultCache.store", "campaign.cache_store"),
    Target("repro.campaign.cache", "ResultCache.load_trace", "campaign.trace_load"),
    Target("repro.campaign.cache", "ResultCache.store_trace",
           "campaign.trace_store"),
)


def _resolve(target: Target):
    """``(owner, attribute, original)`` of a target; imports its module."""
    owner = importlib.import_module(target.module)
    *path, attribute = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attribute]
    return owner, attribute, original


class Tracer:
    """Records spans and counts at the wrapped layer boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.keys: Dict[str, set] = {"workloads.generate": set()}
        self.cell: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # placeholder, keeps parents before children
        stack.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.cell)

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        tracer = self
        span = target.span
        on_return = target.on_return

        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(args)
            previous = tracer.cell
            if target.cell and args:
                tracer.cell = _task_cell(args[0])
            try:
                result = tracer.call(name, original, args, kwargs)
            finally:
                tracer.cell = previous
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        traced.__qualname__ = getattr(original, "__qualname__", "traced")
        traced._perfbench_original = original
        return traced

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            owner, attribute, original = _resolve(target)
            wrapper = self._wrapper(target, original)
            self._installed.append((owner, attribute, original, wrapper))
            setattr(owner, attribute, wrapper)
            if not isinstance(owner, type):
                # Rebind ``from module import fn`` copies in other modules.
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if module is owner or not name.startswith("repro"):
                        continue
                    if module.__dict__.get(attribute) is original:
                        setattr(module, attribute, wrapper)
                        self._installed.append((module, attribute, original, wrapper))

    def uninstall(self) -> None:
        """Restore every original, including copies imported while traced."""
        wrappers = {id(w): original for _, _, original, w in self._installed}
        for owner, attribute, original, _ in reversed(self._installed):
            setattr(owner, attribute, original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attribute, wrappers[id(value)])
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def installed_wrappers(targets: Sequence[Target] = TARGETS) -> List[str]:
    """Names of targets that currently hold a tracer wrapper (should be none)."""
    found = []
    for target in targets:
        _, _, current = _resolve(target)
        if hasattr(current, "_perfbench_original"):
            found.append(f"{target.module}:{target.qualname}")
    return found


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        own = span.duration - _union_length(covered)
        totals[span.name] = totals.get(span.name, 0.0) + max(0.0, own)
    return totals


def covered_time(spans: Sequence[Span]) -> float:
    """Wall time covered by root spans (those with no parent)."""
    return _union_length([(s.start, s.end) for s in spans if s.parent < 0])

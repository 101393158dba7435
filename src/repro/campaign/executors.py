"""Pluggable execution backends for campaign cells.

An :class:`Executor` turns a sequence of :class:`~repro.campaign.spec.RunSpec`
cells into :class:`~repro.sim.results.SimulationResult` objects, in order.
Because every cell is self-contained (scaled config, trace length, interval
and seed all live in the spec), the backends are interchangeable:

* :class:`SerialExecutor` — the legacy in-process loop;
* :class:`ParallelExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out.  Seeding is deterministic per cell (the seed is part of the spec,
  not of execution order), so a parallel run is metric-identical to a serial
  one.

Since the two-stage simulation core landed, an executor actually runs
these kinds of work, all module-level functions so they pickle cleanly into
worker processes:

* :func:`execute_cell` — the classic coupled timing+physics simulation;
* :func:`execute_cell_capture` — a coupled run that also records the
  timing stage's :class:`~repro.sim.activity_trace.ActivityTrace`;
* :func:`execute_workload_group` — phase 1 of a replay-enabled campaign:
  every coupled and capture cell that shares one workload
  (:meth:`~repro.campaign.spec.RunSpec.workload_key`), run in one task that
  generates and decodes the micro-op stream once and drops it on return;
* :func:`execute_cell_replay` / :func:`execute_replay_group` — physics-only
  replays of a previously captured trace (orders of magnitude cheaper than
  a coupled run).

The campaign layer routes cells between them (see
:func:`repro.campaign.core.run_campaign`); ``replay=False`` and executors
without ``run_tasks`` keep the per-cell, from-scratch baseline, in which
every cell generates its own workload.  The generic :meth:`Executor.run_tasks`
is the single fan-out primitive underneath.  ``cells_executed`` counts the
cells that ran a *timing* simulation (coupled or capture) — replays are
accounted separately by the campaign outcome — which the result cache's
hit/miss accounting and the tests rely on.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.campaign.spec import RunSpec
from repro.isa.microops import MicroOp
from repro.sim.activity_trace import ActivityTrace
from repro.sim.results import SimulationResult
from repro.sim.warmcache import resolve_trace, warm_snapshot
from repro.workloads.decode import DecodedWorkload, decode_workload
from repro.workloads.generator import TraceGenerator

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


#: Accepted values of the engine ``timing_mode`` selector.
TIMING_MODES = ("auto", "fast", "reference")


def resolved_timing_mode() -> str:
    """Engine timing mode for campaign cells (``REPRO_TIMING_MODE``).

    Campaign cells are identified by *content* (config, workload, seed), and
    the fast timing path is byte-identical to the per-uop reference, so the
    timing mode is deliberately **not** part of a cell's spec or cache key —
    it is an execution knob, carried in the environment so it survives the
    pickle boundary into pool workers (child processes inherit the
    environment under both fork and spawn).  Unset means ``auto``.
    """
    mode = os.environ.get("REPRO_TIMING_MODE", "auto").strip().lower() or "auto"
    if mode not in TIMING_MODES:
        raise ValueError(
            f"REPRO_TIMING_MODE must be one of {', '.join(TIMING_MODES)}, "
            f"not {mode!r}"
        )
    return mode


def resolved_replay_mode(spec_mode: str = "exact") -> str:
    """Replay mode for a replay group (``REPRO_REPLAY_MODE`` wins).

    The mode normally rides on the specs (stamped by
    :class:`~repro.campaign.spec.Campaign` from its ``replay_mode``
    parameter / the CLI's ``--replay-mode``); the environment variable is an
    override with the same role as ``REPRO_TIMING_MODE`` — an execution
    knob, never part of any cache key, inherited by pool workers.
    """
    from repro.sim.group_replay import validate_replay_mode

    mode = os.environ.get("REPRO_REPLAY_MODE", "").strip().lower()
    return validate_replay_mode(mode or spec_mode)


class ExecutorTaskError(RuntimeError):
    """A task could not be completed by its execution backend.

    Raised instead of backend-internal exceptions (most notably
    :class:`concurrent.futures.process.BrokenProcessPool` when a worker
    process dies mid-task) so callers get a typed error carrying the task
    that was being executed.  ``task`` is the first task whose result could
    not be retrieved — with a broken pool every in-flight task fails at
    once, so the attribution is the earliest casualty in submission order.
    """

    def __init__(self, message: str, task: object = None) -> None:
        super().__init__(message)
        self.task = task


def _generate_uops(benchmark: str, seed: int, trace_uops: int) -> List[MicroOp]:
    """The materialized micro-op stream of one workload."""
    return TraceGenerator(benchmark, seed=seed).generate(trace_uops).uops


def _build_engine(
    spec: RunSpec,
    uops: Optional[Sequence[MicroOp]] = None,
    decoded: Optional[DecodedWorkload] = None,
):
    """The shared front half of the coupled execution paths.

    ``uops`` (and, for the fast timing path, ``decoded``) is the cell's
    workload when a workload group already built it; otherwise the cell
    generates its own.
    """
    # Imported lazily: ``repro.core.presets`` imports this package to get the
    # ConfigBuilder, so pulling the engine (and through it the processor and
    # ``repro.core``) in at module-import time would be circular.
    from repro.sim.engine import SimulationEngine

    dtm_policy = None
    if spec.dtm_policy is not None:
        from repro.dtm import make_policy

        dtm_policy = make_policy(spec.dtm_policy)
    if uops is None:
        uops = _generate_uops(spec.benchmark, spec.seed, spec.trace_uops)
    return SimulationEngine(
        spec.config,
        uops,
        spec.benchmark,
        interval_cycles=spec.interval_cycles,
        dtm_policy=dtm_policy,
        timing_mode=resolved_timing_mode(),
        decoded=decoded,
    )


def execute_cell(
    spec: RunSpec,
    uops: Optional[Sequence[MicroOp]] = None,
    decoded: Optional[DecodedWorkload] = None,
) -> SimulationResult:
    """Simulate one campaign cell coupled (timing + physics, one interval loop).

    Module-level (rather than a method) so it pickles cleanly into worker
    processes regardless of the multiprocessing start method.  The cell's
    DTM policy (if any) is instantiated *here*, from its spec string, so
    policy controller state is always fresh per cell and never needs to
    cross a process boundary.  ``uops``/``decoded`` are a prebuilt workload
    (see :func:`execute_workload_group`); by default the cell generates its
    own.
    """
    result = _build_engine(spec, uops, decoded).run()
    result.provenance.update(spec.provenance())
    return result


def execute_cell_capture(
    spec: RunSpec,
    uops: Optional[Sequence[MicroOp]] = None,
    decoded: Optional[DecodedWorkload] = None,
) -> Tuple[SimulationResult, ActivityTrace]:
    """Simulate one cell coupled *and* capture its activity trace.

    The result is exactly what :func:`execute_cell` produces (recording only
    observes the timing stage); the trace can replay every other cell that
    shares this spec's :meth:`~repro.campaign.spec.RunSpec.timing_key`.
    """
    result, trace = _build_engine(spec, uops, decoded).run_with_trace(
        trace_provenance={"seed": spec.seed, "trace_uops": spec.trace_uops}
    )
    result.provenance.update(spec.provenance())
    return result, trace


def execute_cell_replay(task: Tuple[RunSpec, ActivityTrace]) -> SimulationResult:
    """Replay one cell's physics over a shared activity trace.

    Takes a single ``(spec, trace)`` tuple so the function maps directly
    over a process pool.  No trace generation, no processor, no per-uop
    simulation — just the array-backed physics stage, bit-identical to the
    coupled run of the same spec.
    """
    spec, trace = task
    trace = resolve_trace(trace)
    from repro.sim.engine import PhysicsStage

    dtm_policy = None
    if spec.dtm_policy is not None:
        from repro.dtm import make_policy

        dtm_policy = make_policy(spec.dtm_policy)
    stage = PhysicsStage(spec.config, interval_cycles=spec.interval_cycles)
    result = stage.replay(trace, dtm_policy=dtm_policy)
    result.provenance.update(spec.provenance())
    result.provenance["replayed"] = True
    return result


def execute_replay_group(
    task: Tuple[ActivityTrace, Sequence[RunSpec]],
) -> List[SimulationResult]:
    """Replay every cell of one timing-key group over its shared trace.

    The campaign layer fans replays out one *group* per task rather than
    one cell per task, so the (potentially large) trace crosses the process
    boundary once per group instead of once per cell.

    How the group's physics is computed is the specs' ``replay_mode``
    (overridable via ``REPRO_REPLAY_MODE``): ``"exact"`` gives each cell its
    own fresh :class:`~repro.sim.engine.PhysicsStage` (bit-identical to the
    coupled run), ``"batched"``/``"auto"`` route the group through
    :func:`repro.sim.group_replay.replay_group`, which advances whole
    thermally-identical sub-groups per interval in one multi-RHS solve.  A
    single-cell group always short-circuits to the exact per-cell path —
    there is nothing to batch, so it must perform zero batch solves.
    """
    trace, specs = task
    # The trace may arrive as a zero-copy TraceRef (mmap'd cache artifact
    # or shared-memory segment) instead of a pickled payload; resolving it
    # consults the worker's warm registry first, so sibling groups over the
    # same trace decode it once per worker.
    trace = resolve_trace(trace)
    specs = list(specs)
    mode = resolved_replay_mode(specs[0].replay_mode if specs else "exact")
    if mode == "exact" or len(specs) <= 1:
        return [execute_cell_replay((spec, trace)) for spec in specs]

    from repro.sim.group_replay import replay_group

    results = replay_group(
        trace,
        [spec.config for spec in specs],
        interval_cycles=specs[0].interval_cycles,
        dtm_policies=[spec.dtm_policy for spec in specs],
        replay_mode=mode,
    )
    for spec, result in zip(specs, results):
        result.provenance.update(spec.provenance())
        result.provenance["replayed"] = True
    return results


def execute_chip_cell(spec) -> SimulationResult:
    """Simulate one chip cell coupled: N timing stages, one composite physics.

    ``spec`` is a :class:`~repro.chip.ChipRunSpec`; like every executor
    function, this builds everything (trace generators, engines, the chip
    policy) inside the executing process so tasks stay picklable.
    """
    from repro.chip import ChipEngine

    # Threads running the same benchmark at the same length share one
    # generated stream (every timing stage copies it before running).
    workloads: Dict[Tuple[str, int], List[MicroOp]] = {}
    sources = []
    for benchmark, length in zip(spec.benchmarks, spec.trace_uops):
        workload = workloads.get((benchmark, length))
        if workload is None:
            workload = _generate_uops(benchmark, spec.seed, length)
            workloads[(benchmark, length)] = workload
        sources.append(workload)
    engine = ChipEngine(
        spec.config,
        sources,
        spec.benchmarks,
        cores=spec.cores,
        interval_cycles=spec.interval_cycles,
        chip_policy=spec.chip_policy,
        contention=spec.contention,
        solver_backend=spec.solver_backend,
        timing_mode=resolved_timing_mode(),
    )
    result = engine.run()
    result.provenance.update(spec.provenance())
    return result


def execute_chip_replay(task) -> SimulationResult:
    """Replay one chip cell's physics over its threads' single-core traces.

    Takes a ``(ChipRunSpec, (trace, ...))`` tuple — one
    :class:`~repro.sim.activity_trace.ActivityTrace` per thread, in core
    order.  The traces are ordinary single-core captures (shared with any
    single-core campaign of the same settings); the result is bit-identical
    to :func:`execute_chip_cell` for the same spec.
    """
    spec, traces = task
    traces = tuple(resolve_trace(trace) for trace in traces)
    from repro.chip import replay_chip

    result = replay_chip(
        spec.config,
        traces,
        cores=spec.cores,
        interval_cycles=spec.interval_cycles,
        chip_policy=spec.chip_policy,
        solver_backend=spec.solver_backend,
    )
    result.provenance.update(spec.provenance())
    result.provenance["replayed"] = True
    return result


def execute_chip_replay_group(task) -> List[SimulationResult]:
    """Replay every chip cell of one trace-set group over its shared traces.

    Mirrors :func:`execute_replay_group` one level up: chip cells whose
    threads resolve to the same per-core trace tuple (a physics sweep over
    one mix) are fanned out one *group* per task, so the traces are pickled
    into a worker once per group instead of once per cell.  (Within one
    task, pickle memoizes the shared trace objects, so a homogeneous mix's
    repeated trace also crosses the boundary once.)  Like
    :func:`execute_replay_group`, the specs' ``replay_mode`` (or the
    ``REPRO_REPLAY_MODE`` override) may route the group through the batched
    multi-RHS path (:func:`repro.chip.engine.replay_chip_group`); a
    single-cell group always takes the exact per-cell path.
    """
    traces, specs = task
    traces = tuple(resolve_trace(trace) for trace in traces)
    specs = list(specs)
    mode = resolved_replay_mode(
        getattr(specs[0], "replay_mode", "exact") if specs else "exact"
    )
    if mode == "exact" or len(specs) <= 1:
        return [execute_chip_replay((spec, traces)) for spec in specs]

    from repro.chip.engine import replay_chip_group

    results = replay_chip_group(traces, specs, replay_mode=mode)
    for spec, result in zip(specs, results):
        result.provenance.update(spec.provenance())
        result.provenance["replayed"] = True
    return results


def execute_campaign_task(
    task: Tuple[str, RunSpec],
    uops: Optional[Sequence[MicroOp]] = None,
    decoded: Optional[DecodedWorkload] = None,
) -> Tuple[SimulationResult, Optional[ActivityTrace]]:
    """Dispatch one phase-1 campaign task: ``("run" | "capture", spec)``.

    One uniform function lets a single executor pass mix plain coupled
    cells with trace-capturing ones.  ``uops``/``decoded`` pass a workload
    group's shared workload through to the cell.
    """
    mode, spec = task
    if mode == "capture":
        return execute_cell_capture(spec, uops, decoded)
    return execute_cell(spec, uops, decoded), None


def execute_workload_group(
    tasks: Sequence[Tuple[str, RunSpec]],
) -> List[Tuple[SimulationResult, Optional[ActivityTrace]]]:
    """Run every phase-1 task of one workload group over one shared workload.

    ``tasks`` are ``("run" | "capture", spec)`` pairs whose specs share one
    :meth:`~repro.campaign.spec.RunSpec.workload_key`.  The micro-op stream
    is generated once and, unless every cell runs on the per-uop reference
    (``REPRO_TIMING_MODE=reference``), decoded once; each task then runs in
    order, exactly as :func:`execute_campaign_task` would run it alone (no
    cell mutates the workload).  The workload is dropped when the group
    returns, so each worker (a pool process, or a service thread) holds one
    live workload at a time.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    key = tasks[0][1].workload_key()
    for _, spec in tasks[1:]:
        if spec.workload_key() != key:
            raise ValueError(
                f"workload group mixes workloads {key} and {spec.workload_key()}"
            )
    uops = _generate_uops(*key)
    decoded = None
    if resolved_timing_mode() != "reference":
        decoded = decode_workload(uops)
    return [execute_campaign_task(task, uops, decoded) for task in tasks]


def _describe_task(task: object) -> str:
    """A compact human-readable identity of a failed task.

    Tasks take several shapes — a bare :class:`RunSpec`, a ``(mode, spec)``
    phase-1 tuple, a tuple of those (a workload group), a ``(trace, specs)``
    replay group — so this digs out the spec(s) rather than dumping a full
    configuration repr into the error.
    """

    def _spec_name(spec: object) -> str:
        config = getattr(spec, "config", None)
        if config is None:
            return repr(spec)
        name = getattr(config, "name", "?")
        benchmark = getattr(spec, "benchmark", "?")
        return f"{name}/{benchmark}"

    if isinstance(task, (tuple, list)) and task and all(
        isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
        for item in task
    ):
        names = ", ".join(_spec_name(spec) for _, spec in task)
        return f"workload group [{names}]"
    if isinstance(task, tuple) and len(task) == 2:
        first, second = task
        if isinstance(first, str):
            return f"{first} cell {_spec_name(second)}"
        if isinstance(second, (tuple, list)):
            names = ", ".join(_spec_name(spec) for spec in second)
            return f"replay group [{names}]"
        return _spec_name(first)
    return _spec_name(task)


class Executor:
    """Base class of campaign execution backends.

    :meth:`run_tasks` is the abstract fan-out primitive — subclasses
    implement it once and :meth:`run_cells` (and the campaign layer's
    capture/replay phases) ride on top.  A pre-two-stage subclass that only
    overrides :meth:`run_cells` still works: :func:`repro.campaign.core.
    run_campaign` detects the missing ``run_tasks`` override and routes
    every pending cell through the coupled :meth:`run_cells` path (no
    trace replay, exactly the historical behaviour).
    """

    def __init__(self) -> None:
        #: Total number of cells this executor has simulated *coupled*
        #: (including trace captures); physics-only replays do not count.
        self.cells_executed = 0

    def run_tasks(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        """Apply ``fn`` to every task, returning results in task order."""
        raise NotImplementedError

    def run_cells(self, cells: Sequence[RunSpec]) -> List[SimulationResult]:
        """Simulate every cell coupled, returning results in cell order."""
        results = self.run_tasks(execute_cell, cells)
        self.cells_executed += len(cells)
        return results

    def runtime_info(self) -> Dict[str, object]:
        """Execution-runtime facts recorded on ``CampaignOutcome.runtime``.

        Subclasses with an observable warm runtime (the serial in-process
        path, the service's persistent worker pool) report their mode and
        warm-cache counters here; backends whose workers die with the
        fan-out (:class:`ParallelExecutor`) report what they can.
        """
        return {}

    def describe(self) -> str:
        return type(self).__name__


class SerialExecutor(Executor):
    """Blocking in-process execution, one task at a time."""

    def run_tasks(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        return [fn(task) for task in tasks]

    def runtime_info(self) -> Dict[str, object]:
        # Serial cells run in this process, so the process-global warm
        # cache counters are exactly this executor's warm/cold history.
        return {"mode": "serial", "warm_cache": warm_snapshot()}


class ParallelExecutor(Executor):
    """Process-pool execution with ``jobs`` worker processes.

    Tasks are distributed one at a time (``chunksize=1``) because individual
    simulations are long relative to the dispatch overhead and their
    durations vary widely across benchmarks.
    """

    def __init__(self, jobs: int = 0) -> None:
        super().__init__()
        if jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs

    def describe(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"

    def runtime_info(self) -> Dict[str, object]:
        # Pool workers persist across the tasks of one fan-out (so the
        # worker-resident warm cache speeds them up), but they die with the
        # pool before their counters can be read back cheaply.
        return {"mode": "parallel", "jobs": self.jobs}

    def run_tasks(
        self, fn: Callable[[_Task], _Result], tasks: Sequence[_Task]
    ) -> List[_Result]:
        if not tasks:
            return []
        # A single worker (or a single task) gains nothing from a pool;
        # degrade gracefully to the serial path.
        if self.jobs == 1 or len(tasks) == 1:
            return [fn(task) for task in tasks]
        workers = min(self.jobs, len(tasks))
        # Tasks are submitted individually (the chunksize=1 distribution the
        # docstring describes) and collected in order, so a dead worker can
        # be attributed to the task it took down rather than surfacing as a
        # raw BrokenProcessPool from an anonymous map().
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, task) for task in tasks]
            results: List[_Result] = []
            for task, future in zip(tasks, futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as error:
                    raise ExecutorTaskError(
                        "a worker process died while executing "
                        f"{_describe_task(task)}",
                        task=task,
                    ) from error
            return results


def make_executor(jobs: int = 1) -> Executor:
    """Executor for a requested parallelism level (1 = serial)."""
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)

#!/usr/bin/env python3
"""End-to-end benchmark of the distributed-frontend reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Workloads: ``paper_grid``, ``physics_sweep``, ``service_mix``; their
metrics, units and bounds are declared in ``BENCHMARK.json`` (what each
layer metric should move is in ``perfbench/catalog.py``).  The run
measures set-up time in fresh interpreters, then runs the workload for
``--seconds`` through the public API, then checks its outputs (timed
apart).  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it also runs the workload with every layer's entry points
wrapped and reports the per-layer split.  Every
metric is printed with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A fuller
record, stamped with host facts, is written under ``.perfbench/results/``.

Exit codes: 0 when every output check passed, 1 when a check failed or the
run broke, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

# The benchmark's own modules import the program lazily, inside functions,
# so this file loads (and reports missing sources) without the program.
from perfbench import campaigns, hostinfo, service  # noqa: E402
from perfbench.stats import (  # noqa: E402
    METRIC_NAME, harrell_davis, mean, now, percentile, ratio, tree_peak_rss_mb,
)
from perfbench.tracer import Tracer, covered_time, installed_wrappers, self_times  # noqa: E402
from perfbench.workloads import DEFAULT_SEED  # noqa: E402

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Samples a p90 needs (10 beyond it), and the bound on extra service loops.
P90_SAMPLES = 100
MAX_EXTRA_LOOPS = 8

#: Traced/untraced pairs of service_mix's local re-run (tracing cost).
OVERHEAD_PAIRS = 3

#: ``paper_gap_pp`` of paper_grid at the default seed, at this commit.
EXPECTED_PAPER_GAP_PP = 5.164116260480898

#: Environment knobs that would move the program off its CLI defaults.
_EXECUTION_KNOBS = (
    "REPRO_TIMING_MODE", "REPRO_REPLAY_MODE", "REPRO_NATIVE", "REPRO_WARM_CACHE",
)

#: One BLAS thread per process.  The host gives the benchmark 2 cores and
#: service_mix runs 2 worker processes on them; OpenBLAS's default of one
#: thread per core would put 4 threads, spinning while they wait, on 2
#: cores, and in one process its second thread burns a core for no gain on
#: the thermal networks' small matrices (same rounds per second, 1.5x the
#: CPU time, on physics_sweep).
_BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}


def declaration() -> Dict:
    """The benchmark's ``BENCHMARK.json``: workloads and metrics with units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declaration()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def child_env(work: Path, native_cache: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _EXECUTION_KNOBS}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_NATIVE_CACHE"] = str(native_cache)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup_campaign(work: Path) -> Tuple[List[float], Path]:
    """Fresh interpreter to ready: import + native build into an empty cache."""
    times = []
    for i in range(SETUP_REPEATS):
        native = work / f"native-{i}"
        start = now()
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=str(ROOT), env=child_env(work, native),
            capture_output=True, text=True, timeout=600,
        )
        times.append(now() - start)
        if probe.returncode == 3:
            raise hostinfo.HostFault(probe.stderr.strip())
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
    return times, native


def measure_setup_service(work: Path):
    """Server boot to /healthz plus one warm-up job per worker, from spawn."""
    times = []
    server = None
    for i in range(SETUP_REPEATS):
        if server is not None:
            service.stop_server(server)
        native = work / f"native-{i}"
        start = now()
        server = service.start_server(
            ROOT, work / f"server-{i}", child_env(work, native)
        )
        try:
            service.warm_up(server)
        except Exception:
            service.stop_server(server)
            raise
        times.append(now() - start)
    return times, native, server


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer, wall: float) -> Dict[str, float]:
    """Self times and counts of one traced round that took ``wall`` s."""
    st = self_times(tracer.spans)
    calls: Dict[str, int] = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    counts = tracer.counts
    covered = covered_time(tracer.spans)
    reference = counts["sim.cells_reference"]
    fast = counts["sim.cells_fast"]
    native = counts["sim.cells_native"]
    metrics = {
        "workloads.generate_s": st.get("workloads.generate", 0.0),
        "workloads.generate_calls": calls.get("workloads.generate", 0),
        "workloads.generate_useful_ratio": ratio(
            len(tracer.keys["workloads.generate"]), calls.get("workloads.generate", 0)
        ),
        "workloads.decode_s": st.get("workloads.decode", 0.0),
        "workloads.decode_calls": counts["workloads.decode_calls"],
        "sim.timing_reference_s": st.get("sim.timing_reference", 0.0),
        "sim.timing_fast_s": st.get("sim.timing_fast", 0.0),
        "sim.timing_native_s": st.get("sim.timing_native", 0.0),
        "sim.timing_build_s": st.get("sim.timing_build", 0.0),
        "sim.cells_reference": reference,
        "sim.cells_fast": fast,
        "sim.cells_native": native,
        "sim.fast_path_ratio": ratio(fast + native, reference + fast + native),
        "sim.engine_s": st.get("sim.engine", 0.0),
        "sim.physics_build_s": st.get("sim.physics_build", 0.0),
        "sim.physics_build_calls": counts["sim.physics_build_calls"],
        "sim.physics_interval_s": st.get("sim.physics_interval", 0.0),
        "sim.replay_s": st.get("sim.replay", 0.0),
        "power.dynamic_s": st.get("power.dynamic", 0.0),
        "power.leakage_s": st.get("power.leakage", 0.0),
        "thermal.factor_s": st.get("thermal.factor", 0.0),
        "thermal.factor_calls": counts["thermal.factor_calls"],
        "thermal.solve_s": st.get("thermal.solve", 0.0),
        "thermal.solve_calls": counts["thermal.solve_calls"],
        "chip.compose_s": st.get("chip.compose", 0.0),
        "chip.run_s": st.get("chip.run", 0.0),
        "chip.replay_s": st.get("chip.replay", 0.0),
        "dtm.policy_s": st.get("dtm.policy", 0.0),
        "campaign.plan_s": st.get("campaign.plan", 0.0),
        "campaign.cache_store_s": st.get("campaign.cache_store", 0.0),
        "campaign.trace_store_s": st.get("campaign.trace_store", 0.0),
        "campaign.cache_load_s": st.get("campaign.cache_load", 0.0),
        "campaign.trace_load_s": st.get("campaign.trace_load", 0.0),
        "campaign.other_s": max(0.0, wall - covered),
        "trace.named_share": ratio(covered, wall),
    }
    return metrics


def outcome_metrics(counts: Dict[str, int]) -> Dict[str, float]:
    """Replay, cache and DTM counters (see campaigns.outcome_counts)."""
    return {
        "sim.replayed_cells": counts["replayed"],
        "sim.replay_ratio": ratio(counts["replayed"], counts["cells"]),
        "campaign.cache_hit_ratio": ratio(counts["cache_hits"], counts["cells"]),
        "dtm.cells": counts["dtm"],
    }


def warm_ratios(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    return {
        "sim.warm_solver_hit_ratio": ratio(
            delta["solver_hits"], delta["solver_hits"] + delta["solver_misses"]
        ),
        "sim.warm_trace_hit_ratio": ratio(
            delta["trace_hits"], delta["trace_hits"] + delta["trace_misses"]
        ),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Run:
    """Everything one benchmark run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        #: Metrics printed with their unit but outside the JSON result
        #: (workload-specific ones; ``None`` = too few samples).
        self.extra: Dict[str, Tuple[Optional[float], str]] = {}
        self.info: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []


def run_campaign_workload(args, work: Path, run: Run) -> None:
    from repro.sim.warmcache import warm_snapshot

    campaigns.check_generated_names()
    wrapped = installed_wrappers()
    if wrapped:
        raise RuntimeError(f"untraced run found wrapped functions: {wrapped}")
    campaigns.warm_up(args.workload, work)
    rounds, wall = campaigns.run_rounds(args.workload, args.seed, args.seconds, work)
    cells = sum(r.cells for r in rounds)
    run.attempted += cells
    # Every round does the same amount of work, so the median of per-round
    # rates keeps a burst of host contention in one round from moving it.
    run.metrics["cells_per_s"] = statistics.median(r.cells / r.wall_s for r in rounds)
    run.metrics["fresh_job_mean_s"] = mean(r.wall_s for r in rounds)
    run.metrics["peak_rss_mb"] = tree_peak_rss_mb()
    run.info["rounds"] = len(rounds)
    run.info["cells"] = cells
    run.info["measured_s"] = wall

    if args.trace:
        tracer = Tracer()
        before = warm_snapshot()
        with tracer:
            # Exactly one traced round, so per-layer numbers are per round.
            (traced,), traced_wall = campaigns.run_rounds(
                args.workload, args.seed, 0.0, work, first_index=len(rounds)
            )
        run.metrics.update(layer_metrics(tracer, traced_wall))
        run.metrics.update(outcome_metrics(traced.counts))
        run.metrics.update(warm_ratios(before, warm_snapshot()))
        # Tracing cost: the traced round against the untraced rounds just
        # before and just after it, so neither side is the warmer one.
        (after,), _ = campaigns.run_rounds(
            args.workload, args.seed, 0.0, work, first_index=len(rounds) + 1
        )
        run.attempted += traced.cells + after.cells
        untraced_rate = statistics.mean(
            r.cells / r.wall_s for r in (rounds[-1], after)
        )
        run.metrics["trace.overhead_frac"] = 1.0 - (
            traced.cells / traced.wall_s
        ) / untraced_rate
        run.info["spans"] = len(tracer.spans)

    start = now()
    run.mismatches += campaigns.reference_check(args.workload, args.seed, rounds)
    if args.workload == "paper_grid":
        gap = campaigns.paper_gap_pp(rounds[0].outcomes[0])
        run.extra["paper_gap_pp"] = (gap, "pp")
        if args.seed == DEFAULT_SEED and gap != EXPECTED_PAPER_GAP_PP:
            run.mismatches.append(
                f"paper_gap_pp {gap!r} != recorded {EXPECTED_PAPER_GAP_PP!r}"
            )
    run.info["check_s"] = now() - start


def _latencies(records, kind: str) -> List[float]:
    return [r.latency_s for r in records if r.kind == kind]


def run_service_workload(args, work: Path, run: Run, server) -> None:
    loops = [service.closed_loop(server, args.seed, args.seconds)]
    loop = loops[0]
    done = [r for r in loop.records if r.state == "done"]
    run.metrics["cells_per_s"] = sum(r.cells for r in done) / loop.wall_s
    # Half the fresh jobs are SPEC pairs (~0.3 s) and half DTM or chip jobs
    # (~0.7 s), and the median sits between the two modes: resampling the
    # fresh jobs of a run moves their median by 9% of its value (standard
    # deviation) and their mean by 5%.  So the mean is the end-to-end figure
    # and the median a per-layer one.  Only whole passes of each client's
    # fresh-kind deck count, so every kind keeps its exact share of the mean.
    whole = _latencies(service.whole_deck_fresh(done), "fresh")
    run.metrics["fresh_job_mean_s"] = mean(whole)
    run.metrics["peak_rss_mb"] = tree_peak_rss_mb()
    repeats = [r for r in done if r.kind == "repeat"]
    run.extra.update({
        "jobs_per_s": (len(done) / loop.wall_s, "jobs/s"),
        "fresh_job_p50_s": (harrell_davis(whole, 0.5), "s"),
        "fresh_job_p90_s": (percentile(_latencies(done, "fresh"), 0.9), "s"),
        "repeat_job_p50_s": (percentile(_latencies(done, "repeat"), 0.5), "s"),
        "repeat_job_p90_s": (percentile(_latencies(done, "repeat"), 0.9), "s"),
    })
    run.info.update({
        "jobs": len(loop.records),
        "measured_s": loop.wall_s,
        "repeat_full_cache_hits": sum(r.cache_hits == r.cells for r in repeats),
    })

    if args.trace:
        # A p90 needs 100 samples per class: more loops, with new job
        # sequences, run until both classes have them.
        pooled = list(done)
        while len(loops) <= MAX_EXTRA_LOOPS and min(
            len(_latencies(pooled, kind)) for kind in ("fresh", "repeat")
        ) < P90_SAMPLES:
            extra = service.closed_loop(server, args.seed + 7919 * len(loops),
                                        args.seconds / 2)
            loops.append(extra)
            pooled += [r for r in extra.records if r.state == "done"]
        scraped = server.client().metrics()
        pool = scraped["pool"]
        cache = scraped.get("cache", {})
        warm = pool.get("warm_cache", {})
        service_metrics = {
            "service.jobs_per_s": run.extra["jobs_per_s"][0],
            "service.fresh_job_p50_s": run.extra["fresh_job_p50_s"][0],
            "service.fresh_job_p90_s": percentile(_latencies(pooled, "fresh"), 0.9),
            "service.repeat_job_p50_s": percentile(_latencies(pooled, "repeat"), 0.5),
            "service.repeat_job_p90_s": percentile(_latencies(pooled, "repeat"), 0.9),
            "service.submit_s": mean(r.submit_s for r in done),
            "service.queue_wait_s": mean(r.queue_wait_s for r in done),
            "service.job_run_s": mean(r.job_run_s for r in done),
            "service.stream_lag_s": mean(r.stream_lag_s for r in done),
            "service.pool_utilization": pool["utilization"],
            "service.pool_task_p50_s": pool["task_latency_p50_seconds"],
            "service.tasks_retried": pool["tasks_retried"],
            "service.tasks_failed": pool["tasks_failed"],
            "service.worker_respawns": pool["worker_respawns"],
            "campaign.cache_hit_ratio": ratio(
                cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
            ),
            "sim.warm_solver_hit_ratio": ratio(
                warm.get("solver_hits", 0),
                warm.get("solver_hits", 0) + warm.get("solver_misses", 0),
            ),
            "sim.warm_trace_hit_ratio": ratio(
                warm.get("trace_hits", 0),
                warm.get("trace_hits", 0) + warm.get("trace_misses", 0),
            ),
        }
        run.info["latency_samples"] = {
            kind: len(_latencies(pooled, kind)) for kind in ("fresh", "repeat")
        }

    for each in loops:
        ok = [r for r in each.records if r.state == "done"]
        run.attempted += len(each.records)
        run.failed += len(each.records) - len(ok) + len(each.client_errors)
        run.mismatches += each.repeat_mismatches + each.client_errors

    start = now()
    mismatches, _ = service.local_equivalence(done, args.seed)
    run.mismatches += mismatches
    run.info["check_s"] = check_s = now() - start
    if args.trace:
        # The server's workers are out of the tracer's reach; the same local
        # re-run, traced, gives the in-process split of the sampled jobs.
        # Traced and untraced re-runs alternate in ABBA order (the re-run is
        # short: one pair would mostly measure host noise and whichever ran
        # first) to give the cost of tracing.
        untraced_s, traced_s, tracers = [check_s], [], []

        def traced_rerun():
            tracer = Tracer()
            start = now()
            with tracer:
                _, outcomes = service.local_equivalence(done, args.seed)
            traced_s.append(now() - start)
            tracers.append((tracer, outcomes))

        def untraced_rerun():
            start = now()
            service.local_equivalence(done, args.seed)
            untraced_s.append(now() - start)

        for pair in range(OVERHEAD_PAIRS):
            first, second = (
                (traced_rerun, untraced_rerun) if pair % 2 == 0
                else (untraced_rerun, traced_rerun)
            )
            first()
            second()
        tracer, outcomes = tracers[0]
        run.metrics.update(layer_metrics(tracer, traced_s[0]))
        run.metrics.update(outcome_metrics(campaigns.outcome_counts(outcomes)))
        run.metrics.update(service_metrics)
        run.metrics["trace.overhead_frac"] = 1.0 - (
            statistics.median(untraced_s) / statistics.median(traced_s)
        )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report(args, run: Run, facts: Dict[str, object]) -> Dict:
    declared = declaration()["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, unit in ((m["name"], m["unit"]) for m in declared):
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        value = run.metrics.get(name, 0.0)
        if value is None:
            # An undersampled tail percentile: no value can be claimed.
            raise RuntimeError(f"{name}: too few samples for this percentile")
        metrics[name] = {"value": float(value), "unit": unit}
    run.failed += len(run.mismatches)
    correct = not run.mismatches and run.failed == 0
    result = {
        "correct": correct,
        "attempted": max(1, int(run.attempted)),
        "failed": int(run.failed),
        "metrics": metrics,
    }
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# host " + json.dumps(facts, sort_keys=True))
    run.extra["error_rate"] = (run.failed / max(1, run.attempted), "fraction")
    lines = [(n, e["value"], e["unit"]) for n, e in metrics.items()]
    for name, value, unit in lines + [(n, v, u) for n, (v, u) in run.extra.items()]:
        print(f"{name} {'n/a' if value is None else format(value, '.6g')} {unit}")
    for key, value in sorted(run.info.items()):
        print(f"# {key} {json.dumps(value)}")
    for message in run.mismatches:
        print(f"# CHECK FAILED: {message}")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    for knob in _EXECUTION_KNOBS:
        os.environ.pop(knob, None)
    # Before the program (and NumPy) is first imported, here or in a child.
    os.environ.update(_BLAS_THREADS)
    # A terminated run still stops the server and removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    server = None
    try:
        run = Run()
        if args.workload == "service_mix":
            setups, native, server = measure_setup_service(work)
        else:
            setups, native = measure_setup_campaign(work)
        os.environ["REPRO_NATIVE_CACHE"] = str(native)
        import repro  # noqa: F401

        tag = hostinfo.require_native_core()
        facts = hostinfo.host_facts(ROOT, tag)
        run.metrics["setup_s"] = statistics.median(setups)
        run.info["setup_samples_s"] = setups
        if server is not None:
            run_service_workload(args, work, run, server)
        else:
            run_campaign_workload(args, work, run)
        result = report(args, run, facts)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if server is not None:
            service.stop_server(server)
        shutil.rmtree(work, ignore_errors=True)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=facts,
                  extra=run.extra, info=run.info, mismatches=run.mismatches)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""What each layer metric should move: the layer -> end-to-end mapping.

``BENCHMARK.json`` at the repository root declares every metric's name,
unit and direction (and each end-to-end metric's bound); ``run.py`` reads
them from there.  End-to-end metrics are measured with tracing off and
exist on every workload; per-layer metrics come from the traced run.

Per-layer seconds and counts are for one traced round: one pass of the
workload's job (the 56-cell grid; one two-part physics sweep) and, on
service_mix, the traced local re-run of the sampled service jobs.  The
server's worker processes are out of the tracer's reach, so service_mix's
``service.*`` metrics come from client-side spans, job timestamps and
``/metrics`` instead.
"""

from __future__ import annotations

from typing import Dict, List

#: Layer -> its metrics, the end-to-end metrics (on a workload) it should
#: move, and the pairs where it should move nothing.  Written down before
#: any optimisation so a later change can cite its prediction by name.
LAYER_MAP: Dict[str, Dict[str, List[str]]] = {
    "workloads": {
        "metrics": ["workloads.generate_s", "workloads.generate_calls",
                    "workloads.generate_useful_ratio", "workloads.decode_s",
                    "workloads.decode_calls"],
        "moves": ["paper_grid:cells_per_s", "physics_sweep:cells_per_s",
                  "service_mix:fresh_job_mean_s"],
        "no_change": ["service_mix:service.repeat_job_p50_s",
                      "service_mix:service.repeat_job_p90_s"],
    },
    "sim.timing": {
        "metrics": ["sim.timing_reference_s", "sim.timing_fast_s",
                    "sim.timing_native_s", "sim.timing_build_s",
                    "sim.cells_reference", "sim.cells_fast", "sim.cells_native",
                    "sim.fast_path_ratio"],
        "moves": ["paper_grid:cells_per_s", "service_mix:service.fresh_job_p90_s"],
        "no_change": ["physics_sweep:cells_per_s"],
    },
    "sim.physics": {
        "metrics": ["sim.engine_s", "sim.physics_build_s", "sim.physics_build_calls",
                    "sim.physics_interval_s", "sim.replay_s", "sim.replayed_cells",
                    "sim.replay_ratio", "sim.warm_solver_hit_ratio",
                    "sim.warm_trace_hit_ratio"],
        "moves": ["physics_sweep:cells_per_s"],
        "no_change": ["paper_grid:cells_per_s"],
    },
    "power": {
        "metrics": ["power.dynamic_s", "power.leakage_s"],
        "moves": ["physics_sweep:cells_per_s"],
        "no_change": ["paper_grid:cells_per_s"],
    },
    "thermal": {
        "metrics": ["thermal.factor_s", "thermal.factor_calls", "thermal.solve_s",
                    "thermal.solve_calls"],
        "moves": ["physics_sweep:cells_per_s"],
        "no_change": ["paper_grid:cells_per_s"],
    },
    "chip": {
        "metrics": ["chip.compose_s", "chip.run_s", "chip.replay_s"],
        "moves": ["physics_sweep:cells_per_s", "physics_sweep:peak_rss_mb"],
        "no_change": ["paper_grid:cells_per_s"],
    },
    "dtm": {
        "metrics": ["dtm.policy_s", "dtm.cells"],
        "moves": ["service_mix:service.fresh_job_p90_s"],
        "no_change": ["paper_grid:cells_per_s", "physics_sweep:cells_per_s"],
    },
    "campaign": {
        "metrics": ["campaign.plan_s", "campaign.cache_store_s",
                    "campaign.trace_store_s", "campaign.cache_load_s",
                    "campaign.trace_load_s", "campaign.cache_hit_ratio",
                    "campaign.other_s"],
        "moves": ["physics_sweep:cells_per_s (writes)",
                  "service_mix:service.repeat_job_p50_s (reads)"],
        "no_change": ["paper_grid:cells_per_s"],
    },
    "service": {
        "metrics": ["service.jobs_per_s", "service.fresh_job_p50_s",
                    "service.fresh_job_p90_s",
                    "service.repeat_job_p50_s", "service.repeat_job_p90_s",
                    "service.submit_s", "service.queue_wait_s", "service.job_run_s",
                    "service.stream_lag_s", "service.pool_utilization",
                    "service.pool_task_p50_s", "service.tasks_retried",
                    "service.tasks_failed", "service.worker_respawns"],
        "moves": ["service_mix:cells_per_s", "service_mix:fresh_job_mean_s",
                  "service_mix:service.repeat_job_p50_s"],
        "no_change": ["paper_grid:cells_per_s", "physics_sweep:cells_per_s"],
    },
}


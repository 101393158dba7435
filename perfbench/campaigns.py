"""The two in-process workloads, driven through ``repro.campaign.run_campaign``.

Every call goes through the module attribute (``api.run_campaign``), never a
name imported at load time, so a traced run reaches the tracer's wrapper and
an untraced run the program's own function.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import workloads
from perfbench.stats import now


@dataclass
class Round:
    """One pass over a workload's job: its cells, wall time and counters.

    Only the first round of a measurement keeps its campaign outcomes (for
    the output check); later rounds drop them, so the benchmark does not
    hold results the program would not.
    """

    wall_s: float
    counts: Dict[str, int]
    outcomes: List[object] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return self.counts["cells"]


def outcome_counts(outcomes) -> Dict[str, int]:
    """Cells, replayed cells, cache hits and feedback-DTM cells of outcomes."""
    return {
        "cells": sum(o.total_cells for o in outcomes),
        "replayed": sum(o.cells_replayed for o in outcomes),
        "cache_hits": sum(o.cache_hits for o in outcomes),
        "dtm": sum(
            1
            for o in outcomes
            for spec in o.campaign.cells()
            if getattr(spec, "dtm_policy", None) not in (None, "none")
        ),
    }


def _api():
    import repro.campaign as api

    return api


def _variant(spec: Dict):
    from repro.campaign import ConfigBuilder

    return (
        ConfigBuilder.baseline()
        .power(leakage_temperature_coefficient=spec["leakage_temperature_coefficient"])
        .thermal(convection_resistance_k_per_w=spec["convection_resistance_k_per_w"])
        .named(spec["name"])
        .build()
    )


def check_generated_names() -> None:
    """The workload module's copies of program constants must still match."""
    from repro.campaign.spec import QUICK_BENCHMARKS
    from repro.dtm import available_policies
    from repro.scenarios import SCENARIO_NAMES

    if tuple(QUICK_BENCHMARKS) != workloads.QUICK_BENCHMARKS:
        raise RuntimeError(f"QUICK_BENCHMARKS changed: {QUICK_BENCHMARKS}")
    if tuple(SCENARIO_NAMES) != workloads.SCENARIOS:
        raise RuntimeError(f"scenario library changed: {SCENARIO_NAMES}")
    missing = set(workloads.DTM_POLICIES) - set(available_policies())
    if missing:
        raise RuntimeError(f"DTM policies missing: {sorted(missing)}")


# ----------------------------------------------------------------------
# Campaign construction
# ----------------------------------------------------------------------
def paper_grid_campaign(seed: int):
    from repro.service.codec import campaign_from_payload

    payload = workloads.paper_grid(seed)
    return campaign_from_payload(dict(payload, name="paper_grid"))


def sweep_campaigns(spec: Dict):
    """``(single_core, chip)`` campaigns of one physics_sweep round."""
    api = _api()
    single = spec["single"]
    settings = api.ExperimentSettings(
        benchmarks=tuple(single["benchmarks"]),
        uops_per_benchmark=single["uops"],
        interval_cycles=single["interval_cycles"],
        seed=single["seed"],
        honor_relative_length=False,
    )
    single_campaign = api.Campaign(
        [_variant(v) for v in single["variants"]], settings, name="sweep"
    )
    chip = spec["chip"]
    chip_settings = api.ExperimentSettings(
        benchmarks=(chip["mixes"][0][0],),
        uops_per_benchmark=chip["uops"],
        seed=chip["seed"],
        honor_relative_length=False,
    )
    chip_campaign = api.Campaign(
        [_variant(v) for v in chip["variants"]],
        chip_settings,
        name="chip_sweep",
        cores=chip["cores"],
        per_core_scenarios=[tuple(mix) for mix in chip["mixes"]],
        solver_backend=chip["solver_backend"],
    )
    return single_campaign, chip_campaign


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def paper_grid_round(seed: int, index: int, workdir: Path) -> Round:
    campaign = paper_grid_campaign(seed)
    start = now()
    outcome = _api().run_campaign(campaign)
    wall = now() - start
    return Round(wall, outcome_counts([outcome]), [outcome])


def _sweep(spec: Dict, cache_dir: Path) -> Tuple[List[object], float]:
    """Both parts of a physics sweep against one fresh result cache."""
    single, chip = sweep_campaigns(spec)
    api = _api()
    cache = api.ResultCache(cache_dir)
    start = now()
    outcomes = [api.run_campaign(single, cache=cache),
                api.run_campaign(chip, cache=cache)]
    wall = now() - start
    shutil.rmtree(cache_dir, ignore_errors=True)
    return outcomes, wall


def physics_sweep_round(seed: int, index: int, workdir: Path) -> Round:
    outcomes, wall = _sweep(workloads.physics_sweep(seed, index),
                            workdir / f"sweep-cache-{index}")
    return Round(wall, outcome_counts(outcomes), outcomes)


ROUNDS = {"paper_grid": paper_grid_round, "physics_sweep": physics_sweep_round}


def run_rounds(workload: str, seed: int, seconds: float, workdir: Path,
               first_index: int = 0) -> Tuple[List[Round], float]:
    """Whole rounds until ``seconds`` have passed; returns them and the wall."""
    run_round = ROUNDS[workload]
    rounds: List[Round] = []
    start = now()
    index = first_index
    while not rounds or now() - start < seconds:
        done = run_round(seed, index, workdir)
        if rounds:
            done.outcomes = []
        rounds.append(done)
        index += 1
    return rounds, now() - start


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def result_document(result) -> str:
    """Canonical JSON of a result; ``provenance.replayed`` is left out.

    That flag records how the result was computed (captured trace replayed
    vs coupled run), which is exactly what the check varies.
    """
    from repro.sim.serialization import result_to_dict

    document = result_to_dict(result)
    document["provenance"].pop("replayed", None)
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


@contextmanager
def _reference_timing():
    previous = os.environ.get("REPRO_TIMING_MODE")
    os.environ["REPRO_TIMING_MODE"] = "reference"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_TIMING_MODE", None)
        else:
            os.environ["REPRO_TIMING_MODE"] = previous


def _rerun_reference(campaign, key: str):
    with _reference_timing():
        outcome = _api().run_campaign(campaign, replay=False)
    (summary,) = outcome.summaries.values()
    return summary.results[key]


def _single_core_sample(rng, outcome) -> Tuple:
    config = rng.choice(outcome.campaign.configs)
    settings = outcome.campaign.settings
    benchmark = rng.choice(settings.benchmarks)
    campaign = _api().Campaign(
        [config], settings.with_benchmarks([benchmark]), name="check"
    )
    return campaign, benchmark, outcome.summaries[config.name].results[benchmark]


def reference_samples(workload: str, seed: int, rounds: List[Round]) -> List[Tuple]:
    """Seeded ``(campaign, key, measured result)`` cells to re-run."""
    import random

    rng = random.Random(f"check:{workload}:{seed}")
    if workload == "paper_grid":
        (outcome,) = rounds[0].outcomes
        return [_single_core_sample(rng, outcome) for _ in range(3)]
    single, chip = rounds[0].outcomes
    config = rng.choice(chip.campaign.configs)
    mix = rng.choice(chip.campaign.per_core_scenarios)
    key = "+".join(mix)
    chip_campaign = _api().Campaign(
        [config], chip.campaign.settings, name="check", cores=chip.campaign.cores,
        per_core_scenarios=[mix], solver_backend=chip.campaign.solver_backend,
    )
    return [
        _single_core_sample(rng, single),
        (chip_campaign, key, chip.summaries[config.name].results[key]),
    ]


def reference_check(workload: str, seed: int, rounds: List[Round]) -> List[str]:
    """Re-run sampled cells on the reference path; return mismatch messages."""
    mismatches = []
    for campaign, key, measured in reference_samples(workload, seed, rounds):
        again = _rerun_reference(campaign, key)
        if result_document(again) != result_document(measured):
            mismatches.append(
                f"{campaign.configs[0].name}/{key}: result differs from a "
                "reference-timing, no-replay, no-cache re-run"
            )
    return mismatches


# ----------------------------------------------------------------------
# Paper comparison
# ----------------------------------------------------------------------
def paper_gap_pp(outcome) -> float:
    """Mean |reproduced - paper| over fig12/13/14 values, in percentage points."""
    from repro.experiments import fig12_distributed_rename_commit as fig12
    from repro.experiments import fig13_trace_cache as fig13
    from repro.experiments import fig14_combined as fig14

    summaries = outcome.summaries
    baseline = summaries["baseline"]
    gaps: List[float] = []

    def compare(preset: str, reference: Dict, slowdown: Optional[float]) -> None:
        summary = summaries[preset]
        for group, metrics in reference.items():
            measured = summary.mean_reductions_vs(baseline, group)
            gaps.extend(abs(measured[m] - v) for m, v in metrics.items())
        if slowdown is not None:
            gaps.append(abs(summary.mean_slowdown_vs(baseline) - slowdown))

    compare("distributed_rc", fig12.PAPER_FIGURE12, fig12.PAPER_SLOWDOWN)
    for preset, label in fig13.CONFIG_LABELS.items():
        compare(preset, fig13.PAPER_FIGURE13.get(label, {}),
                fig13.PAPER_SLOWDOWNS[label])
    compare("distributed_frontend", fig14.PAPER_COMBINED, None)
    return 100.0 * sum(gaps) / len(gaps)


def warm_up(workload: str, workdir: Path) -> None:
    """A small untimed pass over the workload's code paths.

    Lazy imports and first-use set-up land here instead of in the first
    measured round; users pay them once per process, not per campaign.
    """
    api = _api()
    if workload == "paper_grid":
        payload = dict(workloads.paper_grid(workloads.DEFAULT_SEED),
                       benchmarks=["gzip"], uops=600, name="warmup")
        from repro.service.codec import campaign_from_payload

        api.run_campaign(campaign_from_payload(payload))
        return
    spec = workloads.physics_sweep(workloads.DEFAULT_SEED, -1)
    spec["single"].update(uops=2_000, variants=spec["single"]["variants"][:2],
                          benchmarks=spec["single"]["benchmarks"][:1])
    spec["chip"].update(uops=600, variants=spec["chip"]["variants"][:2],
                        mixes=spec["chip"]["mixes"][:1])
    _sweep(spec, workdir / "warmup-cache")

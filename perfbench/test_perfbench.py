"""Tests of the benchmark's own logic: ``python -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from perfbench import catalog, workloads
from perfbench.stats import METRIC_NAME, harrell_davis, percentile, tree_peak_rss_mb
from perfbench.tracer import Span, Tracer, covered_time, installed_wrappers, self_times

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1, None),
        Span("child", 1.0, 4.0, 0, None),
        Span("leaf", 2.0, 3.0, 1, None),
        Span("child", 5.0, 6.0, 0, None),
    ]
    assert self_times(spans) == pytest.approx({"root": 6.0, "child": 3.0, "leaf": 1.0})
    assert covered_time(spans) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", 0.0, 10.0, -1, None),
        Span("a", 1.0, 5.0, 0, None),
        Span("b", 3.0, 7.0, 0, None),  # overlaps a (another thread)
    ]
    assert self_times(spans)["parent"] == pytest.approx(4.0)


def test_tracer_records_parents_and_self_time_with_a_fake_clock():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return "x"

    def middle():
        return tracer.call("leaf", leaf, (), {})

    assert tracer.call("root", middle, (), {}) == "x"
    names = [span.name for span in tracer.spans]
    assert names == ["root", "leaf"]
    root, child = tracer.spans
    assert child.parent == 0 and root.parent == -1
    # root runs 0..3, leaf 1..2: one tick each of self time.
    assert self_times(tracer.spans) == {"root": 2.0, "leaf": 1.0}


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 0.9) is None
    values = list(range(100))
    assert percentile(values, 0.9) == 89
    assert sum(v > percentile(values, 0.9) for v in values) == 10


def test_median_is_reported_for_any_sample():
    assert percentile([3.0], 0.5) == 3.0
    assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert percentile([], 0.5) is None


def test_harrell_davis_median_moves_smoothly_across_a_gap():
    assert harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    gapped = [0.3] * 30 + [0.7] * 30
    # One order statistic sits on one side of the gap; the estimate does not.
    assert percentile(gapped, 0.5) == 0.3
    assert harrell_davis(gapped, 0.5) == pytest.approx(0.5)
    assert 0.3 < harrell_davis(gapped + [0.7], 0.5) < 0.7


# ----------------------------------------------------------------------
# Seed determinism
# ----------------------------------------------------------------------
def _jobs(seed: int, client: int, count: int = 60):
    return list(itertools.islice(workloads.service_jobs(seed, client), count))


def test_same_seed_same_inputs_other_seed_different():
    assert workloads.physics_sweep(3, 0) == workloads.physics_sweep(3, 0)
    assert workloads.physics_sweep(3, 0) != workloads.physics_sweep(4, 0)
    assert workloads.physics_sweep(3, 0) != workloads.physics_sweep(3, 1)
    assert workloads.paper_grid(3) == workloads.paper_grid(3)
    assert workloads.paper_grid(3) != workloads.paper_grid(4)
    assert _jobs(3, 0) == _jobs(3, 0)
    assert _jobs(3, 0) != _jobs(4, 0)
    assert _jobs(3, 0) != _jobs(3, 1)


def test_generated_campaigns_are_identical_for_a_seed():
    from perfbench import campaigns

    def keys(seed):
        single, chip = campaigns.sweep_campaigns(workloads.physics_sweep(seed, 0))
        grid = campaigns.paper_grid_campaign(seed)
        return [spec.cache_key() for c in (single, chip, grid) for spec in c.cells()]

    assert keys(5) == keys(5)
    assert keys(5) != keys(6)


def test_service_repeats_copy_earlier_fresh_jobs_and_fresh_seeds_are_unique():
    seen = []
    for client in (0, 1):
        history = []
        for kind, payload in _jobs(11, client, 200):
            if kind == "repeat":
                assert payload in history
            else:
                history.append(payload)
                seen.append(payload["seed"])
                assert len(set(payload.get("benchmarks", ()))) == len(
                    payload.get("benchmarks", ())
                )
    assert len(seen) == len(set(seen))
    jobs = _jobs(11, 0, 400)
    kinds = [kind for kind, _ in jobs]
    assert 0.4 < kinds.count("repeat") / len(kinds) < 0.6
    # Repeats copy SPEC, DTM and chip jobs in the mix's 5:3:2 shares.
    names = [payload["name"] for kind, payload in jobs if kind == "repeat"]
    shares = [names.count(n) / len(names) for n in ("spec_pair", "dtm_pair", "chip4")]
    assert shares == pytest.approx([0.5, 0.3, 0.2], abs=0.03)


def test_fresh_median_sample_keeps_only_whole_deck_passes():
    from perfbench.service import JobRecord, whole_deck_fresh

    def record(client, deck, kind="fresh"):
        return JobRecord(kind, {}, 0.1, 0.0, "done", 1, 0, 0.0, 0.1, 0.0, "",
                         client=client, deck=deck)

    passes = len(workloads.FRESH_KINDS)
    client0 = [record(0, i // passes) for i in range(passes + 3)]
    client1 = [record(1, i // passes) for i in range(2 * passes)]
    repeats = [record(0, None, "repeat")]
    kept = whole_deck_fresh(client0 + repeats + client1)
    assert kept == client0[:passes] + client1
    # No client finished a pass: every fresh job is used.
    assert whole_deck_fresh(client0[:3] + repeats) == client0[:3]


def test_workload_copies_of_program_constants_match_the_program():
    from perfbench import campaigns

    campaigns.check_generated_names()


# ----------------------------------------------------------------------
# Metric names and BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_names_are_short_and_plain():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    for metrics in catalog.LAYER_MAP.values():
        assert set(metrics["metrics"]) <= set(names)


# ----------------------------------------------------------------------
# Tracing on and off
# ----------------------------------------------------------------------
def _tiny_campaign():
    import repro.campaign as api

    settings = api.ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=500)
    return api.Campaign([api.ConfigBuilder.baseline().build()], settings)


def test_untraced_run_executes_the_original_functions():
    import repro
    import repro.campaign as api
    import repro.campaign.core as core
    from repro.workloads.generator import TraceGenerator

    originals = (core.run_campaign, api.run_campaign, repro.run_campaign,
                 TraceGenerator.generate)
    assert installed_wrappers() == []
    tracer = Tracer()
    with tracer:
        assert api.run_campaign is not originals[1]
        assert repro.run_campaign is not originals[2]
        assert len(installed_wrappers()) > 10
        api.run_campaign(_tiny_campaign())
    traced_spans = len(tracer.spans)
    assert traced_spans > 0
    assert {s.name for s in tracer.spans} >= {
        "campaign.plan", "workloads.generate", "sim.physics_build", "thermal.solve",
    }
    assert installed_wrappers() == []
    assert (core.run_campaign, api.run_campaign, repro.run_campaign,
            TraceGenerator.generate) == originals
    api.run_campaign(_tiny_campaign())
    assert len(tracer.spans) == traced_spans


def test_peak_rss_is_positive():
    assert tree_peak_rss_mb() > 10.0

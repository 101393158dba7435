"""Phase-1 workload groups: each workload is generated and decoded once per
campaign, shared read-only by its cells, and dropped when its group ends.

The contract: a replay-enabled campaign (one task per workload group) is
byte-identical to the per-cell ``replay=False`` baseline on every executor
and timing core; cells never mutate a shared workload; and no workload
outlives its group.
"""

import gc
import hashlib
import json
import weakref

import pytest

import repro.campaign.executors as executors
import repro.sim.fast_timing as fast_timing
from repro.campaign import Campaign, ExperimentSettings, run_campaign
from repro.campaign.core import _run_workload_groups
from repro.campaign.executors import (
    ParallelExecutor,
    SerialExecutor,
    _describe_task,
    execute_campaign_task,
    execute_workload_group,
)
from repro.campaign.spec import QUICK_BENCHMARKS
from repro.core.presets import FrontendOrganization, config_for
from repro.sim.serialization import result_to_dict
from repro.workloads.decode import decode_workload
from repro.workloads.generator import TraceGenerator

#: The seven configurations of the paper's figures 12, 13 and 14.
PAPER_PRESETS = (
    "baseline",
    "distributed_rc",
    "address_biasing",
    "blank_silicon",
    "bank_hopping",
    "hopping_biasing",
    "distributed_frontend",
)
UOPS = 1_500


def _configs():
    return [config_for(FrontendOrganization(name)) for name in PAPER_PRESETS]


def _paper_campaign(benchmarks=("gzip", "swim"), uops=UOPS):
    settings = ExperimentSettings(benchmarks=tuple(benchmarks), uops_per_benchmark=uops)
    return Campaign(_configs(), settings)


def _document(outcome) -> str:
    return json.dumps(
        {
            variant: {b: result_to_dict(r) for b, r in summary.results.items()}
            for variant, summary in outcome.summaries.items()
        },
        sort_keys=True,
    )


@pytest.fixture(params=["native", "python"])
def native_core(request, monkeypatch):
    """Run the fast path on the compiled core, then on the Python loop."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    else:
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
    return request.param


_PER_CELL = {}


def _per_cell_document(native_core) -> str:
    """The per-cell, from-scratch baseline (``replay=False``), once per core."""
    if native_core not in _PER_CELL:
        outcome = run_campaign(_paper_campaign(), SerialExecutor(), replay=False)
        _PER_CELL[native_core] = _document(outcome)
    return _PER_CELL[native_core]


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel2"])
def test_grouped_phase1_is_byte_identical_to_per_cell(jobs, native_core):
    executor = SerialExecutor() if jobs == 1 else ParallelExecutor(jobs=jobs)
    outcome = run_campaign(_paper_campaign(), executor)
    assert outcome.cells_executed == len(PAPER_PRESETS) * 2
    assert _document(outcome) == _per_cell_document(native_core)


# ----------------------------------------------------------------------
# No mutation of a shared workload
# ----------------------------------------------------------------------
def _fingerprint(uops, decoded) -> str:
    digest = hashlib.sha256()
    for uop in uops:
        digest.update(repr(uop).encode())
    lists = (
        "pc_list", "cls_list", "latency_list", "mem_addr_list",
        "is_branch_list", "mispredicted_list", "dest_flat_list",
        "dest_is_fp_list", "src_flats_list", "int_needed_list",
        "fp_needed_list",
    )
    for name in lists:
        digest.update(repr(getattr(decoded, name)).encode())
    for key in sorted(decoded._lines_cache):
        digest.update(repr((key, decoded.lines(*key))).encode())
    for array in decoded.native_uop_arrays():
        digest.update(array.tobytes())
    for key in sorted(decoded._native_lines):
        for array in decoded.native_line_arrays(*key):
            digest.update(array.tobytes())
    return digest.hexdigest()


def test_cells_never_mutate_a_shared_workload(monkeypatch):
    settings = ExperimentSettings(benchmarks=("swim",), uops_per_benchmark=UOPS)
    campaign = Campaign(_configs(), settings, dtm_policies=("none", "hybrid"))
    specs = campaign.cells()
    spec = specs[0]
    uops = TraceGenerator(spec.benchmark, seed=spec.seed).generate(spec.trace_uops).uops
    decoded = decode_workload(uops)
    # Build every memoized view the cells will read first, so the
    # fingerprint covers a fixed set of them.
    decoded.native_uop_arrays()
    for cell in specs:
        frontend = cell.config.frontend
        layout = (frontend.trace_cache.line_uops, frontend.fetch_width)
        decoded.lines(*layout)
        decoded.native_line_arrays(*layout)
    before = _fingerprint(uops, decoded)

    for mode, native_flag in (("reference", None), ("fast", "0"), ("fast", None)):
        monkeypatch.setenv("REPRO_TIMING_MODE", mode)
        if native_flag is None:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
        else:
            monkeypatch.setenv("REPRO_NATIVE", native_flag)
        for cell in specs:
            task = ("capture" if cell.replayable else "run", cell)
            execute_campaign_task(task, uops, decoded)
        assert _fingerprint(uops, decoded) == before, (mode, native_flag)
    # The marshalled operands the native cores shared are read-only.
    for array in decoded.native_uop_arrays():
        assert not array.flags.writeable
    for key in decoded._native_lines:
        assert all(not a.flags.writeable for a in decoded.native_line_arrays(*key))


def test_group_matches_cells_run_alone():
    settings = ExperimentSettings(benchmarks=("gzip",), uops_per_benchmark=UOPS)
    campaign = Campaign(_configs()[:3], settings, dtm_policies=("none", "dvfs"))
    tasks = [("capture" if s.replayable else "run", s) for s in campaign.cells()]
    grouped = execute_workload_group(tasks)
    alone = [execute_campaign_task(task) for task in tasks]
    for (result, trace), (again, again_trace) in zip(grouped, alone):
        assert json.dumps(result_to_dict(result), sort_keys=True) == json.dumps(
            result_to_dict(again), sort_keys=True
        )
        assert (trace is None) == (again_trace is None)


def test_group_refuses_mixed_workloads():
    settings = ExperimentSettings(benchmarks=("gzip", "swim"), uops_per_benchmark=600)
    cells = Campaign(_configs()[:1], settings).cells()
    with pytest.raises(ValueError, match="mixes workloads"):
        execute_workload_group([("run", cell) for cell in cells])


def test_decoded_workload_must_match_its_uops():
    config = config_for(FrontendOrganization("baseline"))
    uops = TraceGenerator("gzip", seed=1).generate(600).uops
    with pytest.raises(ValueError, match="does not match"):
        fast_timing.FastProcessor(config, uops, decoded=decode_workload(uops[:-1]))


# ----------------------------------------------------------------------
# Generate and decode once per workload, and only one live at a time
# ----------------------------------------------------------------------
@pytest.fixture
def counted(monkeypatch):
    counts = {"generate": 0, "decode": 0}
    generate = TraceGenerator.generate

    def counting_generate(self, num_uops):
        counts["generate"] += 1
        return generate(self, num_uops)

    def counting_decode(uops, num_int_registers=None):
        counts["decode"] += 1
        return decode_workload(uops, num_int_registers)

    monkeypatch.setattr(TraceGenerator, "generate", counting_generate)
    monkeypatch.setattr(executors, "decode_workload", counting_decode)
    monkeypatch.setattr(fast_timing, "decode_workload", counting_decode)
    return counts


def test_paper_grid_generates_each_workload_once(counted):
    campaign = _paper_campaign(QUICK_BENCHMARKS, uops=600)
    assert len(campaign) == 56
    run_campaign(campaign)
    assert counted == {"generate": 8, "decode": 8}


def test_per_cell_baseline_generates_per_cell(counted):
    campaign = _paper_campaign(QUICK_BENCHMARKS, uops=600)
    run_campaign(campaign, replay=False)
    assert counted == {"generate": 56, "decode": 56}


def test_reference_timing_groups_skip_the_decode(counted, monkeypatch):
    monkeypatch.setenv("REPRO_TIMING_MODE", "reference")
    run_campaign(_paper_campaign(("gzip",), uops=600))
    assert counted == {"generate": 1, "decode": 0}


def test_one_live_workload_per_process(monkeypatch):
    """Each workload is unreachable once its group returns (no cache)."""
    live = []

    def tracking_decode(uops, num_int_registers=None):
        gc.collect()
        assert [ref for ref in live if ref() is not None] == []
        decoded = decode_workload(uops, num_int_registers)
        live.append(weakref.ref(decoded))
        return decoded

    monkeypatch.setattr(executors, "decode_workload", tracking_decode)
    run_campaign(_paper_campaign(("gzip", "swim", "mcf"), uops=600))
    gc.collect()
    assert len(live) == 3
    assert all(ref() is None for ref in live)


def test_groups_keep_campaign_order_and_results_land_by_slot():
    settings = ExperimentSettings(benchmarks=("gzip", "swim"), uops_per_benchmark=600)
    cells = Campaign(_configs()[:2], settings).cells()
    seen = []

    class Recording(SerialExecutor):
        def run_tasks(self, fn, tasks):
            seen.extend(tasks)
            return super().run_tasks(fn, tasks)

    tasks = [("run", cell) for cell in cells]
    outputs = _run_workload_groups(Recording(), tasks)
    # Two groups, in first-appearance order, each in campaign order.
    assert [[spec.benchmark for _, spec in group] for group in seen] == [
        ["gzip", "gzip"],
        ["swim", "swim"],
    ]
    for (_, cell), (result, _) in zip(tasks, outputs):
        assert result.benchmark == cell.benchmark
        assert result.config_name == cell.config.name


def test_workload_key_is_benchmark_seed_and_length():
    cell = _paper_campaign(("gzip",), uops=600).cells()[0]
    assert cell.workload_key() == ("gzip", cell.seed, cell.trace_uops)


def test_dead_worker_is_reported_as_a_workload_group():
    cells = _paper_campaign(("gzip",), uops=600).cells()[:2]
    group = tuple(("run", cell) for cell in cells)
    assert _describe_task(group) == (
        "workload group [baseline/gzip, distributed_rc/gzip]"
    )
    assert _describe_task(("capture", cells[0])) == "capture cell baseline/gzip"
    assert _describe_task(7) == "7"

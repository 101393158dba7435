"""Fast-vs-reference timing equivalence.

The vectorized fast timing path (:mod:`repro.sim.fast_timing`, optionally
backed by the runtime-compiled native core in :mod:`repro.sim.native`) claims
to be **byte-identical** to the per-uop golden reference
(:class:`repro.sim.processor.Processor`): same :class:`SimulationStats`
payload, same :class:`ActivityTrace` down to its canonical JSON encoding.
These tests lock that contract across the paper's frontend organizations,
steering policies, fetch-gate duty cycles and the chip engine.  Thermally
coupled cells are part of the contract: every paper preset under every DTM
policy, and a chip under every chip policy, must produce byte-identical
result JSON on both paths.  The ``timing_mode`` selector falls back to the
reference only for the structural limits (streaming sources, shared-LLC
contention).

The native core is exercised both ways: with the compiled backend (when a C
compiler is available) and with the pure-Python fast loop forced via the
``REPRO_NATIVE=0`` kill-switch.  Both must match the reference exactly.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core.presets import (
    address_biasing_config,
    bank_hopping_biasing_config,
    bank_hopping_config,
    baseline_config,
    blank_silicon_config,
    distributed_frontend_config,
    distributed_rename_commit_config,
)
from repro.dtm import make_policy
from repro.sim import native
from repro.sim.activity_trace import TraceRecorder
from repro.sim.config import SteeringPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.fast_timing import FastProcessor
from repro.sim.processor import Processor
from repro.sim.serialization import result_to_dict
from repro.workloads import decode_workload
from repro.workloads.generator import TraceGenerator

TRACE_UOPS = 2_000

#: The paper's seven presets (Figures 12-14).
PAPER_PRESETS = (
    baseline_config,
    distributed_rename_commit_config,
    address_biasing_config,
    blank_silicon_config,
    bank_hopping_config,
    bank_hopping_biasing_config,
    distributed_frontend_config,
)
DTM_POLICIES = ("none", "fetch_throttle", "clock_gate", "dvfs", "hybrid")
CHIP_POLICIES = ("none", "core_migration", "chip_dvfs")

#: Coupled-matrix cell size: short enough to keep the matrix cheap, long
#: enough (at this interval, to which the hop and remap periods are scaled)
#: that every DTM policy engages, the thermal-aware presets remap and a lone
#: thread migrates.
MATRIX_UOPS = 1_500
MATRIX_INTERVAL = 400


def _uops(benchmark="gzip", seed=7, n=TRACE_UOPS):
    return TraceGenerator(benchmark, seed=seed).generate(n).uops


def _result_json(result):
    return json.dumps(result_to_dict(result), sort_keys=True)


@pytest.fixture(params=["native", "python"])
def native_core(request, monkeypatch):
    """Run the fast path on the compiled core, then on the Python loop."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    else:
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
    return request.param


def _assert_core(processor, config, native_core):
    """The fast path ran on the core ``native_core`` asked for."""
    expected = (
        native_core == "native"
        and native.native_unavailable_reason(config) is None
        and native.load_library() is not None
    )
    assert processor.uses_native_core == expected


def _matrix_engine(config_factory, policy, mode):
    config = config_factory().with_intervals(MATRIX_INTERVAL)
    return SimulationEngine(
        config, _uops("swim", 7, MATRIX_UOPS), "swim",
        interval_cycles=MATRIX_INTERVAL,
        dtm_policy=make_policy(policy),
        timing_mode=mode,
    )


@lru_cache(maxsize=None)
def _matrix_reference_json(config_factory, policy):
    return _result_json(_matrix_engine(config_factory, policy, "reference").run())


def _assert_equivalent(config, uops, benchmark, interval_cycles=800, max_intervals=None):
    """Run both timing paths and assert byte-identical outputs."""
    ref = SimulationEngine(
        config, list(uops), benchmark,
        interval_cycles=interval_cycles, timing_mode="reference",
    )
    fast = SimulationEngine(
        config, list(uops), benchmark,
        interval_cycles=interval_cycles, timing_mode="fast",
    )
    assert ref.resolved_timing_mode == "reference"
    assert fast.resolved_timing_mode == "fast"
    ref_result, ref_trace = ref.run_with_trace(max_intervals=max_intervals)
    fast_result, fast_trace = fast.run_with_trace(max_intervals=max_intervals)
    assert ref_result.stats.to_payload() == fast_result.stats.to_payload()
    assert ref_trace.to_json() == fast_trace.to_json()
    return fast


@pytest.mark.parametrize(
    "bench,seed",
    [("gzip", 7), ("mcf", 3), ("swim", 11), ("hot_loop", 5)],
)
def test_baseline_byte_equivalence(bench, seed):
    _assert_equivalent(baseline_config(), _uops(bench, seed), bench)


def test_bank_hopping_byte_equivalence():
    _assert_equivalent(
        bank_hopping_config(), _uops(), "gzip", interval_cycles=400
    )


def test_blank_silicon_byte_equivalence():
    _assert_equivalent(blank_silicon_config(), _uops(), "gzip")


def test_distributed_rename_commit_byte_equivalence():
    _assert_equivalent(distributed_rename_commit_config(), _uops(), "gzip")


@pytest.mark.parametrize(
    "policy", [SteeringPolicy.ROUND_ROBIN, SteeringPolicy.LOAD_BALANCE]
)
def test_steering_policy_byte_equivalence(policy):
    config = replace(baseline_config(), steering_policy=policy)
    _assert_equivalent(config, _uops(), "gzip")


def test_truncated_run_byte_equivalence():
    """``max_intervals`` truncation is a prefix of the full run on both paths."""
    _assert_equivalent(baseline_config(), _uops(), "gzip", max_intervals=2)


@pytest.mark.parametrize(
    "config_factory,on,period",
    [
        (baseline_config, 3, 8),
        (baseline_config, 1, 8),
        (distributed_rename_commit_config, 5, 8),
    ],
)
def test_fetch_gate_byte_equivalence(config_factory, on, period):
    """Raw processors under a fetch duty gate stay cycle-identical.

    Driven in odd-sized ``run_cycles`` chunks so interval boundaries land
    mid-gate-period, which is exactly how the DTM layer drives the stage.
    """
    config = config_factory()
    uops = _uops()
    ref = Processor(config, iter(list(uops)))
    fast = FastProcessor(config, list(uops))
    ref.set_fetch_gate(on, period)
    fast.set_fetch_gate(on, period)
    while not ref.finished and ref.cycle < 3_000:
        ref.run_cycles(137)
        fast.run_cycles(137)
        assert ref.activity.end_interval() == fast.activity.end_interval()
    assert ref.stats.to_payload() == fast.stats.to_payload()
    assert ref.cycle == fast.cycle


@pytest.mark.parametrize(
    "config_factory",
    [distributed_frontend_config, bank_hopping_biasing_config, address_biasing_config],
)
def test_unsupported_configurations_fall_back_to_reference(config_factory):
    """The thermal-aware presets run fast, byte-identical to the reference.

    These presets were once refused by the fast path (hence the name).
    Thermal-aware mapping only reaches timing between intervals, so ``auto``
    now resolves to ``fast``; the cells stay non-replayable.
    """
    config = config_factory().with_intervals(MATRIX_INTERVAL)

    def engine(mode):
        return SimulationEngine(
            config, _uops(), "gzip",
            interval_cycles=MATRIX_INTERVAL, timing_mode=mode,
        )

    auto = engine("auto")
    assert auto.timing_mode == "auto"
    assert auto.resolved_timing_mode == "fast"
    assert auto.timing_fallback_reason is None
    assert _result_json(auto.run()) == _result_json(engine("reference").run())
    assert auto.replay_safe_reason is not None
    fast = engine("fast")
    recorder = TraceRecorder("gzip", fast.block_index.names, MATRIX_INTERVAL)
    with pytest.raises(ValueError, match="cannot capture an activity trace"):
        fast.run(recorder=recorder)


@pytest.mark.parametrize("policy", DTM_POLICIES)
@pytest.mark.parametrize("config_factory", PAPER_PRESETS)
def test_preset_dtm_matrix_byte_identical(config_factory, policy, native_core):
    """Every paper preset under every DTM policy: fast == reference JSON."""
    engine = _matrix_engine(config_factory, policy, "auto")
    assert engine.resolved_timing_mode == "fast"
    _assert_core(engine.processor, engine.config, native_core)
    assert _result_json(engine.run()) == _matrix_reference_json(config_factory, policy)


def test_streaming_source_falls_back_to_reference():
    uops = _uops()
    engine = SimulationEngine(baseline_config(), iter(uops), "gzip")
    assert engine.resolved_timing_mode == "reference"
    assert "batch-decoded" in engine.timing_fallback_reason


def test_invalid_timing_mode_rejected():
    with pytest.raises(ValueError, match="timing_mode"):
        SimulationEngine(baseline_config(), _uops(), "gzip", timing_mode="turbo")


def test_python_fast_loop_byte_equivalence(monkeypatch):
    """With the native core disabled, the Python fast loop matches too."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    processor = FastProcessor(baseline_config(), _uops())
    assert not processor.uses_native_core
    fast = _assert_equivalent(baseline_config(), _uops(), "gzip")
    assert not fast.timing.processor.uses_native_core


def test_native_core_engaged_when_available(monkeypatch):
    """Default construction uses the compiled core whenever it builds."""
    from repro.sim import native

    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    if native.load_library() is None:
        pytest.skip("no C compiler available to build the native core")
    processor = FastProcessor(baseline_config(), _uops())
    assert processor.uses_native_core


def test_chip_engine_fast_matches_reference():
    """Two-thread chip runs agree interval-for-interval across timing modes."""
    from repro.chip.engine import ChipEngine

    sources = [_uops("gzip", 7), _uops("swim", 11)]

    def run(mode):
        engine = ChipEngine(
            baseline_config(),
            [list(source) for source in sources],
            ["gzip", "swim"],
            interval_cycles=800,
            timing_mode=mode,
        )
        assert engine.resolved_timing_mode == mode
        return engine.run()

    ref = run("reference")
    fast = run("fast")
    assert len(ref.intervals) == len(fast.intervals)
    for a, b in zip(ref.intervals, fast.intervals):
        assert a.temperature == b.temperature
        assert a.dynamic_power == b.dynamic_power
        assert a.leakage_power == b.leakage_power
    assert ref.stats.to_payload() == fast.stats.to_payload()


def _chip_engine(config_factory, chip_policy, mode):
    """One thread on a 2-core chip: ``core_migration`` has an idle core."""
    from repro.chip.engine import ChipEngine

    return ChipEngine(
        config_factory().with_intervals(MATRIX_INTERVAL),
        [_uops("swim", 7, MATRIX_UOPS)],
        ["swim"],
        cores=2,
        interval_cycles=MATRIX_INTERVAL,
        chip_policy=chip_policy,
        timing_mode=mode,
    )


def test_chip_engine_feedback_policy_falls_back():
    """A migrating chip policy runs fast, byte-identical to the reference.

    Temperature-actuating chip policies were once sent to the reference
    (hence the name); they are now only barred from capture and replay.
    """
    auto = _chip_engine(baseline_config, "core_migration", "auto")
    assert auto.resolved_timing_mode == "fast"
    assert auto.timing_fallback_reason is None
    result = auto.run()
    assert result.chip["migrations"] >= 1
    reference = _chip_engine(baseline_config, "core_migration", "reference").run()
    assert _result_json(result) == _result_json(reference)
    fast = _chip_engine(baseline_config, "core_migration", "fast")
    recorder = TraceRecorder("swim", fast.core_index.names, MATRIX_INTERVAL)
    with pytest.raises(ValueError, match="cannot capture activity traces"):
        fast.run(recorders=[recorder])


@pytest.mark.parametrize("chip_policy", CHIP_POLICIES)
@pytest.mark.parametrize(
    "config_factory",
    [baseline_config, address_biasing_config, distributed_frontend_config],
)
def test_chip_policy_matrix_byte_identical(config_factory, chip_policy, native_core):
    """Chip policies x paper proposals on 2 cores: fast == reference JSON."""
    fast = _chip_engine(config_factory, chip_policy, "auto")
    assert fast.resolved_timing_mode == "fast"
    _assert_core(fast.timings[0].processor, fast.config, native_core)
    reference = _chip_engine(config_factory, chip_policy, "reference")
    assert _result_json(fast.run()) == _result_json(reference.run())


def test_decode_workload_is_exported():
    """``repro.workloads`` re-exports the batch decoder used by the fast path."""
    uops = _uops(n=64)
    decoded = decode_workload(uops)
    assert decoded.n == len(uops)
    assert len(decoded.cls_list) == len(uops)
    assert decoded.op_class.shape == (len(uops),)

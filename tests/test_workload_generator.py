"""Unit and property-based tests for the synthetic trace generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.microops import UopClass
from repro.workloads.generator import TraceGenerator, generate_traces
from repro.workloads.profiles import SPEC2000_PROFILES, get_profile
from repro.workloads.trace import compute_statistics


def test_generator_accepts_profile_name_or_object():
    by_name = TraceGenerator("gzip", seed=3)
    by_profile = TraceGenerator(get_profile("gzip"), seed=3)
    assert [u.pc for u in by_name.generate(200)] == [u.pc for u in by_profile.generate(200)]


def test_generator_rejects_wrong_profile_type():
    with pytest.raises(TypeError):
        TraceGenerator(42)


def test_generator_seed_is_stable_across_processes():
    """Traces must not depend on PYTHONHASHSEED (string-hash randomization).

    The campaign layer relies on this: spawn-based worker processes and
    content-keyed cached results are only interchangeable with in-process
    simulation if the same (benchmark, seed) always yields the same trace.
    """
    import os
    import subprocess
    import sys

    script = (
        "from repro.workloads.generator import TraceGenerator\n"
        "t = TraceGenerator('gzip', seed=7).generate(300)\n"
        "print([(u.pc, u.mem_addr) for u in t][:50])\n"
    )
    outputs = set()
    for hash_seed in ("1", "2"):
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(sys.path),
            },
        )
        outputs.add(completed.stdout)
    assert len(outputs) == 1

    in_process = TraceGenerator("gzip", seed=7).generate(300)
    assert str([(u.pc, u.mem_addr) for u in in_process][:50]) == outputs.pop().strip()


def test_generator_rejects_non_positive_length():
    generator = TraceGenerator("gzip")
    with pytest.raises(ValueError):
        generator.generate(0)
    with pytest.raises(ValueError):
        list(generator.stream(-5))


def test_same_seed_gives_identical_traces():
    a = TraceGenerator("gcc", seed=11).generate(800)
    b = TraceGenerator("gcc", seed=11).generate(800)
    assert [str(u) for u in a] == [str(u) for u in b]


def test_different_seeds_give_different_traces():
    a = TraceGenerator("gcc", seed=1).generate(800)
    b = TraceGenerator("gcc", seed=2).generate(800)
    assert [u.mem_addr for u in a] != [u.mem_addr for u in b]


def test_stream_matches_generate():
    generator_a = TraceGenerator("vpr", seed=5)
    generator_b = TraceGenerator("vpr", seed=5)
    assert [u.pc for u in generator_a.generate(300)] == [
        u.pc for u in generator_b.stream(300)
    ]


def test_generated_length_is_exact():
    assert len(TraceGenerator("art", seed=0).generate(777)) == 777


def test_instruction_mix_tracks_profile():
    """The dynamic mix should land near the profile's targets."""
    profile = get_profile("gzip")
    stats = TraceGenerator(profile, seed=1).generate(6000).statistics()
    assert abs(stats.load_fraction - profile.load_fraction) < 0.06
    assert abs(stats.store_fraction - profile.store_fraction) < 0.06
    assert abs(stats.branch_fraction - profile.branch_fraction) < 0.06
    assert abs(stats.misprediction_rate - profile.branch_misprediction_rate) < 0.05


def test_fp_benchmark_generates_fp_uops():
    stats = TraceGenerator("swim", seed=1).generate(4000).statistics()
    assert stats.fp_fraction > 0.25


def test_integer_benchmark_generates_no_fp_uops():
    stats = TraceGenerator("gzip", seed=1).generate(4000).statistics()
    assert stats.fp_fraction < 0.02


def test_memory_uops_have_addresses_and_footprint_is_bounded():
    profile = get_profile("crafty")
    trace = TraceGenerator(profile, seed=2).generate(4000)
    addresses = [u.mem_addr for u in trace if u.is_mem]
    assert addresses and all(a is not None for a in addresses)
    footprint = max(addresses) - min(addresses)
    assert footprint <= profile.working_set_kb * 1024 + (1 << 28)


def test_static_footprint_reflects_loop_structure():
    profile = get_profile("gcc")
    generator = TraceGenerator(profile, seed=0)
    expected_min = profile.num_hot_loops * profile.loop_body_uops
    assert generator.static_footprint_uops >= expected_min
    assert "gcc" in generator.describe()


def test_pcs_repeat_across_loop_iterations():
    """Hot loops must revisit the same PCs so the trace cache can hit."""
    trace = TraceGenerator("sixtrack", seed=0).generate(5000)
    stats = trace.statistics()
    assert stats.distinct_pcs < len(trace) / 4


def test_generate_traces_honors_relative_length():
    traces = generate_traces(["gzip", "swim"], uops_per_benchmark=2000)
    lengths = {t.benchmark: len(t) for t in traces}
    assert lengths["gzip"] == 2000
    assert lengths["swim"] == round(2000 * get_profile("swim").relative_length)


def test_generate_traces_can_ignore_relative_length():
    traces = generate_traces(["swim"], uops_per_benchmark=1500, honor_relative_length=False)
    assert len(traces[0]) == 1500


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(sorted(SPEC2000_PROFILES)),
    seed=st.integers(0, 2**16),
    length=st.integers(200, 1500),
)
def test_every_generated_uop_is_well_formed(name, seed, length):
    """Property: every micro-op satisfies the MicroOp invariants."""
    trace = TraceGenerator(name, seed=seed).generate(length)
    assert len(trace) == length
    for uop in trace:
        assert uop.pc >= 0
        assert len(uop.sources) <= 2
        if uop.is_mem:
            assert uop.mem_addr is not None and uop.mem_addr >= 0
        if uop.uop_class is UopClass.BRANCH:
            assert uop.is_branch
        if uop.dest is not None:
            assert uop.dest.is_fp == (uop.is_fp or uop.uop_class is UopClass.LOAD and uop.dest.is_fp)


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(SPEC2000_PROFILES)), seed=st.integers(0, 100))
def test_statistics_are_consistent_with_uop_stream(name, seed):
    """Property: recomputing statistics over the same uops gives the same counts."""
    trace = TraceGenerator(name, seed=seed).generate(600)
    direct = trace.statistics()
    recomputed = compute_statistics(list(trace))
    assert direct == recomputed


#: sha256 over ``repr(uop) + "\n"`` of every generated micro-op, recorded
#: before the generator's hot paths were optimized.  The golden fixtures and
#: every cached result depend on this exact RNG stream.
PINNED_TRACE_DIGESTS = {
    ("gzip", 1, 3000): "32e44b9ea6469fee00dd5e9eb19a8e9a3e4f2747fe8e49743059ccfa9b0903e2",
    ("swim", 7, 2500): "6ae56ccb539efb62829f875a24132538b6ee70290aceca309a5a0b8a242d67ef",
    ("mcf", 12345, 4000): "905f33ff6d6f7f13c6e1de758f0307f593863bf6accf87b0aec2f3ef7fa30f7c",
}


@pytest.mark.parametrize("profile, seed, length", sorted(PINNED_TRACE_DIGESTS))
def test_generated_stream_matches_its_pinned_digest(profile, seed, length):
    import hashlib

    digest = hashlib.sha256()
    for uop in TraceGenerator(profile, seed=seed).generate(length).uops:
        digest.update(repr(uop).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == PINNED_TRACE_DIGESTS[(profile, seed, length)]

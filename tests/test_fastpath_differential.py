"""Fast engine vs. reference engine differential tests.

The fast engine (inlined flat-state controller loops, block-compiling
ISS) must be *bit-for-bit* equivalent to the retained reference
implementations:

* :meth:`WayMemoDCache.process` vs. :meth:`process_reference`
* :meth:`WayMemoICache.process` vs. :meth:`process_reference`
* :meth:`LineBufferWayMemoDCache.process` vs. :meth:`process_reference`

  (each way-memo leg runs on both engines: the compiled kernel and
  the Python loop, see the ``engines`` fixture)
* every comparison baseline's fast ``process`` vs. its retained
  ``process_reference`` (the full seven-architecture matrix)
* ``CPU.run(engine="fast")`` vs. ``CPU.run(engine="interp")``

Equivalence is asserted on every :class:`AccessCounters` field
(including ``stale_hits``, ``way_accesses`` and ``tag_accesses``), the
final cache/MAB state, each baseline's buffer/predictor/link state,
and — for the ISS — registers, memory, data and flow traces, the
instruction mix and the instruction count, over all bundled workloads
plus seeded synthetic traffic that exercises bypasses, stores and
evictions.
"""

import numpy as np
import pytest

from repro.baselines import (
    FilterCacheDCache,
    FilterCacheICache,
    MaLinksICache,
    OriginalDCache,
    OriginalICache,
    PanwarICache,
    SetBufferDCache,
    TwoPhaseDCache,
    TwoPhaseICache,
    WayPredictionDCache,
    WayPredictionICache,
)
from repro.core import (
    LineBufferWayMemoDCache,
    MABConfig,
    WayMemoDCache,
    WayMemoICache,
)
from repro.isa import assemble
from repro.sim import CPU, CPUError, run_program
from repro.workloads import (
    BENCHMARK_NAMES,
    get_benchmark,
    synthetic_data_trace,
    synthetic_fetch_stream,
)

COUNTER_FIELDS = (
    "accesses", "tag_accesses", "way_accesses", "cache_hits",
    "cache_misses", "loads", "stores", "mab_lookups", "mab_hits",
    "mab_bypasses", "stale_hits", "aux_accesses", "extra_cycles",
    "intra_line_hits",
)


def assert_counters_equal(fast, ref, context=""):
    for field in COUNTER_FIELDS:
        assert getattr(fast, field) == getattr(ref, field), (
            f"{context}: counter {field}: fast={getattr(fast, field)} "
            f"ref={getattr(ref, field)}"
        )
    assert fast.notes == ref.notes, context


def assert_cache_state_equal(fc, rc, context=""):
    """Final flat cache state + cache counters must match exactly."""
    assert fc._tags == rc._tags, f"{context}: cache tag arrays differ"
    assert fc._dirty == rc._dirty, f"{context}: dirty bits differ"
    assert (fc.hits, fc.misses, fc.evictions, fc.writebacks) == (
        rc.hits, rc.misses, rc.evictions, rc.writebacks
    ), f"{context}: cache counters differ"
    if fc._lru is not None and rc._lru is not None:
        assert fc._lru == rc._lru, f"{context}: LRU stacks differ"


#: Auxiliary structures of the baseline architectures (set buffer
#: snapshots, L0 contents, predictor tables, way links) that must come
#: out identical from the fast and reference engines.
BASELINE_AUX_STATE = (
    "_buffer", "_lru", "_l0", "_predicted", "_links", "_reverse",
)


def assert_baseline_state_equal(fast, ref, context=""):
    """Cache + auxiliary (buffer/predictor/link) state must match."""
    assert_cache_state_equal(fast.cache, ref.cache, context)
    for attr in BASELINE_AUX_STATE:
        if hasattr(ref, attr):
            assert getattr(fast, attr) == getattr(ref, attr), (
                f"{context}: baseline state {attr} differs"
            )
    wf = getattr(fast, "write_buffer", None)
    if wf is not None:
        wr = ref.write_buffer
        assert (
            wf._pending, wf.inserts, wf.coalesced, wf.drains,
            wf.max_occupancy,
        ) == (
            wr._pending, wr.inserts, wr.coalesced, wr.drains,
            wr.max_occupancy,
        ), f"{context}: write buffer state differs"


def assert_controller_state_equal(fast, ref, context=""):
    """Final cache + MAB (+ write/line buffer) state must match exactly."""
    assert_cache_state_equal(fast.cache, ref.cache, context)
    wf = getattr(fast, "write_buffer", None)
    wr = getattr(ref, "write_buffer", None)
    if wr is not None:
        assert (
            list(wf._pending.items()), wf.inserts, wf.coalesced, wf.drains,
            wf.max_occupancy,
        ) == (
            list(wr._pending.items()), wr.inserts, wr.coalesced, wr.drains,
            wr.max_occupancy,
        ), f"{context}: write buffer state differs"
    lf = getattr(fast, "line_buffer", None)
    lr = getattr(ref, "line_buffer", None)
    if lr is not None:
        assert (lf._lines, lf.hits, lf.misses) == (
            lr._lines, lr.hits, lr.misses
        ), f"{context}: line buffer state differs"
    fm, rm = fast.mab, ref.mab
    assert sorted(fm.valid_pairs()) == sorted(rm.valid_pairs()), (
        f"{context}: MAB valid pairs differ"
    )
    assert fm._keys == rm._keys, f"{context}: MAB tag keys differ"
    assert fm._idx_vals == rm._idx_vals, f"{context}: MAB indices differ"
    assert fm._lru_order(fm._tag_stamp) == rm._lru_order(rm._tag_stamp)
    assert fm._lru_order(fm._idx_stamp) == rm._lru_order(rm._idx_stamp)
    assert (fm.lookups, fm.hits, fm.bypasses, fm.invalidations) == (
        rm.lookups, rm.hits, rm.bypasses, rm.invalidations
    ), f"{context}: MAB stats differ"
    fm.check_invariants()
    rm.check_invariants()


# ----------------------------------------------------------------------
# controllers: synthetic traffic
# ----------------------------------------------------------------------

def check_engines(engines, make, stream, context=""):
    """Fast ``process`` vs ``process_reference`` on each way-memo engine.

    Returns the reference counters (identical on every engine).
    """
    for engine in engines():
        fast, ref = make(), make()
        cf = fast.process(stream)
        cr = ref.process_reference(stream)
        where = f"{context} engine={engine}"
        assert_counters_equal(cf, cr, where)
        assert_controller_state_equal(fast, ref, where)
    return cr


@pytest.mark.parametrize("seed,large,stores", [
    (1, 0.0, 0.3),
    (2, 0.05, 0.3),   # bypass traffic exercises the column-clear rule
    (3, 0.0, 1.0),    # all stores
    (4, 0.5, 0.0),    # heavy bypass, all loads
])
def test_dcache_fast_matches_reference_synthetic(
    seed, large, stores, engines
):
    trace = synthetic_data_trace(
        num_accesses=6_000, seed=seed,
        large_disp_fraction=large, store_fraction=stores,
    )
    check_engines(engines, WayMemoDCache, trace, f"dcache seed={seed}")


@pytest.mark.parametrize("consistency", ["paper", "evict_hook"])
def test_dcache_fast_matches_reference_evict_hook(consistency, engines):
    trace = synthetic_data_trace(num_accesses=6_000, seed=11)
    config = MABConfig(2, 8, consistency=consistency)
    check_engines(
        engines, lambda: WayMemoDCache(mab_config=config), trace,
        consistency,
    )


@pytest.mark.parametrize("policy", ["lru", "fifo", "plru"])
def test_dcache_fast_matches_reference_policies(policy, engines):
    trace = synthetic_data_trace(num_accesses=4_000, seed=21)
    check_engines(
        engines, lambda: WayMemoDCache(policy=policy), trace, policy
    )


# 64 is the kernel's widest MAB index side; 65 runs the Python loop.
@pytest.mark.parametrize("ns", [4, 16, 64, 65])
def test_dcache_fast_matches_reference_mab_sizes(ns, engines):
    trace = synthetic_data_trace(num_accesses=4_000, seed=31)
    check_engines(
        engines, lambda: WayMemoDCache(mab_config=MABConfig(2, ns)),
        trace, f"2x{ns}",
    )


def test_icache_fast_matches_reference_synthetic(engines):
    fs = synthetic_fetch_stream(num_blocks=1_500, seed=13)
    check_engines(engines, WayMemoICache, fs)


def test_icache_fast_matches_reference_large_offsets(engines):
    fs = synthetic_fetch_stream(
        num_blocks=800, seed=17,
        branch_offsets=[-(1 << 15), 1 << 15, 64, -64],
    )
    cr = check_engines(engines, WayMemoICache, fs)
    assert cr.mab_bypasses > 0, "offsets should force bypasses"


def test_dcache_fast_matches_reference_on_stale_hits(engines):
    """Stale MAB hits must account identically in both engines.

    With more tag entries than cache ways the paper's consistency
    argument no longer holds, so a deterministic conflict sequence
    forces a stale hit: tags 1, 2, 3 map to set 0 of the 2-way cache
    (evicting tag 1) while the 4-entry MAB keeps all three pairs
    valid; re-accessing tag 1 is a MAB hit whose memoized way now
    holds tag 3.  Regression for the fast engine forgetting to count
    stale hits in ``MAB.hits`` (the reference lookup counts every
    vflag match, verified or not).
    """
    from repro.sim.trace import DataTrace

    trace = DataTrace.from_lists(
        [t << 14 for t in (1, 2, 3, 1)], [0] * 4, [False] * 4
    )
    config = MABConfig(4, 8)
    cr = check_engines(
        engines, lambda: WayMemoDCache(mab_config=config), trace, "stale"
    )
    assert cr.stale_hits == 1, "sequence must actually go stale"


# ----------------------------------------------------------------------
# controllers: every bundled workload
# ----------------------------------------------------------------------

def test_dcache_fast_matches_reference_on_workload(workload, engines):
    check_engines(
        engines, WayMemoDCache, workload.trace.data, workload.name
    )


def test_icache_fast_matches_reference_on_workload(workload, engines):
    check_engines(engines, WayMemoICache, workload.fetch, workload.name)


@pytest.mark.parametrize("consistency", ["paper", "evict_hook"])
def test_line_buffer_fast_matches_reference_on_workload(
    workload, consistency, engines
):
    config = MABConfig(2, 8, consistency)
    check_engines(
        engines, lambda: LineBufferWayMemoDCache(mab_config=config),
        workload.trace.data, f"{workload.name} {consistency}",
    )


# ----------------------------------------------------------------------
# baselines: the full seven-architecture matrix, every bundled workload
# ----------------------------------------------------------------------

DCACHE_BASELINES = {
    "original": OriginalDCache,
    "set-buffer": SetBufferDCache,
    "filter-cache": FilterCacheDCache,
    "way-prediction": WayPredictionDCache,
    "two-phase": TwoPhaseDCache,
}

ICACHE_BASELINES = {
    "original": OriginalICache,
    "panwar": PanwarICache,
    "ma-links": MaLinksICache,
    "filter-cache": FilterCacheICache,
    "way-prediction": WayPredictionICache,
    "two-phase": TwoPhaseICache,
}


@pytest.mark.parametrize("arch", sorted(DCACHE_BASELINES))
def test_dcache_baseline_fast_matches_reference_on_workload(arch, workload):
    fast = DCACHE_BASELINES[arch]()
    ref = DCACHE_BASELINES[arch]()
    cf = fast.process(workload.trace.data)
    cr = ref.process_reference(workload.trace.data)
    context = f"{arch}/{workload.name}"
    assert_counters_equal(cf, cr, context)
    assert_baseline_state_equal(fast, ref, context)


@pytest.mark.parametrize("arch", sorted(ICACHE_BASELINES))
def test_icache_baseline_fast_matches_reference_on_workload(arch, workload):
    fast = ICACHE_BASELINES[arch]()
    ref = ICACHE_BASELINES[arch]()
    cf = fast.process(workload.fetch)
    cr = ref.process_reference(workload.fetch)
    context = f"{arch}/{workload.name}"
    assert_counters_equal(cf, cr, context)
    assert_baseline_state_equal(fast, ref, context)


@pytest.mark.parametrize("arch", sorted(DCACHE_BASELINES))
@pytest.mark.parametrize("seed,stores", [(41, 0.3), (42, 1.0), (43, 0.0)])
def test_dcache_baseline_fast_matches_reference_synthetic(
    arch, seed, stores
):
    trace = synthetic_data_trace(
        num_accesses=5_000, seed=seed, store_fraction=stores,
        num_bases=8, base_region_bytes=1 << 15,
    )
    fast = DCACHE_BASELINES[arch]()
    ref = DCACHE_BASELINES[arch]()
    cf = fast.process(trace)
    cr = ref.process_reference(trace)
    assert_counters_equal(cf, cr, f"{arch} seed={seed}")
    assert_baseline_state_equal(fast, ref, f"{arch} seed={seed}")


@pytest.mark.parametrize("arch", sorted(ICACHE_BASELINES))
def test_icache_baseline_fast_matches_reference_synthetic(arch):
    # A tiny cache under a wide text footprint forces conflict
    # evictions, exercising the miss/eviction paths (and ma-links'
    # reverse-index invalidation).
    from repro.cache.config import CacheConfig

    small = CacheConfig(size_bytes=2048, ways=2, line_bytes=32)
    fs = synthetic_fetch_stream(
        num_blocks=1_500, seed=23, text_bytes=1 << 18, num_targets=24,
    )
    fast = ICACHE_BASELINES[arch](small)
    ref = ICACHE_BASELINES[arch](small)
    cf = fast.process(fs)
    cr = ref.process_reference(fs)
    assert ref.cache.evictions > 0, "stream should evict"
    assert_counters_equal(cf, cr, arch)
    assert_baseline_state_equal(fast, ref, arch)


# ----------------------------------------------------------------------
# ISS: fast block engine vs. reference interpreter
# ----------------------------------------------------------------------

def assert_runs_equal(fast, interp, context=""):
    assert fast.halted == interp.halted, context
    assert fast.instructions == interp.instructions, context
    assert fast.registers == interp.registers, context
    assert fast.memory.read_bytes(0, fast.memory.size) == (
        interp.memory.read_bytes(0, interp.memory.size)
    ), f"{context}: memory differs"
    tf, ti = fast.trace, interp.trace
    assert tf.mix == ti.mix, f"{context}: instruction mix differs"
    for attr in ("base", "disp", "store"):
        assert np.array_equal(
            getattr(tf.data, attr), getattr(ti.data, attr)
        ), f"{context}: data trace {attr} differs"
    for attr in ("start", "count", "kind", "base", "disp"):
        assert np.array_equal(
            getattr(tf.flow, attr), getattr(ti.flow, attr)
        ), f"{context}: flow trace {attr} differs"


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_iss_engines_agree_on_workload(name):
    program = get_benchmark(name).build()
    fast = run_program(program, engine="fast")
    interp = run_program(program, engine="interp")
    assert_runs_equal(fast, interp, name)


ISS_CASES = {
    "tight_self_loop": """
main:
    li t0, 0
    li t1, 500
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    halt
""",
    "loop_with_memory": """
main:
    la t0, buf
    li t1, 0
    li t2, 16
loop:
    slli t3, t1, 2
    add t3, t0, t3
    sw t1, 0(t3)
    lw t4, 0(t3)
    add t5, t5, t4
    addi t1, t1, 1
    blt t1, t2, loop
    halt
.data
buf: .space 64
""",
    "nested_calls": """
main:
    li s0, 0
    li s1, 5
outer_loop:
    call accum
    addi s0, s0, 1
    blt s0, s1, outer_loop
    halt
accum:
    addi sp, sp, -4
    sw ra, 0(sp)
    call leaf
    lw ra, 0(sp)
    addi sp, sp, 4
    ret
leaf:
    addi t6, t6, 3
    ret
""",
    "branch_into_loop_middle": """
main:
    li t0, 0
    li t1, 30
    j mid
loop:
    addi t0, t0, 2
mid:
    addi t0, t0, 1
    blt t0, t1, loop
    halt
""",
    "mixed_alu": """
main:
    li t0, -7
    li t1, 3
    div t2, t0, t1
    rem t3, t0, t1
    mulh t4, t0, t1
    sra t5, t0, t1
    sltu t6, t0, t1
    lui s2, 0x1234
    halt
""",
}


@pytest.mark.parametrize("case", sorted(ISS_CASES))
def test_iss_engines_agree_on_program(case):
    program = assemble(ISS_CASES[case])
    fast = run_program(program, engine="fast")
    interp = run_program(program, engine="interp")
    assert_runs_equal(fast, interp, case)


def test_iss_engines_agree_after_recompile_cache():
    """A second run on the same Program reuses compiled blocks."""
    program = assemble(ISS_CASES["tight_self_loop"])
    first = run_program(program, engine="fast")
    second = run_program(program, engine="fast")
    assert_runs_equal(first, second, "recompile")


def test_iss_fast_engine_raises_on_runaway():
    program = assemble("main:\nloop:\n    j loop\n")
    with pytest.raises(CPUError, match="runaway"):
        run_program(program, max_instructions=1000, engine="fast")


def test_iss_fast_engine_raises_on_runaway_self_loop():
    program = assemble("""
main:
    li t0, 0
    li t1, 1000000
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    halt
""")
    with pytest.raises(CPUError, match="runaway"):
        run_program(program, max_instructions=500, engine="fast")


def test_iss_fast_engine_raises_on_bad_jalr_target():
    program = assemble("""
main:
    li t0, 0x1000
    jalr zero, t0, 0
""")
    with pytest.raises(CPUError, match="text segment"):
        run_program(program, engine="fast")


def test_iss_unknown_engine_rejected():
    program = assemble("main:\n    halt\n")
    with pytest.raises(ValueError, match="unknown engine"):
        CPU(program).run(engine="warp")

"""Randomized lockstep fuzzing of every baseline's fast kernel.

Each test drives a freshly seeded access stream through a *fast*
controller (``process``) and a *reference* controller
(``process_reference``) in lockstep chunks, comparing every
:class:`AccessCounters` field and the complete cache + auxiliary state
after each chunk.  On a divergence the harness re-drives two fresh
controllers access by access over the failing prefix and reports the
first offending access index, so a kernel bug pinpoints the exact
reference the two engines disagree on.

The streams deliberately hammer a tiny cache (heavy conflict misses,
evictions and write-backs) and include a 4-way geometry so the generic
(non-2-way) scan paths of the batch kernel are fuzzed too.
"""

from __future__ import annotations

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
from repro.cache.config import CacheConfig
from repro.sim.fetch import FetchStream
from repro.sim.trace import DataTrace
from repro.workloads import synthetic_fetch_stream, synthetic_kinds

from test_fastpath_differential import (
    COUNTER_FIELDS,
    assert_baseline_state_equal,
    assert_controller_state_equal,
)

#: Small geometries that evict constantly under the fuzz streams.
TINY_2WAY = CacheConfig(size_bytes=1024, ways=2, line_bytes=32)
TINY_4WAY = CacheConfig(size_bytes=2048, ways=4, line_bytes=32)

#: Lockstep chunk length (prime, so chunk boundaries drift across the
#: stream's block structure instead of aligning with it).
CHUNK = 257

NUM_ACCESSES = 4_000

DCACHE_FACTORIES = {
    "original": OriginalDCache,
    "set-buffer": SetBufferDCache,
    "filter-cache": FilterCacheDCache,
    "way-prediction": WayPredictionDCache,
    "two-phase": TwoPhaseDCache,
}

ICACHE_FACTORIES = {
    "original": OriginalICache,
    "panwar": PanwarICache,
    "ma-links": MaLinksICache,
    "filter-cache": FilterCacheICache,
    "way-prediction": WayPredictionICache,
    "two-phase": TwoPhaseICache,
}


# ----------------------------------------------------------------------
# stream generators and slicers
# ----------------------------------------------------------------------

def fuzz_data_trace(seed: int, n: int = NUM_ACCESSES) -> DataTrace:
    """Loads/stores over a region a tiny cache cannot hold."""
    rng = np.random.default_rng(seed)
    # ~8x the tiny cache size, word-aligned, mixed loads/stores.
    base = (0x40000 + rng.integers(0, 2048, size=n) * 4).astype(np.uint32)
    disp = (rng.integers(0, 16, size=n) * 4).astype(np.int32)
    store = rng.random(n) < 0.4
    return DataTrace(base=base, disp=disp, store=store)


def fuzz_fetch_stream(seed: int) -> FetchStream:
    """Branchy fetch traffic over a text footprint that evicts."""
    return synthetic_fetch_stream(
        num_blocks=NUM_ACCESSES // 4, seed=seed,
        text_bytes=1 << 15, num_targets=32,
    )


def slice_data(trace: DataTrace, lo: int, hi: int) -> DataTrace:
    return DataTrace(
        base=trace.base[lo:hi], disp=trace.disp[lo:hi],
        store=trace.store[lo:hi],
    )


def slice_fetch(fs: FetchStream, lo: int, hi: int) -> FetchStream:
    return FetchStream(
        addr=fs.addr[lo:hi], kind=fs.kind[lo:hi], base=fs.base[lo:hi],
        disp=fs.disp[lo:hi], packet_bytes=fs.packet_bytes,
    )


# ----------------------------------------------------------------------
# lockstep harness
# ----------------------------------------------------------------------

def _diff_counters(cf, cr):
    return [
        (field, getattr(cf, field), getattr(cr, field))
        for field in COUNTER_FIELDS
        if getattr(cf, field) != getattr(cr, field)
    ]


def _first_divergent_access(make, stream, slicer, limit, state_check):
    """Re-drive access by access; return the first divergent index."""
    fast = make()
    ref = make()
    for i in range(limit):
        cf = fast.process(slicer(stream, i, i + 1))
        cr = ref.process_reference(slicer(stream, i, i + 1))
        if _diff_counters(cf, cr):
            return i
        try:
            state_check(fast, ref)
        except AssertionError:
            return i
    return None


def run_lockstep(make, stream, slicer, total, context,
                 state_check=assert_baseline_state_equal):
    fast = make()
    ref = make()
    for lo in range(0, total, CHUNK):
        hi = min(lo + CHUNK, total)
        cf = fast.process(slicer(stream, lo, hi))
        cr = ref.process_reference(slicer(stream, lo, hi))
        mismatches = _diff_counters(cf, cr)
        state_error = None
        if not mismatches:
            try:
                state_check(
                    fast, ref, f"{context} accesses [{lo}, {hi})"
                )
            except AssertionError as exc:
                state_error = exc
        if mismatches or state_error is not None:
            index = _first_divergent_access(
                make, stream, slicer, hi, state_check
            )
            detail = (
                "; ".join(
                    f"{f}: fast={a} ref={b}" for f, a, b in mismatches
                )
                or str(state_error)
            )
            where = (
                f"access index {index}" if index is not None
                else f"chunk [{lo}, {hi})"
            )
            pytest.fail(
                f"{context}: fast/reference divergence at {where}: "
                f"{detail}"
            )


# ----------------------------------------------------------------------
# the fuzz matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("arch", sorted(DCACHE_FACTORIES))
def test_fuzz_dcache_baseline(arch, seed, config):
    trace = fuzz_data_trace(seed)
    factory = DCACHE_FACTORIES[arch]
    run_lockstep(
        lambda: factory(config), trace, slice_data, len(trace),
        f"{arch} seed={seed} ways={config.ways}",
    )


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [303, 404])
@pytest.mark.parametrize("arch", sorted(ICACHE_FACTORIES))
def test_fuzz_icache_baseline(arch, seed, config):
    fs = fuzz_fetch_stream(seed)
    factory = ICACHE_FACTORIES[arch]
    run_lockstep(
        lambda: factory(config), fs, slice_fetch, len(fs),
        f"{arch} seed={seed} ways={config.ways}",
    )


def test_way_memo_fuzz_streams_exercise_stale_hits_and_invalidation():
    """The way-memo legs must see MAB bypasses, paper-mode stale hits
    and evict_hook invalidations on both tiny geometries."""
    from repro.core import WayMemoDCache, WayMemoICache

    for config in (TINY_2WAY, TINY_4WAY):
        paper = _way_memo_factory(WayMemoDCache, config, "paper")()
        counters = paper.process(fuzz_memo_data_trace(616))
        assert counters.stale_hits > 0 and counters.mab_bypasses > 0
        hooked = _way_memo_factory(WayMemoDCache, config, "evict_hook")()
        assert hooked.process(fuzz_memo_data_trace(616)).stale_hits == 0
        assert hooked.mab.invalidations > 0
        icache = _way_memo_factory(WayMemoICache, config, "evict_hook")()
        icache.process(fuzz_fetch_stream(717))
        assert icache.mab.invalidations > 0


def test_fuzz_streams_actually_stress_the_cache():
    """The fuzz traffic must exercise misses, evictions and stores."""
    ctrl = OriginalDCache(TINY_2WAY)
    counters = ctrl.process(fuzz_data_trace(101))
    assert counters.cache_misses > 100
    assert ctrl.cache.evictions > 100
    assert ctrl.cache.writebacks > 0
    assert counters.stores > 0

    ictrl = OriginalICache(TINY_2WAY)
    icounters = ictrl.process(fuzz_fetch_stream(303))
    assert icounters.cache_misses > 100
    assert ictrl.cache.evictions > 100


def test_way_memo_dcache_lockstep_fuzz(engines):
    """The way-memo controller joins the lockstep fuzz too."""
    from repro.core import WayMemoDCache

    trace = fuzz_data_trace(515)
    for engine in engines():
        run_lockstep(
            WayMemoDCache, trace, slice_data, len(trace),
            f"way-memo engine={engine}",
            state_check=assert_controller_state_equal,
        )


def fuzz_memo_data_trace(
    seed: int, lines: int = 256, n: int = NUM_ACCESSES
) -> DataTrace:
    """Way-memo traffic on a tiny cache: a dozen base registers spread
    over ``lines`` cache lines with small displacements (so MAB pairs
    are reused and conflict-evicted), 3% large displacements (MAB
    bypasses) and 40% stores."""
    rng = np.random.default_rng(seed)
    bases = 0x40000 + rng.integers(0, lines, size=12) * 32
    base = bases[rng.integers(0, 12, size=n)].astype(np.uint32)
    disp = (rng.integers(-8, 24, size=n) * 4).astype(np.int32)
    large = rng.random(n) < 0.03
    disp[large] = rng.choice([1 << 15, -(1 << 16)], size=int(large.sum()))
    store = rng.random(n) < 0.4
    return DataTrace(base=base, disp=disp, store=store)


def _way_memo_factory(cls, config, consistency, **kwargs):
    from repro.core import MABConfig

    # Twice as many tag entries as cache ways: more than the paper's
    # consistency argument allows, so paper mode goes stale and
    # evict_hook has pairs to invalidate.
    mab = MABConfig(2 * config.ways, 8, consistency)
    return lambda: cls(config, mab, **kwargs)


@pytest.mark.parametrize("consistency", ["paper", "evict_hook"])
@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
def test_way_memo_dcache_lockstep_fuzz_geometries(
    config, consistency, engines
):
    from repro.core import WayMemoDCache

    trace = fuzz_memo_data_trace(616)
    for engine in engines():
        run_lockstep(
            _way_memo_factory(WayMemoDCache, config, consistency),
            trace, slice_data, len(trace),
            f"way-memo ways={config.ways} {consistency} engine={engine}",
            state_check=assert_controller_state_equal,
        )


@pytest.mark.parametrize("consistency", ["paper", "evict_hook"])
@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
def test_way_memo_icache_lockstep_fuzz(config, consistency, engines):
    from repro.core import WayMemoICache

    fs = fuzz_fetch_stream(717)
    for engine in engines():
        run_lockstep(
            _way_memo_factory(WayMemoICache, config, consistency),
            fs, slice_fetch, len(fs),
            f"way-memo icache ways={config.ways} {consistency} "
            f"engine={engine}",
            state_check=assert_controller_state_equal,
        )


# A one-line buffer only ever holds the MRU line, which the cache never
# evicts; four lines make the buffer's coherence listener fire.
@pytest.mark.parametrize("entries", [1, 4])
@pytest.mark.parametrize("consistency", ["paper", "evict_hook"])
@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
def test_line_buffer_way_memo_lockstep_fuzz(
    config, consistency, entries, engines
):
    from repro.core import LineBufferWayMemoDCache

    # Bases over 64 lines: buffered lines get evicted from the cache
    # while the buffer still serves its other lines.
    trace = fuzz_memo_data_trace(616, lines=64)
    for engine in engines():
        run_lockstep(
            _way_memo_factory(
                LineBufferWayMemoDCache, config, consistency,
                line_buffer_entries=entries,
            ),
            trace, slice_data, len(trace),
            f"way-memo+line-buffer ways={config.ways} {consistency} "
            f"entries={entries} engine={engine}",
            state_check=assert_controller_state_equal,
        )


# ----------------------------------------------------------------------
# grouped replay vs per-architecture scalar replay
# ----------------------------------------------------------------------

def _replay_dcache_factories(config):
    from repro.core import LineBufferWayMemoDCache, WayMemoDCache

    return {
        "original": lambda: OriginalDCache(config),
        "set-buffer": lambda: SetBufferDCache(config),
        "filter-cache": lambda: FilterCacheDCache(config),
        "way-prediction": lambda: WayPredictionDCache(config),
        "two-phase": lambda: TwoPhaseDCache(config),
        "way-memo-2x8": lambda: WayMemoDCache(config),
        "way-memo+line-buffer": lambda: LineBufferWayMemoDCache(config),
    }


def _replay_icache_factories(config):
    from repro.core import WayMemoICache

    return {
        "original": lambda: OriginalICache(config),
        "panwar": lambda: PanwarICache(config),
        "ma-links": lambda: MaLinksICache(config),
        "filter-cache": lambda: FilterCacheICache(config),
        "way-prediction": lambda: WayPredictionICache(config),
        "two-phase": lambda: TwoPhaseICache(config),
        "way-memo-2x16": lambda: WayMemoICache(config),
    }


def _first_replay_divergence(factories, stream, slicer, total,
                             method="process"):
    """First access index where grouped and per-arch replay diverge.

    Every probe rebuilds both legs from scratch over the prefix — the
    engine has no incremental mode — scanning chunk ends first and
    then linearly inside the first bad chunk.
    """
    from repro.replay.engine import replay_counters

    def probe(n):
        prefix = slicer(stream, 0, n)
        grouped = replay_counters(
            [factory() for factory in factories.values()], prefix
        )
        for (name, factory), got in zip(factories.items(), grouped):
            expected = getattr(factory(), method)(prefix)
            mismatches = _diff_counters(got, expected)
            if mismatches:
                return name, mismatches
        return None

    bad_end = next(
        (
            min(hi, total)
            for hi in range(CHUNK, total + CHUNK, CHUNK)
            if probe(min(hi, total)) is not None
        ),
        None,
    )
    if bad_end is None:
        return None
    for n in range(max(0, bad_end - CHUNK) + 1, bad_end + 1):
        found = probe(n)
        if found is not None:
            return n - 1, found
    return None


def run_replay_lockstep(factories, stream, slicer, total, context,
                        method="process"):
    """One grouped pass vs fresh per-arch replays, field by field.

    ``method`` selects the per-arch leg: ``process`` (the scalar or
    vectorized fast path) or ``process_reference`` (the executable
    specification — the strongest check for derived counters).
    """
    from repro.replay.engine import replay_counters

    grouped = replay_counters(
        [factory() for factory in factories.values()], stream
    )
    mismatched = {
        name: _diff_counters(got, getattr(factory(), method)(stream))
        for (name, factory), got in zip(factories.items(), grouped)
    }
    mismatched = {
        name: diff for name, diff in mismatched.items() if diff
    }
    if not mismatched:
        return
    where = _first_replay_divergence(
        factories, stream, slicer, total, method
    )
    index = "unknown" if where is None else where[0]
    detail = "; ".join(
        f"{name}: " + ", ".join(
            f"{f}: grouped={a} {method}={b}" for f, a, b in diff
        )
        for name, diff in mismatched.items()
    )
    pytest.fail(
        f"{context}: grouped/{method} replay divergence, first at "
        f"access index {index}: {detail}"
    )


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [101, 202])
def test_fuzz_dcache_replay_matches_scalar(seed, config):
    trace = fuzz_data_trace(seed)
    run_replay_lockstep(
        _replay_dcache_factories(config), trace, slice_data,
        len(trace), f"dcache replay seed={seed} ways={config.ways}",
    )


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [303, 404])
def test_fuzz_icache_replay_matches_scalar(seed, config):
    fs = fuzz_fetch_stream(seed)
    run_replay_lockstep(
        _replay_icache_factories(config), fs, slice_fetch,
        len(fs), f"icache replay seed={seed} ways={config.ways}",
    )


# ----------------------------------------------------------------------
# newly derived stateful designs vs the executable specification
# ----------------------------------------------------------------------

#: The designs whose grouped-replay counters are *derived* (set buffer
#: and MA-links from the shared sweep, the filter cache from the
#: columnar run walk) rather than replayed scalar — each one is fuzzed
#: directly against ``process_reference``, the strongest oracle.
STATEFUL_DERIVED_DCACHE = {
    "set-buffer": SetBufferDCache,
    "set-buffer-3": lambda config: SetBufferDCache(config, entries=3),
    "filter-cache": FilterCacheDCache,
}

STATEFUL_DERIVED_ICACHE = {
    "ma-links": MaLinksICache,
    "filter-cache": FilterCacheICache,
}


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("arch", sorted(STATEFUL_DERIVED_DCACHE))
def test_fuzz_dcache_replay_matches_reference(arch, seed, config):
    trace = fuzz_data_trace(seed)
    factory = STATEFUL_DERIVED_DCACHE[arch]
    run_replay_lockstep(
        {arch: lambda: factory(config)}, trace, slice_data, len(trace),
        f"{arch} vs reference seed={seed} ways={config.ways}",
        method="process_reference",
    )


@pytest.mark.parametrize("config", [TINY_2WAY, TINY_4WAY],
                         ids=["2way", "4way"])
@pytest.mark.parametrize("seed", [303, 404])
@pytest.mark.parametrize("arch", sorted(STATEFUL_DERIVED_ICACHE))
def test_fuzz_icache_replay_matches_reference(arch, seed, config):
    fs = fuzz_fetch_stream(seed)
    factory = STATEFUL_DERIVED_ICACHE[arch]
    run_replay_lockstep(
        {arch: lambda: factory(config)}, fs, slice_fetch, len(fs),
        f"{arch} vs reference seed={seed} ways={config.ways}",
        method="process_reference",
    )


# ----------------------------------------------------------------------
# every synthetic generator kind joins the replay fuzz
# ----------------------------------------------------------------------

def _kind_stream(cache, kind):
    from repro.workloads import generate_synthetic

    size = (
        {"num_accesses": 2000} if cache == "dcache"
        else {"num_fetches": 2000} if kind == "mab-thrash"
        else {"num_blocks": 400}
    )
    return generate_synthetic(
        cache, {"kind": kind, "seed": 909, **size}
    )


@pytest.mark.parametrize("kind", synthetic_kinds("dcache"))
def test_generator_kind_dcache_replay_matches_scalar(kind):
    trace = _kind_stream("dcache", kind)
    run_replay_lockstep(
        _replay_dcache_factories(TINY_2WAY), trace, slice_data,
        len(trace), f"dcache replay kind={kind}",
    )


@pytest.mark.parametrize("kind", synthetic_kinds("icache"))
def test_generator_kind_icache_replay_matches_scalar(kind):
    fs = _kind_stream("icache", kind)
    run_replay_lockstep(
        _replay_icache_factories(TINY_2WAY), fs, slice_fetch,
        len(fs), f"icache replay kind={kind}",
    )


def test_way_prediction_lockstep_on_thrash_stream():
    """The vectorized MRU derivation survives chunked adversarial
    traffic (every set group re-entered across chunk boundaries)."""
    trace = _kind_stream("dcache", "mab-thrash")
    run_lockstep(
        lambda: WayPredictionDCache(TINY_2WAY), trace, slice_data,
        len(trace), "way-prediction mab-thrash",
    )
    fs = _kind_stream("icache", "mab-thrash")
    run_lockstep(
        lambda: WayPredictionICache(TINY_4WAY), fs, slice_fetch,
        len(fs), "way-prediction mab-thrash icache",
    )

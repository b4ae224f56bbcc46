"""The compiled way-memo kernel: engine choice and its build cache.

Result equivalence of the two engines lives in the differential matrix
(``test_fastpath_differential.py``) and the lockstep fuzz
(``test_baseline_fuzz.py``), both parametrized over the ``engine``
fixture.  This module covers what those cannot see: which engine a
configuration runs on, and how ``kernel.load`` builds, caches, rebuilds
and falls back.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    LineBufferWayMemoDCache,
    MABConfig,
    WayMemoDCache,
    WayMemoICache,
    kernel,
)
from repro.replay.columns import FetchColumns
from repro.sim.fetch import FetchKind, FetchStream
from repro.store.fingerprint import code_fingerprint, tree_fingerprint
from repro.telemetry import metrics as telemetry
from repro.workloads import synthetic_data_trace, synthetic_fetch_stream
from repro.workloads.suite import TRACE_CACHE_ENV

from test_fastpath_differential import (
    assert_controller_state_equal,
    assert_counters_equal,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _require_kernel():
    if kernel.load() is None:
        pytest.skip("way-memo C kernel unavailable on this machine")


@pytest.fixture
def fresh_kernel(tmp_path, monkeypatch):
    """An empty trace cache directory and a kernel not yet loaded."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "traces"))
    kernel.reset()
    yield tmp_path / "traces"
    kernel.reset()


def _engine_calls():
    calls = {}
    for entry in telemetry.snapshot()["metrics"]:
        if entry["name"] == "repro_kernel_calls_total":
            calls[dict(entry["labels"])["engine"]] = entry["value"]
    return calls


def _engine_of(controller, stream):
    before = _engine_calls()
    controller.process(stream)
    after = _engine_calls()
    ran = [e for e in after if after[e] != before.get(e, 0)]
    assert len(ran) == 1, ran
    return ran[0]


# ----------------------------------------------------------------------
# which engine runs
# ----------------------------------------------------------------------

def test_supported_configurations_run_the_kernel(monkeypatch):
    _require_kernel()
    monkeypatch.setenv(telemetry.TELEMETRY_ENV, "1")
    trace = synthetic_data_trace(num_accesses=500, seed=3)
    fetch = synthetic_fetch_stream(num_blocks=100, seed=3)
    for consistency in ("paper", "evict_hook"):
        config = MABConfig(2, 64, consistency)
        assert _engine_of(WayMemoDCache(mab_config=config), trace) == "c"
        assert _engine_of(WayMemoICache(mab_config=config), fetch) == "c"
        assert _engine_of(
            LineBufferWayMemoDCache(mab_config=config), trace
        ) == "c"


def test_engine_shows_as_a_span_attribute(monkeypatch):
    from repro.telemetry.tracing import capture_spans, span

    monkeypatch.setenv(telemetry.TELEMETRY_ENV, "1")
    fetch = synthetic_fetch_stream(num_blocks=50, seed=7)
    expected = "python" if kernel.load() is None else "c"
    with capture_spans() as spans:
        with span("outer"):
            WayMemoICache().process(fetch)
        with span("fallback"):
            WayMemoICache(policy="fifo").process(fetch)
    engines = {
        record["name"]: record["attributes"]["way_memo_engine"]
        for record in spans
    }
    assert engines == {"outer": expected, "fallback": "python"}


@pytest.mark.parametrize("case", ["fifo", "ns65", "listener"])
def test_unmodelled_configurations_run_python(case, monkeypatch):
    _require_kernel()
    monkeypatch.setenv(telemetry.TELEMETRY_ENV, "1")
    trace = synthetic_data_trace(num_accesses=500, seed=4)

    def make():
        if case == "fifo":
            return WayMemoDCache(policy="fifo")
        if case == "ns65":
            return WayMemoDCache(mab_config=MABConfig(2, 65))
        controller = WayMemoDCache()
        controller.cache.add_eviction_listener(
            lambda tag, set_index: seen.append((tag, set_index))
        )
        return controller

    seen = []
    assert _engine_of(make(), trace) == "python"
    if case == "listener":
        assert seen, "a foreign listener must still be called"


def test_fallback_matches_the_reference(monkeypatch):
    """The unmodelled configurations' Python loop is the same spec."""
    trace = synthetic_data_trace(num_accesses=2_000, seed=5)
    for make in (
        lambda: WayMemoDCache(policy="fifo"),
        lambda: WayMemoDCache(mab_config=MABConfig(2, 65)),
        lambda: LineBufferWayMemoDCache(policy="plru"),
    ):
        fast, ref = make(), make()
        assert_counters_equal(
            fast.process(trace), ref.process_reference(trace)
        )
        assert_controller_state_equal(fast, ref)


@pytest.mark.parametrize("engine_name", ["kernel", "python"])
def test_intra_line_fetch_that_misses_raises(engine_name, monkeypatch):
    """Columns claiming an intra-line fetch to a non-resident line
    trip the "intra-line fetch must hit" check on both engines."""
    if engine_name == "python":
        monkeypatch.setattr(kernel, "load", lambda: None)
    else:
        _require_kernel()
    fetch = FetchStream(
        addr=np.array([0x1000, 0x9000], dtype=np.uint32),
        kind=np.array([FetchKind.START, FetchKind.SEQ], dtype=np.uint8),
        base=np.array([0x1000, 0x9000], dtype=np.uint32),
        disp=np.zeros(2, dtype=np.int32),
        packet_bytes=8,
    )
    cols = FetchColumns(fetch)
    controller = WayMemoICache()
    offset_bits = controller.cache.offset_bits
    cols._arrays[f"lines{offset_bits}"] = np.array([7, 7], dtype=np.int64)
    with pytest.raises(AssertionError, match="intra-line fetch must hit"):
        controller.process_columns(cols)


# ----------------------------------------------------------------------
# the build cache
# ----------------------------------------------------------------------

def test_kernel_builds_into_the_trace_cache_directory(fresh_kernel):
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    assert kernel.load() is not None
    path = kernel.library_path(fresh_kernel)
    assert path.is_file()
    assert path.parent == fresh_kernel / "kernels"
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


@pytest.mark.parametrize("damage", ["corrupt", "truncated"])
def test_damaged_library_is_rebuilt(damage, fresh_kernel, tmp_path):
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    # A good build elsewhere supplies the bytes to truncate.
    good_dir = tmp_path / "good"
    os.environ[TRACE_CACHE_ENV] = str(good_dir)
    assert kernel.load() is not None
    good = kernel.library_path(good_dir).read_bytes()
    kernel.reset()
    os.environ[TRACE_CACHE_ENV] = str(fresh_kernel)

    path = kernel.library_path(fresh_kernel)
    path.parent.mkdir(parents=True)
    damaged = (
        b"not an ELF object" * 64 if damage == "corrupt"
        else good[:len(good) // 2]
    )
    path.write_bytes(damaged)
    assert not kernel._intact(path)
    assert kernel.load() is not None
    assert kernel._intact(path)
    assert len(path.read_bytes()) == len(good)


def test_edited_source_gets_a_new_library_and_fingerprint(
    tmp_path, monkeypatch
):
    directory = tmp_path / "traces"
    before = kernel.library_path(directory)
    monkeypatch.setattr(kernel, "SOURCE", kernel.SOURCE + "/* edit */\n")
    assert kernel.library_path(directory) != before

    package = Path(kernel.__file__).resolve().parent.parent
    assert tree_fingerprint(package) == code_fingerprint()
    copy = tmp_path / "repro"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("*.pyc"))
    module = copy / "core" / "kernel.py"
    text = module.read_text()
    assert "typedef int64_t i64;" in text
    module.write_text(
        text.replace("typedef int64_t i64;", "typedef int64_t i64; /**/", 1)
    )
    assert tree_fingerprint(copy) != code_fingerprint()


def test_missing_compiler_falls_back_with_one_warning(
    fresh_kernel, monkeypatch
):
    monkeypatch.setattr(kernel, "COMPILERS", ("no-such-compiler-x",))
    trace = synthetic_data_trace(num_accesses=1_000, seed=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert kernel.load() is None
        assert kernel.load() is None
        fast, ref = WayMemoDCache(), WayMemoDCache()
        assert_counters_equal(
            fast.process(trace), ref.process_reference(trace)
        )
    assert_controller_state_equal(fast, ref)
    messages = [
        str(w.message) for w in caught
        if issubclass(w.category, RuntimeWarning)
    ]
    assert len(messages) == 1, messages
    assert "no C compiler" in messages[0]
    assert not (fresh_kernel / "kernels").exists() or not any(
        (fresh_kernel / "kernels").iterdir()
    )


def test_disabled_trace_cache_means_no_kernel(fresh_kernel, monkeypatch):
    monkeypatch.setenv(TRACE_CACHE_ENV, "off")
    with pytest.warns(RuntimeWarning, match="disabled"):
        assert kernel.load() is None


def test_two_processes_compiling_at_once_both_load(fresh_kernel):
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env[TRACE_CACHE_ENV] = str(fresh_kernel)
    code = (
        "import sys\n"
        "from repro.core import kernel\n"
        "sys.exit(0 if kernel.load() is not None else 3)\n"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env)
        for _ in range(2)
    ]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    directory = fresh_kernel / "kernels"
    assert sorted(p.name for p in directory.iterdir()) == [
        kernel.library_path(fresh_kernel).name
    ], "temp files left behind"

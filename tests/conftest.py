"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.workloads import BENCHMARK_NAMES, load_workload


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store(tmp_path_factory):
    """Point the persistent result store at a per-session temp file.

    Keeps the suite from reading or polluting the developer's real
    store; an explicitly exported $REPRO_RESULT_STORE still wins.
    """
    if "REPRO_RESULT_STORE" not in os.environ:
        path = tmp_path_factory.mktemp("result-store") / "results.sqlite"
        os.environ["REPRO_RESULT_STORE"] = str(path)
    yield


@pytest.fixture(scope="session", params=BENCHMARK_NAMES)
def workload(request):
    """One cached workload per paper benchmark (runs the ISS once)."""
    return load_workload(request.param)


@pytest.fixture(scope="session")
def dct_workload():
    """The DCT workload (cheap, reused by many architecture tests)."""
    return load_workload("dct")


@pytest.fixture
def engines(monkeypatch):
    """Loop a way-memo test over its engines: ``for e in engines():``.

    Yields "kernel" (where the compiled kernel builds on this machine),
    then "python" with the kernel hidden (``kernel.load`` returns None),
    which is exactly what a machine without a C compiler runs.  Looping
    inside one test keeps each test's id the same on both engines.
    """
    from repro.core import kernel

    def each():
        if kernel.load() is not None:
            yield "kernel"
        monkeypatch.setattr(kernel, "load", lambda: None)
        yield "python"

    return each

"""Shared pieces of the benchmark: paths, environment, host-speed probe.

**Probe-normalized host time.**  The host's speed drifts by itself
(two speeds, flipping every few seconds on a shared 2-vCPU machine), so
raw seconds of one run say little about the code.  Between units of
work the benchmark runs :func:`probe`, a few loops of a fixed
pure-Python kernel, and scales each unit's raw time by ``PROBE_REF_S /
median(loops before, during and after the unit)``.  A normalized second
is therefore "a second on a host whose probe loop takes
``PROBE_REF_S``"; probe time itself is never part of a metric, and the
raw numbers are reported beside the normalized ones.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

#: Repository root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
#: Everything the benchmark writes: trace/column archives, the
#: reference store and render, per-run scratch stores and span files.
STATE = ROOT / ".bench_build" / "perfbench"
TRACE_CACHE = STATE / "traces"

WORKLOADS = ("report-cold", "report-warm", "service-mixed")

#: Iterations of one probe loop, and the median loop time that defines
#: a normalized second.
PROBE_LOOPS = 60_000
PROBE_REF_S = 0.007
#: Loops per probe between units.
PROBE_REPEATS = 3
#: Seconds between probe loops taken *inside* a unit (report workloads).
SAMPLE_INTERVAL_S = 0.1

#: Prefix of the child's "setup finished" line and of the detail line.
READY_PREFIX = "perfbench-ready "
DETAIL_PREFIX = "perfbench-detail "


def _probe_loop() -> float:
    started = time.perf_counter()
    acc = 0
    table = [0] * 64
    for i in range(PROBE_LOOPS):
        j = i & 63
        acc += table[j] ^ i
        table[j] = acc & 0xFFFF
    return time.perf_counter() - started


def probe() -> List[float]:
    """Seconds each of a few back-to-back probe loops takes right now."""
    return [_probe_loop() for _ in range(PROBE_REPEATS)]


def speed_factor(*samples: Sequence[float]) -> float:
    """Scale from raw to normalized seconds, from the probe loops taken
    around (and during) a unit: the median loop, so one preempted loop
    does not read as a slow host."""
    return PROBE_REF_S / statistics.median(
        [loop for group in samples for loop in group]
    )


class UnitClock:
    """Times units of work between probes.

    ``with clock.unit(kind): ...`` times one unit and probes after it;
    ``units`` holds ``(kind, raw_s, factor)``.  A unit's factor comes
    from the probe loops before and after it, and from ``window`` more
    probes on each side (the host's speed phases last a second or more,
    so for short units a wider window reads less probe noise).  With
    ``sample=True`` a timer signal also runs a probe loop every
    ``SAMPLE_INTERVAL_S`` inside the unit (in this thread), so a unit
    longer than the host's speed phases is scaled by the speed it
    actually ran at.  Probe time is subtracted from the unit, so it
    never leaks into a metric.  ``probe_fn`` replaces :func:`probe`
    (see :class:`PairProbe`).
    """

    def __init__(self, sample: bool = False, probe_fn=probe,
                 window: int = 0) -> None:
        self.sample = sample
        self.probe = probe_fn
        self.window = window
        #: Probe loops at each unit boundary (one more than units).
        self.probes: List[List[float]] = [probe_fn()]
        self._units: List[tuple] = []   # (kind, raw_s, loops inside)
        #: Seconds of in-unit probing so far (spans subtract it).
        self.stolen = 0.0

    @contextmanager
    def unit(self, kind: str) -> Iterator[None]:
        inside: List[float] = []
        stolen = [0.0]
        if self.sample:
            def sample(signum, frame) -> None:
                started = time.perf_counter()
                inside.append(_probe_loop())
                spent = time.perf_counter() - started
                stolen[0] += spent
                self.stolen += spent

            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(
                signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        started = time.perf_counter()
        try:
            yield
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = time.perf_counter() - started
            if self.sample:
                signal.signal(signal.SIGALRM, previous)
        self.probes.append(self.probe())
        self._units.append((kind, raw - stolen[0], inside))

    @property
    def units(self) -> List[tuple]:
        """``(kind, raw_s, factor)`` of every finished unit."""
        out = []
        for index, (kind, raw, inside) in enumerate(self._units):
            low = max(0, index - self.window)
            around = self.probes[low:index + 2 + self.window]
            out.append((kind, raw, speed_factor(inside, *around)))
        return out

    @property
    def index(self) -> int:
        """Index of the unit in progress (or the next one)."""
        return len(self._units)

    def normalized(self) -> float:
        return sum(raw * factor for _, raw, factor in self.units)

    def raw(self) -> float:
        return sum(raw for _, raw, _ in self._units)

    def samples(self, kind: str) -> List[float]:
        """Normalized seconds of each unit of ``kind``."""
        return [raw * factor for k, raw, factor in self.units if k == kind]

    def loops(self) -> List[float]:
        """Every probe loop taken, in seconds."""
        return [loop for group in self.probes for loop in group] + [
            loop for _, _, inside in self._units for loop in inside]


class PairProbe:
    """Probe loops on both vCPUs at once: this process and a helper
    process run :func:`probe` together.  For a workload whose work runs
    in several processes at once (the service), the speed of one vCPU
    alone says little; the median over both does better."""

    def __init__(self) -> None:
        import subprocess

        self.helper = subprocess.Popen(
            [sys.executable, "-c",
             "import json, sys; sys.path.insert(0, sys.argv[1]);"
             "from common import probe\n"
             "for _ in sys.stdin: print(json.dumps(probe()), flush=True)",
             str(Path(__file__).resolve().parent)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> List[float]:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        mine = probe()
        return mine + json.loads(self.helper.stdout.readline())

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait(timeout=30)
        self.helper.stdout.close()


def child_env(store: Optional[Path] = None,
              job_db: Optional[Path] = None) -> Dict[str, str]:
    """Environment for repro processes: every cache inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_TRACE_CACHE"] = str(TRACE_CACHE)
    env["XDG_CACHE_HOME"] = str(STATE / "xdg")
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = str(STATE / "tmp")
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    env["REPRO_RESULT_STORE"] = str(store) if store else "off"
    if job_db is not None:
        env["REPRO_JOB_DB"] = str(job_db)
    env.pop("REPRO_TRACE_FILE", None)
    env.pop("REPRO_REPLAY", None)
    env.pop("REPRO_FAULTS", None)
    return env


def use_source_tree() -> None:
    """Import repro from this checkout's ``src`` (child processes)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tail(values: Sequence[float]) -> tuple:
    """``(value, percentile, n)``: the highest percentile of ``values``
    with at least ten samples beyond it (the median when fewer than
    twenty samples exist)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    index = max(n - 11, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n, n


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def emit(line_prefix: str, document: dict) -> None:
    print(line_prefix + json.dumps(document, sort_keys=True), flush=True)


class Checks:
    """Counts checked outputs; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": self.messages}

"""``service-mixed``: ``repro serve`` subprocesses under a closed loop.

Each of ``PASSES`` passes starts a fresh server (fresh store and job
DB).  One seeded generator (this process) holds two connections and
sends a
script of requests in slices, each connection waiting for its reply
before sending the next (the callers ``repro submit`` and ``report
--url`` wait the same way).  Slices alternate: one ``/v1/batch`` of a
seven-design group on a real benchmark (all fourteen groups, seeded
order), then a seeded mix of ``/v1/eval`` misses on distinct small
synthetic specs and ``/v1/eval`` hits on specs stored before the timed
phase.  A probe runs on both vCPUs between slices while no request is
in flight.

After the timed phase the server's ``/v1/metrics`` deltas give the
service-layer numbers, Figures 5, 7 and 8 are fetched through
``/v1/experiments`` (the ``report --url`` path) and rendered, and
every response is compared byte for byte with an in-process
``evaluate(spec, use_cache=False)``.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    GOLDEN_DIR,
    Checks,
    PairProbe,
    UnitClock,
    child_env,
    median,
    probe,
    process_peak_rss_mb,
    speed_factor,
)
from inputs import batch_groups, miss_specs, paper_gaps, warmup_specs
from report_load import split_sections

#: Server setups per run (the median is ``setup_s``).
SETUPS = 5
#: Timed passes per run, each on a fresh server (every batch group is a
#: store miss once per pass).
PASSES = 3
#: Neighbouring probes on each side that join a slice's speed estimate
#: (slices last about 0.1-1 s; the host's speed phases, 1-3 s).
PROBE_WINDOW = 2
#: Specs stored before the timed phase, re-read as hits.
HIT_POOL = 24
#: Misses and hits per mix slice, per second of ``--seconds``.
MISSES_PER_S = 0.1
HITS_PER_S = 0.3
HEALTHZ_SAMPLES = 20
SERVER_WORKERS = 2
FIGURES = ("figure5_dcache_power", "figure7_icache_power",
           "figure8_total_power")


class Server:
    """One ``repro serve`` subprocess with its own store and job DB."""

    def __init__(self, scratch: Path, index: int) -> None:
        self.store = scratch / f"service-{index}.sqlite"
        self.job_db = scratch / f"jobs-{index}.sqlite"
        self.port_file = scratch / f"port-{index}.txt"
        self.log = open(scratch / f"server-{index}.log", "w")
        before = probe()
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(self.port_file),
             "--job-db", str(self.job_db),
             "--workers", str(SERVER_WORKERS)],
            env=child_env(store=self.store, job_db=self.job_db),
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        raw = time.perf_counter() - started
        self.setup = (raw, speed_factor(before, probe()))

    def _wait_healthy(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}")
            try:
                port = int(self.port_file.read_text())
                if request(port, "GET", "/v1/healthz")[0] == 200:
                    return port
            except (OSError, ValueError):
                pass   # not listening yet
            time.sleep(0.005)
        raise RuntimeError("server did not answer /v1/healthz")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=60)
        self.log.close()


def request(port: int, method: str, path: str, body=None,
            connection=None) -> Tuple[int, bytes]:
    conn = connection or http.client.HTTPConnection(
        "127.0.0.1", port, timeout=300)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape(port: int) -> Dict[str, float]:
    """``/v1/metrics`` as name -> value summed over label sets."""
    status, body = request(port, "GET", "/v1/metrics")
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    out: Dict[str, float] = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        name = name.split("{", 1)[0]
        out[name] = out.get(name, 0.0) + float(value)
    return out


def _script(rng: random.Random, seconds: int) -> Tuple[list, list]:
    """The seeded request script: slices of (kind, spec-or-group)."""
    groups = batch_groups()
    rng.shuffle(groups)
    per_slice_misses = max(1, round(MISSES_PER_S * seconds))
    per_slice_hits = max(1, round(HITS_PER_S * seconds))
    misses = miss_specs(rng, per_slice_misses * len(groups) + HIT_POOL)
    pool, misses = misses[:HIT_POOL], misses[HIT_POOL:]
    slices = []
    for index, group in enumerate(groups):
        mine = misses[index * per_slice_misses:
                      (index + 1) * per_slice_misses]
        small = [("miss", spec) for spec in mine] + [
            ("hit", rng.choice(pool)) for _ in range(per_slice_hits)
        ]
        rng.shuffle(small)
        # The batch runs alone: its latency is the service's, not that
        # of whatever small requests happened to overlap it.
        slices += [[("batch", group)], small]
    return pool, slices


def _send(port: int, connection, kind: str, item):
    if kind == "batch":
        status, body = request(
            port, "POST", "/v1/batch",
            {"specs": [spec.to_dict() for spec in item]}, connection)
        documents = (json.loads(body)["results"]
                     if status == 200 else None)
        return status, documents
    status, body = request(port, "POST", "/v1/eval", item.to_dict(),
                           connection)
    return status, ([json.loads(body)] if status == 200 else None)


def _drive(port: int, slices: list, clock: UnitClock, samples: list,
           spans: Optional[list], run_id: str) -> None:
    """Send ``slices`` over two connections, one probed unit each.

    Appends ``(kind, item, status, documents, raw_s, unit)`` per request
    to ``samples`` and, when tracing, one span per request to ``spans``.
    """
    connections = [
        http.client.HTTPConnection("127.0.0.1", port, timeout=300)
        for _ in range(2)
    ]
    for script in slices:
        queue = list(reversed(script))
        lock = threading.Lock()
        unit = clock.index

        def drive(connection) -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    kind, item = queue.pop()
                started = time.perf_counter()
                status, documents = _send(port, connection, kind, item)
                ended = time.perf_counter()
                samples.append((kind, item, status, documents,
                                ended - started, unit))
                if spans is not None:
                    spans.append({
                        "name": f"service.{kind}", "start": started,
                        "end": ended, "parent": None, "run_id": run_id,
                        "unit": unit,
                    })

        with clock.unit(script[0][0]):
            threads = [threading.Thread(target=drive, args=(c,))
                       for c in connections]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()


def run(seed: int, seconds: int, scratch: Path, reference: str,
        expected: Dict[str, str], tracing: bool, run_id: str) -> dict:
    """The service workload; ``expected`` holds the in-process result
    JSON of every batch spec (built once per code version)."""
    from repro.api import RunResult, evaluate
    from repro.experiments.registry import EXPERIMENTS, get_experiment
    from repro.experiments.report import _to_markdown
    from repro.experiments.reporting import render
    from repro.service import ServiceClient

    rng = random.Random(seed)
    pair = PairProbe()
    clock = UnitClock(probe_fn=pair, window=PROBE_WINDOW)
    samples: List[tuple] = []
    spans: Optional[List[dict]] = [] if tracing else None
    setups, delta, rss = [], {}, 0.0
    try:
        # Each pass: a fresh server and store, then a fresh script.
        for index in range(PASSES):
            pool, slices = _script(rng, seconds)
            server = Server(scratch, index)
            try:
                setups.append(server.setup)
                # Untimed: store the hit pool, and let the server load
                # every workload once, as a long-running server has.
                for specs in (pool, warmup_specs()):
                    status, _ = request(
                        server.port, "POST", "/v1/batch",
                        {"specs": [spec.to_dict() for spec in specs]})
                    if status != 200:
                        raise RuntimeError(
                            f"the untimed warm-up batch answered {status}")
                before = scrape(server.port)
                _drive(server.port, slices, clock, samples, spans, run_id)
                after = scrape(server.port)
                for key, value in after.items():
                    delta[key] = (delta.get(key, 0.0) + value
                                  - before.get(key, 0.0))
                rss = max(rss, process_peak_rss_mb(server.process.pid))
                if index == PASSES - 1:
                    http_probe = probe()
                    healthz = []
                    for _ in range(HEALTHZ_SAMPLES):
                        started = time.perf_counter()
                        request(server.port, "GET", "/v1/healthz")
                        healthz.append(time.perf_counter() - started)
                    http_factor = speed_factor(http_probe, probe())
                    # Every figure point is stored by now: the report
                    # --url path only reads.
                    client = ServiceClient(f"http://127.0.0.1:{server.port}")
                    figures = {
                        name: get_experiment(name).tabulate(
                            client.run_experiment(name))
                        for name in FIGURES
                    }
            finally:
                server.stop()
        while len(setups) < SETUPS:
            server = Server(scratch, len(setups))
            server.stop()
            setups.append(server.setup)
    finally:
        pair.close()

    # -- checks (outside the timed phase) ---------------------------------
    checks = Checks()
    expected = dict(expected)

    def local(spec) -> str:
        key = spec.key()
        if key not in expected:
            expected[key] = evaluate(spec, use_cache=False).to_json()
        return expected[key]

    accesses = 0
    for kind, item, status, documents, _, _ in samples:
        specs = item if kind == "batch" else [item]
        if status != 200 or documents is None:
            checks.expect(False, f"{kind} answered {status}")
            continue
        for spec, document in zip(specs, documents):
            result = RunResult.from_dict(document)
            checks.expect(result.to_json() == local(spec),
                          f"{kind} result differs for {spec.key()}")
            if kind != "hit":
                accesses += result.counters.accesses
    names = list(EXPERIMENTS)
    reference_sections = split_sections(reference, names)
    sections = {}
    for name, table in figures.items():
        sections[name] = _to_markdown(table)
        golden = (GOLDEN_DIR / f"{name}.txt").read_text()
        checks.expect(
            sections[name] == reference_sections[name]
            and render(table) + "\n" == golden,
            f"section {name} differs",
        )
    simulated = sum(len(item) if kind == "batch" else 1
                    for kind, item, *_ in samples if kind != "hit")
    checks.expect(
        delta.get("repro_simulations_total") == simulated,
        f"{delta.get('repro_simulations_total')} simulations, expected "
        f"{simulated}",
    )

    factors = [factor for _, _, factor in clock.units]
    latencies = {"miss": [], "hit": [], "batch": []}
    for kind, _, status, _, raw, unit in samples:
        if status == 200:
            latencies[kind].append(raw * factors[unit] * 1e3)
    run_s = clock.normalized()
    mean_factor = run_s / clock.raw()
    out = {
        "setups": setups,
        "run_s": run_s,
        "raw_run_s": clock.raw(),
        "probes": clock.loops(),
        "units": clock.units,
        "batch_ms": latencies["batch"],
        "miss_ms": latencies["miss"],
        "hit_ms": latencies["hit"],
        "accesses": accesses,
        "rss_mb": rss,
        "gaps": paper_gaps(sections),
        "checks": checks.summary(),
    }
    if tracing:
        task_s = delta.get("repro_pool_task_seconds_sum", 0.0)
        queued = [raw for kind, _, status, _, raw, _ in samples
                  if kind != "hit" and status == 200]
        out["spans"] = spans
        out["layers"] = {
            "service.task_s": task_s * mean_factor,
            "service.spawns": delta.get("repro_pool_spawns_total", 0.0),
            "service.queue_wait_ms": 1e3 * mean_factor * (
                sum(queued) - task_s) / max(1, len(queued)),
            "service.http_ms": median(healthz) * http_factor * 1e3,
            "service.retries": delta.get("repro_queue_retries_total", 0.0),
            "service.dead_letters": delta.get(
                "repro_queue_dead_letters_total", 0.0),
            "store.hits": delta.get("repro_store_hits_total", 0.0),
            "store.puts": delta.get("repro_store_puts_total", 0.0),
            "api.simulations": delta.get("repro_simulations_total", 0.0),
            "api.memo_hits": delta.get(
                "repro_evaluate_memo_hits_total", 0.0),
        }
    return out

"""The repository's benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload report-cold|report-warm|service-mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh processes
(``child.py``); every host time is probe-normalized (see ``common``).
With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
it carries every per-layer metric instead, from a traced run next to
the untraced ones.  The line before it (``perfbench-detail ...``)
holds the raw numbers: set-up samples, each repeat's raw and normalized
run time, failure messages and the span file.  ``perfbench/LAYERS.md``
defines every metric and maps each layer metric to the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from common import (
    DETAIL_PREFIX,
    READY_PREFIX,
    ROOT,
    SRC,
    STATE,
    WORKLOADS,
    child_env,
    emit,
    median,
    probe,
    speed_factor,
    tail,
)

HERE = Path(__file__).resolve().parent
#: A child still running after this many seconds is killed.
CHILD_TIMEOUT_S = 170.0
#: Setups measured per run; ``setup_s`` is their median.
SETUPS = 5
#: Nominal normalized seconds of one report repeat, so ``--seconds``
#: sets how many repeats a run makes (at least one).
REPEAT_S = {"report-cold": 18, "report-warm": 9}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass   # every process of the group has ended


def run_child(args: List[str], store: Optional[Path] = None,
              timeout: float = CHILD_TIMEOUT_S) -> Tuple[Optional[float], dict]:
    """Run ``child.py`` to completion.

    Returns ``(setup_s, document)``: the normalized time from start to
    the child's ready line (None if it printed none) and its final
    JSON line (empty for setup-only children).
    """
    before = probe()
    started = time.perf_counter()
    # A session of its own, so the child and anything it started (the
    # service's server) can be stopped together.
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")] + args,
        stdout=subprocess.PIPE, text=True, env=child_env(store=store),
        cwd=str(ROOT), start_new_session=True,
    )
    watchdog = threading.Timer(timeout, _kill_group, (process.pid,))
    watchdog.start()
    setup, last = None, ""
    try:
        for line in process.stdout:
            if line.startswith(READY_PREFIX) and setup is None:
                ready = json.loads(line[len(READY_PREFIX):])
                setup = (time.perf_counter() - started) * speed_factor(
                    before, ready["probe"])
            elif line.strip():
                last = line
        code = process.wait()
    finally:
        watchdog.cancel()
        _kill_group(process.pid)
        process.wait()
    if code != 0:
        raise RuntimeError(f"child {args[0]} exited with {code}")
    return setup, (json.loads(last) if last else {})


def measure(workload: str, seed: int, seconds: int, trace: bool,
            scratch: Path) -> Tuple[list, List[float], Optional[dict]]:
    """Every child's document, the setup samples and (with ``trace``)
    one more, traced, repeat of ``workload``: the untraced children are
    the same in both modes, so the tracing overhead compares like with
    like."""
    common = ["--seconds", str(seconds)]
    docs, setups, traced = [], [], None

    def report(role: str, trace_flag: int, index: int):
        directory = scratch / f"repeat-{index}"
        directory.mkdir(parents=True)
        # Each process gets its own latency-phase seed.
        return run_child(
            [workload, "--role", role, "--trace", str(trace_flag),
             "--scratch", str(directory), "--seed", str(seed * 16 + index)]
            + common,
            store=directory / "store.sqlite",
        )

    if workload == "service-mixed":
        for trace_flag in (0, 1) if trace else (0,):
            directory = scratch / f"service-{trace_flag}"
            directory.mkdir(parents=True)
            _, out = run_child(
                ["service-mixed", "--scratch", str(directory), "--trace",
                 str(trace_flag), "--seed", str(seed)] + common)
            if trace_flag:
                traced = out
            else:
                docs.append(out)
                setups += [raw * factor for raw, factor in out["setups"]]
        return docs, setups, traced

    for index in range(max(1, seconds // REPEAT_S[workload])):
        setup, out = report("run", 0, index)
        docs.append(out)
        setups.append(setup)
    while len(setups) < SETUPS:
        setup, out = report("setup", 0, len(setups))
        docs.append(out)
        setups.append(setup)
    if trace:
        _, traced = report("run", 1, len(setups))
    return docs, setups, traced


def end_to_end(docs: list, setups: List[float]) -> dict:
    runs = [out for out in docs if "run_s" in out]
    batch = [x for out in runs for x in out["batch_ms"]]
    miss = [x for out in docs for x in out["miss_ms"]]
    hit = [x for out in docs for x in out["hit_ms"]]
    checks = [out["checks"] for out in docs]
    attempted = sum(c["attempted"] for c in checks)
    return {
        "setup_s": median(setups),
        "run_s": median([out["run_s"] for out in runs]),
        "maccess_per_s": median([
            out["accesses"] / out["run_s"] / 1e6 for out in runs
        ]),
        "peak_rss_mb": median([out["rss_mb"] for out in runs]),
        "ok_frac": (attempted - sum(c["failed"] for c in checks))
        / attempted,
        "miss_p50_ms": median(miss),
        "miss_tail_ms": tail(miss)[0],
        "hit_p50_ms": median(hit),
        "hit_tail_ms": tail(hit)[0],
        "batch_p50_ms": median(batch),
        **runs[0]["gaps"],
    }


def per_layer(docs: list, traced: dict, names: List[str]) -> dict:
    runs = [out for out in docs if "run_s" in out]
    untraced_s = median([out["run_s"] for out in runs])
    values = dict.fromkeys(names, 0.0)
    values.update({
        key: value for key, value in traced.get("layers", {}).items()
        if key in values
    })
    miss = [x for out in docs for x in out["miss_ms"]]
    hit = [x for out in docs for x in out["hit_ms"]]
    _, miss_pct, miss_n = tail(miss)
    _, hit_pct, hit_n = tail(hit)
    values.update({
        "host.probe_ms": 1e3 * median(
            [p for out in runs + [traced] for p in out["probes"]]),
        "host.raw_run_s": median([out["raw_run_s"] for out in runs]),
        "telemetry.trace_overhead_pct":
            100.0 * (traced["run_s"] - untraced_s) / untraced_s,
        "latency.miss_tail_pct": miss_pct,
        "latency.miss_n": miss_n,
        "latency.hit_tail_pct": hit_pct,
        "latency.hit_n": hit_n,
        "latency.batch_n": len(
            [x for out in runs for x in out["batch_ms"]]),
    })
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    STATE.mkdir(parents=True, exist_ok=True)
    scratch = STATE / "runs" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        run_child(["prepare"], timeout=900.0)
        docs, setups, traced = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scratch,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values = per_layer(docs, traced, [m["name"] for m in metrics])
    else:
        values = end_to_end(docs, setups)
    every = docs + ([traced] if traced else [])
    runs = [out for out in every if "run_s" in out]
    checks = [out["checks"] for out in every]
    attempted = sum(c["attempted"] for c in checks) + 1
    failed = sum(c["failed"] for c in checks)
    # Simulated statistics are deterministic: every repeat must agree.
    if len({json.dumps(out["gaps"], sort_keys=True) for out in runs}) != 1:
        failed += 1
    emit(DETAIL_PREFIX, {
        "workload": args.workload,
        "seed": args.seed,
        "setups_s": setups,
        "run_s": [out["run_s"] for out in runs],
        "raw_run_s": [out["raw_run_s"] for out in runs],
        "failures": [m for c in checks for m in c["messages"]],
        "spans_file": (traced or {}).get("spans_file"),
        # Layer numbers the run produced that BENCHMARK.json lacks.
        "unlisted_layers": sorted(
            set((traced or {}).get("layers", {}))
            - {m["name"] for m in spec["per_layer"]}),
    })
    emit("", {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics
        },
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())

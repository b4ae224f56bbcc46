"""Run-to-run spread of the benchmark, as the acceptance check computes it.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] \
        [--workloads report-cold,report-warm,service-mixed]

Runs ``run.py`` once per seed for each workload and prints, for every
end-to-end metric, the median and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound and a third of it.  It
also prints the same spread for the raw (not probe-normalized) run
time, so the effect of the normalization is visible, and each run's
wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import DETAIL_PREFIX, ROOT, WORKLOADS


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        raw, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.monotonic()
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
                check=True,
            ).stdout.strip().splitlines()
            walls.append(time.monotonic() - started)
            result = json.loads(out[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT", flush=True)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            detail = json.loads(out[-2][len(DETAIL_PREFIX):])
            raw.append(statistics.median(detail["raw_run_s"]))
        print(f"\n{workload}: {args.runs} runs, wall "
              f"{min(walls):.0f}-{max(walls):.0f} s per run", flush=True)
        rows = {}
        for name, bound in bounds.items():
            rows[name] = {
                "median": statistics.median(values[name]),
                "spread": spread(values[name]),
                "bound": bound,
                "values": values[name],
            }
            flag = "" if rows[name]["spread"] < bound / 3 else "  <-- wide"
            print(f"  {name:16s} median {rows[name]['median']:12.4f}  "
                  f"spread {rows[name]['spread']:7.2%}  bound {bound:.2f} "
                  f"(1/3: {bound / 3:.2%}){flag}")
        print(f"  {'raw run_s':16s} median {statistics.median(raw):12.4f}  "
              f"spread {spread(raw):7.2%}  (not normalized)")
        summary[workload] = {"metrics": rows, "raw_run_s": raw,
                             "wall_s": walls}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

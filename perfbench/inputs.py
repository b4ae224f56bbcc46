"""The benchmark's inputs: the paper report's design points and the
seeded request scripts.

The report workloads are fixed by the paper's experiment set.  The
seed picks the synthetic specs behind store misses, which stored specs
are re-read as hits, and the order of every request; the composition
of each request class (architectures, stream sizes, batch groups) is
the same for every seed, so seeds change inputs, not the amount of work.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Tuple

from repro.api import RunSpec
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.workloads import BENCHMARK_NAMES

#: The paper's designs behind store misses, alternating cache sides,
#: on stream sizes that cost about the same to simulate: one request
#: class, so its tail is not just the slowest of several classes.
MISS_ARCHS = (("dcache", "way-memo-2x8"), ("icache", "way-memo-2x16"))
#: Sizes of the small synthetic streams behind store misses.
MISS_WORKLOAD = {
    "dcache": "synthetic:num_accesses=1600,seed={seed}",
    "icache": "synthetic:num_blocks=350,seed={seed}",
}
#: The seven designs of one ``/v1/batch`` group per cache side; with
#: them the service stores every point of Figures 5, 7 and 8.
BATCH_ARCHS = {
    "dcache": ("original", "set-buffer", "way-memo-2x8",
               "way-memo+line-buffer", "filter-cache", "way-prediction",
               "two-phase"),
    "icache": ("original", "panwar", "ma-links", "way-memo-2x8",
               "way-memo-2x16", "way-memo-2x32", "filter-cache"),
}
#: Experiments whose ``tabulate`` simulates or scans traces itself.
COMPUTING_EXPERIMENTS = (
    "ablation_adder_width", "ablation_stack_traffic",
    "ablation_fetch_width", "extension_associativity",
)
#: Figure notes holding the reproduced average next to the paper's.
GAP_NOTES = {
    "dcache_gap_pp": (
        "figure5_dcache_power",
        r"average way-memo saving ([\d.]+)% \(paper: ~([\d.]+)%\)"),
    "icache_gap_pp": (
        "figure7_icache_power",
        r"average 2x16 saving vs \[4\]: ([\d.]+)% \(paper: ~([\d.]+)%\)"),
    "total_gap_pp": (
        "figure8_total_power",
        r"average saving ([\d.]+)% \(paper ~([\d.]+)%\)"),
}


def report_plan() -> Tuple[list, List[RunSpec]]:
    """Experiment records in report order and their unique design
    points, deduplicated exactly as ``repro report`` does."""
    records = [get_experiment(name) for name in EXPERIMENTS]
    specs = [spec for record in records for spec in record.specs()]
    return records, list({spec.key(): spec for spec in specs}.values())


def miss_specs(rng: random.Random, count: int) -> List[RunSpec]:
    """``count`` distinct small synthetic specs (seeded content)."""
    seeds = rng.sample(range(1, 1 << 30), count)
    out = []
    for index, seed in enumerate(seeds):
        cache, arch = MISS_ARCHS[index % len(MISS_ARCHS)]
        out.append(RunSpec(
            cache=cache, arch=arch,
            workload=MISS_WORKLOAD[cache].format(seed=seed),
        ))
    return out


def batch_groups() -> List[List[RunSpec]]:
    """One seven-design group per (cache side, real benchmark)."""
    return [
        [RunSpec(cache=cache, arch=arch, workload=benchmark)
         for arch in archs]
        for cache, archs in BATCH_ARCHS.items()
        for benchmark in BENCHMARK_NAMES
    ]


def warmup_specs() -> List[RunSpec]:
    """One cheap spec per real benchmark, outside every batch group:
    evaluating them makes a fresh server load each workload's traces,
    which it then keeps for its lifetime."""
    return [RunSpec(cache="icache", arch="two-phase", workload=benchmark)
            for benchmark in BENCHMARK_NAMES]


def paper_gaps(sections: Dict[str, str]) -> Dict[str, float]:
    """|reproduced average - paper| in percentage points, from the
    rendered notes of Figures 5, 7 and 8 (``sections`` by experiment)."""
    gaps = {}
    for metric, (experiment, pattern) in GAP_NOTES.items():
        match = re.search(pattern, sections[experiment])
        if match is None:
            raise ValueError(f"no average note in {experiment}")
        ours, paper = (float(value) for value in match.groups())
        gaps[metric] = round(abs(ours - paper), 6)
    return gaps

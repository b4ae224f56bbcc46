"""Ablation: narrow-adder width vs displacement coverage.

The MAB can only serve accesses whose displacement's upper bits are
all-zero or all-one (Section 3.1); the paper chose a 14-bit adder
(offset+index bits of the FR-V cache) and measured the residual
bypass rate at "less than 1%".  This ablation measures, per
benchmark, the fraction of data accesses whose displacement exceeds
each candidate width — i.e. the MAB bypass rate a ``w``-bit adder
would suffer — directly testing the small-displacement claim the
whole technique rests on.

This is trace analysis, not simulation: it declares no run specs and
its ``tabulate`` reads the cached workload traces directly.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.api import RunSpec
from repro.experiments.registry import Experiment, ResultMap, register
from repro.experiments.reporting import ExperimentResult
from repro.workloads import BENCHMARK_NAMES, load_workload

WIDTHS = (8, 10, 12, 14, 16)


def bypass_rate(disps: np.ndarray, width: int) -> float:
    """Fraction of displacements unusable with a ``width``-bit adder."""
    total = len(disps)
    if total == 0:
        return 0.0
    # The sign class of core.address.displacement_sign_class, over the
    # whole array: OTHER when the upper bits are neither 0 nor all-ones.
    upper = (disps.astype(np.int64) & 0xFFFFFFFF) >> width
    bad = (upper != 0) & (upper != (1 << (32 - width)) - 1)
    return int(np.count_nonzero(bad)) / total


def specs() -> List[RunSpec]:
    """Pure trace analysis — no simulation design points."""
    return []


def tabulate(results: ResultMap) -> ExperimentResult:
    result = EXPERIMENT.new_result(
        columns=("benchmark",) + tuple(f"w{w}_pct" for w in WIDTHS)
    )
    worst_w14 = 0.0
    for benchmark in BENCHMARK_NAMES:
        disps = load_workload(benchmark).trace.data.disp
        row = {"benchmark": benchmark}
        for width in WIDTHS:
            rate = 100.0 * bypass_rate(disps, width)
            row[f"w{width}_pct"] = rate
            if width == 14:
                worst_w14 = max(worst_w14, rate)
        result.add_row(**row)
    result.notes.append(
        f"worst-case 14-bit bypass rate {worst_w14:.3f}% "
        "(paper claims <1%)"
    )
    return result


EXPERIMENT = register(Experiment(
    name="ablation_adder_width",
    title="Ablation: MAB bypass rate vs narrow-adder width",
    specs=specs,
    tabulate=tabulate,
    category="trace-derived",
    paper_reference=(
        "paper: <1% of displacements exceed the 14-bit adder "
        "(|disp| >= 2^13)"
    ),
))

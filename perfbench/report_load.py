"""``report-cold`` and ``report-warm``: the paper report, unit by unit.

The timed phase is what ``repro report --workers 1`` does, split into
units with a probe between each: one ``evaluate_many`` per replay
group from :func:`repro.replay.engine.plan_groups`, then one
``tabulate`` + render per experiment.  The rendered document must be
byte-identical to the reference render that ``repro report`` itself
produced (see ``child.prepare``), and each section must match its
``tests/golden`` snapshot where one exists.

Every report process, set-up-only ones too, then runs
:func:`latency_phase`: seeded in-process ``evaluate`` calls whose store
misses and hits give the library-path miss and hit latencies.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from contextlib import nullcontext
from typing import Dict, List

from common import GOLDEN_DIR, Checks, UnitClock, peak_rss_mb
from inputs import COMPUTING_EXPERIMENTS, miss_specs, paper_gaps, report_plan

#: In-process latency requests per report process, per class.
LATENCY_REQUESTS = 12
#: Requests per probe-delimited slice of the latency phase.
SLICE_REQUESTS = 4


def _document(names: List[str], sections: List[str]) -> str:
    """The report document, assembled as ``repro report`` assembles it."""
    lines = [
        "# Reproduction report",
        "",
        "Ishihara & Fallah, *A Way Memoization Technique for Reducing "
        "Power Consumption of Caches in Application Specific Integrated "
        "Processors*, DATE 2005.",
        "",
        f"Experiments: {', '.join(names)}",
        "",
    ]
    for section in sections:
        lines += [section, ""]
    return "\n".join(lines)


def split_sections(document: str, names: List[str]) -> Dict[str, str]:
    """Experiment name -> its markdown section, from a whole document."""
    chunks = document.split("\n## ")[1:]
    if len(chunks) != len(names):
        raise ValueError(
            f"document has {len(chunks)} sections, expected {len(names)}"
        )
    return {
        name: ("## " + chunk).rstrip("\n") + "\n"
        for name, chunk in zip(names, chunks)
    }


class AccessCount:
    """Counts accesses simulated by direct ``controller.process`` calls
    (the experiments that simulate inside ``tabulate``)."""

    def __init__(self) -> None:
        self.active = False
        self.accesses = 0
        self._depth = 0

    def install(self) -> None:
        import repro.api.registry as registry
        from tracer import CONTROLLER_LAYERS

        counter = self
        for name in CONTROLLER_LAYERS:
            for klass in getattr(registry, name).__mro__[:-1]:
                original = vars(klass).get("process")
                if original is None or hasattr(
                        original, "__perfbench_counted__"):
                    continue

                def process(self, stream, _original=original):
                    counter._depth += 1
                    try:
                        result = _original(self, stream)
                    finally:
                        counter._depth -= 1
                    if counter.active and counter._depth == 0:
                        counter.accesses += result.accesses
                    return result

                process.__perfbench_counted__ = True
                klass.process = process


def setup(warm: bool, store_path: str, reference_store: str) -> dict:
    """Bring caches and store to the workload's stated state."""
    from repro.api.parallel import warm_trace_cache
    from repro.replay.engine import _columns_cached, plan_groups
    from repro.store import default_store
    from repro.workloads import BENCHMARK_NAMES

    if warm:
        shutil.copyfile(reference_store, store_path)
    if default_store() is None:
        raise RuntimeError("result store is off")
    warm_trace_cache(BENCHMARK_NAMES)
    records, unique = report_plan()
    for group in plan_groups(unique):
        # Load the column archive now, so the timed phase never reads
        # or derives a column archive (that would be a cold cache).
        _columns_cached(group[0].cache, group[0].workload)._archive_arrays()
    return {"records": records, "unique": unique}


def run(state: dict, warm: bool, seed: int, reference: str,
        tracing: bool, run_id: str) -> dict:
    """The timed phase, then its checks."""
    from repro.api.evaluate import evaluate_many, simulation_count
    from repro.experiments.registry import keyed_results
    from repro.experiments.report import _to_markdown
    from repro.experiments.reporting import render
    from repro.replay.columns import column_stats
    from repro.replay.engine import plan_groups
    from repro.telemetry import metrics as telemetry

    records, unique = state["records"], state["unique"]
    names = [record.name for record in records]
    groups = plan_groups(unique)
    counting = AccessCount()
    counting.install()

    clock = UnitClock(sample=True)
    tracer = None
    if tracing:
        from tracer import Tracer, install_layers

        tracer = Tracer(run_id, clock)
        install_layers(tracer)
    span = tracer.span if tracer else (lambda name: nullcontext())
    simulations0 = simulation_count()
    columns0 = column_stats()
    memo0 = _counter(telemetry.snapshot(), "repro_evaluate_memo_hits_total")
    if tracer:
        tracer.recording = True

    results = {}
    for group in groups:
        with clock.unit("group"), span("api.evaluate_many"):
            out = evaluate_many(group, workers=1)
        results.update(keyed_results(group, out))
    tables, sections = {}, []
    for record in records:
        counting.active = record.name in COMPUTING_EXPERIMENTS
        with clock.unit("tabulate"):
            with span("experiments.tabulate"):
                table = record.tabulate(results)
            with span("experiments.render"):
                section = _to_markdown(table)
        counting.active = False
        tables[record.name] = table
        sections.append(section)

    if tracer:
        tracer.recording = False
    simulations = simulation_count() - simulations0
    columns = {
        key: value - columns0[key] for key, value in column_stats().items()
    }
    memo_hits = _counter(
        telemetry.snapshot(), "repro_evaluate_memo_hits_total") - memo0
    document = _document(names, sections)

    # -- checks (outside the timed phase) ---------------------------------
    checks = Checks()
    reference_sections = split_sections(reference, names)
    checks.expect(document == reference, "document differs from reference")
    for name, section in zip(names, sections):
        ok = section == reference_sections[name]
        golden = GOLDEN_DIR / f"{name}.txt"
        if golden.is_file():
            ok = ok and render(tables[name]) + "\n" == golden.read_text()
        checks.expect(ok, f"section {name} differs")
    expected_simulations = 0 if warm else len(unique)
    checks.expect(
        simulations == expected_simulations,
        f"{simulations} declared-point simulations, expected "
        f"{expected_simulations}",
    )
    simulated_accesses = counting.accesses + (
        0 if warm else sum(r.counters.accesses for r in results.values())
    )
    gaps = paper_gaps(dict(zip(names, sections)))

    out = {
        "run_s": clock.normalized(),
        "raw_run_s": clock.raw(),
        "probes": clock.loops(),
        "units": clock.units,
        "batch_ms": [s * 1e3 for s in clock.samples("group")],
        "accesses": simulated_accesses,
        "rss_mb": peak_rss_mb(),
        "gaps": gaps,
        "checks": checks.summary(),
    }
    if tracer:
        out["spans"] = tracer.spans
        out["layers"] = _layer_metrics(
            tracer, clock, records, results, columns, simulations,
            memo_hits,
        )
    return out


def latency_phase(seed: int) -> dict:
    """Library-path miss and hit latencies, outside any timed phase.

    ``LATENCY_REQUESTS`` in-process ``evaluate`` calls on distinct small
    synthetic specs (store miss, simulation, put), then the same specs
    again with the per-process cache cleared (store hits), in
    probe-delimited slices.  Every report process runs this phase, so a
    run's samples come from several moments, not one.
    """
    from repro.api import evaluate
    from repro.api.evaluate import clear_result_cache

    clear_result_cache()
    gc.collect()   # start from a settled heap, not the report's garbage
    specs = miss_specs(random.Random(seed), LATENCY_REQUESTS)
    clock = UnitClock(window=2)
    samples = {"miss": [], "hit": []}
    answers = {}
    for kind in ("miss", "hit"):
        if kind == "hit":
            clear_result_cache()
        for start in range(0, len(specs), SLICE_REQUESTS):
            timings = []
            with clock.unit(kind):
                for spec in specs[start:start + SLICE_REQUESTS]:
                    started = time.perf_counter()
                    result = evaluate(spec)
                    timings.append(time.perf_counter() - started)
                    answers.setdefault(spec.key(), []).append(result)
            samples[kind].append(timings)
    factors = iter(factor for _, _, factor in clock.units)
    for kind in ("miss", "hit"):
        samples[kind] = [raw * factor * 1e3 for timings, factor in
                         zip(samples[kind], factors) for raw in timings]
    checks = Checks()
    for spec in specs:
        expected = evaluate(spec, use_cache=False).to_json()
        for result in answers[spec.key()]:
            checks.expect(result.to_json() == expected,
                          f"library result differs for {spec.key()}")
    return {"miss_ms": samples["miss"], "hit_ms": samples["hit"],
            "probes": clock.loops(), "checks": checks.summary()}


def _layer_metrics(tracer, clock, records, results, columns,
                   simulations, memo_hits) -> dict:
    seconds = tracer.layer_seconds()
    metrics = {f"{name}_s": value for name, value in seconds.items()}
    # The unit spans' own (self) time is glue no deeper layer claims.
    metrics["api.self_s"] = metrics.pop("api.evaluate_many_s", 0.0)
    metrics["experiments.self_s"] = metrics.pop(
        "experiments.tabulate_s", 0.0)
    metrics.update(tracer.counts)
    tabulate_units = [u for u in clock.units if u[0] == "tabulate"]
    metrics["experiments.tabulate_s"] = tracer.inclusive_seconds(
        "experiments.tabulate")
    metrics["experiments.tabulate_sims_s"] = sum(
        raw * factor
        for record, (_, raw, factor) in zip(records, tabulate_units)
        if record.name in COMPUTING_EXPERIMENTS
    )
    metrics["api.evaluate_many_s"] = tracer.inclusive_seconds(
        "api.evaluate_many")
    metrics["api.simulations"] = simulations
    metrics["api.memo_hits"] = memo_hits
    metrics["replay.array_computes"] = columns["array_computes"]
    metrics["replay.archive_hits"] = columns["archive_array_hits"]
    for side, suffix in (("dcache", "d"), ("icache", "i")):
        memo = [r.counters for r in results.values()
                if r.spec.cache == side and r.spec.arch.startswith("way-memo")]
        lookups = sum(c.mab_lookups for c in memo)
        metrics[f"core.mab_hit_ratio_{suffix}"] = (
            sum(c.mab_hits for c in memo) / lookups if lookups else 0.0
        )
    metrics["trace.attributed_pct"] = (
        100.0 * tracer.covered_raw() / clock.raw()
    )
    return metrics


def _counter(snapshot: dict, name: str) -> float:
    return sum(
        entry["value"] for entry in snapshot["metrics"]
        if entry["name"] == name
    )

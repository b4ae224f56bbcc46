"""One fresh benchmark process: ``prepare``, a report repeat, or the
service workload.  ``run.py`` starts it; it prints a ready line when
its setup is done and one JSON document as its last line.

    python3 perfbench/child.py prepare
    python3 perfbench/child.py report-cold|report-warm --role setup|run \
        --seed N --trace 0|1 --scratch DIR
    python3 perfbench/child.py service-mixed --seed N --seconds S \
        --trace 0|1 --scratch DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
from pathlib import Path

from common import (
    READY_PREFIX,
    STATE,
    emit,
    probe,
    use_source_tree,
)


def reference_paths():
    """The reference store, render and expected batch results."""
    from repro.store import code_fingerprint

    stem = STATE / f"reference-{code_fingerprint()}"
    return (Path(f"{stem}.sqlite"), Path(f"{stem}.md"),
            Path(f"{stem}.expected.json"))


def prepare() -> dict:
    """Build what every workload reads, once per code fingerprint: the
    trace and column archives, a store holding every report point, the
    document ``repro report`` renders from it, and the in-process
    ``evaluate(spec, use_cache=False)`` result of every batch spec the
    service workload sends."""
    from repro.api import evaluate
    from repro.experiments.report import generate
    from repro.store import reset_default_stores

    from inputs import batch_groups

    store, markdown, expected = reference_paths()
    built = False
    if not all(path.is_file() for path in (store, markdown, expected)):
        for stale in STATE.glob("reference-*"):
            stale.unlink()
        scratch = STATE / "reference-build.sqlite"
        for path in STATE.glob("reference-build.sqlite*"):
            path.unlink()
        os.environ["REPRO_RESULT_STORE"] = str(scratch)
        reset_default_stores()
        document = generate(workers=1)
        # A standalone copy (no WAL side files) that setups copy as is.
        with sqlite3.connect(str(scratch)) as conn:
            conn.execute("VACUUM INTO ?", (str(store),))
        markdown.write_text(document)
        expected.write_text(json.dumps({
            spec.key(): evaluate(spec, use_cache=False).to_json()
            for group in batch_groups() for spec in group
        }))
        for path in STATE.glob("reference-build.sqlite*"):
            path.unlink()
        built = True
    return {"built": built}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--role", default="run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch", default=str(STATE / "scratch"))
    args = parser.parse_args()
    use_source_tree()
    import repro  # noqa: F401  (the import is part of setup)

    if args.workload == "prepare":
        emit("", prepare())
        return
    scratch = Path(args.scratch)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    store_path, markdown_path, expected_path = reference_paths()
    reference = markdown_path.read_text()

    if args.workload == "service-mixed":
        import service_load

        out = service_load.run(
            args.seed, args.seconds, scratch, reference,
            json.loads(expected_path.read_text()), bool(args.trace), run_id,
        )
    else:
        import report_load

        warm = args.workload == "report-warm"
        state = report_load.setup(
            warm, os.environ["REPRO_RESULT_STORE"], str(store_path))
        emit(READY_PREFIX, {"probe": probe()})
        out = {}
        if args.role == "run":
            out = report_load.run(
                state, warm, args.seed, reference, bool(args.trace), run_id)
        latency = report_load.latency_phase(args.seed)
        checks = out.get("checks", {"attempted": 0, "failed": 0,
                                    "messages": []})
        for key in ("attempted", "failed", "messages"):
            checks[key] += latency["checks"][key]
        out.update(checks=checks, miss_ms=latency["miss_ms"],
                   hit_ms=latency["hit_ms"],
                   probes=out.get("probes", []) + latency["probes"])
    spans = out.pop("spans", None)
    if spans is not None:
        path = STATE / "spans" / f"{run_id}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        out["spans_file"] = str(path)
    emit("", out)


if __name__ == "__main__":
    main()

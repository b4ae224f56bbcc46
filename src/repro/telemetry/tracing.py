"""Structured span tracing.

A *span* is a named, timed unit of work — ``report``, ``evaluate_many``,
``simulate`` — forming a tree via parent ids.  Spans use the monotonic
clock for durations (wall-clock timestamps are attached only for human
display) and may carry attributes and point-in-time *events*.

Two sinks, both optional:

* ``$REPRO_TRACE_FILE`` — completed spans append as JSONL, one object
  per line, safe to tail while a run is in flight;
* :func:`capture_spans` — an in-process collector for tests and for
  the ``--telemetry`` determinism leg.

With ``REPRO_TELEMETRY=0`` (see :mod:`repro.telemetry.metrics`) or no
sink active, :func:`span` yields an inert null span — no clock reads,
no allocation beyond the context manager itself — so tracing costs
nothing unless someone is listening.

``repro trace summary FILE`` renders :func:`render_trace_summary`: a
per-phase breakdown of where the time went, with self-time (time in a
span minus time in its children) so parents don't double-bill.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.telemetry.metrics import telemetry_enabled

#: Environment variable naming the JSONL span sink.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

_STATE = threading.local()
_FILE_LOCK = threading.Lock()
_CAPTURES: List[List[Dict[str, Any]]] = []
_CAPTURES_LOCK = threading.Lock()
_NEXT_ID_LOCK = threading.Lock()
_NEXT_ID = 0


def _new_span_id() -> int:
    global _NEXT_ID
    with _NEXT_ID_LOCK:
        _NEXT_ID += 1
        return _NEXT_ID


def tracing_active() -> bool:
    """Whether any sink would receive a span right now."""
    if not telemetry_enabled():
        return False
    if os.environ.get(TRACE_FILE_ENV):
        return True
    with _CAPTURES_LOCK:
        return bool(_CAPTURES)


class Span:
    """One live span; completed form is a plain dict (see ``finish``)."""

    __slots__ = (
        "name", "span_id", "parent_id", "attributes", "events",
        "_start_monotonic", "_start_wall",
    )

    def __init__(self, name: str, parent_id: Optional[int], attributes):
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attributes = dict(attributes or {})
        self.events: List[Dict[str, Any]] = []
        self._start_monotonic = time.monotonic()
        self._start_wall = time.time()

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[str(key)] = value

    def add_event(self, name: str, **attributes: Any) -> None:
        event: Dict[str, Any] = {
            "name": name,
            "offset_s": round(time.monotonic() - self._start_monotonic, 9),
        }
        if attributes:
            event["attributes"] = attributes
        self.events.append(event)

    def finish(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": round(self._start_wall, 6),
            "duration_s": round(
                time.monotonic() - self._start_monotonic, 9
            ),
            "pid": os.getpid(),
        }
        if self.attributes:
            record["attributes"] = self.attributes
        if self.events:
            record["events"] = self.events
        return record


class _NullSpan:
    """Inert span handed out when no sink is active."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


def _emit(record: Dict[str, Any]) -> None:
    with _CAPTURES_LOCK:
        sinks = list(_CAPTURES)
    for sink in sinks:
        sink.append(record)
    path = os.environ.get(TRACE_FILE_ENV)
    if path:
        line = json.dumps(record, sort_keys=True)
        try:
            with _FILE_LOCK:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
        except OSError:
            pass   # tracing must never take the run down


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Any]:
    """Open a nested span; yields a :class:`Span` (or a null span).

    Exceptions propagate; the span records ``error=<type name>`` and
    still completes, so a trace of a failed run shows where it died.
    """
    if not tracing_active():
        yield _NULL_SPAN
        return
    parent = getattr(_STATE, "current", None)
    live = Span(name, parent.span_id if parent else None, attributes)
    _STATE.current = live
    try:
        yield live
    except BaseException as exc:
        live.set_attribute("error", type(exc).__name__)
        raise
    finally:
        _STATE.current = parent
        _emit(live.finish())


def current_span() -> Any:
    """The innermost live span on this thread (a null span if none)."""
    return getattr(_STATE, "current", None) or _NULL_SPAN


@contextmanager
def capture_spans() -> Iterator[List[Dict[str, Any]]]:
    """Collect completed spans in-process (tests, determinism leg)."""
    collected: List[Dict[str, Any]] = []
    with _CAPTURES_LOCK:
        _CAPTURES.append(collected)
    try:
        yield collected
    finally:
        with _CAPTURES_LOCK:
            _CAPTURES.remove(collected)


def load_trace_file(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file, skipping torn/blank lines."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "name" in record:
                records.append(record)
    return records


def summarize_spans(
    records: List[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Aggregate spans per name: count, total, self-time, min/max.

    Self-time subtracts each span's direct children, so a phase table
    adds up to roughly the root duration instead of multi-counting
    nested work.  Sorted by total time, descending.
    """
    child_time: Dict[Any, float] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            child_time[parent] = (
                child_time.get(parent, 0.0)
                + float(record.get("duration_s", 0.0))
            )
    stats: Dict[str, Dict[str, Any]] = {}
    for record in records:
        name = str(record.get("name"))
        duration = float(record.get("duration_s", 0.0))
        own = max(
            0.0, duration - child_time.get(record.get("span_id"), 0.0)
        )
        entry = stats.setdefault(
            name,
            {
                "name": name, "count": 0, "total_s": 0.0,
                "self_s": 0.0, "min_s": duration, "max_s": duration,
            },
        )
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += own
        entry["min_s"] = min(entry["min_s"], duration)
        entry["max_s"] = max(entry["max_s"], duration)
    return sorted(
        stats.values(), key=lambda e: (-e["total_s"], e["name"])
    )


def render_trace_summary(records: List[Mapping[str, Any]]) -> str:
    """The ``repro trace summary`` table (plain text)."""
    if not records:
        return "trace is empty\n"
    rows = summarize_spans(records)
    total_self = sum(entry["self_s"] for entry in rows) or 1.0
    header = (
        f"{'span':<28} {'count':>6} {'total_s':>10} "
        f"{'self_s':>10} {'self%':>6} {'mean_s':>10} {'max_s':>10}"
    )
    lines = [header, "-" * len(header)]
    for entry in rows:
        mean = entry["total_s"] / entry["count"]
        lines.append(
            f"{entry['name']:<28} {entry['count']:>6} "
            f"{entry['total_s']:>10.4f} {entry['self_s']:>10.4f} "
            f"{100.0 * entry['self_s'] / total_self:>5.1f}% "
            f"{mean:>10.4f} {entry['max_s']:>10.4f}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{len(records)} spans, "
        f"{sum(1 for r in records if r.get('parent_id') is None)} roots, "
        f"{total_self:.4f}s attributed"
    )
    return "\n".join(lines) + "\n"

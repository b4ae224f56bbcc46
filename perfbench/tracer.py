"""Span recording for the traced run, from the benchmark's own files.

The traced run wraps public entry points of each layer (controller
``process*`` / ``replay_counters`` methods, the batch cache sweep, the
replay engine, column derivation, workload loading, the result store
and the power model) so that every call records a span: name, start,
end, parent, run id, and the timed unit it ran in.  Spans stay in
memory and are written out as JSON lines when the run ends.  A layer's
self time is its spans' durations minus the time of their child
spans.  Only spans inside the timed phase count towards the metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Controller class name -> layer, for the ``process*`` wrappers.
CONTROLLER_LAYERS = {
    "WayMemoDCache": "core.dcache",
    "WayMemoICache": "core.icache",
    "LineBufferWayMemoDCache": "core.line_buffer",
    "OriginalDCache": "baselines.original",
    "OriginalICache": "baselines.original",
    "SetBufferDCache": "baselines.set_buffer",
    "FilterCacheDCache": "baselines.filter_cache",
    "FilterCacheICache": "baselines.filter_cache",
    "WayPredictionDCache": "baselines.way_prediction",
    "WayPredictionICache": "baselines.way_prediction",
    "TwoPhaseDCache": "baselines.two_phase",
    "TwoPhaseICache": "baselines.two_phase",
    "PanwarICache": "baselines.panwar",
    "MaLinksICache": "baselines.ma_links",
}

CONTROLLER_METHODS = ("process", "process_columns", "replay_counters")

#: Public column-derivation methods (``replay.columns``).
COLUMN_METHODS = (
    "tags_array", "sets_array", "keys_array", "cache_streams",
    "cache_arrays", "mab_keys", "writes", "addrs", "store_addrs",
    "apply_load_store", "lines_array", "kinds", "lines", "intra_mask",
)


class Tracer:
    """In-memory span recorder tied to a :class:`common.UnitClock`."""

    def __init__(self, run_id: str, clock) -> None:
        self.run_id = run_id
        self.clock = clock
        self.recording = False
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.recording:
            yield
            return
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "unit": self.clock.index,
            "start": time.perf_counter(),
            "end": None,
            "probe_s": -self.clock.stolen,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            record["probe_s"] += self.clock.stolen

    def count(self, name: str, amount: float = 1) -> None:
        if self.recording:
            self.counts[name] += amount

    def wrap(self, name_of: Callable, fn: Callable,
             counter: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name_of(args)``; ``counter``
        maps ``(args, result)`` to ``{count_name: amount}``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            with tracer.span(name_of(args)):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    tracer.count(key, amount)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- analysis --------------------------------------------------------

    @staticmethod
    def duration(span: dict) -> float:
        """Seconds inside the span, less probe loops run within it."""
        return span["end"] - span["start"] - span["probe_s"]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its children."""
        own = {s["id"]: self.duration(s) for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= self.duration(s)
        return own

    def layer_seconds(self) -> Dict[str, float]:
        """Normalized self time per span name over the timed units."""
        factors = [factor for _, _, factor in self.clock.units]
        out: Dict[str, float] = defaultdict(float)
        for span_id, seconds in self.self_times().items():
            span = self.spans[span_id]
            if span["unit"] < len(factors):
                out[span["name"]] += seconds * factors[span["unit"]]
        return out

    def inclusive_seconds(self, name: str) -> float:
        """Normalized duration of the spans named ``name`` (never nested
        in one another: only the benchmark's unit spans are asked)."""
        factors = [factor for _, _, factor in self.clock.units]
        return sum(
            self.duration(s) * factors[s["unit"]] for s in self.spans
            if s["name"] == name and s["unit"] < len(factors)
        )

    def covered_raw(self) -> float:
        """Raw seconds of the timed units covered by top-level spans."""
        return sum(
            self.duration(s) for s in self.spans
            if s["parent"] is None and s["unit"] < len(self.clock.units)
        )


def _patch_function(original: Callable, wrapper: Callable) -> None:
    """Replace ``original`` in every loaded repro module that holds it."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (traced runs only)."""
    import repro.api.registry as registry
    from repro.cache.cache import SetAssociativeCache
    from repro.energy.power import CachePowerModel
    from repro.replay import columns as columns_module
    from repro.replay import engine as engine_module
    from repro.store.store import ResultStore
    from repro.workloads import load_workload

    # The registry imports every controller class; wrap each method
    # where it is defined (bases included) exactly once.
    classes = {
        klass
        for name in CONTROLLER_LAYERS
        for klass in getattr(registry, name).__mro__[:-1]
    }

    def controller_layer(args) -> str:
        return CONTROLLER_LAYERS.get(
            type(args[0]).__name__, "controllers.other"
        )

    for cls in classes:
        for method in CONTROLLER_METHODS:
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(
                    controller_layer, vars(cls)[method]
                ))

    setattr(
        SetAssociativeCache, "access_fast_batch",
        tracer.wrap(
            lambda args: "cache.sweep",
            SetAssociativeCache.access_fast_batch,
            lambda args, result: {"cache.sweep_accesses": len(args[1])},
        ),
    )
    replay_specs = engine_module.replay_specs
    _patch_function(replay_specs, tracer.wrap(
        lambda args: "replay.group", replay_specs,
        lambda args, result: {"replay.groups": 1},
    ))
    columns_for_stream = columns_module.columns_for_stream
    _patch_function(columns_for_stream, tracer.wrap(
        lambda args: "replay.columns", columns_for_stream,
    ))
    for cls in (columns_module._ColumnsBase, columns_module.DataColumns,
                columns_module.FetchColumns):
        for method in COLUMN_METHODS:
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(
                    lambda args: "replay.columns", vars(cls)[method]
                ))
    _patch_function(load_workload, tracer.wrap(
        lambda args: "workloads.load", load_workload,
    ))
    # ``get``/``put`` delegate to the bulk calls, so wrap those only.
    setattr(ResultStore, "get_many", tracer.wrap(
        lambda args: "store.get", ResultStore.get_many,
        lambda args, result: {"store.hits": len(result)},
    ))
    setattr(ResultStore, "put_many", tracer.wrap(
        lambda args: "store.put", ResultStore.put_many,
        lambda args, result: {"store.puts": int(result or 0)},
    ))
    setattr(CachePowerModel, "power", tracer.wrap(
        lambda args: "energy.price", CachePowerModel.power,
    ))

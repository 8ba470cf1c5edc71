"""Per-layer tracing for the traced pass, from the benchmark's own files.

The tracer wraps the public entry points of each layer *on the live
instances* of one stack (instance attributes shadow the class methods), so
nothing under ``src/`` changes and an untraced stack runs the plain code.
Every wrapped call is a span; spans nest per thread, and a span's self time is
its duration minus the durations of the spans it directly contains.

Hygiene rules the traced pass follows:

* wrappers go on after every ``deepcopy`` (a deep copy of a wrapped instance
  would copy closures that call the original's bound methods);
* a shadow publish swaps ``neighborhood.index`` for the clone, so the index's
  identity is checked at every window and a new index is wrapped — clones are
  also wrapped the moment :meth:`clone` returns them, which is how the
  background retrain on the shadow is seen at all;
* wrappers are removed before verification.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: the outer calls: everything the front-end's windows run on the event loop
OUTER = ("realtime.recommend_batch", "realtime.observe_batch")


class Tracer:
    """Span recorder: busy and self time per span name, call and item counts."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self.queue_wait_ms: List[float] = []
        #: self time of spans running under an outer call (the accounting check)
        self.attributed_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str]] = []
        self._index: Any = None
        self._stack: Any = None

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _frames(self) -> List[List[Any]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _under(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._frames())

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: "str | Callable[[], str]",
        on_enter: Optional[Callable[..., None]] = None,
        on_exit: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper (once per instance)."""

        if attr in vars(obj):
            return
        original = getattr(obj, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frames = tracer._frames()
            span = name() if callable(name) else name
            nested = span in OUTER or any(frame[1] in OUTER for frame in frames)
            frame: List[Any] = [0.0, span]
            if on_enter is not None:
                on_enter(span, *args, **kwargs)
            frames.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                frames.pop()
                own = elapsed - frame[0]
                with tracer._lock:
                    tracer.busy[span] += elapsed
                    tracer.self_s[span] += own
                    tracer.calls[span] += 1
                    if nested:
                        tracer.attributed_s += own
                if frames:
                    frames[-1][0] += elapsed
            if on_exit is not None:
                on_exit(result)
            return result

        setattr(obj, attr, wrapper)
        self._installed.append((obj, attr))

    def remove(self) -> None:
        """Take every wrapper off again; the instances run their class methods."""

        for obj, attr in reversed(self._installed):
            vars(obj).pop(attr, None)
        self._installed = []

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.items[name] += amount

    # ------------------------------------------------------------------ #
    # installation on one stack
    # ------------------------------------------------------------------ #
    def install(self, stack: Any) -> None:
        """Wrap every layer of ``stack`` (call after any deepcopy of it)."""

        self._stack = stack
        server, sccf = stack.server, stack.sccf
        self.wrap(server, "recommend_batch", OUTER[0], on_enter=self._enter_recommend)
        self.wrap(server, "observe_batch", OUTER[1], on_enter=self._enter_observe)
        self.wrap(server, "poll_shadow_maintenance", "realtime.publish")
        self.wrap(server, "save_snapshot", "snapshot.save")
        if server.wal is not None:
            self.wrap(server.wal, "append", "wal.append")
        self.wrap(sccf, "score_items_batch", "sccf.score_items_batch", on_enter=self._rows)
        self.wrap(sccf.ui_model, "infer_user_embeddings_batch", "models.infer", on_enter=self._rows)
        neighborhood = sccf.neighborhood
        self.wrap(neighborhood, "score_for_users", "neighborhood.score_for_users")
        self.wrap(neighborhood, "update_users", "neighborhood.update_users")
        self.wrap(neighborhood, "add_users", "neighborhood.add_users")
        self.wrap(sccf.merger, "build_features", "merger.build_features")
        self.wrap(sccf.merger, "predict", "merger.predict")
        self._check_index()

    def _check_index(self) -> None:
        index = self._stack.sccf.neighborhood.index
        if index is not self._index:
            self._wrap_index(index)
            self._index = index

    def _wrap_index(self, index: Any) -> None:
        def search_name() -> str:
            caller = "identify" if self._under(OUTER[1]) else "recommend"
            return f"ann.search_batch.{caller}"

        self.wrap(index, "search_batch", search_name, on_enter=self._queries)
        self.wrap(index, "update_batch", "ann.update_batch")
        self.wrap(index, "add", "ann.add")
        self.wrap(index, "retrain", "ann.retrain")
        self.wrap(index, "clone", "ann.clone", on_exit=self._wrap_index)

    def _enter_recommend(self, span: str, requests: Any, *args: Any, **kwargs: Any) -> None:
        self._check_index()
        now = time.perf_counter()
        self.queue_wait_ms.extend(
            (now - request.start) * 1000.0 for request in requests if request.start is not None
        )

    def _enter_observe(
        self, span: str, events: Any, request_starts: Any = None, *args: Any, **kwargs: Any
    ) -> None:
        self._check_index()
        if request_starts is not None:
            now = time.perf_counter()
            self.queue_wait_ms.extend((now - start) * 1000.0 for start in request_starts)

    def _rows(self, span: str, rows: Any, *args: Any, **kwargs: Any) -> None:
        self.count(span, len(rows))

    def _queries(self, span: str, queries: Any, *args: Any, **kwargs: Any) -> None:
        queries = np.asarray(queries)
        self.count(span, 1 if queries.ndim == 1 else len(queries))


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    send_lag_ms: List[float],
    overhead_share: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by its name in BENCHMARK.json.

    ``counters`` holds the deltas of the layers' own public counters over the
    pass (cache, WAL, front-end, scheduler, recovery).
    """

    busy, own, items = tracer.busy, tracer.self_s, tracer.items
    recommend_windows = counters["frontend.recommend_windows"]
    # The accounting check: the self times of every span under the outer
    # calls, the outer calls' own included, must add up to the outer calls'
    # busy time.  The remainder is time no span claims; it stays at rounding
    # level while every span nests on the serving thread, and grows if a span
    # leaks across threads or is counted twice.
    outer_s = sum(busy[name] for name in OUTER)
    unattributed_s = outer_s - tracer.attributed_s
    metrics = {
        "frontend.queue_wait_p50_ms": percentile(tracer.queue_wait_ms, 50),
        "frontend.queue_wait_p99_ms": percentile(tracer.queue_wait_ms, 99),
        "frontend.recommend_window_mean": counters["frontend.recommend_window_mean"],
        "frontend.observe_window_mean": counters["frontend.observe_window_mean"],
        "frontend.rejected": counters["frontend.rejected"],
        "frontend.send_lag_p99_ms": percentile(send_lag_ms, 99),
        "realtime.recommend_batch.self_s": own[OUTER[0]],
        "realtime.observe_batch.self_s": own[OUTER[1]],
        "realtime.publish.busy_s": busy["realtime.publish"],
        "realtime.maintenance_passes": counters["realtime.maintenance_passes"],
    }
    for layer in ("embeddings", "neighbors", "scores", "recommendations"):
        metrics[f"cache.{layer}.hit_ratio"] = counters[f"cache.{layer}.hit_ratio"]
        metrics[f"cache.{layer}.lookups"] = counters[f"cache.{layer}.lookups"]
    metrics.update(
        {
            "cache.invalidations": counters["cache.invalidations"],
            "cache.evictions": counters["cache.evictions"],
            "sccf.score_items_batch.busy_s": busy["sccf.score_items_batch"],
            "sccf.score_items_batch.self_s": own["sccf.score_items_batch"],
            "sccf.rows_scored": items["sccf.score_items_batch"],
            "models.infer.busy_s": busy["models.infer"],
            "models.infer.rows": items["models.infer"],
            "neighborhood.score_for_users.self_s": own["neighborhood.score_for_users"],
            "neighborhood.update_users.busy_s": busy["neighborhood.update_users"],
            "neighborhood.add_users.busy_s": busy["neighborhood.add_users"],
            "ann.search_batch.recommend.busy_s": busy["ann.search_batch.recommend"],
            "ann.search_batch.recommend.queries": items["ann.search_batch.recommend"],
            "ann.search_batch.identify.busy_s": busy["ann.search_batch.identify"],
            "ann.search_batch.identify.queries": items["ann.search_batch.identify"],
            "ann.update_batch.busy_s": busy["ann.update_batch"],
            "ann.clone.busy_s": busy["ann.clone"],
            "ann.retrain.busy_s": busy["ann.retrain"],
            "merger.build_features.busy_s": busy["merger.build_features"],
            "merger.predict.busy_s": busy["merger.predict"],
            "merger.calls_per_window": (
                tracer.calls["merger.predict"] / recommend_windows if recommend_windows else 0.0
            ),
            "wal.append.busy_s": busy["wal.append"],
            "wal.records": counters["wal.records"],
            "wal.fsyncs": counters["wal.fsyncs"],
            "wal.bytes_written": counters["wal.bytes_written"],
            "snapshot.save.busy_s": busy["snapshot.save"],
            "snapshot.load.busy_s": counters["snapshot.load.busy_s"],
            "wal.replayed_records": counters["wal.replayed_records"],
            "accounting.outer_busy_s": outer_s,
            "accounting.unattributed_s": unattributed_s,
            "accounting.unattributed_share": unattributed_s / outer_s if outer_s else 0.0,
            "trace.overhead_share": overhead_share,
        }
    )
    return metrics


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Self time per layer (span-name prefix) under the outer calls, for the report."""

    totals: Dict[str, float] = defaultdict(float)
    for span, seconds in tracer.self_s.items():
        if span == "ann.retrain":
            continue  # runs on the background thread, off the blocking path
        layer = "realtime" if span.startswith("realtime.") else span.split(".")[0]
        totals[layer] += seconds
    return dict(totals)

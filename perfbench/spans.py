"""Outside-in tracing for the paper-sweep benchmark.

Spans are recorded by this file's code around calls into each layer's public
functions; nothing under ``src/`` is instrumented.  :func:`instrument`
patches, for the duration of a traced sweep only:

* the engine's view of ``make_mechanism``, ``split_train_publish`` and its
  group evaluator ``_evaluate_group`` (the function every scheduler backend
  executes, so a group span exists in worker processes too);
* ``MECHANISMS``/``ATTACKS``/``METRICS.create_parsed``, so every mechanism
  stage's ``publish``, every attack's ``run`` and every metric call is wrapped;
* the promesse stages ``SpeedSmoother.smooth_dataset``,
  ``MixZoneDetector.detect`` and ``MixZoneSwapper.apply``.

The scheduler backend and the cell cache are the engine's extension points:
:class:`BenchBackend` and :class:`BenchCache` wrap what ``make_backend`` and
``make_cache_store`` return, so backend and cache spans need no patching.
:class:`BenchBackend` also keeps one failing group from aborting a sweep.

Spans live in memory (:attr:`Tracer.spans`).  A forked pool worker appends its
spans to a spool file at the end of each group, and the parent reads them back
when the backend's ``map_groups`` returns.  ``time.perf_counter`` is the
system-wide monotonic clock on Linux, so worker and parent spans share one
time base.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

from repro.api import registry as registry_mod
from repro.core.speed_smoothing import SpeedSmoother
from repro.experiments import engine as engine_mod
from repro.experiments.backends import SchedulerBackend
from repro.experiments.cache import CellCacheStore
from repro.mixzones.detection import MixZoneDetector
from repro.mixzones.swapping import MixZoneSwapper

_DISABLED: Dict[str, Any] = {}


class Tracer:
    """Collects spans: name, start, end, parent id and the id of the trace.

    A disabled tracer's :meth:`span` records nothing, so the benchmark's
    wrappers cost one attribute test per call on untraced runs.
    """

    def __init__(self, enabled: bool = False, spool_dir: Optional[Path] = None) -> None:
        self.enabled = enabled
        self.spool_dir = spool_dir
        self.spans: List[Dict[str, Any]] = []
        self.trace_id = ""
        self._stack: List[str] = []
        self._ids = itertools.count(1)
        self._owner_pid = os.getpid()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; the yielded dict takes counts measured inside it."""
        if not self.enabled:
            yield _DISABLED
            return
        pid = os.getpid()
        record: Dict[str, Any] = {
            "trace": self.trace_id,
            "id": f"{pid}:{next(self._ids)}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "pid": pid,
        }
        record.update(attrs)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def flush_worker(self) -> None:
        """In a forked worker, hand the spans it recorded to the parent.

        The fork also copied the parent's finished spans; those stay behind.
        """
        pid = os.getpid()
        if pid == self._owner_pid or self.spool_dir is None:
            return
        path = self.spool_dir / f"spans-{pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans:
                if record["pid"] == pid:
                    handle.write(json.dumps(record) + "\n")
        self.spans.clear()

    def collect_workers(self) -> None:
        """In the parent, adopt the spans that worker processes spooled."""
        if not self.enabled or self.spool_dir is None:
            return
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(json.loads(line) for line in handle if line.strip())
            path.unlink()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Extension-point wrappers (used on every run, traced or not)
# ---------------------------------------------------------------------------


class BenchBackend(SchedulerBackend):
    """Wraps a scheduler backend: spans, transport sizes, failure isolation.

    When the wrapped ``map_groups`` raises, every group is retried alone so
    that one failing group costs only its own cells; the cell indices of the
    groups that still raise are kept in :attr:`failed_cells`.
    """

    def __init__(self, inner: SchedulerBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.workers = int(getattr(inner, "workers", 1))
        self.failed_cells: Dict[int, str] = {}
        self.requeues = 0
        self.failures = 0
        self._shipped: List[Tuple[Sequence[Tuple], List[Any]]] = []

    def map_groups(
        self,
        payloads: Sequence[Tuple],
        cell_keys: Any = None,
        cache: Optional[CellCacheStore] = None,
    ) -> List[Any]:
        with self.tracer.span("backend.map", groups=len(payloads)):
            try:
                results = self.inner.map_groups(payloads, cell_keys=cell_keys, cache=cache)
            except Exception:
                results = self._isolate(payloads, cell_keys, cache)
        self.tracer.collect_workers()
        self.requeues += int(getattr(self.inner, "last_stats", {}).get("requeues", 0))
        if self.tracer.enabled and self.workers > 1 and len(payloads) > 1:
            self._shipped.append((payloads, results))
        return results

    def transport_bytes(self) -> Tuple[int, int]:
        """Pickled (payload, result) bytes that crossed to worker processes.

        Measured after the sweep, from the references kept while tracing, so
        the pickling cost stays out of the traced sweep.
        """
        sent = sum(len(pickle.dumps(p)) for payloads, _ in self._shipped for p in payloads)
        got = sum(len(pickle.dumps(r)) for _, results in self._shipped for r in results)
        return sent, got

    def _isolate(
        self, payloads: Sequence[Tuple], cell_keys: Any, cache: Optional[CellCacheStore]
    ) -> List[Any]:
        results: List[Any] = []
        for position, payload in enumerate(payloads):
            keys = [cell_keys[position]] if cell_keys is not None else None
            try:
                results.extend(self.inner.map_groups([payload], cell_keys=keys, cache=cache))
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                self.failures += 1
                for cell in payload[6]:
                    self.failed_cells[cell[0]] = f"group raised {type(exc).__name__}: {exc}"
                results.append([])
        return results


class BenchCache(CellCacheStore):
    """Wraps a cell-cache store: get/put spans and hit counts."""

    def __init__(self, inner: CellCacheStore, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.enabled = inner.enabled
        self.gets = 0
        self.hits = 0
        self.puts = 0

    def get(self, key: Tuple) -> Optional[Dict[str, Any]]:
        with self.tracer.span("cache.get"):
            row = self.inner.get(key)
        self.gets += 1
        self.hits += row is not None
        return row

    def put(self, key: Tuple, row: Dict[str, Any]) -> None:
        with self.tracer.span("cache.put"):
            self.inner.put(key, row)
        self.puts += 1

    def clear(self) -> None:
        self.inner.clear()

    def __len__(self) -> int:
        return len(self.inner)

    def file_bytes(self) -> int:
        path = getattr(self.inner, "path", None)
        return os.path.getsize(path) if path and os.path.exists(path) else 0

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


# ---------------------------------------------------------------------------
# Span names for the components the workloads run
# ---------------------------------------------------------------------------


def mechanism_span(name: str) -> str:
    return "publish." + name.lower().replace("-", "_")


def attack_span(name: str, evaluator: Any) -> str:
    key = name.lower()
    stream = getattr(evaluator, "execution", "batch") == "stream"
    if key == "poi-retrieval":
        algorithm = str(getattr(evaluator, "algorithm", "staypoint"))
        return f"stream.{algorithm}" if stream else f"attack.poi_{algorithm}"
    return ("stream." if stream else "attack.") + key.replace("-", "_")


def metric_span(name: str, params: Dict[str, Any]) -> str:
    key = name.lower().replace("-", "_")
    if key == "spatial_distortion" and params.get("match_by_user"):
        key += "_by_user"
    return "metric." + key


# ---------------------------------------------------------------------------
# Patches applied for the traced sweep
# ---------------------------------------------------------------------------


def _set_method(obj: Any, name: str, function: Any) -> None:
    # Mechanisms may be frozen dataclasses; the override is per instance.
    object.__setattr__(obj, name, function)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's public calls in spans until the block exits."""
    span = tracer.span
    original_group = engine_mod._evaluate_group
    original_split = engine_mod.split_train_publish
    original_make_mechanism = engine_mod.make_mechanism
    mechanisms, attacks, metrics = (
        registry_mod.MECHANISMS,
        registry_mod.ATTACKS,
        registry_mod.METRICS,
    )
    create_mechanism = mechanisms.create_parsed
    create_attack = attacks.create_parsed
    create_metric = metrics.create_parsed
    smooth_dataset = SpeedSmoother.smooth_dataset
    detect = MixZoneDetector.detect
    apply_swaps = MixZoneSwapper.apply

    def traced_group(payload: Tuple) -> Any:
        with span("engine.group", cells=len(payload[6])):
            out = original_group(payload)
        tracer.flush_worker()
        return out

    def traced_split(world: Any, train_fraction: float = 0.5) -> Any:
        with span("workloads.split"):
            return original_split(world, train_fraction)

    def traced_make_mechanism(spec: str, **kwargs: Any) -> Any:
        adapter = original_make_mechanism(spec, **kwargs)
        publish = adapter.publish

        def traced_publish(dataset: Any) -> Any:
            with span("publish", points_in=dataset.n_points) as record:
                result = publish(dataset)
                record["points_out"] = result.dataset.n_points
            return result

        _set_method(adapter, "publish", traced_publish)
        return adapter

    def traced_create_mechanism(name: str, params: Dict[str, Any], **kwargs: Any) -> Any:
        mechanism = create_mechanism(name, params, **kwargs)
        publish = mechanism.publish
        span_name = mechanism_span(name)

        def traced_publish(dataset: Any) -> Any:
            with span(span_name):
                return publish(dataset)

        _set_method(mechanism, "publish", traced_publish)
        return mechanism

    def traced_create_attack(name: str, params: Dict[str, Any], **kwargs: Any) -> Any:
        evaluator = create_attack(name, params, **kwargs)
        run = evaluator.run
        span_name = attack_span(name, evaluator)

        def traced_run(result: Any, context: Any = None) -> Any:
            with span(span_name) as record:
                columns = run(result, context)
                if span_name.startswith("stream."):
                    record["points"] = result.dataset.n_points
                if "n_extracted" in columns:
                    record["extracted"] = int(columns["n_extracted"])
            return columns

        _set_method(evaluator, "run", traced_run)
        return evaluator

    def traced_create_metric(name: str, params: Dict[str, Any], **kwargs: Any) -> Any:
        span_name = metric_span(name, params)
        metric = create_metric(name, params, **kwargs)

        def traced_metric(original: Any, result: Any) -> Any:
            with span(span_name) as record:
                columns = metric(original, result)
                if span_name.startswith("metric.spatial_distortion"):
                    record["fixes"] = getattr(result, "dataset", result).n_points
            return columns

        return traced_metric

    def traced_smooth(self: Any, dataset: Any, *args: Any, **kwargs: Any) -> Any:
        with span("core.speed_smoothing"):
            return smooth_dataset(self, dataset, *args, **kwargs)

    def traced_detect(self: Any, dataset: Any) -> Any:
        with span("mixzones.detect") as record:
            zones = detect(self, dataset)
            record["zones"] = len(zones)
        return zones

    def traced_apply(self: Any, dataset: Any, zones: Any) -> Any:
        with span("mixzones.swap") as record:
            outcome = apply_swaps(self, dataset, zones)
            record["swaps"] = outcome.n_swaps
        return outcome

    with ExitStack() as stack:
        for owner, attr, new in (
            (engine_mod, "_evaluate_group", traced_group),
            (engine_mod, "split_train_publish", traced_split),
            (engine_mod, "make_mechanism", traced_make_mechanism),
            (mechanisms, "create_parsed", traced_create_mechanism),
            (attacks, "create_parsed", traced_create_attack),
            (metrics, "create_parsed", traced_create_metric),
            (SpeedSmoother, "smooth_dataset", traced_smooth),
            (MixZoneDetector, "detect", traced_detect),
            (MixZoneSwapper, "apply", traced_apply),
        ):
            stack.enter_context(mock.patch.object(owner, attr, new))
        yield

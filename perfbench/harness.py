"""The paper-sweep benchmark: run a workload, check its rows, report metrics.

One *sweep* is a cold-cache pass over a workload's specs through
``EvaluationEngine.run``, timed after its worlds are built.  An untraced run
repeats set-up plus sweep until ``seconds`` are spent and reports medians of
the end-to-end metrics.  A traced run makes one untraced and one traced sweep
and reports the per-layer metrics (see ``README.md`` in this directory).

Every row passes through the correctness checks, and every failing cell
counts in ``cell_error_rate``: rows identical across all sweeps of the run,
rows equal to the digests pinned for the default seed, the stream/batch
contract, the paper's directions, the warm cache leg and, in traced runs,
the promesse stage composition.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import make_mechanism, parse_spec
from repro.core.speed_smoothing import SpeedSmoother
from repro.experiments import (
    EvaluationEngine,
    ExperimentSpec,
    make_backend,
    make_cache_store,
    make_world,
    split_train_publish,
)
from repro.mixzones.detection import MixZoneDetector
from repro.mixzones.swapping import MixZoneSwapper

from spans import BenchBackend, BenchCache, Tracer, instrument
from workloads import DEFAULT_SEED, Workload, build, warmup

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

#: A run makes at least this many sweeps, and more while they fit in its
#: ``seconds``: consecutive sweeps share the machine's slow drift, so their
#: median is steadier than one sweep.
MIN_SWEEPS = 2

#: Set-up is cheap next to a sweep, so a run repeats it before every sweep:
#: at least ``SETUP_REPS`` times, and until the repeats add up to
#: ``SETUP_BUDGET_S``.  Spread over the run like the sweeps, the repeats
#: sample the machine's drift as the sweeps do; repeats made back to back at
#: one moment spread much wider from run to run.
SETUP_REPS = 6
SETUP_BUDGET_S = 1.2
MAX_SETUP_REPS = 40

#: Significant digits of floats in the pinned digests.  Exact bits are
#: compared within a run; across machines a last-bit libm difference must
#: not read as a wrong row.
PINNED_DIGITS = 9

END_TO_END: Dict[str, str] = {
    "sweep_s": "s",
    "points_per_s": "points/s",
    "setup_s": "s",
}

LAYERS = (
    "engine", "backend", "cache", "workloads", "publish", "core",
    "mixzones", "attacks", "streaming", "metrics", "bench",
)
PUBLISHERS = ("identity", "smoothing", "promesse", "geo_ind", "wait4me", "downsampling",
              "pseudonyms")
BATCH_ATTACKS = ("poi_staypoint", "poi_djcluster", "reident", "tracking", "zone_census")
STREAM_ATTACKS = ("reident", "djcluster", "zone_census")
METRICS = ("spatial_distortion", "spatial_distortion_by_user", "area_coverage", "range_query",
           "trip_length_error", "point_retention", "swap_stats", "mixing_entropy")

PER_LAYER: Dict[str, str] = {
    "datagen.world_s": "s",
    "engine.fingerprint_s": "s",
    "engine.cells": "count",
    "engine.groups": "count",
    "engine.group_p50_s": "s",
    "engine.group_max_s": "s",
    "engine.overhead_s": "s",
    "workloads.split_s": "s",
    **{f"publish.{name}_s": "s" for name in PUBLISHERS},
    "publish.points_in": "count",
    "publish.points_out": "count",
    "publish.retention": "ratio",
    "core.speed_smoothing_s": "s",
    "mixzones.detect_s": "s",
    "mixzones.swap_s": "s",
    "mixzones.zones": "count",
    "mixzones.swaps": "count",
    **{f"attack.{name}_s": "s" for name in BATCH_ATTACKS},
    "attack.poi_extracted": "count",
    **{f"stream.{name}_s": "s" for name in STREAM_ATTACKS},
    "stream.points": "count",
    "stream.points_per_s": "points/s",
    "stream.fallback_cells": "count",
    **{f"metric.{name}_s": "s" for name in METRICS},
    "metric.distortion_fixes": "count",
    "backend.map_s": "s",
    "backend.busy_s": "s",
    "backend.efficiency": "ratio",
    "backend.payload_bytes": "bytes",
    "backend.result_bytes": "bytes",
    "backend.requeues": "count",
    "backend.failures": "count",
    "cache.gets": "count",
    "cache.puts": "count",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.file_bytes": "bytes",
    "cache.warm_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.sweep_s": "s",
    "trace.untraced_sweep_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Row digests and checks
# ---------------------------------------------------------------------------


def _canonical(value: Any, digits: Optional[int]) -> str:
    if value is None or isinstance(value, (bool, np.bool_)):
        return json.dumps(None if value is None else bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        number = float(value)
        return number.hex() if digits is None else format(number, f".{digits}g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item, digits) for item in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{json.dumps(k)}:{_canonical(v, digits)}" for k, v in items) + "}"
    raise TypeError(f"unexpected {type(value).__name__} in a row")


def row_digest(row: Optional[Dict[str, Any]], digits: Optional[int] = None) -> Optional[str]:
    """A row's digest: exact float bits by default, ``digits`` significant digits if given."""
    if row is None:
        return None
    return hashlib.sha256(_canonical(row, digits).encode()).hexdigest()[:16]


def dataset_digest(dataset: Any) -> str:
    columnar = dataset.columnar()
    digest = hashlib.sha256("\x1f".join(columnar.user_ids).encode())
    for array in (columnar.offsets, columnar.timestamps, columnar.lats, columnar.lons):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


CellId = Tuple[str, int, str, Optional[str]]


def cell_ids(specs: Sequence[ExperimentSpec]) -> List[CellId]:
    """(world, seed, mechanism, attack) of every cell, in flat sweep order."""
    return [
        (cell["world_label"], cell["seed"], cell["mech_label"], cell["attack_label"] or None)
        for spec in specs
        for cell in spec.cells()
    ]


_RATIO_SUFFIXES = ("precision", "recall", "f_score", "_rate", "point_retention",
                   "tracking_success")


def row_problem(row: Dict[str, Any], cell: CellId) -> Optional[str]:
    """Why a row is wrong for its cell, or ``None``."""
    world, seed, mechanism, attack = cell
    identity = (row.get("world"), row.get("seed"), row.get("mechanism"), row.get("attack"))
    if identity != (world, seed, mechanism, attack):
        return f"row {identity} does not belong to cell {cell}"
    for key, value in row.items():
        if isinstance(value, (bool, np.bool_, str)) or value is None:
            continue
        if not isinstance(value, (int, float, np.number)):
            return f"{key} has type {type(value).__name__}"
        number = float(value)
        if not math.isfinite(number):
            return f"{key}={number} is not finite"
        if number < 0:
            return f"{key}={number} is negative"
        if key.endswith(_RATIO_SUFFIXES) and number > 1:
            return f"{key}={number} exceeds 1"
    return None


class Ledger:
    """Cells attempted and failed across every pass of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[Tuple[str, int], str] = {}

    def add(self, n_cells: int) -> None:
        self.attempted += n_cells

    def fail(self, pass_name: str, index: int, reason: str) -> None:
        self.failures.setdefault((pass_name, index), reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def report(self) -> None:
        for (pass_name, index), reason in sorted(self.failures.items()):
            print(f"FAILED {pass_name} cell {index}: {reason}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Set-up and sweeps
# ---------------------------------------------------------------------------


def build_worlds(workload: Workload, tracer: Tracer) -> Tuple[Dict[str, Any], float]:
    """``make_world`` plus the first ``content_fingerprint`` of each world, timed."""
    started = time.perf_counter()
    worlds: Dict[str, Any] = {}
    for spec in workload.worlds:
        with tracer.span("datagen.world", spec=spec):
            world = make_world(spec)
        with tracer.span("engine.fingerprint"):
            world.dataset.content_fingerprint()
        worlds[spec] = world
    return worlds, time.perf_counter() - started


@dataclass
class Pass:
    """Rows of one engine pass over a workload's specs, in flat cell order."""

    name: str
    cells: List[CellId]
    rows: List[Optional[Dict[str, Any]]]
    errors: Dict[int, str]
    seconds: float

    def digests(self, digits: Optional[int] = None) -> List[Optional[str]]:
        return [row_digest(row, digits) for row in self.rows]


@dataclass
class Sweep:
    cold: Pass
    warm: Optional[Pass]
    warm_hit_ratio: float
    backend: BenchBackend
    cache: BenchCache


def run_specs(
    name: str,
    engine: EvaluationEngine,
    backend: BenchBackend,
    specs: Sequence[ExperimentSpec],
    worlds: Dict[str, Any],
    tracer: Tracer,
) -> Pass:
    """One engine pass; a raising spec or group fails only its own cells."""
    rows: List[Optional[Dict[str, Any]]] = []
    errors: Dict[int, str] = {}
    started = time.perf_counter()
    with tracer.span("sweep"):
        for spec in specs:
            cells = spec.cells()
            offset = len(rows)
            backend.failed_cells = {}
            try:
                with tracer.span("engine.run", spec=spec.name):
                    got = engine.run(spec, worlds=worlds)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                got = []
                backend.failed_cells = {
                    cell["index"]: f"engine.run raised {type(exc).__name__}: {exc}"
                    for cell in cells
                }
            served = [cell["index"] for cell in cells if cell["index"] not in backend.failed_cells]
            spec_rows: List[Optional[Dict[str, Any]]] = [None] * len(cells)
            if len(got) == len(served):
                for index, row in zip(served, got):
                    spec_rows[index] = row
            else:
                for index in served:
                    errors[offset + index] = f"{len(got)} rows for {len(served)} cells"
            for index, reason in backend.failed_cells.items():
                errors[offset + index] = reason
            rows.extend(spec_rows)
    seconds = time.perf_counter() - started
    return Pass(name, cell_ids(specs), rows, errors, seconds)


def run_sweep(
    name: str,
    workload: Workload,
    worlds: Dict[str, Any],
    tracer: Tracer,
    work_dir: Path,
) -> Sweep:
    """A cold pass on a fresh engine; with a sqlite cache, a warm re-run too."""
    backend = BenchBackend(make_backend(None, default_workers=workload.workers), tracer)
    if workload.sqlite_cache:
        store = make_cache_store(f"sqlite:path={work_dir / f'{name}.sqlite'}")
    else:
        store = make_cache_store(True)
    cache = BenchCache(store, tracer)
    engine = EvaluationEngine(workers=workload.workers, cache=cache, backend=backend)
    warm: Optional[Pass] = None
    hit_ratio = 0.0
    try:
        tracer.trace_id = "sweep"
        cold = run_specs(name, engine, backend, workload.specs, worlds, tracer)
        if workload.sqlite_cache:
            gets, hits = cache.gets, cache.hits
            tracer.trace_id = "warm"
            warm = run_specs(name + "-warm", engine, backend, workload.specs, worlds, tracer)
            hit_ratio = (cache.hits - hits) / max(1, cache.gets - gets)
    finally:
        cache.close()
    return Sweep(cold, warm, hit_ratio, backend, cache)


def input_dataset(spec: ExperimentSpec, world: Any) -> Any:
    """What the spec's mechanisms publish: the full world or its second half."""
    if spec.input == "full":
        return world.dataset
    name, params = parse_spec(spec.input)
    if name != "publish-half":
        raise ValueError(f"the benchmark does not use input {spec.input!r}")
    return split_train_publish(world, params.get("train_fraction", 0.5))[1]


def input_points(workload: Workload, worlds: Dict[str, Any]) -> int:
    """Σ over (world, seed, mechanism) groups of the group's input points."""
    return sum(
        input_dataset(spec, worlds[world]).n_points * len(spec.seeds) * len(spec.mechanisms)
        for spec in workload.specs
        for world in spec.worlds
    )


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def load_pinned() -> Dict[str, List[str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def check_passes(
    ledger: Ledger, passes: Sequence[Pass], pinned: Optional[Sequence[str]]
) -> None:
    """Per-cell checks, identity across passes, and the pinned digests."""
    reference = passes[0].digests()
    for one in passes:
        ledger.add(len(one.cells))
        exact = one.digests()
        rounded = one.digests(PINNED_DIGITS) if pinned is not None else None
        for index, (cell, row) in enumerate(zip(one.cells, one.rows)):
            if index in one.errors:
                ledger.fail(one.name, index, one.errors[index])
                continue
            if row is None:
                ledger.fail(one.name, index, "row missing")
                continue
            problem = row_problem(row, cell)
            if problem:
                ledger.fail(one.name, index, problem)
            if exact[index] != reference[index]:
                ledger.fail(one.name, index, f"row differs from {passes[0].name}")
            if rounded is not None and (
                len(pinned) != len(one.cells) or rounded[index] != pinned[index]
            ):
                ledger.fail(one.name, index, "row does not match the pinned digest")


def _find(one: Pass, mechanism: str, attack: Optional[str]) -> Tuple[int, Dict[str, Any]]:
    for index, (cell, row) in enumerate(zip(one.cells, one.rows)):
        if cell[2] == mechanism and cell[3] == attack and row is not None:
            return index, row
    raise LookupError(f"no row for {mechanism} x {attack}")


def check_directions(ledger: Ledger, one: Pass) -> None:
    """The paper's claims on the default seed, from privacy-batch rows."""
    checks = [
        ("paper-full", "raw", attack, "f_score", "<")
        for attack in ("poi-retrieval:algorithm=staypoint", "poi-retrieval:algorithm=djcluster")
    ] + [("paper-full(swap=always)", "pseudonyms-only", "reident", "footprint_attack_rate", "<=")]
    for protected, baseline, attack, column, relation in checks:
        try:
            index, row = _find(one, protected, attack)
            _, base_row = _find(one, baseline, attack)
        except LookupError as exc:
            ledger.fail(one.name, 0, str(exc))
            continue
        value, base = row[column], base_row[column]
        holds = value < base if relation == "<" else value <= base
        if not holds:
            ledger.fail(
                one.name, index,
                f"paper direction fails: {protected} {column}={value} vs {baseline} {base}",
            )


def check_equal(ledger: Ledger, one: Pass, reference: Pass, what: str) -> None:
    """``one`` must equal ``reference`` bitwise, cell by cell."""
    for index, (mine, theirs) in enumerate(zip(one.digests(), reference.digests())):
        if mine != theirs:
            ledger.fail(one.name, index, f"row differs from {what}")


def check_composition(
    ledger: Ledger, one: Pass, workload: Workload, worlds: Dict[str, Any]
) -> None:
    """detect → smooth → swap, called directly, must give promesse's publication.

    Checks the workload's first promesse mechanism; a mismatch fails that
    mechanism's cells.
    """
    for spec in workload.specs:
        for label, item in spec.mechanisms:
            if not item.startswith("promesse"):
                continue
            dataset = input_dataset(spec, worlds[spec.worlds[0]])
            seed = spec.seeds[0]
            config = make_mechanism(item, defaults={"seed": seed}, wrap=False).config
            zones = MixZoneDetector(config.detection).detect(dataset)
            smoothed = SpeedSmoother(config.smoothing).smooth_dataset(dataset)
            staged = MixZoneSwapper(config.swapping).apply(smoothed, zones).dataset
            published = make_mechanism(item, defaults={"seed": seed}).publish(dataset).dataset
            if dataset_digest(staged) != dataset_digest(published):
                for index, cell in enumerate(one.cells):
                    if cell[2] == label:
                        ledger.fail(one.name, index, f"promesse stages do not compose to {item}")
            return


def check_workload(
    ledger: Ledger,
    workload: Workload,
    seed: int,
    sweeps: Sequence[Sweep],
    worlds: Dict[str, Any],
) -> None:
    """Every check except composition, over the sweeps of one run."""
    pinned = load_pinned().get(workload.name) if seed == DEFAULT_SEED else None
    passes = [s.cold for s in sweeps] + [s.warm for s in sweeps if s.warm is not None]
    check_passes(ledger, passes, pinned)
    for sweep in sweeps:
        if sweep.warm is not None and sweep.warm_hit_ratio != 1.0:
            for index in range(len(sweep.warm.cells)):
                ledger.fail(sweep.warm.name, index,
                            f"warm hit ratio {sweep.warm_hit_ratio} != 1.0")
    if workload.name == "privacy-batch" and seed == DEFAULT_SEED:
        check_directions(ledger, sweeps[0].cold)
    if workload.name == "privacy-stream":
        batch_specs = [dataclasses.replace(spec, mode="batch") for spec in workload.specs]
        off = Tracer()
        backend = BenchBackend(make_backend(None), off)
        engine = EvaluationEngine(backend=backend)
        reference = run_specs("batch-reference", engine, backend, batch_specs, worlds, off)
        check_passes(ledger, [reference], None)
        for sweep in sweeps:
            check_equal(ledger, sweep.cold, reference, "the batch E4' rows")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def layer_of(name: str) -> str:
    head = name.split(".")[0]
    return {"sweep": "bench", "attack": "attacks", "stream": "streaming",
            "metric": "metrics"}.get(head, head)


def self_times(spans: Sequence[Dict[str, Any]]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per layer, Σ of span duration minus the part its child spans cover.

    Returned twice: for spans inside cell groups (they sum to the Σ of group
    spans, ``backend.busy_s``) and for the orchestration around them.
    """
    by_id = {span["id"]: span for span in spans}
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))

    def in_group(span: Dict[str, Any]) -> bool:
        while span is not None:
            if span["name"] == "engine.group":
                return True
            span = by_id.get(span["parent"])
        return False

    inside: Dict[str, float] = defaultdict(float)
    outside: Dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _union_length(
            (max(start, a), min(end, b)) for a, b in children[span["id"]] if b > start and a < end
        )
        totals = inside if in_group(span) else outside
        totals[layer_of(span["name"])] += (end - start) - covered
    return inside, outside


def layer_metrics(
    tracer: Tracer, traced: Sweep, untraced_s: float, workers: int
) -> Dict[str, float]:
    """The per-layer metrics of one traced sweep (see ``PER_LAYER``)."""
    spans = {trace: [s for s in tracer.spans if s["trace"] == trace]
             for trace in ("setup", "sweep", "warm")}
    sweep = spans["sweep"]

    def total(name: str, trace: str = "sweep") -> float:
        return sum(s["end"] - s["start"] for s in spans[trace] if s["name"] == name)

    def attr(prefix: str, key: str) -> int:
        return sum(int(s.get(key, 0)) for s in sweep if s["name"].startswith(prefix))

    groups = sorted(s["end"] - s["start"] for s in sweep if s["name"] == "engine.group")
    busy = sum(groups)
    map_s = total("backend.map")
    sweep_s = traced.cold.seconds
    points_in, points_out = attr("publish", "points_in"), attr("publish", "points_out")
    stream_points = attr("stream.", "points")
    stream_s = sum(total(f"stream.{name}") for name in STREAM_ATTACKS)
    cache_spans = spans["sweep"] + spans["warm"]
    cache = traced.cache
    sent, received = traced.backend.transport_bytes()
    metrics: Dict[str, float] = {
        "datagen.world_s": total("datagen.world", "setup"),
        "engine.fingerprint_s": total("engine.fingerprint", "setup"),
        "engine.cells": attr("engine.group", "cells"),
        "engine.groups": len(groups),
        "engine.group_p50_s": statistics.median(groups) if groups else 0.0,
        "engine.group_max_s": max(groups, default=0.0),
        "engine.overhead_s": sweep_s - busy / workers,
        "workloads.split_s": total("workloads.split"),
        "publish.points_in": points_in,
        "publish.points_out": points_out,
        "publish.retention": points_out / points_in if points_in else 0.0,
        "core.speed_smoothing_s": total("core.speed_smoothing"),
        "mixzones.detect_s": total("mixzones.detect"),
        "mixzones.swap_s": total("mixzones.swap"),
        "mixzones.zones": attr("mixzones.detect", "zones"),
        "mixzones.swaps": attr("mixzones.swap", "swaps"),
        "attack.poi_extracted": attr("attack.poi_", "extracted"),
        "stream.points": stream_points,
        "stream.points_per_s": stream_points / stream_s if stream_s else 0.0,
        "stream.fallback_cells": sum(
            1 for row in traced.cold.rows if row is not None and row.get("stream_fallback")
        ),
        "metric.distortion_fixes": attr("metric.spatial_distortion", "fixes"),
        "backend.map_s": map_s,
        "backend.busy_s": busy,
        "backend.efficiency": busy / (workers * map_s) if map_s else 0.0,
        "backend.payload_bytes": sent,
        "backend.result_bytes": received,
        "backend.requeues": traced.backend.requeues,
        "backend.failures": traced.backend.failures,
        "cache.gets": cache.gets,
        "cache.puts": cache.puts,
        "cache.get_s": sum(s["end"] - s["start"] for s in cache_spans if s["name"] == "cache.get"),
        "cache.put_s": sum(s["end"] - s["start"] for s in cache_spans if s["name"] == "cache.put"),
        "cache.hit_ratio": cache.hits / cache.gets if cache.gets else 0.0,
        "cache.file_bytes": cache.file_bytes(),
        "cache.warm_s": traced.warm.seconds if traced.warm is not None else 0.0,
        "trace.sweep_s": sweep_s,
        "trace.untraced_sweep_s": untraced_s,
        "trace.overhead_s": sweep_s - untraced_s,
        "trace.spans": len(tracer.spans),
        "peak_rss_mb": peak_rss_mb(),
    }
    for name in PUBLISHERS:
        metrics[f"publish.{name}_s"] = total(f"publish.{name}")
    for name in BATCH_ATTACKS:
        metrics[f"attack.{name}_s"] = total(f"attack.{name}")
    for name in STREAM_ATTACKS:
        metrics[f"stream.{name}_s"] = total(f"stream.{name}")
    for name in METRICS:
        metrics[f"metric.{name}_s"] = total(f"metric.{name}")
    inside, outside = self_times(sweep)
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = inside.get(layer, 0.0) + outside.get(layer, 0.0)
    return {name: metrics[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class Result:
    ledger: Ledger
    metrics: Dict[str, float]
    units: Dict[str, str]
    notes: List[str]

    @property
    def correct(self) -> bool:
        return self.ledger.failed == 0 and self.ledger.attempted > 0

    def summary(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def _warm_up(name: str, work_dir: Path) -> None:
    workload = warmup(name)
    tracer = Tracer()
    try:
        worlds, _ = build_worlds(workload, tracer)
        run_sweep("warm-up", workload, worlds, tracer, work_dir)
    except Exception:
        # Not measured and not checked; a real fault shows in the sweeps.
        traceback.print_exc(file=sys.stderr)


def measure(name: str, seed: int, seconds: float, work_dir: Path) -> Result:
    """Untraced run: set-up + sweep until ``seconds`` are spent; medians."""
    workload = build(name, seed)
    _warm_up(name, work_dir)
    tracer = Tracer()
    sweeps: List[Sweep] = []
    setups: List[float] = []
    worlds: Dict[str, Any] = {}

    def set_up() -> None:
        nonlocal worlds
        spent: List[float] = []
        while len(spent) < SETUP_REPS or (
            sum(spent) < SETUP_BUDGET_S and len(spent) < MAX_SETUP_REPS
        ):
            # The previous worlds go first, so the peak memory is one sweep's.
            worlds = {}
            gc.collect()
            worlds, setup_s = build_worlds(workload, tracer)
            spent.append(setup_s)
        setups.extend(spent)

    started = time.perf_counter()
    while True:
        set_up()
        sweeps.append(run_sweep(f"sweep{len(sweeps)}", workload, worlds, tracer, work_dir))
        elapsed = time.perf_counter() - started
        if len(sweeps) >= MIN_SWEEPS and elapsed + elapsed / len(sweeps) > seconds:
            break
    ledger = Ledger()
    check_workload(ledger, workload, seed, sweeps, worlds)
    sweep_times = [s.cold.seconds for s in sweeps]
    sweep_s = statistics.median(sweep_times)
    metrics = {
        "sweep_s": sweep_s,
        "points_per_s": input_points(workload, worlds) / sweep_s,
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"{len(sweeps)} sweeps {['%.3f' % t for t in sweep_times]}, "
        f"{len(setups)} set-ups {['%.3f' % t for t in setups]}",
        f"peak_rss_mb = {peak_rss_mb():.6g} MB",
    ]
    return Result(ledger, metrics, dict(END_TO_END), notes)


def measure_layers(name: str, seed: int, work_dir: Path, trace_path: Path) -> Result:
    """Traced run: one untraced and one traced sweep; per-layer metrics."""
    workload = build(name, seed)
    _warm_up(name, work_dir)
    off = Tracer()
    worlds, _ = build_worlds(workload, off)
    untraced = run_sweep("untraced", workload, worlds, off, work_dir)
    worlds = {}
    gc.collect()
    spool = work_dir / "spool"
    spool.mkdir()
    tracer = Tracer(enabled=True, spool_dir=spool)
    with instrument(tracer):
        tracer.trace_id = "setup"
        worlds, _ = build_worlds(workload, tracer)
        traced = run_sweep("traced", workload, worlds, tracer, work_dir)
    tracer.write_jsonl(trace_path)
    ledger = Ledger()
    check_workload(ledger, workload, seed, [untraced, traced], worlds)
    check_composition(ledger, traced.cold, workload, worlds)
    metrics = layer_metrics(tracer, traced, untraced.cold.seconds, traced.backend.workers)
    notes = _accounting(tracer, metrics, traced.backend.workers)
    return Result(ledger, metrics, dict(PER_LAYER), notes)


def _accounting(tracer: Tracer, metrics: Dict[str, float], workers: int) -> List[str]:
    """How layer self times account for the traced sweep.

    Inside groups the self times sum to ``backend.busy_s``; divided by the
    worker count and added to ``engine.overhead_s`` they give the sweep.
    """
    inside, _ = self_times([s for s in tracer.spans if s["trace"] == "sweep"])
    busy, sweep_s = metrics["backend.busy_s"], metrics["trace.sweep_s"]
    lines = [f"traced sweep {sweep_s:.4f} s = groups {busy:.4f} s / {workers} worker(s)"
             f" + engine.overhead_s {metrics['engine.overhead_s']:.4f} s"]
    for layer, seconds in sorted(inside.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:<10} {seconds:9.4f} s  {100 * seconds / busy:5.1f} % of groups")
    lines.append(f"  layer self times sum to {sum(inside.values()):.4f} s of {busy:.4f} s")
    return lines

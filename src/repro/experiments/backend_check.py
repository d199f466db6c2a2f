"""Equivalence and cache-persistence checks (the CI gate's teeth).

Every route to a row — another scheduler backend, a memmapped store world,
a fleet of out-of-process workers, the streaming tier — must reproduce the
reference rows bitwise.  ``equivalence`` runs the table of such routes
(:func:`legs`) through one loop (:func:`check_legs`)::

    python -m repro.experiments.backend_check equivalence --artifact-dir out/

Each :class:`Leg` is data: a label, an
:class:`~repro.experiments.engine.ExperimentSpec`, the reference it must
equal (the same spec, or its ``mode="batch"`` / in-memory twin, evaluated
serially without a cache), a backend spec string, a cache spec string and
the expectations its facts must meet.  The facts are the backend's
``last_stats``, the engine's cache counters and the check world's store
facts, so a leg that silently bypassed the path it claims to exercise fails
even with identical rows.  The legs pin:

* the multiprocessing and work-queue backends, including a killed worker
  whose cells are requeued onto a replacement;
* a memmapped :class:`~repro.io.world_store.WorldStore` world under every
  backend: the same fingerprint as in memory, pickled as a path;
* the fleet path: bind ``0.0.0.0`` / advertise ``127.0.0.1`` with batched
  pulls, a frozen worker evicted by heartbeat, a sqlite cache the
  coordinator fills from the rows its workers ship (a cold run, then a
  100 %-hit warm rerun), and sharded scatter-gather;
* ``mode="stream"`` against ``mode="batch"`` for every streaming attack.

``cache`` runs the check spec against one persistent
:class:`~repro.experiments.cache.SqliteCellCache` file and asserts the hit
pattern, so CI can prove cold→warm persistence across *separate processes*
(two invocations, one file)::

    python -m repro.experiments.backend_check cache --cache-file cells.sqlite --expect cold
    python -m repro.experiments.backend_check cache --cache-file cells.sqlite --expect warm

Exit status is non-zero on any row mismatch or missed expectation.  With
``--artifact-dir`` every leg's ``backend.last_stats`` is dumped as JSON and
work-queue workers log there, so a CI failure uploads the full post-mortem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..io.world_store import WorldStore
from .cache import SqliteCellCache
from .engine import AxisEntry, EvaluationEngine, ExperimentSpec, _world_fingerprint
from .worlds import make_world, shard_world_specs

#: The budget every leg runs on: two workers per parallel backend, five
#: minutes per work-queue task, the ``tiny`` check world (streaming legs use
#: ``small`` worlds so the mix-zone census sees real crossings).
WORKERS = 2
TIMEOUT_S = 300.0
CHECK_WORLD = "standard:scale=tiny,seed=5"
STREAM_WORLDS = ["standard:scale=small,seed=5", "crossing:scale=small,seed=5"]

#: What must hold, and the predicate over a leg's facts that decides it.
Expect = Tuple[str, Callable[[Dict[str, Any]], bool]]


def _at_least(key: str, n: int) -> Expect:
    return (f"{key} >= {n}", lambda facts: facts.get(key, 0) >= n)


CRASHED: List[Expect] = [_at_least("workers_crashed", 1), _at_least("requeues", 1)]
FLEET: List[Expect] = [
    ("server bound to 0.0.0.0", lambda f: f.get("address", {}).get("bind") == "0.0.0.0"),
    _at_least("workers_seen", WORKERS),
]
FROZEN: List[Expect] = [
    _at_least("heartbeat_evictions", 1),
    _at_least("requeues", 1),
    (
        "an eviction detected by heartbeat, not by process exit or timeout",
        lambda f: any(e.get("detected") == "heartbeat" for e in f.get("evictions", [])),
    ),
]
COLD: List[Expect] = [("0 cache hits", lambda f: f["cache_hits"] == 0)]
WARM: List[Expect] = [
    (
        "100% cache hits",
        lambda f: f["cache_misses"] == 0 and f["cache_hits"] == f["reference_rows"],
    )
]
STORE: List[Expect] = [
    (
        "store fingerprint == in-memory fingerprint",
        lambda f: f["store_fingerprint"] == f["memory_fingerprint"],
    ),
    (
        "store world pickles smaller than min(2048, dataset bytes)",
        lambda f: f["store_world_bytes"] < min(2048, f["dataset_bytes"]),
    ),
]


@dataclasses.dataclass(frozen=True)
class Leg:
    """One route to the reference rows, and what its run must show."""

    label: str
    spec: ExperimentSpec
    #: Evaluated serially without a cache; ``None`` means ``spec`` itself.
    reference: Optional[ExperimentSpec] = None
    backend: str = "serial"
    cache: str = "off"
    expect: Sequence[Expect] = ()


def check_spec(
    worlds: Sequence[AxisEntry] = (CHECK_WORLD,), seeds: Sequence[int] = (0, 1)
) -> ExperimentSpec:
    """The small but non-trivial spec the legs run (12 cells, 6 groups)."""
    return ExperimentSpec(
        name="backend-check",
        mechanisms=["identity", "downsampling:factor=5", "pseudonyms:seed=1"],
        metrics=["point-retention", ("spatial-distortion", "area-coverage:cell_size_m=400.0")],
        worlds=list(worlds),
        seeds=list(seeds),
    )


def legs(work_dir: str, log_dir: Optional[str] = None) -> List[Leg]:
    """The equivalence table: every route to a row, in run order.

    ``work_dir`` holds the store world (see :func:`_write_store`) and the
    shared cache file; ``log_dir`` collects work-queue worker logs.  The two
    shared-cache legs run in order against one file: cold, then warm.
    """
    store = f"store:path={os.path.join(work_dir, 'world')}"
    pool = f"multiprocessing:workers={WORKERS}"
    queue = f"work-queue:workers={WORKERS},timeout_s={TIMEOUT_S}"
    if log_dir:
        queue += f",log_dir={log_dir}"
    fleet = (
        f"{queue},bind=0.0.0.0,advertise=127.0.0.1,batch=2,"
        "heartbeat_s=0.2,heartbeat_timeout_s=2.0"
    )
    shared_cache = f"sqlite:path={os.path.join(work_dir, 'cells.sqlite')}"
    spec = check_spec()
    in_memory = check_spec([("check-world", CHECK_WORLD)])
    mapped = check_spec([("check-world", store)])
    table = [
        Leg("multiprocessing", spec, backend=pool),
        Leg("work-queue", spec, backend=queue),
        Leg(
            "work-queue+crash",
            spec,
            backend=f"{queue},fault_injection=crash-once",
            expect=CRASHED,
        ),
        Leg("store+serial", mapped, in_memory, expect=STORE),
        Leg("store+multiprocessing", mapped, in_memory, backend=pool),
        Leg("store+work-queue", mapped, in_memory, backend=queue),
        Leg("fleet bind/advertise", spec, backend=fleet, expect=FLEET),
        Leg(
            "fleet+frozen-worker",
            spec,
            backend=f"{fleet},fault_injection=freeze-once",
            expect=FROZEN,
        ),
        Leg("fleet+shared-cache", spec, backend=fleet, cache=shared_cache, expect=COLD),
        Leg("fleet+warm-cache", spec, backend=fleet, cache=shared_cache, expect=WARM),
        # Scatter-gather: the store world as two disjoint user shards, the
        # spec-string form a fleet coordinator scatters across hosts.
        Leg("fleet+shards", check_spec(shard_world_specs(store, 2), seeds=[0]), backend=fleet),
    ]
    mechanisms = ["identity", "downsampling:factor=5"]
    for name, attack in [
        ("stay-point", "poi-retrieval:algorithm=staypoint"),
        ("dj-cluster", "poi-retrieval:algorithm=djcluster"),
        ("zone-census", "zone-census:radius_m=100"),
    ]:
        batch = ExperimentSpec(
            name="stream-check", mechanisms=mechanisms, attacks=[attack], worlds=STREAM_WORLDS
        )
        table.append(Leg(f"stream {name}", dataclasses.replace(batch, mode="stream"), batch))
    # Re-identification in its E4 setting: the first half is attacker knowledge.
    reident = ExperimentSpec(
        name="stream-check",
        mechanisms=["identity", "pseudonyms:seed=1"],
        attacks=["reident:train_fraction=0.5"],
        worlds=STREAM_WORLDS[:1],
        input="publish-half:train_fraction=0.5",
    )
    table.append(Leg("stream reident", dataclasses.replace(reident, mode="stream"), reident))
    return table


def _write_store(path: str) -> Dict[str, Any]:
    """Write the check world as a store at ``path``; return the store facts."""
    world = make_world(CHECK_WORLD)
    store = WorldStore.write(world.dataset, path)
    mapped = make_world(f"store:path={path}")
    facts = {
        "memory_fingerprint": _world_fingerprint(world),
        "store_fingerprint": _world_fingerprint(mapped),
        "store_world_bytes": len(pickle.dumps(mapped)),
        "dataset_bytes": len(pickle.dumps(world.dataset)),
    }
    print(
        f"store: {store.n_users} users / {store.n_points} points memmapped from "
        f"{store.path}; pickles to {facts['store_world_bytes']} bytes "
        f"(in-memory dataset: {facts['dataset_bytes']})"
    )
    return facts


def _rows_identical(
    reference: Sequence[Dict[str, Any]],
    candidate: Sequence[Dict[str, Any]],
    label: str,
    baseline: str = "serial",
) -> bool:
    if candidate == reference:
        print(f"ok   {label}: {len(candidate)} rows identical to {baseline}")
        return True
    print(f"FAIL {label}: rows differ from {baseline}")
    for i, (ref, cand) in enumerate(zip(reference, candidate)):
        if ref != cand:
            print(
                f"  first differing row {i}:\n    {baseline}:    {ref}\n    {label}: {cand}"
            )
            break
    if len(reference) != len(candidate):
        print(
            f"  row counts differ: {baseline} {len(reference)} vs {label} {len(candidate)}"
        )
    return False


def _dump_stats(artifact_dir: Optional[str], stats_by_leg: Dict[str, Any]) -> None:
    """Write every leg's ``backend.last_stats`` as JSON for CI artifact upload."""
    if not artifact_dir:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(artifact_dir, "backend_stats.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stats_by_leg, handle, indent=2, sort_keys=True)
    print(f"     stats written to {path}")


def check_legs(
    table: Sequence[Leg],
    artifact_dir: Optional[str] = None,
    world_facts: Optional[Dict[str, Any]] = None,
) -> int:
    """Run every leg against its reference; non-zero if any check failed.

    Each distinct reference is evaluated once.  A leg passes when its rows
    equal the reference's bitwise and every expectation holds over its
    facts: ``world_facts``, the backend's ``last_stats``, the engine's
    ``cache_hits`` / ``cache_misses`` and the ``reference_rows`` count.
    """
    references: Dict[str, List[Dict[str, Any]]] = {}
    stats_by_leg: Dict[str, Any] = {}
    failed: List[str] = []
    for leg in table:
        reference_spec = leg.reference or leg.spec
        key = repr(reference_spec)
        if key not in references:
            references[key] = EvaluationEngine(backend="serial", cache=False).run(
                reference_spec
            )
        reference = references[key]
        engine = EvaluationEngine(backend=leg.backend, cache=leg.cache)
        try:
            rows = engine.run(leg.spec)
        finally:
            if isinstance(engine.cache_store, SqliteCellCache):
                engine.cache_store.close()
        baseline = "serial" if reference_spec.mode == leg.spec.mode else reference_spec.mode
        ok = _rows_identical(reference, rows, leg.label, baseline)
        stats = getattr(engine.backend, "last_stats", {})
        if stats:
            stats_by_leg[leg.label] = stats
            print(f"     stats: {stats}")
        if leg.cache != "off":
            print(f"     cache: {engine.cache_hits} hits / {engine.cache_misses} misses")
        facts = {
            **(world_facts or {}),
            **stats,
            "cache_hits": engine.cache_hits,
            "cache_misses": engine.cache_misses,
            "reference_rows": len(reference),
        }
        for what, holds in leg.expect:
            if holds(facts):
                print(f"ok   {leg.label}: {what}")
            else:
                print(f"FAIL {leg.label}: expected {what}")
                ok = False
        if not ok:
            failed.append(leg.label)
    _dump_stats(artifact_dir, stats_by_leg)
    print(f"{len(table) - len(failed)}/{len(table)} legs passed")
    if failed:
        print(f"failed: {', '.join(failed)}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="mode", required=True)

    equivalence = subparsers.add_parser(
        "equivalence", help="every leg of the equivalence table against its reference"
    )
    equivalence.add_argument(
        "--artifact-dir",
        default=None,
        help="dump backend stats JSON + worker logs here (CI uploads on failure)",
    )

    cache = subparsers.add_parser(
        "cache", help="cold→warm persistence against one SqliteCellCache file"
    )
    cache.add_argument("--cache-file", required=True)
    cache.add_argument("--expect", choices=("cold", "warm"), required=True)

    args = parser.parse_args(argv)
    if args.mode == "cache":
        leg = Leg(
            f"cache {args.expect}",
            check_spec(),
            cache=f"sqlite:path={args.cache_file}",
            expect=COLD if args.expect == "cold" else WARM,
        )
        return check_legs([leg])
    log_dir = os.path.join(args.artifact_dir, "worker-logs") if args.artifact_dir else None
    with tempfile.TemporaryDirectory(prefix="backend-check-") as work_dir:
        world_facts = _write_store(os.path.join(work_dir, "world"))
        return check_legs(legs(work_dir, log_dir), args.artifact_dir, world_facts)


if __name__ == "__main__":
    sys.exit(main())

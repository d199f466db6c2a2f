"""Declarative experiment specification and the evaluation engine.

An :class:`ExperimentSpec` names *what* to evaluate — the cross product of
mechanisms x attacks x metric groups x worlds x seeds, every component given
as a registry spec string — and the :class:`EvaluationEngine` decides *how*:
sequentially or with :mod:`multiprocessing` fan-out, caching finished result
cells across runs.

Each (world, seed, mechanism) publishes once per run, and each seedless
publication stage once per group: mechanisms of one (world, seed) that run a
seedless stage (mix-zone detection, speed smoothing) with the same config on
the same input share one group, whose
:class:`~repro.api.stages.StageMemo` runs that stage once for all of them.
``smoothing:epsilon_m=100.0`` and the three ``promesse:swap=…`` variants of
E4 smooth the published half once, not four times.  Seeded stages (swap,
pseudonyms, noise) always run, and no group spans two seeds or worlds.

Every experiment of the reproduction (the ``run_*`` functions in
:mod:`repro.experiments.runner`) is a thin spec executed by this engine::

    spec = ExperimentSpec(
        name="poi-retrieval",
        mechanisms=["identity", "promesse", "geo-ind:epsilon_per_m=0.005"],
        attacks=["poi-retrieval:algorithm=staypoint"],
        worlds=["standard:scale=small,seed=42"],
        seeds=[0, 1, 2],
    )
    rows = EvaluationEngine(workers=4).run(spec)

Each cell yields one row ``{"world", "seed", "mechanism", "attack",
**attack columns, **metric columns}``; rows come back in deterministic
cross-product order regardless of worker scheduling.

Axis entries are spec strings or ``(label, spec)`` pairs (plus ``None`` on
the attack axis for attack-free cells); anything else raises
:class:`~repro.api.registry.RegistryError`.  Pre-built worlds enter through
``run(spec, worlds={label: world})``.

A reserved ``prefix`` parameter namespaces a component's columns
(``"area-coverage:cell_size_m=200,prefix=cov_"`` -> ``cov_f_score``), which
is how one row can merge several components that would otherwise collide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..api.registry import (
    ATTACKS,
    METRICS,
    RegistryError,
    make_mechanism,
    parse_spec,
)
from ..api.stages import StageMemo, input_stages
from ..core.trajectory import MobilityDataset
from .backends import SchedulerBackend, make_backend
from .cache import CellCacheStore, make_cache_store
from .workloads import split_train_publish
from .worlds import make_world

__all__ = [
    "ExperimentSpec",
    "EvaluationEngine",
    "EvalContext",
]


# ---------------------------------------------------------------------------
# Experiment specification
# ---------------------------------------------------------------------------

#: An axis entry: a spec string, or an explicit (label, spec) pair.
AxisEntry = Union[str, Tuple[str, str]]


def _normalize_axis(
    entries: Sequence[Optional[AxisEntry]], kind: str
) -> List[Tuple[str, Any]]:
    normalized: List[Tuple[str, Any]] = []
    for entry in entries:
        if entry is None and kind == "attack":
            normalized.append(("", None))
            continue
        label, item = entry if isinstance(entry, tuple) else (entry, entry)
        if not isinstance(item, str):
            raise RegistryError(
                f"{kind} axis entries must be spec strings or (label, spec) "
                f"pairs, got {type(item).__name__}"
            )
        normalized.append((str(label), item))
    return normalized


def _normalize_metric_groups(
    metrics: Sequence[Union[str, Sequence[str]]]
) -> List[Tuple[str, ...]]:
    groups: List[Tuple[str, ...]] = []
    for group in metrics:
        if isinstance(group, str):
            groups.append((group,))
        else:
            groups.append(tuple(group))
    return groups or [()]


@dataclass
class ExperimentSpec:
    """The declarative cross product one engine run evaluates.

    Attributes
    ----------
    name:
        Experiment identifier (used in logs and cache partitioning).
    mechanisms:
        Mechanism axis: spec strings or ``(label, spec)`` pairs.
    attacks:
        Attack axis: evaluator specs (``poi-retrieval:...``) or ``None`` for
        attack-free cells.  Defaults to one attack-free entry.
    metrics:
        Metric axis: each entry is one *group* — a spec or tuple of specs
        whose columns merge into the same row.  Groups multiply the cross
        product; specs inside a group do not.
    worlds:
        Workload axis: world specs (see
        :data:`~repro.experiments.worlds.WORLDS`), ``(label, spec)`` pairs,
        or names resolved through the ``worlds`` mapping passed to
        :meth:`EvaluationEngine.run`.
    seeds:
        Seed axis; each seed is injected into mechanism factories that
        declare a ``seed`` parameter (explicit spec params win).
    input:
        What each mechanism publishes: ``"full"`` (the world's dataset) or
        ``"publish-half:train_fraction=0.5"`` (the second temporal half, the
        re-identification setting where the first half is attacker
        knowledge).
    mode:
        How attack evaluators consume the publication: ``"batch"`` (default;
        the vectorized attacks over the finished dataset) or ``"stream"``
        (the publication is replayed point by point through
        :mod:`repro.streaming`'s incremental attacks, whose output is pinned
        bitwise-identical to batch).  Evaluators opt in by declaring an
        ``execution`` parameter; others run batch either way.
    """

    name: str
    mechanisms: Sequence[AxisEntry]
    attacks: Sequence[Optional[AxisEntry]] = (None,)
    metrics: Sequence[Union[str, Sequence[str]]] = ()
    worlds: Sequence[AxisEntry] = ("standard:scale=small,seed=42",)
    seeds: Sequence[int] = (0,)
    input: str = "full"
    mode: str = "batch"

    def cells(self) -> List[Dict[str, Any]]:
        """The ordered cross product as flat cell descriptors."""
        mechanisms = _normalize_axis(self.mechanisms, "mechanism")
        attacks = _normalize_axis(self.attacks, "attack")
        groups = _normalize_metric_groups(self.metrics)
        worlds = _normalize_axis(self.worlds, "world")
        cells: List[Dict[str, Any]] = []
        index = 0
        for world_label, world_item in worlds:
            for seed in self.seeds:
                for mech_index, (mech_label, mech_item) in enumerate(mechanisms):
                    for attack_label, attack_item in attacks:
                        for group in groups:
                            cells.append(
                                {
                                    "index": index,
                                    "world_label": world_label,
                                    "world_item": world_item,
                                    "seed": seed,
                                    "mech_index": mech_index,
                                    "mech_label": mech_label,
                                    "mech_item": mech_item,
                                    "attack_label": attack_label,
                                    "attack_item": attack_item,
                                    "metric_group": group,
                                }
                            )
                            index += 1
        return cells


# ---------------------------------------------------------------------------
# Cell evaluation (worker side)
# ---------------------------------------------------------------------------


@dataclass
class EvalContext:
    """What attacks receive next to the publication: the cell's inputs."""

    world: Any
    world_key: str
    input_dataset: MobilityDataset
    seed: int


def _resolve_input(world: Any, input_spec: str) -> MobilityDataset:
    name, params = parse_spec(input_spec)
    if name in ("full", "dataset"):
        return world.dataset
    if name == "publish-half":
        return split_train_publish(world, params.get("train_fraction", 0.5))[1]
    if name == "train-half":
        return split_train_publish(world, params.get("train_fraction", 0.5))[0]
    raise RegistryError(
        f"unknown input {input_spec!r}; choose 'full', 'publish-half' or 'train-half'"
    )


def _pop_prefix(spec: str) -> Tuple[str, Dict[str, Any], str]:
    name, params = parse_spec(spec)
    prefix = str(params.pop("prefix", ""))
    return name, params, prefix


def _apply_prefix(columns: Mapping[str, Any], prefix: str) -> Dict[str, Any]:
    if not prefix:
        return dict(columns)
    return {prefix + key: value for key, value in columns.items()}


#: Attack names already warned about falling back from stream to batch mode
#: (per process: worker fan-out re-warns at most once per worker).
_STREAM_FALLBACK_WARNED: Set[str] = set()


def _note_stream_fallback(name: str) -> None:
    """Warn (once per attack name) that a stream-mode cell runs batch."""
    if name in _STREAM_FALLBACK_WARNED:
        return
    _STREAM_FALLBACK_WARNED.add(name)
    warnings.warn(
        f"attack {name!r} does not declare an 'execution' parameter, so "
        "ExperimentSpec(mode='stream') runs it in batch mode; its rows "
        "carry stream_fallback=True",
        RuntimeWarning,
        stacklevel=3,
    )


def _evaluate_group(payload: Tuple) -> List[Tuple[int, Dict[str, Any]]]:
    """Evaluate the cells of one group: mechanisms of one (world, seed).

    ``payload`` is ``(world, world_label, input_spec, seed, mode, mechanisms,
    cells)``: ``mechanisms`` are the group's ``(label, spec)`` pairs and each
    cell is ``(index, position in mechanisms, attack label, attack spec,
    metric group)``, ordered by position.  Each mechanism publishes once.  A
    :class:`~repro.api.stages.StageMemo` made here and dropped with the call
    lets the group's mechanisms run each shared seedless stage (detection,
    smoothing) once; seeded stages always run.

    Module-level so worker processes can unpickle it; all component
    construction happens here, inside the worker, from spec strings.
    """
    (world, world_label, input_spec, seed, mode, mechanisms, cell_args) = payload
    input_dataset = _resolve_input(world, input_spec)
    memo = StageMemo(input_dataset)
    context = EvalContext(
        world=world, world_key=world_label, input_dataset=input_dataset, seed=seed
    )
    # Streaming mode is injected only into evaluators that declare an
    # ``execution`` parameter; explicit spec params win, others run batch.
    attack_defaults = {"execution": "stream"} if mode == "stream" else None

    out: List[Tuple[int, Dict[str, Any]]] = []
    for position, mech_cells in groupby(cell_args, key=itemgetter(1)):
        mech_label, mech_item = mechanisms[position]
        mechanism = make_mechanism(mech_item, defaults={"seed": seed}, memo=memo)
        result = mechanism.publish(input_dataset)
        out.extend(_evaluate_cells(result, context, mech_label, mech_cells, attack_defaults))
    return out


def _evaluate_cells(
    result: Any,
    context: EvalContext,
    mech_label: str,
    cell_args: Iterable[Tuple],
    attack_defaults: Optional[Dict[str, Any]],
) -> List[Tuple[int, Dict[str, Any]]]:
    """One row per cell of one publication."""
    out: List[Tuple[int, Dict[str, Any]]] = []
    for index, _, attack_label, attack_item, metric_group in cell_args:
        columns: Dict[str, Any] = {}
        stream_fallback = False
        if attack_item is not None:
            name, params, prefix = _pop_prefix(attack_item)
            if (
                attack_defaults is not None
                and "execution" not in params
                and not ATTACKS.declares(name, "execution")
            ):
                stream_fallback = True
                _note_stream_fallback(name)
            attack = ATTACKS.create_parsed(name, params, defaults=attack_defaults)
            run = getattr(attack, "run", None)
            if run is None:
                raise RegistryError(
                    f"attack {attack_label!r} has no run(result, context) method; "
                    "a registered attack factory must build an evaluator such as "
                    "'poi-retrieval', 'reident', 'tracking' or 'zone-census'"
                )
            columns.update(_apply_prefix(run(result, context), prefix))
        for metric_spec in metric_group:
            name, params, prefix = _pop_prefix(metric_spec)
            metric = METRICS.create_parsed(name, params)
            columns.update(_apply_prefix(metric(context.input_dataset, result), prefix))
        row: Dict[str, Any] = {
            "world": context.world_key,
            "seed": context.seed,
            "mechanism": mech_label,
            "attack": attack_label or None,
        }
        if stream_fallback:
            # Row provenance: this cell was requested in stream mode but the
            # evaluator is not streaming-capable, so batch numbers follow.
            row["stream_fallback"] = True
        row.update(columns)
        out.append((index, row))
    return out


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _world_fingerprint(world: Any) -> Tuple:
    """A content fingerprint strong enough to key cached rows by.

    Shape alone (user/point counts, time span) is not enough — two worlds
    differing only in coordinates would alias — so a CRC over a sample of
    the coordinate arrays is included.  Delegates to
    :meth:`~repro.core.trajectory.MobilityDataset.content_fingerprint`,
    which caches the tuple on the dataset after the first computation (and
    reads it from the artifact header for store-backed worlds), so repeated
    ``run`` calls on the same world never re-hash its points.
    """
    return world.dataset.content_fingerprint()


def _plan_groups(units: Mapping[Tuple, List[Dict[str, Any]]]) -> List[List[Tuple]]:
    """Join (world, seed, mechanism) units that share a seedless stage.

    Two units of one (world, seed) share a group when their mechanisms run a
    seedless stage with the same config on their input (see
    :func:`~repro.api.stages.input_stages`), transitively.  Seeds and worlds
    never merge, so a group's stage memo never spans two of them.  Groups
    come in the order of their first unit; units stay in cell order.
    """
    order = list(units)
    parent = list(range(len(order)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    owner: Dict[Tuple, int] = {}
    for i, unit in enumerate(order):
        world_label, seed, _ = unit
        mechanism = make_mechanism(units[unit][0]["mech_item"], defaults={"seed": seed})
        for stage in input_stages(mechanism):
            j = find(owner.setdefault((world_label, seed, stage), i))
            root = find(i)
            parent[max(root, j)] = min(root, j)
    groups: Dict[int, List[Tuple]] = {}
    for i, unit in enumerate(order):
        groups.setdefault(find(i), []).append(unit)
    return list(groups.values())


class EvaluationEngine:
    """Executes :class:`ExperimentSpec` cross products, optionally in parallel.

    Parameters
    ----------
    workers:
        Number of processes.  ``1`` (default) evaluates in-process;
        ``workers > 1`` fans groups out over a :mod:`multiprocessing` pool
        (unless ``backend`` overrides the scheduler).  A group is the
        mechanisms of one (world, seed) that share a seedless stage, or one
        mechanism alone.  Exceptions propagate either way.
    cache:
        Where finished cells live across :meth:`run` calls: ``True`` (an
        in-memory store, the default), ``False`` (off), a spec string
        (``"sqlite:path=cells.sqlite"`` persists cells across processes and
        CI steps), or a :class:`~repro.experiments.cache.CellCacheStore`.
        Cells are keyed by (experiment input, world fingerprint, seed,
        mechanism spec, attack spec, metric group), so re-running a spec —
        or a spec sharing cells with an earlier one — only computes what is
        new.
    backend:
        *How* uncached cell groups execute: ``None`` (serial for
        ``workers=1``, a multiprocessing pool otherwise), a spec string
        (``"serial"``, ``"multiprocessing:workers=4"``,
        ``"work-queue:workers=4"``), or a
        :class:`~repro.experiments.backends.SchedulerBackend`.  Rows come
        back bitwise-identical in deterministic cross-product order
        regardless of backend.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Union[bool, str, CellCacheStore] = True,
        backend: Union[None, str, SchedulerBackend] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.backend = make_backend(backend, default_workers=workers)
        self.cache_store = make_cache_store(cache)
        self.cache_enabled = self.cache_store.enabled
        self.cache_hits = 0
        self.cache_misses = 0

    # -- world resolution -----------------------------------------------------------

    @staticmethod
    def _resolve_worlds(
        spec: ExperimentSpec, worlds: Optional[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        return {
            label: worlds[label] if worlds and label in worlds else make_world(item)
            for label, item in _normalize_axis(spec.worlds, "world")
        }

    # -- cache ----------------------------------------------------------------------

    def _cell_key(
        self, spec: ExperimentSpec, fingerprint: Tuple, cell: Dict[str, Any]
    ) -> Optional[Tuple]:
        if not self.cache_enabled:
            return None
        return (
            spec.input,
            spec.mode,
            cell["world_label"],
            fingerprint,
            cell["seed"],
            cell["mech_label"],
            cell["mech_item"],
            cell["attack_label"],
            cell["attack_item"],
            cell["metric_group"],
        )

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        spec: ExperimentSpec,
        worlds: Optional[Mapping[str, Any]] = None,
    ) -> List[Dict[str, Any]]:
        """Evaluate the spec and return one row per cell, in cell order.

        ``worlds`` maps world-axis labels to pre-built
        :class:`~repro.datagen.mobility.SyntheticWorld` objects; labels not
        in the mapping are built from their spec via :func:`make_world`.
        """
        if spec.mode not in ("batch", "stream"):
            raise RegistryError(
                f"unknown mode {spec.mode!r}; choose 'batch' or 'stream'"
            )
        cells = spec.cells()
        world_objects = self._resolve_worlds(spec, worlds)
        fingerprints = (
            {label: _world_fingerprint(world) for label, world in world_objects.items()}
            if self.cache_enabled
            else {label: () for label in world_objects}
        )
        rows: List[Optional[Dict[str, Any]]] = [None] * len(cells)

        # Serve cached cells; the rest, per (world, seed, mechanism) unit.
        units: Dict[Tuple, List[Dict[str, Any]]] = {}
        pending_keys: Dict[int, Optional[Tuple]] = {}
        for cell in cells:
            key = self._cell_key(spec, fingerprints[cell["world_label"]], cell)
            if key is not None:
                cached = self.cache_store.get(key)
                if cached is not None:
                    rows[cell["index"]] = cached
                    self.cache_hits += 1
                    continue
            self.cache_misses += 1
            pending_keys[cell["index"]] = key
            unit = (cell["world_label"], cell["seed"], cell["mech_index"])
            units.setdefault(unit, []).append(cell)

        payloads: List[Tuple] = []
        for group in _plan_groups(units):
            world_label, seed, _ = group[0]
            mechanisms: List[Tuple[str, str]] = []
            group_cells: List[Tuple] = []
            for position, unit in enumerate(group):
                first = units[unit][0]
                mechanisms.append((first["mech_label"], first["mech_item"]))
                group_cells.extend(
                    (
                        cell["index"],
                        position,
                        cell["attack_label"],
                        cell["attack_item"],
                        cell["metric_group"],
                    )
                    for cell in units[unit]
                )
            payloads.append(
                (
                    world_objects[world_label],
                    world_label,
                    spec.input,
                    seed,
                    spec.mode,
                    tuple(mechanisms),
                    group_cells,
                )
            )

        if payloads:
            # Every backend ships rows back; this loop is the only writer of
            # the cell cache.
            results = self.backend.map_groups(payloads)
            for group_rows in results:
                for index, row in group_rows:
                    rows[index] = row
                    key = pending_keys.get(index)
                    if key is not None:
                        self.cache_store.put(key, row)

        return [row for row in rows if row is not None]

    def clear_cache(self) -> None:
        """Drop all cached cells (and reset the hit/miss counters)."""
        self.cache_store.clear()
        self.cache_hits = 0
        self.cache_misses = 0
